"""The certification service wire protocol: versioned JSON lines.

One frame is one JSON object terminated by a newline.  The client opens the
conversation with a ``hello`` carrying :data:`PROTOCOL_VERSION`; the server
answers with its own version (and the report :data:`~repro.api.report.SCHEMA_VERSION`
it emits) or rejects the connection — explicit versioning on both layers so a
fleet can roll servers and clients independently.  The protocol is
transport-agnostic: the same frames flow over a Unix-domain socket (one
host) or TCP (``repro serve --tcp HOST:PORT``, see :mod:`repro.fleet` for
the multi-host router built on top); :func:`parse_address` tells the two
apart.

Requests are ``{"id": N, "op": <name>, "params": {...}}``, optionally
carrying a correlation id in ``"rid"`` (minor protocol revision 1): the
server binds it for the duration of the operation so structured log events
(:mod:`repro.telemetry.events`) and stored span trees on both sides of the
socket share one request id.  Servers ignore an absent ``rid``; clients
ignore the minor revision of older servers — the field is additive, so the
major version stays 1.  Most operations
answer with a single ``{"id": N, "ok": true, "result": {...}}`` frame (or
``{"id": N, "ok": false, "error": {"type": ..., "message": ...}}``);
``certify_stream`` answers with a sequence of
``{"id": N, "event": "result", "index": i, "result": {...}}`` frames closed
by ``{"id": N, "event": "end", "report": {...}}``, so consumers see verdicts
incrementally exactly like the in-process stream.

Datasets travel either **by reference** (``{"ref": {"name", "scale",
"seed"}}`` — resolved through the benchmark registry server-side, so only a
few bytes cross the socket) or **inline** (``{"inline": {...}}`` — full
arrays for datasets the server has never seen).  Threat models and engine
configurations have small explicit wire forms.

The ``metrics`` op exposes the server process's telemetry registry
(:mod:`repro.telemetry`).  Its payload carries its own
:data:`METRICS_VERSION` — the snapshot schema can evolve (new metric
families, new labels) without a protocol bump, since additions are
backwards-compatible; the version only moves when existing fields change
meaning.  ``params = {"format": "json" | "prometheus"}``; the Prometheus
form is the standard text exposition, relayed verbatim by
``repro metrics --connect --format prometheus`` for scrape sidecars.

The ``trace`` op (``params = {"request_id": ...}``) looks up a completed
span tree in the server's bounded completed-roots ring by the correlation
id stamped on its root — the remote half of ``repro trace REQUEST_ID``.
The server must run with span tracing enabled (``repro serve --trace``)
for trees to be retained.

:data:`OPS` is the one declaration of the operation vocabulary: every op
the daemon serves, and how the fleet router serves each of them.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.dataset import Dataset, FeatureKind
from repro.poisoning.models import (
    CompositePoisoningModel,
    FractionalRemovalModel,
    LabelFlipModel,
    PerturbationModel,
    RemovalPoisoningModel,
)
from repro.telemetry import metrics

#: Version of the framing + operation vocabulary.  Bumped on incompatible
#: changes; servers reject hellos from a different major version.
PROTOCOL_VERSION = 1

#: Additive revision within the major version: 1 added the optional ``rid``
#: request-frame field and the ``trace`` op; 2 added the TCP transport,
#: backend identity (``backend_id`` in the ``hello`` result) and three cache
#: replication ops; 3 removed the three replication ops.  Informational —
#: peers never reject on a minor mismatch.
PROTOCOL_MINOR = 3

#: Version of the ``metrics`` op's snapshot schema (see module docstring).
METRICS_VERSION = 1

#: The operation vocabulary, op name → how a router serves it: ``"local"``
#: (answered by whichever process receives it), ``"shard"`` (relayed to the
#: owner of the request's dataset shard), ``"fanout"`` (run on every live
#: backend, results keyed by backend), ``"stream"`` (relayed as a frame
#: stream that resumes on the next ring node), or ``None`` (the router does
#: not relay it yet).  The daemon serves every op listed here.
OPS: Mapping[str, Optional[str]] = {
    "hello": "local",
    "ping": "local",
    "metrics": "local",
    "stats": "local",
    "shutdown": "local",
    "certify": "shard",
    "max_certified": "shard",
    "pareto_frontier": "shard",
    "pareto_sweep": "shard",
    "cache_stats": "fanout",
    "cache_gc": "fanout",
    "certify_stream": "stream",
    "trace": None,
}

#: Hard bound on one frame (64 MiB): large enough for an inline MNIST-scale
#: dataset, small enough that a garbage byte stream cannot balloon memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Engine-configuration facets that travel over the wire (everything that can
#: change a verdict or a timeout).
ENGINE_CONFIG_FIELDS = (
    "max_depth",
    "domain",
    "cprob_method",
    "timeout_seconds",
    "max_disjuncts",
    "impurity",
)


class ProtocolError(ValueError):
    """A malformed, oversized, or version-incompatible frame."""


class RequestTimeoutError(TimeoutError):
    """A request exceeded the client's per-request timeout.

    Subclasses :class:`TimeoutError` so :func:`repro.telemetry.events.classify_error`
    buckets it as ``timeout`` rather than ``io``.  The connection is left in
    an indeterminate state (the response may still be in flight), so clients
    mark themselves broken after raising it.
    """


class RemoteError(RuntimeError):
    """A server-reported failure, re-raised client-side.

    ``kind`` preserves the server-side exception type name so clients can
    distinguish validation errors from internal faults without parsing the
    message text.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


# ---------------------------------------------------------------- addresses
def parse_address(address: Union[str, Path]) -> Tuple[str, Union[str, Tuple[str, int]]]:
    """Classify a server address as ``("unix", path)`` or ``("tcp", (host, port))``.

    Accepted TCP spellings: ``"host:port"`` (the port all digits, no ``/`` in
    the string — a plain filesystem path never parses as TCP) and an explicit
    ``"tcp://host:port"``.  IPv6 literals use brackets: ``"[::1]:9000"``.
    Everything else — :class:`~pathlib.Path` objects, strings with slashes,
    bare names — is a Unix-socket path.
    """
    if isinstance(address, Path):
        return ("unix", str(address))
    text = str(address)
    if text.startswith("unix://"):
        return ("unix", text[len("unix://") :])
    explicit = text.startswith("tcp://")
    if explicit:
        text = text[len("tcp://") :]
    elif "/" in text:
        return ("unix", text)
    host, sep, port = text.rpartition(":")
    if sep and host and port.isdigit():
        if host.startswith("[") and host.endswith("]"):
            host = host[1:-1]
        return ("tcp", (host, int(port)))
    if explicit:
        raise ProtocolError(f"malformed tcp:// address {address!r}")
    return ("unix", text)


def format_address(address: Union[str, Path, Tuple[str, int]]) -> str:
    """Canonical display form of an address (``host:port`` or the path)."""
    if isinstance(address, tuple):
        host, port = address
        if ":" in host:
            return f"[{host}]:{port}"
        return f"{host}:{port}"
    family, parsed = parse_address(address)
    if family == "tcp":
        return format_address(parsed)  # type: ignore[arg-type]
    return str(parsed)


# ------------------------------------------------------------------ framing
def encode_frame(payload: Mapping) -> bytes:
    """Serialize one frame (compact JSON + newline terminator)."""
    line = json.dumps(payload, separators=(",", ":"), allow_nan=False).encode()
    if len(line) + 1 > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds {MAX_FRAME_BYTES}")
    return line + b"\n"


def read_frame(reader: io.BufferedIOBase) -> Optional[dict]:
    """Read one frame; ``None`` on a clean EOF before any bytes arrive."""
    line = reader.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    if not line.endswith(b"\n"):
        raise ProtocolError("connection closed mid-frame")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"frame is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(payload).__name__}")
    return payload


# ------------------------------------------------------------------ metrics
def metrics_payload(fmt: str = "json") -> dict:
    """This process's telemetry registry in the ``metrics`` op's wire form.

    ``fmt="json"`` carries the structured snapshot under ``"metrics"``;
    ``fmt="prometheus"`` carries the text exposition under ``"prometheus"``.
    """
    registry = metrics.get_registry()
    payload: dict = {"metrics_version": METRICS_VERSION, "format": fmt}
    if fmt == "prometheus":
        payload["prometheus"] = registry.to_prometheus()
    elif fmt == "json":
        payload["metrics"] = registry.snapshot()
    else:
        raise ProtocolError(f"unknown metrics format {fmt!r}; use 'json' or 'prometheus'")
    return payload


# ----------------------------------------------------------------- datasets
def dataset_to_wire(dataset: Union[Dataset, Mapping]) -> dict:
    """Wire form of a dataset: inline for :class:`Dataset`, ref for mappings.

    A mapping with a ``name`` key is a registry reference
    (``{"name": "iris", "scale": 0.3, "seed": 0}``); the server resolves it
    through :func:`repro.datasets.registry.load_dataset` and certifies
    against the *training* split — byte-identical to what the same reference
    loads client-side, because dataset generation is seed-deterministic.
    """
    if isinstance(dataset, Dataset):
        return {
            "inline": {
                "name": dataset.name,
                "X": dataset.X.tolist(),
                "y": dataset.y.tolist(),
                "n_classes": dataset.n_classes,
                "feature_kinds": [kind.value for kind in dataset.feature_kinds],
                "feature_names": list(dataset.feature_names),
                "class_names": list(dataset.class_names),
            }
        }
    if isinstance(dataset, Mapping) and "name" in dataset:
        ref = {"name": str(dataset["name"])}
        if dataset.get("scale") is not None:
            ref["scale"] = float(dataset["scale"])
        if dataset.get("seed") is not None:
            ref["seed"] = int(dataset["seed"])
        return {"ref": ref}
    raise ProtocolError(
        "dataset must be a repro Dataset (sent inline) or a registry "
        "reference mapping with a 'name' key"
    )


def dataset_from_wire(payload: Mapping) -> Dataset:
    """Decode a dataset wire form (resolving registry references)."""
    if "ref" in payload:
        # Deferred import: the registry pulls in every benchmark generator.
        from repro.datasets.registry import load_dataset

        ref = payload["ref"]
        split = load_dataset(
            str(ref["name"]),
            scale=ref.get("scale"),
            seed=int(ref.get("seed", 0)),
        )
        return split.train
    if "inline" in payload:
        inline = payload["inline"]
        return Dataset(
            X=np.asarray(inline["X"], dtype=float),
            y=np.asarray(inline["y"], dtype=np.int64),
            n_classes=int(inline.get("n_classes", 0)),
            feature_kinds=tuple(
                FeatureKind(kind) for kind in inline.get("feature_kinds", ())
            ),
            feature_names=tuple(inline.get("feature_names", ())),
            class_names=tuple(inline.get("class_names", ())),
            name=str(inline.get("name", "dataset")),
        )
    raise ProtocolError("dataset payload must carry 'ref' or 'inline'")


# ------------------------------------------------------------------- models
def model_to_wire(model: Optional[PerturbationModel]) -> Optional[dict]:
    """Wire form of a threat model (``None`` passes through for templates)."""
    if model is None:
        return None
    if isinstance(model, RemovalPoisoningModel):
        return {"family": "removal", "n": model.n}
    if isinstance(model, FractionalRemovalModel):
        return {"family": "fraction", "fraction": model.fraction}
    if isinstance(model, CompositePoisoningModel):
        return {
            "family": "composite",
            "n_remove": model.n_remove,
            "n_flip": model.n_flip,
            "n_classes": model.n_classes,
        }
    if isinstance(model, LabelFlipModel):
        return {"family": "label-flip", "n": model.n, "n_classes": model.n_classes}
    raise ProtocolError(
        f"threat model {type(model).__name__} has no wire representation"
    )


def model_from_wire(payload: Optional[Mapping]) -> Optional[PerturbationModel]:
    """Decode a threat-model wire form (``None`` passes through)."""
    if payload is None:
        return None
    family = payload.get("family")
    if family == "removal":
        return RemovalPoisoningModel(int(payload["n"]))
    if family == "fraction":
        return FractionalRemovalModel(float(payload["fraction"]))
    if family == "label-flip":
        classes = payload.get("n_classes")
        return LabelFlipModel(
            int(payload["n"]), n_classes=None if classes is None else int(classes)
        )
    if family == "composite":
        classes = payload.get("n_classes")
        return CompositePoisoningModel(
            int(payload["n_remove"]),
            int(payload["n_flip"]),
            n_classes=None if classes is None else int(classes),
        )
    raise ProtocolError(f"unknown threat-model family {family!r}")


# ------------------------------------------------------------ engine config
def engine_config_to_wire(**config: object) -> dict:
    """Validate and normalize engine-configuration keyword arguments."""
    unknown = set(config) - set(ENGINE_CONFIG_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown engine configuration field(s): {sorted(unknown)}; "
            f"the wire form supports {ENGINE_CONFIG_FIELDS}"
        )
    return {key: value for key, value in config.items() if value is not None}


def engine_config_from_wire(payload: Optional[Mapping]) -> dict:
    """Decode an engine configuration into ``CertificationEngine`` kwargs."""
    return engine_config_to_wire(**dict(payload or {}))
