"""Client for the certification service: the engine surface, remoted.

:class:`CertificationClient` connects to a :class:`~repro.service.server.CertificationServer`
socket and exposes the same verbs as a local
:class:`~repro.api.CertificationEngine` bound to a
:class:`~repro.runtime.CertificationRuntime` — ``verify`` / ``certify_batch``
/ ``certify_stream`` / ``certify_point`` / ``max_certified`` /
``pareto_frontier`` / ``pareto_sweep`` — plus the service-management verbs
(``cache_stats``, ``cache_gc``, ``server_stats``, ``ping``, ``shutdown``).
Results decode into the same types the in-process API returns
(:class:`~repro.verify.result.VerificationResult`,
:class:`~repro.api.report.CertificationReport`,
:class:`~repro.verify.search.PoisoningSearchResult`,
:class:`~repro.verify.search.ParetoFrontierResult`), so callers can swap a
local engine for a remote one without touching downstream code.  A decoded
search result carries every count of the in-process one, but no per-probe
``results``: those stay on the server.

The engine configuration (depth, domain, timeout, …) is fixed per client and
sent with every request; the server keeps one warm engine per distinct
configuration.  Datasets can be passed as :class:`~repro.core.dataset.Dataset`
objects (shipped inline) or as registry references
(``{"name": "iris", "scale": 0.3, "seed": 0}`` — a few bytes on the wire,
resolved server-side).

One client owns one connection and serializes its requests on it; use one
client per thread for concurrent traffic (connections are cheap — the
expensive state lives server-side).  The connection is a Unix-domain socket
(same host) or TCP (``host:port`` — fleet serving, see :mod:`repro.fleet`);
the address form picks the transport.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import closing
from pathlib import Path
from typing import Iterator, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.api.report import CertificationReport
from repro.api.request import CertificationRequest, ModelLike, as_perturbation_model
from repro.core.dataset import Dataset
from repro.poisoning.models import PerturbationModel
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteError,
    RequestTimeoutError,
    dataset_to_wire,
    encode_frame,
    engine_config_to_wire,
    format_address,
    model_to_wire,
    parse_address,
    read_frame,
)
from repro.telemetry import events
from repro.verify.result import VerificationResult
from repro.verify.search import ParetoFrontierResult, PoisoningSearchResult

#: Anything accepted where a dataset is expected: a Dataset (sent inline) or
#: a registry reference mapping (``{"name": ..., "scale": ..., "seed": ...}``).
DatasetLike = Union[Dataset, Mapping]


def wait_for_server(
    socket_path: Union[str, Path], *, timeout: float = 10.0, interval: float = 0.05
) -> None:
    """Block until a server answers a ping on ``socket_path`` (or raise).

    The bring-up helper for scripts that fork a daemon and immediately
    connect: retries until the socket exists *and* completes a hello/ping
    exchange, so a half-bound server never races the first real request.
    Accepts Unix-socket paths and ``host:port`` TCP addresses alike.
    """
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with CertificationClient(socket_path, connect_retries=0) as client:
                client.ping()
                return
        except (OSError, ProtocolError, RemoteError) as error:
            last_error = error
            time.sleep(interval)
    raise TimeoutError(
        f"no certification server answered on {socket_path} within {timeout}s"
        + (f" (last error: {last_error})" if last_error else "")
    )


class CertificationClient:
    """Certify against a remote warm runtime over a Unix or TCP socket.

    ``socket_path`` is a filesystem path (Unix-domain socket) or a
    ``host:port`` / ``tcp://host:port`` address (see
    :func:`~repro.service.protocol.parse_address`).  Accepts the same
    engine-configuration keywords as
    :class:`~repro.api.CertificationEngine` (``max_depth``, ``domain``,
    ``cprob_method``, ``timeout_seconds``, ``max_disjuncts``, ``impurity``);
    they select (or create) the matching warm engine server-side.

    ``request_timeout`` bounds every request/response round trip after the
    handshake (certification calls can legitimately take minutes, so the
    default is unbounded).  On expiry the client raises
    :class:`~repro.service.protocol.RequestTimeoutError` and marks itself
    ``broken`` — the response may still be in flight, so the connection
    cannot be reused.  ``connect_retries`` retries refused/absent endpoints
    with exponential backoff so a restarting fleet does not fail fast-path
    callers.
    """

    def __init__(
        self,
        socket_path: Union[str, Path],
        *,
        connect_timeout: float = 10.0,
        connect_retries: int = 3,
        request_timeout: Optional[float] = None,
        **engine_config: object,
    ) -> None:
        family, target = parse_address(socket_path)
        self.address = format_address(socket_path)
        self.socket_path: Optional[Path] = (
            Path(target) if family == "unix" else None  # type: ignore[arg-type]
        )
        self._engine_config = engine_config_to_wire(**engine_config)
        self._request_timeout = request_timeout
        self._lock = threading.Lock()
        self._next_id = 0
        self._broken = False
        self._sock = self._connect(family, target, connect_timeout, connect_retries)
        # The connect timeout keeps guarding the hello round trip; the
        # per-request timeout (if any) takes over once the handshake is done.
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")
        try:
            self.server_info = self._call("hello", {"protocol": PROTOCOL_VERSION})
        except BaseException:
            # A failed handshake (version mismatch, non-repro listener) must
            # not leak the connected socket — retry loops like
            # wait_for_server would exhaust the fd limit otherwise.
            self.close()
            raise
        self._sock.settimeout(request_timeout)

    @staticmethod
    def _connect(
        family: str,
        target: object,
        connect_timeout: float,
        connect_retries: int,
    ) -> socket.socket:
        """Connect with exponential backoff on refused/absent endpoints.

        Only ``ConnectionRefusedError`` and ``FileNotFoundError`` retry —
        both mean "the server is not (yet) there", the transient state during
        a fleet restart.  Every other ``OSError`` (permission, unreachable
        network, …) propagates immediately.  Each attempt uses a fresh
        socket; a failed ``connect`` leaves the old one unusable.
        """
        backoff = 0.05
        attempt = 0
        while True:
            if family == "tcp":
                host, port = target  # type: ignore[misc]
                sock = socket.socket(socket.AF_INET6 if ":" in host else socket.AF_INET)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
                endpoint: object = (host, port)
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                endpoint = str(target)
            sock.settimeout(connect_timeout)
            try:
                sock.connect(endpoint)  # type: ignore[arg-type]
                return sock
            except (ConnectionRefusedError, FileNotFoundError):
                sock.close()
                attempt += 1
                if attempt > connect_retries:
                    raise
                time.sleep(backoff)
                backoff *= 2
            except OSError:
                sock.close()
                raise

    @property
    def broken(self) -> bool:
        """True once a timeout/protocol fault desynchronized the connection."""
        return self._broken

    # ------------------------------------------------------------- transport
    def _call(self, op: str, params: Optional[dict] = None) -> dict:
        """One request/response round trip (thread-safe, serialized)."""
        started = time.perf_counter()
        with self._lock:
            frame = self._send(op, params)
            response = self._read_frame(op)
        try:
            result = self._unwrap(frame["id"], response)
        except Exception as error:
            if isinstance(error, (OSError, ProtocolError)):
                self._broken = True
            events.emit(
                "client.request",
                op=op,
                seconds=time.perf_counter() - started,
                outcome="error",
                error_kind=events.classify_error(error),
            )
            raise
        events.emit(
            "client.request",
            op=op,
            seconds=time.perf_counter() - started,
            outcome="ok",
        )
        return result

    def _send(self, op: str, params: Optional[dict]) -> dict:
        self._next_id += 1
        frame = {"id": self._next_id, "op": op, "params": params or {}}
        # Protocol minor 1: propagate the thread's correlation id so both
        # sides of the socket log (and trace) under one request id.
        rid = events.current_request_id()
        if rid is not None:
            frame["rid"] = rid
        self._writer.write(encode_frame(frame))
        self._writer.flush()
        return frame

    def _read_frame(self, op: str) -> Optional[dict]:
        """One frame, with the per-request timeout mapped onto the taxonomy.

        A timed-out read leaves the buffered reader mid-frame, so the client
        marks itself broken: the next caller must reconnect rather than read
        a stale half response.  (``socket.timeout`` is ``TimeoutError`` on
        every supported Python.)
        """
        try:
            return read_frame(self._reader)
        except TimeoutError as error:
            self._broken = True
            raise RequestTimeoutError(
                f"no response to {op!r} from {self.address} within "
                f"{self._request_timeout}s"
            ) from error
        except ProtocolError:
            self._broken = True
            raise

    @staticmethod
    def _unwrap(request_id: int, response: Optional[dict]) -> dict:
        if response is None:
            raise ProtocolError("server closed the connection mid-request")
        if response.get("id") not in (None, request_id):
            raise ProtocolError(
                f"response id {response.get('id')} does not match request "
                f"{request_id}"
            )
        if response.get("ok"):
            return response.get("result") or {}
        error = response.get("error") or {}
        raise RemoteError(
            str(error.get("type", "RemoteError")), str(error.get("message", ""))
        )

    def close(self) -> None:
        with self._lock:
            try:
                self._reader.close()
                self._writer.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self._sock.close()

    def __enter__(self) -> "CertificationClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------- raw relay surface
    def call(self, op: str, params: Optional[dict] = None) -> dict:
        """One raw protocol round trip; ``params`` pass through verbatim.

        The fleet router's relay primitive: it forwards request frames
        without decoding datasets or results.  Raises
        :class:`~repro.service.protocol.RemoteError` on server-reported
        failures and transport errors
        (:class:`~repro.service.protocol.RequestTimeoutError`, OSError,
        ProtocolError) on a dead/hung connection.
        """
        return self._call(op, params)

    def stream_frames(self, op: str, params: Optional[dict] = None) -> Iterator[dict]:
        """Yield the raw frames of a streaming op (through the ``end`` frame).

        Frames pass through verbatim — ``result`` frames, the closing ``end``
        frame, and server *error* frames (``ok: false``, yielded rather than
        raised so a relay can forward them; :meth:`certify_stream` decodes
        them).  Transport faults raise and mark the client broken.
        """
        with self._lock:
            self._send(op, params)
            drained = False
            try:
                while True:
                    response = self._read_frame(op)
                    if response is None:
                        drained = True
                        self._broken = True
                        raise ProtocolError("server closed the connection mid-stream")
                    if response.get("ok") is False:
                        drained = True
                        yield response
                        return
                    event = response.get("event")
                    if event == "result":
                        yield response
                    elif event == "end":
                        drained = True
                        yield response
                        return
                    else:
                        drained = True
                        raise ProtocolError(f"unexpected stream frame: {response}")
            finally:
                # A consumer that abandons the stream mid-way must not leave
                # unread frames to desynchronize the next request.  A broken
                # connection cannot be resynchronized, so don't try.
                while not drained and not self._broken:
                    try:
                        response = read_frame(self._reader)
                    except (OSError, ProtocolError):
                        self._broken = True
                        break
                    if response is None or response.get("event") == "end" or (
                        response.get("ok") is False
                    ):
                        drained = True

    # ------------------------------------------------------- the engine verbs
    def verify(
        self, request: CertificationRequest, *, n_jobs: int = 1
    ) -> CertificationReport:
        """Solve one certification request on the server; aggregate report."""
        return self.certify_batch(
            request.dataset, request.points, request.model, n_jobs=n_jobs
        )

    def certify_batch(
        self,
        dataset: DatasetLike,
        points: np.ndarray,
        model: ModelLike,
        *,
        n_jobs: int = 1,
    ) -> CertificationReport:
        """Certify every row of ``points`` against ``model`` on the server."""
        result = self._call("certify", self._certify_params(dataset, points, model, n_jobs))
        return CertificationReport.from_dict(result["report"])

    def certify_stream(
        self,
        dataset: DatasetLike,
        points: np.ndarray,
        model: ModelLike,
        *,
        n_jobs: int = 1,
    ) -> Iterator[VerificationResult]:
        """Yield per-point verdicts as the server streams them, in order.

        The connection is held for the duration of the stream; other calls on
        this client block until it is drained (use one client per concurrent
        stream).
        """
        params = self._certify_params(dataset, points, model, n_jobs)
        with closing(self.stream_frames("certify_stream", params)) as frames:
            for frame in frames:
                if frame.get("event") == "result":
                    yield VerificationResult.from_dict(frame["result"])
                elif frame.get("ok") is False:
                    self._unwrap(frame.get("id"), frame)

    def certify_point(
        self, dataset: DatasetLike, x: Sequence[float], model: ModelLike
    ) -> VerificationResult:
        """Certify a single test point on the server."""
        report = self.certify_batch(
            dataset, np.asarray(x, dtype=float).reshape(1, -1), model
        )
        return report.results[0]

    def max_certified(
        self,
        dataset: DatasetLike,
        x: Sequence[float],
        *,
        model: Optional[PerturbationModel] = None,
        start: int = 1,
        max_budget: Optional[int] = None,
    ) -> PoisoningSearchResult:
        """The §6.1 certified-budget search, probed through the server cache."""
        result = self._call(
            "max_certified",
            {
                "engine": self._engine_config,
                "dataset": dataset_to_wire(dataset),
                "point": np.asarray(x, dtype=float).tolist(),
                "model": model_to_wire(model),
                "start": start,
                "max_budget": max_budget,
            },
        )
        return PoisoningSearchResult.from_dict(result)

    def pareto_frontier(
        self,
        dataset: DatasetLike,
        x: Sequence[float],
        *,
        max_remove: Optional[int] = None,
        max_flip: Optional[int] = None,
        model: Optional[PerturbationModel] = None,
    ) -> ParetoFrontierResult:
        """Maximal certified ``(n_remove, n_flip)`` pairs of one point."""
        result = self._call(
            "pareto_frontier",
            {
                "engine": self._engine_config,
                "dataset": dataset_to_wire(dataset),
                "point": np.asarray(x, dtype=float).tolist(),
                "max_remove": max_remove,
                "max_flip": max_flip,
                "model": model_to_wire(model),
            },
        )
        return ParetoFrontierResult.from_dict(result)

    def pareto_sweep(
        self,
        dataset: DatasetLike,
        points: np.ndarray,
        *,
        max_remove: Optional[int] = None,
        max_flip: Optional[int] = None,
        model: Optional[PerturbationModel] = None,
    ) -> List[ParetoFrontierResult]:
        """Per-point Pareto frontiers for a batch of test points."""
        result = self._call(
            "pareto_sweep",
            {
                "engine": self._engine_config,
                "dataset": dataset_to_wire(dataset),
                "points": np.asarray(points, dtype=float).tolist(),
                "max_remove": max_remove,
                "max_flip": max_flip,
                "model": model_to_wire(model),
            },
        )
        return [ParetoFrontierResult.from_dict(entry) for entry in result["outcomes"]]

    # ------------------------------------------------------------ management
    def ping(self) -> dict:
        return self._call("ping")

    def cache_stats(self) -> dict:
        """Verdict-cache statistics + lifetime runtime counters of the server."""
        return self._call("cache_stats")

    def cache_gc(
        self,
        *,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> dict:
        """Run cache eviction server-side; returns the eviction summary."""
        return self._call(
            "cache_gc",
            {"max_bytes": max_bytes, "max_age": max_age, "max_entries": max_entries},
        )

    def server_stats(self) -> dict:
        """Server-level counters: uptime, engines, scheduler coalescing."""
        return self._call("stats")

    def metrics(self, *, format: str = "json") -> dict:
        """The server process's telemetry registry (the ``metrics`` op).

        ``format="json"`` returns ``{"metrics_version", "metrics": {...}}``;
        ``format="prometheus"`` returns the text exposition under a
        ``"prometheus"`` key instead.
        """
        return self._call("metrics", {"format": format})

    def trace(self, request_id: str) -> dict:
        """Fetch a stored span tree by correlation id (the ``trace`` op).

        Requires the server to run with span tracing enabled
        (``repro serve --trace``); raises :class:`RemoteError` when the id is
        unknown or tracing is off.
        """
        return self._call("trace", {"request_id": request_id})

    def shutdown(self) -> dict:
        """Ask the server to stop serving (it answers before stopping)."""
        return self._call("shutdown")

    # --------------------------------------------------------------- helpers
    def _certify_params(
        self, dataset: DatasetLike, points: np.ndarray, model: ModelLike, n_jobs: int
    ) -> dict:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        return {
            "engine": self._engine_config,
            "dataset": dataset_to_wire(dataset),
            "points": points.tolist(),
            "model": model_to_wire(as_perturbation_model(model)),
            "n_jobs": n_jobs,
        }
