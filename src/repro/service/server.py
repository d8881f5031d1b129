"""The certification daemon: one warm runtime serving many clients.

:class:`CertificationServer` binds a Unix-domain socket (or, with
``tcp="HOST:PORT"``, a TCP socket — the fleet transport) and serves the
JSON-lines protocol of :mod:`repro.service.protocol` from one long-lived
:class:`~repro.runtime.CertificationRuntime`:

* datasets are decoded **once** (by content) and kept in a small LRU, so
  repeat requests skip array decoding (pool workers inherit them by fork);
* engines are held in a small LRU keyed by their wire configuration, so
  request plans (the per-(dataset, model) initial abstractions) stay warm
  across requests;
* the persistent verdict cache is open for the server's lifetime — a second
  identical batch from any client answers with **zero** learner invocations;
* concurrent requests flow through each engine's
  :class:`~repro.api.scheduler.CertificationScheduler`, so N clients asking
  the same in-flight question cost one learner invocation per distinct point.

The serving skeleton is :class:`FrameServer`, shared with the fleet router
(:class:`~repro.fleet.router.CertificationRouter`): the two transports, one
thread per client connection (:class:`socketserver.ThreadingMixIn`), the
frame loop that turns failures into error frames, bind (a stale Unix socket
file is reclaimed, a live one is refused), ``SIGTERM``/``SIGINT`` shutdown
(socket file removed, then the subclass's teardown — here: drain in-flight
operations, commit and close the cache), and the ``hello``, ``ping``,
``metrics`` and ``stats`` ops.

For fleet serving (see :mod:`repro.fleet`) the server binds TCP instead and
reports its bound address as ``backend_id`` in ``hello``, the name a router
places on its hash ring.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import socket
import socketserver
import tempfile
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, Tuple, Union

import numpy as np

import repro
from repro.api.engine import CertificationEngine
from repro.api.report import SCHEMA_VERSION
from repro.api.request import CertificationRequest
from repro.core.dataset import Dataset
from repro.runtime.fingerprint import fingerprint_dataset
from repro.runtime.runtime import CertificationRuntime
from repro.service.protocol import (
    OPS,
    PROTOCOL_MINOR,
    PROTOCOL_VERSION,
    ProtocolError,
    dataset_from_wire,
    encode_frame,
    engine_config_from_wire,
    format_address,
    metrics_payload,
    model_from_wire,
    parse_address,
    read_frame,
)
from repro.telemetry import events, metrics, tracing
from repro.utils.validation import ValidationError

_OP_REQUESTS = metrics.counter(
    "server_requests_total", "Protocol operations served.", labelnames=("op",)
)
_OP_SECONDS = metrics.histogram(
    "server_op_seconds",
    "Wall seconds per protocol operation (request frame to response frame).",
    labelnames=("op",),
)


class _ThreadingUnixServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    #: Set at bind time so handlers can reach the serving object.
    frame_server: "FrameServer"


class _ThreadingTCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    """The fleet transport: the same handler over TCP.

    ``allow_reuse_address`` lets a restarted backend rebind its port while
    old connections linger in TIME_WAIT — the normal state right after a
    failover.
    """

    daemon_threads = True
    allow_reuse_address = True
    frame_server: "FrameServer"


class _ClientHandler(socketserver.StreamRequestHandler):
    """One connection: read request frames, dispatch, write response frames."""

    def setup(self) -> None:
        # TCP connections get keepalive (detect silently-dead routers/clients
        # under long certifications) and no Nagle delay (frames are small and
        # latency-sensitive); both are meaningless on AF_UNIX.
        if self.request.family in (socket.AF_INET, socket.AF_INET6):
            self.request.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        super().setup()

    def handle(self) -> None:  # pragma: no cover - exercised via socket tests
        server: FrameServer = self.server.frame_server
        while True:
            try:
                frame = read_frame(self.rfile)
            except ProtocolError as error:
                self._write({"ok": False, "error": _error_payload(error)})
                return
            if frame is None:
                return
            request_id = frame.get("id")
            op = frame.get("op")
            params = frame.get("params") or {}
            # The optional correlation id (protocol minor 1).  Binding it to
            # this handler thread lets every event, metric merge, and root
            # span under this operation carry the id the client minted.
            rid = frame.get("rid")
            try:
                with events.bind_request(rid if isinstance(rid, str) else None):
                    if op == "certify_stream":
                        server.stream(request_id, params, self._write)
                    elif op == "shutdown":
                        self._write({"id": request_id, "ok": True, "result": {"stopping": True}})
                        server.request_shutdown()
                        return
                    else:
                        result = server.dispatch(op, params)
                        self._write({"id": request_id, "ok": True, "result": result})
            except BrokenPipeError:
                return
            except Exception as error:  # noqa: BLE001 - protocol boundary
                try:
                    self._write(
                        {"id": request_id, "ok": False, "error": _error_payload(error)}
                    )
                except BrokenPipeError:
                    return

    def _write(self, payload: dict) -> None:
        self.wfile.write(encode_frame(payload))
        self.wfile.flush()


def _error_payload(error: BaseException) -> dict:
    return {"type": type(error).__name__, "message": str(error)}


#: Writes one response frame to the requesting connection.
FrameWriter = Callable[[dict], None]


class FrameServer:
    """The serving skeleton of the daemon and the fleet router.

    Binds a Unix-domain socket (``socket_path``; a stale socket file left by
    a killed process is replaced, a *live* one raises) or a TCP address
    (``tcp="HOST:PORT"`` or ``(host, port)``; port 0 picks a free port,
    readable from :attr:`tcp_address` after :meth:`start`) — exactly one of
    the two.  Every connection runs one frame loop; ``shutdown`` is answered
    here, ``certify_stream`` goes to :meth:`stream`, and every other op to
    :meth:`dispatch`, whose failures become error frames.

    Subclasses supply :meth:`dispatch`, :meth:`stream`, :meth:`hello_extras`,
    :meth:`stats` and :meth:`_teardown`; ``hello``, ``ping``, ``metrics`` and
    ``stats`` are answered by :data:`_LOCAL_OPS`.
    """

    #: Who answers: named in errors and in the serve thread's name.
    role = "server"
    #: The ops this end serves; the unknown-op error lists them.
    served_ops = frozenset(OPS)

    def __init__(
        self,
        socket_path: Optional[Union[str, Path]],
        tcp: Optional[Union[str, Tuple[str, int]]],
    ) -> None:
        if (socket_path is None) == (tcp is None):
            raise ValidationError(
                "exactly one of socket_path (Unix transport) and tcp "
                "(fleet transport) must be given"
            )
        self.socket_path = None if socket_path is None else Path(socket_path)
        self._tcp_target: Optional[Tuple[str, int]] = None
        if tcp is not None:
            if isinstance(tcp, tuple):
                self._tcp_target = (str(tcp[0]), int(tcp[1]))
            else:
                family, parsed = parse_address(f"tcp://{tcp}" if "://" not in str(tcp) else str(tcp))
                if family != "tcp":
                    raise ValidationError(f"malformed tcp address {tcp!r}")
                self._tcp_target = parsed  # type: ignore[assignment]
        #: The bound TCP (host, port) — set at bind time (port 0 resolves).
        self.tcp_address: Optional[Tuple[str, int]] = None
        self._server: Optional[Union[_ThreadingUnixServer, _ThreadingTCPServer]] = None
        self._serve_thread: Optional[threading.Thread] = None
        # Monotonic, not wall clock: uptime must never go negative or jump
        # when NTP steps the system clock.
        self._started_at = time.monotonic()

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Bind the socket and serve on a background thread (for embedding)."""
        self._bind()
        thread = threading.Thread(
            target=self._server.serve_forever, name=f"repro-{self.role}", daemon=True
        )
        thread.start()
        self._serve_thread = thread

    def serve_forever(self, *, install_signal_handlers: bool = True) -> None:
        """Bind the socket and serve until :meth:`request_shutdown` (CLI mode)."""
        self._bind()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, self._signal_shutdown)
        try:
            self._server.serve_forever()
        finally:
            self.close()

    @property
    def address(self) -> str:
        """The connectable address: the socket path, or ``host:port`` once bound."""
        if self.socket_path is not None:
            return str(self.socket_path)
        if self.tcp_address is not None:
            return format_address(self.tcp_address)
        return format_address(self._tcp_target)  # type: ignore[arg-type]

    def _bind(self) -> None:
        if self._server is not None:
            raise RuntimeError(f"{self.role} already started")
        server: Union[_ThreadingUnixServer, _ThreadingTCPServer]
        if self._tcp_target is not None:
            server = _ThreadingTCPServer(self._tcp_target, _ClientHandler)
            host, port = server.server_address[:2]
            self.tcp_address = (str(host), int(port))
        else:
            assert self.socket_path is not None
            self._remove_stale_socket()
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            server = _ThreadingUnixServer(str(self.socket_path), _ClientHandler)
        server.frame_server = self
        self._server = server
        self._started_at = time.monotonic()

    def _remove_stale_socket(self) -> None:
        if self.socket_path is None or not self.socket_path.exists():
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(0.5)
            probe.connect(str(self.socket_path))
        except OSError:
            # Nothing listening: a leftover from a killed process; reclaim it.
            self.socket_path.unlink(missing_ok=True)
        else:
            raise RuntimeError(
                f"another server is already listening on {self.socket_path}"
            )
        finally:
            probe.close()

    def _signal_shutdown(self, signum, frame) -> None:  # pragma: no cover - signals
        del frame
        self.request_shutdown()

    def request_shutdown(self) -> None:
        """Stop serving (idempotent; safe to call from handler threads/signals).

        ``BaseServer.shutdown`` blocks until the serve loop exits, so it must
        run on a thread that is *not* the serve loop (nor a signal handler
        interrupting it).
        """
        server = self._server
        if server is None:
            return
        threading.Thread(target=server.shutdown, daemon=True).start()

    def close(self) -> None:
        """Tear down: stop serving, remove the socket file, then :meth:`_teardown`."""
        server, self._server = self._server, None
        if server is not None:
            if self._serve_thread is not None:
                # Background mode: the serve loop is still running; stop it.
                # (Foreground serve_forever reaches close() only after its
                # loop has already exited, where shutdown() could deadlock.)
                server.shutdown()
            server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        if server is not None and self.socket_path is not None:
            # Only the process that bound the path removes it: a failed
            # start must not unlink a live peer's socket.
            self.socket_path.unlink(missing_ok=True)
        self._teardown()

    def _teardown(self) -> None:
        """Release what the subclass holds, after the listener is gone."""

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------- ops
    def dispatch(self, op: Optional[str], params: dict) -> dict:
        """Execute one non-streaming operation; returns the result payload."""
        raise NotImplementedError

    def stream(self, request_id: object, params: dict, write: FrameWriter) -> None:
        """Serve ``certify_stream``: ``result`` frames, then one ``end`` frame."""
        raise NotImplementedError

    def hello_extras(self) -> dict:
        """Fields this end adds to the common ``hello`` answer."""
        return {}

    def stats(self) -> dict:
        """The ``stats`` op's answer."""
        raise NotImplementedError

    def _unknown_op(self, op: Optional[str]) -> ProtocolError:
        return ProtocolError(
            f"unknown operation {op!r}; supported: {sorted(self.served_ops)}"
        )

    def _op_hello(self, params: dict) -> dict:
        requested = int(params.get("protocol", PROTOCOL_VERSION))
        if requested != PROTOCOL_VERSION:
            raise ProtocolError(
                f"client speaks protocol {requested}, {self.role} speaks "
                f"{PROTOCOL_VERSION}"
            )
        return {
            "protocol": PROTOCOL_VERSION,
            "protocol_minor": PROTOCOL_MINOR,
            "schema_version": SCHEMA_VERSION,
            "server_version": repro.__version__,
            "pid": os.getpid(),
            **self.hello_extras(),
        }

    def _op_ping(self, params: dict) -> dict:
        del params
        return {"pong": True, "uptime_seconds": time.monotonic() - self._started_at}

    def _op_metrics(self, params: dict) -> dict:
        """This process's metrics registry (see :func:`~repro.service.protocol.metrics_payload`).

        ``format="prometheus"`` returns the text exposition, which the CLI's
        ``repro metrics --connect`` relays verbatim so a scrape sidecar needs
        no knowledge of the snapshot schema.
        """
        return metrics_payload(str(params.get("format", "json")))

    def _op_stats(self, params: dict) -> dict:
        del params
        return self.stats()

    _LOCAL_OPS = {
        "hello": _op_hello,
        "ping": _op_ping,
        "metrics": _op_metrics,
        "stats": _op_stats,
    }


class CertificationServer(FrameServer):
    """Serve certification requests over a Unix or TCP socket from a warm runtime.

    Parameters
    ----------
    socket_path / tcp:
        Where to listen: a Unix-domain socket path, or a ``"HOST:PORT"`` TCP
        address (the fleet transport) — exactly one; see :class:`FrameServer`.
    cache_dir:
        Directory of the persistent verdict cache.  ``None`` creates an
        ephemeral cache for the server's lifetime — warm-cache semantics
        still hold across requests, but verdicts die with the server.
    max_engines / max_datasets:
        Bounds of the engine-configuration and decoded-dataset LRUs.
    """

    def __init__(
        self,
        socket_path: Optional[Union[str, Path]] = None,
        *,
        tcp: Optional[Union[str, Tuple[str, int]]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        max_engines: int = 8,
        max_datasets: int = 16,
    ) -> None:
        super().__init__(socket_path, tcp)
        self._ephemeral_cache: Optional[tempfile.TemporaryDirectory] = None
        if cache_dir is None:
            self._ephemeral_cache = tempfile.TemporaryDirectory(prefix="repro-serve-")
            cache_dir = self._ephemeral_cache.name
        self.runtime = CertificationRuntime(cache_dir)
        self.max_engines = max_engines
        self.max_datasets = max_datasets
        self._engines: "OrderedDict[tuple, CertificationEngine]" = OrderedDict()
        self._datasets: "OrderedDict[str, Dataset]" = OrderedDict()
        self._lock = threading.Lock()
        self.requests_served = 0
        # Operations currently executing on handler threads.  close() drains
        # this before closing the cache: handler threads are daemonic (an
        # idle client parked in readline must not block shutdown), so the
        # socketserver machinery alone cannot tell us when in-flight *work*
        # — which may be mid-cache-write — has finished.
        self._active_ops = 0

    #: How long close() waits for in-flight operations before closing the
    #: cache underneath them anyway (they then fail with an error frame).
    DRAIN_TIMEOUT_SECONDS = 10.0

    def _teardown(self) -> None:
        """Drain in-flight work, then close the cache."""
        # Wait for handler threads that are mid-operation (possibly writing
        # verdicts) before pulling the cache out from under them; idle
        # connections hold no operation and do not delay shutdown.
        deadline = time.monotonic() + self.DRAIN_TIMEOUT_SECONDS
        while time.monotonic() < deadline:
            with self._lock:
                if self._active_ops == 0:
                    break
            time.sleep(0.02)
        if self.runtime.cache is not None:
            self.runtime.cache.close()
        if self._ephemeral_cache is not None:
            self._ephemeral_cache.cleanup()
            self._ephemeral_cache = None

    # -------------------------------------------------------------- dispatch
    def dispatch(self, op: Optional[str], params: dict) -> dict:
        """Execute one non-streaming operation; returns the result payload."""
        handler = self._OPS.get(op or "")
        if handler is None:
            raise self._unknown_op(op)
        with self._served(op):
            return handler(self, params)

    def stream(self, request_id: object, params: dict, write: FrameWriter) -> None:
        """Write each verdict as it lands, then aggregate counters (no rows)."""
        engine, request, n_jobs = self._decode_certify(params)
        with self._served("certify_stream"):
            for index, result in enumerate(engine.certify_stream(request, n_jobs=n_jobs)):
                write(
                    {
                        "id": request_id,
                        "event": "result",
                        "index": index,
                        "result": result.to_dict(),
                    }
                )
        write(
            {
                "id": request_id,
                "event": "end",
                "report": {
                    "schema_version": SCHEMA_VERSION,
                    "runtime_stats": self._batch_stats(),
                },
            }
        )

    @contextmanager
    def _served(self, op: str) -> Iterator[None]:
        """Count, time and trace one operation, and hold it in the drain count."""
        with self._lock:
            self.requests_served += 1
            self._active_ops += 1
        _OP_REQUESTS.inc(op=op)
        started = time.perf_counter()
        failure: Optional[BaseException] = None
        try:
            # The op is the root span on this handler thread: with tracing
            # enabled (`repro serve --trace`), the completed tree lands in the
            # roots ring stamped with the bound request id, where the `trace`
            # op can find it.
            with tracing.span(f"server.{op}"):
                yield
        except BaseException as error:
            failure = error
            raise
        finally:
            elapsed = time.perf_counter() - started
            _OP_SECONDS.observe(elapsed, op=op)
            self._emit_dispatch(op, elapsed, failure)
            with self._lock:
                self._active_ops -= 1

    @staticmethod
    def _emit_dispatch(op: str, elapsed: float, failure: Optional[BaseException]) -> None:
        fields: dict = {"op": op, "seconds": elapsed, "outcome": "ok"}
        if failure is not None:
            fields["outcome"] = "error"
            fields["error_kind"] = events.classify_error(failure)
            fields["error_type"] = type(failure).__name__
        events.emit("server.dispatch", **fields)

    def hello_extras(self) -> dict:
        # Minor 2: the server's bound-address identity, so a router can
        # verify it reached the ring node it aimed for.
        return {"backend_id": self.address}

    def _op_certify(self, params: dict) -> dict:
        engine, request, n_jobs = self._decode_certify(params)
        # engine.verify assembles the report exactly as the in-process API
        # does; runtime batch counters are thread-local, so this handler
        # thread's stream cannot pick up a concurrent request's stats.
        report = engine.verify(request, n_jobs=n_jobs)
        return {"report": report.to_dict()}

    def _op_max_certified(self, params: dict) -> dict:
        engine = self.engine_for(engine_config_from_wire(params.get("engine")))
        dataset = self.dataset_for(params["dataset"])
        x = np.asarray(params["point"], dtype=float)
        outcome = engine.max_certified(
            dataset,
            x,
            start=int(params.get("start", 1)),
            max_budget=(
                None if params.get("max_budget") is None else int(params["max_budget"])
            ),
            model=model_from_wire(params.get("model")),
        )
        return outcome.to_dict()

    def _op_pareto_frontier(self, params: dict) -> dict:
        engine = self.engine_for(engine_config_from_wire(params.get("engine")))
        dataset = self.dataset_for(params["dataset"])
        x = np.asarray(params["point"], dtype=float)
        outcome = engine.pareto_frontier(
            dataset,
            x,
            max_remove=(
                None if params.get("max_remove") is None else int(params["max_remove"])
            ),
            max_flip=(
                None if params.get("max_flip") is None else int(params["max_flip"])
            ),
            model=model_from_wire(params.get("model")),
        )
        return outcome.to_dict()

    def _op_pareto_sweep(self, params: dict) -> dict:
        engine = self.engine_for(engine_config_from_wire(params.get("engine")))
        dataset = self.dataset_for(params["dataset"])
        points = np.asarray(params["points"], dtype=float)
        # Serial: every probe shares the server's verdict cache.
        outcomes = engine.pareto_sweep(
            dataset,
            points,
            max_remove=(
                None if params.get("max_remove") is None else int(params["max_remove"])
            ),
            max_flip=(
                None if params.get("max_flip") is None else int(params["max_flip"])
            ),
            model=model_from_wire(params.get("model")),
            n_jobs=1,
        )
        return {"outcomes": [outcome.to_dict() for outcome in outcomes]}

    def _op_cache_stats(self, params: dict) -> dict:
        del params
        cache = self.runtime.cache
        return {
            "cache": None if cache is None else cache.stats(),
            "runtime": self.runtime.stats_snapshot(),
        }

    def _op_cache_gc(self, params: dict) -> dict:
        cache = self.runtime.cache
        if cache is None:  # pragma: no cover - servers always hold a cache
            raise ValidationError("this server has no persistent cache to collect")
        return cache.gc(
            max_bytes=(
                None if params.get("max_bytes") is None else int(params["max_bytes"])
            ),
            max_age=(
                None if params.get("max_age") is None else float(params["max_age"])
            ),
            max_entries=(
                None if params.get("max_entries") is None else int(params["max_entries"])
            ),
        )

    def stats(self) -> dict:
        with self._lock:
            engines = [
                {
                    "config": dict(key),
                    "scheduler": engine.scheduler.stats_snapshot(),
                }
                for key, engine in self._engines.items()
            ]
            requests_served = self.requests_served
            datasets_resident = len(self._datasets)
        return {
            "uptime_seconds": time.monotonic() - self._started_at,
            "requests_served": requests_served,
            "datasets_resident": datasets_resident,
            "runtime": self.runtime.stats_snapshot(),
            "engines": engines,
            "metrics": metrics.get_registry().snapshot(),
        }

    def _op_trace(self, params: dict) -> dict:
        """Fetch a stored span tree from the completed-roots ring by request id.

        The remote half of ``repro trace REQUEST_ID``: the tree is retained
        only if the server runs with span tracing enabled and the request was
        recent enough to still be in the bounded ring.
        """
        request_id = str(params.get("request_id") or "")
        if not request_id:
            raise ValidationError("trace requests must carry a request_id")
        root = tracing.find_root_by_request(request_id)
        if root is not None:
            return {"request_id": request_id, "trace": root.to_dict()}
        if not tracing.spans_enabled():
            raise ValidationError(
                "span tracing is disabled on this server; restart it with "
                "`repro serve --trace` (or REPRO_TELEMETRY_SPANS=1) to retain "
                "request traces"
            )
        raise ValidationError(
            f"no stored trace for request id {request_id!r} (traces are kept "
            "in a bounded ring; only recent requests are retrievable)"
        )

    _OPS = {
        **FrameServer._LOCAL_OPS,
        "certify": _op_certify,
        "max_certified": _op_max_certified,
        "pareto_frontier": _op_pareto_frontier,
        "pareto_sweep": _op_pareto_sweep,
        "cache_stats": _op_cache_stats,
        "cache_gc": _op_cache_gc,
        "trace": _op_trace,
    }

    # --------------------------------------------------------------- helpers
    def _decode_certify(self, params: dict):
        engine = self.engine_for(engine_config_from_wire(params.get("engine")))
        dataset = self.dataset_for(params["dataset"])
        model = model_from_wire(params.get("model"))
        if model is None:
            raise ProtocolError("certify requests must carry a threat model")
        points = np.asarray(params["points"], dtype=float)
        request = CertificationRequest(dataset, points, model)
        # The client picks how many workers the daemon may fork, so the
        # daemon's own CPU count bounds it.
        n_jobs = min(max(1, int(params.get("n_jobs", 1))), os.cpu_count() or 1)
        return engine, request, n_jobs

    def _batch_stats(self) -> Optional[dict]:
        stats = self.runtime.last_batch_stats
        return None if stats is None else stats.snapshot()

    def engine_for(self, config: dict) -> CertificationEngine:
        """The warm engine for one wire configuration (small LRU).

        All engines share the server's runtime, so they share the verdict
        cache; what the LRU keeps warm per entry is the request-plan cache
        and the in-flight scheduler.
        """
        key = tuple(sorted(config.items()))
        with self._lock:
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                return engine
        engine = CertificationEngine(runtime=self.runtime, **config)
        with self._lock:
            existing = self._engines.get(key)
            if existing is not None:
                return existing
            if len(self._engines) >= self.max_engines:
                self._engines.popitem(last=False)
            self._engines[key] = engine
        return engine

    def dataset_for(self, payload: dict) -> Dataset:
        """Decode a dataset wire form once and keep it resident (small LRU)."""
        key = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        with self._lock:
            dataset = self._datasets.get(key)
            if dataset is not None:
                self._datasets.move_to_end(key)
                return dataset
        dataset = dataset_from_wire(payload)
        # Fingerprint now (memoized on the instance) so every later request
        # against this dataset starts from a warm identity.
        fingerprint_dataset(dataset)
        with self._lock:
            if len(self._datasets) >= self.max_datasets:
                self._datasets.popitem(last=False)
            self._datasets[key] = dataset
        return dataset
