"""The fleet router: shard-affine request placement with failover.

:class:`CertificationRouter` speaks the same JSON-lines protocol as a
:class:`~repro.service.server.CertificationServer`, so any
:class:`~repro.service.client.CertificationClient` (or ``repro --connect``)
can point at it unchanged.  Instead of certifying, it places each request on
the backend that owns the request's dataset shard
(:class:`~repro.fleet.ring.HashRing` over the static backend list) and
relays frames verbatim — so each backend's engine plans, shared-memory
datasets, and verdict cache stay hot for *its* datasets, which is the whole
point of sharding.

Robustness model:

* **health** — a background :class:`~repro.fleet.health.HealthMonitor`
  pings backends; known-dead backends are deprioritized, and transport
  failures observed by live requests mark backends dead immediately;
* **retry** — each backend attempt gets a fresh connection retry with
  exponential backoff (connection establishment), plus one in-request
  retry on a fresh connection for pooled-connection staleness;
* **failover** — when a backend dies mid-request the router moves to the
  next distinct ring node (``router_failovers_total``).  For streams the
  router re-sends only the *unserved* points and renumbers the relayed
  ``index`` fields, so the client sees one seamless, complete stream.

Each request is forwarded once, to the first live candidate; the router
keeps no verdicts of its own.

Application errors (``RemoteError`` — the backend answered, the answer is
an error) are relayed to the client and never trigger failover; only
transport-level faults (dead/hung/desynchronized connections) do.
"""

from __future__ import annotations

import os
import signal
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import repro
from repro.api.report import SCHEMA_VERSION
from repro.fleet.health import HealthMonitor
from repro.fleet.link import BackendPool
from repro.fleet.ring import HashRing, shard_key
from repro.service.protocol import (
    METRICS_VERSION,
    PROTOCOL_MINOR,
    PROTOCOL_VERSION,
    ProtocolError,
    RemoteError,
    encode_frame,
    format_address,
    parse_address,
    read_frame,
)
from repro.telemetry import events, metrics
from repro.utils.validation import ValidationError

__all__ = ["CertificationRouter"]

_REQUESTS = metrics.counter(
    "router_requests_total",
    "Requests relayed to each backend (completed there, any outcome).",
    labelnames=("backend",),
)
_FAILOVERS = metrics.counter(
    "router_failovers_total",
    "Mid-request backend failures that moved the request to the next ring node.",
)

#: Operations routed by dataset shard (their params carry a dataset payload).
_SHARDED_OPS = frozenset(
    {
        "certify",
        "max_certified",
        "pareto_frontier",
        "pareto_sweep",
    }
)

#: Operations fanned out to every live backend, results keyed by backend.
_FANOUT_OPS = frozenset({"cache_stats", "cache_gc"})


class _ThreadingTCPRouter(socketserver.ThreadingMixIn, socketserver.TCPServer):
    daemon_threads = True
    allow_reuse_address = True
    certification_router: "CertificationRouter"


class _ThreadingUnixRouter(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    certification_router: "CertificationRouter"


class _RouterHandler(socketserver.StreamRequestHandler):
    """One client connection to the router: read, place, relay."""

    def setup(self) -> None:
        if self.request.family in (socket.AF_INET, socket.AF_INET6):
            self.request.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        super().setup()

    def handle(self) -> None:  # pragma: no cover - exercised via socket tests
        router: CertificationRouter = self.server.certification_router
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
            rid = frame.get("rid")
            try:
                with events.bind_request(rid if isinstance(rid, str) else None):
                    if op == "certify_stream":
                        router.route_stream(request_id, params, self._write)
                    elif op == "shutdown":
                        self._write(
                            {"id": request_id, "ok": True, "result": {"stopping": True}}
                        )
                        router.request_shutdown()
                        return
                    else:
                        result = router.dispatch(op, params)
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


class CertificationRouter:
    """Route certification traffic across a static fleet of shard servers.

    Parameters
    ----------
    backends:
        The static backend address list (``host:port`` TCP addresses or
        Unix-socket paths).  Ring placement depends only on this list, so
        every router over the same list agrees on ownership.
    tcp / socket_path:
        Where the router itself listens (exactly one; same semantics as
        :class:`~repro.service.server.CertificationServer`).
    request_timeout:
        Per-request bound on backend calls (the half-open-backend guard).
        ``None`` disables it — sensible only when certifications are
        unbounded; the health monitor always uses its own short timeout.
    """

    def __init__(
        self,
        backends: Sequence[str],
        *,
        tcp: Optional[Union[str, Tuple[str, int]]] = None,
        socket_path: Optional[Union[str, Path]] = None,
        health_interval: float = 2.0,
        connect_timeout: float = 5.0,
        request_timeout: Optional[float] = None,
        retry_backoff: float = 0.05,
    ) -> None:
        if (socket_path is None) == (tcp is None):
            raise ValidationError(
                "exactly one of socket_path and tcp must be given for the "
                "router's own listening address"
            )
        self.ring = HashRing([format_address(backend) for backend in backends])
        self.retry_backoff = float(retry_backoff)
        self.pool = BackendPool(
            connect_timeout=connect_timeout, request_timeout=request_timeout
        )
        self.health = HealthMonitor(
            self.ring.backends,
            interval=health_interval,
            connect_timeout=min(connect_timeout, 2.0),
        )
        self.socket_path = None if socket_path is None else Path(socket_path)
        self._tcp_target: Optional[Tuple[str, int]] = None
        if tcp is not None:
            if isinstance(tcp, tuple):
                self._tcp_target = (str(tcp[0]), int(tcp[1]))
            else:
                family, parsed = parse_address(
                    f"tcp://{tcp}" if "://" not in str(tcp) else str(tcp)
                )
                if family != "tcp":
                    raise ValidationError(f"malformed tcp address {tcp!r}")
                self._tcp_target = parsed  # type: ignore[assignment]
        self.tcp_address: Optional[Tuple[str, int]] = None
        self._server: Optional[
            Union[_ThreadingTCPRouter, _ThreadingUnixRouter]
        ] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------- lifecycle
    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return str(self.socket_path)
        if self.tcp_address is not None:
            return format_address(self.tcp_address)
        return format_address(self._tcp_target)  # type: ignore[arg-type]

    def start(self) -> None:
        """Bind and serve on a background thread (for embedding/tests)."""
        self._bind()
        self.health.start()
        thread = threading.Thread(
            target=self._server.serve_forever, name="repro-route", daemon=True
        )
        thread.start()
        self._serve_thread = thread

    def serve_forever(self, *, install_signal_handlers: bool = True) -> None:
        """Bind and serve until :meth:`request_shutdown` (CLI mode)."""
        self._bind()
        self.health.start()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, self._signal_shutdown)
        try:
            self._server.serve_forever()
        finally:
            self.close()

    def _bind(self) -> None:
        if self._server is not None:
            raise RuntimeError("router already started")
        server: Union[_ThreadingTCPRouter, _ThreadingUnixRouter]
        if self._tcp_target is not None:
            server = _ThreadingTCPRouter(self._tcp_target, _RouterHandler)
            host, port = server.server_address[:2]
            self.tcp_address = (str(host), int(port))
        else:
            assert self.socket_path is not None
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            self.socket_path.unlink(missing_ok=True)
            server = _ThreadingUnixRouter(str(self.socket_path), _RouterHandler)
        server.certification_router = self
        self._server = server
        self._started_at = time.monotonic()

    def _signal_shutdown(self, signum, frame) -> None:  # pragma: no cover - signals
        del frame
        self.request_shutdown()

    def request_shutdown(self) -> None:
        server = self._server
        if server is None:
            return
        threading.Thread(target=server.shutdown, daemon=True).start()

    def close(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            if self._serve_thread is not None:
                server.shutdown()
            server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        if self.socket_path is not None:
            self.socket_path.unlink(missing_ok=True)
        self.health.close()
        self.pool.close()

    def __enter__(self) -> "CertificationRouter":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # --------------------------------------------------------------- dispatch
    def dispatch(self, op: Optional[str], params: dict) -> dict:
        """One non-streaming frame: answer locally, shard-route, or fan out."""
        if op == "hello":
            return self._op_hello(params)
        if op == "ping":
            return {
                "pong": True,
                "uptime_seconds": time.monotonic() - self._started_at,
            }
        if op == "metrics":
            return self._op_metrics(params)
        if op == "stats":
            return self._op_stats()
        if op in _SHARDED_OPS:
            return self.route_call(op, params)
        if op in _FANOUT_OPS:
            return self._fan_out(op, params)
        raise ProtocolError(
            f"unknown operation {op!r}; the router serves "
            f"{sorted(_SHARDED_OPS | _FANOUT_OPS)} + "
            "['hello', 'ping', 'metrics', 'stats', 'certify_stream', 'shutdown']"
        )

    def _op_hello(self, params: dict) -> dict:
        requested = int(params.get("protocol", PROTOCOL_VERSION))
        if requested != PROTOCOL_VERSION:
            raise ProtocolError(
                f"client speaks protocol {requested}, router speaks "
                f"{PROTOCOL_VERSION}"
            )
        return {
            "protocol": PROTOCOL_VERSION,
            "protocol_minor": PROTOCOL_MINOR,
            "schema_version": SCHEMA_VERSION,
            "server_version": repro.__version__,
            "pid": os.getpid(),
            "backend_id": f"router:{self.address}",
            "role": "router",
            "backends": list(self.ring.backends),
        }

    def _op_metrics(self, params: dict) -> dict:
        """The *router process's* registry (routing/failover/health series)."""
        fmt = str(params.get("format", "json"))
        registry = metrics.get_registry()
        payload: dict = {"metrics_version": METRICS_VERSION, "format": fmt}
        if fmt == "prometheus":
            payload["prometheus"] = registry.to_prometheus()
        elif fmt == "json":
            payload["metrics"] = registry.snapshot()
        else:
            raise ProtocolError(
                f"unknown metrics format {fmt!r}; use 'json' or 'prometheus'"
            )
        return payload

    def _op_stats(self) -> dict:
        return {
            "uptime_seconds": time.monotonic() - self._started_at,
            "backends": self.health.snapshot(),
            "metrics": metrics.get_registry().snapshot(),
        }

    # ---------------------------------------------------------------- routing
    def _candidates(self, params: dict) -> List[str]:
        """Failover order for one request: ring preference, live first.

        Known-dead backends sink to the end rather than disappearing — if
        the whole fleet looks dead the router still tries (the monitor may
        simply be behind), and the error the client sees is the real
        transport error, not a synthetic "no backends" one.
        """
        key = shard_key(params.get("dataset") or {})
        preference = self.ring.preference(key, count=len(self.ring.backends))
        live = [b for b in preference if self.health.is_alive(b)]
        dead = [b for b in preference if not self.health.is_alive(b)]
        return live + dead

    def route_call(self, op: str, params: dict) -> dict:
        """Relay one request to its shard owner, failing over on dead nodes."""
        candidates = self._candidates(params)
        last_error: Optional[Exception] = None
        for position, backend in enumerate(candidates):
            try:
                result = self._attempt(backend, op, params)
            except RemoteError:
                # The backend *answered*; relay its error, never fail over.
                _REQUESTS.inc(backend=backend)
                raise
            except (OSError, ProtocolError) as error:
                last_error = error
                self._note_dead(backend, op, error)
                if position + 1 < len(candidates):
                    _FAILOVERS.inc()
                continue
            _REQUESTS.inc(backend=backend)
            return result
        assert last_error is not None
        raise last_error

    def _attempt(self, backend: str, op: str, params: dict) -> dict:
        """One backend, up to two connections: pooled first, then fresh.

        A pooled connection can be stale (the backend restarted since it was
        pooled); a failure on it earns one retry on a guaranteed-fresh
        connection after a short backoff.  A fresh-connection failure is
        authoritative: the backend is down, move on.
        """
        for attempt in range(2):
            try:
                with self.pool.lease(backend) as link:
                    return link.call(op, params)
            except (OSError, ProtocolError):
                self.pool.invalidate(backend)
                if attempt == 0:
                    time.sleep(self.retry_backoff)
                    continue
                raise
        raise AssertionError("unreachable")  # pragma: no cover

    def route_stream(self, frame_id, params: dict, write) -> None:
        """Relay a ``certify_stream``, resuming on the next node after a death.

        On failover only the not-yet-delivered points are re-sent, and the
        relayed ``index`` fields are renumbered into the client's original
        point space — the client sees one gapless stream regardless of how
        many backends served it.
        """
        candidates = self._candidates(params)
        rows = list(params.get("points") or [])
        delivered = 0
        last_error: Optional[Exception] = None
        for position, backend in enumerate(candidates):
            if delivered >= len(rows) and rows:
                # Every verdict was delivered but the end frame was lost with
                # the backend; close the stream with a stats-less report
                # rather than re-certifying zero points.
                write(
                    {
                        "id": frame_id,
                        "event": "end",
                        "report": {
                            "schema_version": SCHEMA_VERSION,
                            "runtime_stats": None,
                        },
                    }
                )
                return
            remaining = dict(params)
            remaining["points"] = rows[delivered:]
            try:
                with self.pool.lease(backend) as link:
                    for frame in link.stream_frames("certify_stream", remaining):
                        if frame.get("ok") is False:
                            # Application error: relay verbatim, stream over.
                            write(
                                {
                                    "id": frame_id,
                                    "ok": False,
                                    "error": frame.get("error") or {},
                                }
                            )
                            _REQUESTS.inc(backend=backend)
                            return
                        if frame.get("event") == "result":
                            write(
                                {
                                    "id": frame_id,
                                    "event": "result",
                                    "index": delivered,
                                    "result": frame.get("result"),
                                }
                            )
                            delivered += 1
                        else:  # the end frame
                            write(
                                {
                                    "id": frame_id,
                                    "event": "end",
                                    "report": frame.get("report"),
                                }
                            )
                            _REQUESTS.inc(backend=backend)
                            return
            except (OSError, ProtocolError) as error:
                last_error = error
                self._note_dead(backend, "certify_stream", error)
                if position + 1 < len(candidates):
                    _FAILOVERS.inc()
                continue
        assert last_error is not None
        write({"id": frame_id, "ok": False, "error": _error_payload(last_error)})

    def _note_dead(self, backend: str, op: str, error: Exception) -> None:
        self.health.mark_dead(backend)
        self.pool.invalidate(backend)
        events.emit(
            "router.failover",
            backend=backend,
            op=op,
            error_kind=events.classify_error(error),
        )

    # --------------------------------------------------------------- fan-out
    def _fan_out(self, op: str, params: dict) -> dict:
        """Run a management op on every live backend; results keyed by backend."""
        results: Dict[str, dict] = {}
        errors: Dict[str, dict] = {}
        for backend in self.ring.backends:
            if not self.health.is_alive(backend):
                errors[backend] = {"type": "BackendDown", "message": "marked dead"}
                continue
            try:
                with self.pool.lease(backend) as link:
                    results[backend] = link.call(op, params)
            except (OSError, ProtocolError) as error:
                self._note_dead(backend, op, error)
                errors[backend] = _error_payload(error)
            except RemoteError as error:
                errors[backend] = {"type": error.kind, "message": error.message}
        if not results and errors:
            raise RemoteError(
                "FanOutError",
                f"{op} failed on every backend: "
                + "; ".join(f"{b}: {e['message']}" for b, e in errors.items()),
            )
        return {"backends": results, "errors": errors}
