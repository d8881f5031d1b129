"""The fleet router: shard-affine request placement with failover.

:class:`CertificationRouter` is the daemon's twin on the same serving
skeleton (:class:`~repro.service.server.FrameServer`: transports, frame
loop, bind, lifecycle, ``hello``/``ping``/``metrics``/``stats``), so any
:class:`~repro.service.client.CertificationClient` (or ``repro --connect``)
can point at it unchanged.  How it serves each op comes from the protocol's
one op table, :data:`~repro.service.protocol.OPS`.  Instead of certifying,
it places each request on the backend that owns the request's dataset
shard (:class:`~repro.fleet.ring.HashRing` over the static backend list)
and relays frames verbatim — so each backend's engine plans, decoded
datasets, and verdict cache stay hot for *its* datasets, which is the whole
point of sharding.  Like the daemon, it refuses to bind over a Unix socket
path that another process is still listening on.

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

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api.report import SCHEMA_VERSION
from repro.fleet.health import HealthMonitor
from repro.fleet.link import BackendPool
from repro.fleet.ring import HashRing, shard_key
from repro.service.protocol import OPS, ProtocolError, RemoteError, format_address
from repro.service.server import FrameServer, FrameWriter, _error_payload
from repro.telemetry import events, metrics

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


class CertificationRouter(FrameServer):
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

    role = "router"
    served_ops = frozenset(op for op, how in OPS.items() if how is not None)

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
        super().__init__(socket_path, tcp)
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

    def _bind(self) -> None:
        super()._bind()
        self.health.start()

    def _teardown(self) -> None:
        self.health.close()
        self.pool.close()

    # --------------------------------------------------------------- dispatch
    def dispatch(self, op: Optional[str], params: dict) -> dict:
        """One non-streaming frame: answer locally, shard-route, or fan out."""
        name = op or ""
        how = OPS.get(name)
        if how == "shard":
            return self.route_call(name, params)
        if how == "fanout":
            return self._fan_out(name, params)
        local = self._LOCAL_OPS.get(name)
        if local is None:
            raise self._unknown_op(op)
        return local(self, params)

    def hello_extras(self) -> dict:
        return {
            "backend_id": f"router:{self.address}",
            "role": "router",
            "backends": list(self.ring.backends),
        }

    def stats(self) -> dict:
        """Uptime, backend liveness, and the *router process's* registry."""
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

    def stream(self, frame_id: object, params: dict, write: FrameWriter) -> None:
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
                        # Relay under the client's frame id; result frames are
                        # renumbered into the client's point space.
                        if frame.get("event") == "result":
                            write({**frame, "id": frame_id, "index": delivered})
                            delivered += 1
                            continue
                        # The end frame, or an application error frame: relay
                        # it verbatim; the stream is over either way.
                        write({**frame, "id": frame_id})
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
