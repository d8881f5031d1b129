"""`repro.fleet` — multi-host certification serving.

One :class:`~repro.service.server.CertificationServer` keeps one machine's
runtime warm; this subsystem keeps a *fleet* warm.  Three pieces, layered on
the versioned JSON-lines protocol of :mod:`repro.service`:

* **TCP transport** — ``repro serve --tcp HOST:PORT`` binds the existing
  server over TCP; :class:`~repro.service.client.CertificationClient`
  accepts ``host:port`` addresses (keepalive, per-request timeouts,
  connect retry with backoff);
* :class:`HashRing` — consistent hashing of dataset shard keys onto a
  static backend list, so each server's engine plans, shared-memory
  datasets, and verdict cache stay hot for its shard;
* :class:`CertificationRouter` — the ``repro route`` daemon: speaks the
  same protocol to clients, relays frames to shard owners, health-checks
  backends, retries with backoff, and fails over mid-request (streams
  resume on the next ring node with only the unserved points).

Start two shard servers and a router::

    repro-antidote serve --tcp 127.0.0.1:7301 --cache-dir /var/cache/repro &
    repro-antidote serve --tcp 127.0.0.1:7302 --cache-dir /var/cache/repro2 &
    repro-antidote route --tcp 127.0.0.1:7300 \\
        --backend 127.0.0.1:7301 --backend 127.0.0.1:7302

then point any client at the router: ``repro-antidote certify ... --connect
127.0.0.1:7300``.
"""

from repro.fleet.health import HealthMonitor
from repro.fleet.link import BackendPool
from repro.fleet.ring import HashRing, shard_key
from repro.fleet.router import CertificationRouter

__all__ = [
    "BackendPool",
    "CertificationRouter",
    "HashRing",
    "HealthMonitor",
    "shard_key",
]
