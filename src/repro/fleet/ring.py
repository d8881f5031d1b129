"""Consistent-hash ring: dataset shard key → backend server.

The router's placement function.  Each backend owns a set of virtual nodes
(:data:`VNODES` points on the SHA-256 keyspace circle); a shard key lands on
the first vnode clockwise from its own hash.  Virtual nodes smooth the
per-backend load (a single point per backend would make ownership arcs
wildly uneven) and keep reassignment minimal: adding or removing one backend
moves only the keys in its own arcs, so every *other* backend's warm state —
engine plans, decoded datasets, verdict-cache rows — stays exactly
where it is.

The shard key is the SHA-256 of the request's **dataset wire payload**
(canonical JSON), not the decoded dataset's content fingerprint: the router
routes without decoding inline arrays or resolving registry references.  The
trade-off is explicit — the inline and ref spellings of the same dataset
hash to different keys and may land on different shards; within one
spelling, placement is exact.  Servers key their own decoded-dataset LRU by
the identical digest (``CertificationServer.dataset_for``), so router and
backend agree on identity for free.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from typing import List, Mapping, Sequence, Tuple

__all__ = ["HashRing", "VNODES", "shard_key"]

#: Virtual nodes per backend.  64 keeps the max/min ownership-arc ratio
#: under ~1.4 for small fleets while the ring stays tiny (a few KiB).
VNODES = 64


def shard_key(dataset_payload: Mapping) -> str:
    """The routing key of one request: hex SHA-256 of the dataset wire form."""
    canonical = json.dumps(dataset_payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class HashRing:
    """An immutable consistent-hash ring over a static backend list.

    Ring positions depend only on the backend *names* (their addresses), so
    every router instance over the same backend list computes the same
    placement — no coordination protocol needed.
    """

    def __init__(self, backends: Sequence[str], *, vnodes: int = VNODES) -> None:
        if not backends:
            raise ValueError("a hash ring needs at least one backend")
        if len(set(backends)) != len(backends):
            raise ValueError(f"duplicate backend addresses: {sorted(backends)}")
        self.backends: Tuple[str, ...] = tuple(backends)
        self.vnodes = int(vnodes)
        points: List[Tuple[int, str]] = []
        for backend in self.backends:
            for replica in range(self.vnodes):
                digest = hashlib.sha256(f"{backend}#{replica}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), backend))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [backend for _, backend in points]

    def primary(self, key: str) -> str:
        """The backend owning ``key`` (first vnode clockwise from its hash)."""
        return self.preference(key, count=1)[0]

    def preference(self, key: str, *, count: int = 2) -> List[str]:
        """The first ``count`` *distinct* backends clockwise from ``key``.

        Position 0 is the primary; positions 1+ are the failover order — the
        backends whose arcs would absorb this key if the ones before them
        died.  ``count`` is capped at the number of backends.
        """
        digest = hashlib.sha256(key.encode()).digest()
        start = bisect.bisect_right(self._hashes, int.from_bytes(digest[:8], "big"))
        count = min(int(count), len(self.backends))
        chosen: List[str] = []
        for offset in range(len(self._owners)):
            owner = self._owners[(start + offset) % len(self._owners)]
            if owner not in chosen:
                chosen.append(owner)
                if len(chosen) == count:
                    break
        return chosen
