"""Persistent, monotonicity-aware verdict cache.

Certification verdicts are pure functions of ``(dataset content, test point,
perturbation family + budget, engine configuration)`` — nothing about the
host, the process, or the wall clock can change whether a point is robust.
That makes them ideal cache entries: this module stores them in a sqlite
database under a cache directory, keyed by the content-addressed identities
of :mod:`repro.runtime.fingerprint`.

Beyond exact-key hits, the cache exploits **budget monotonicity** (the
perturbation spaces of the removal and label-flip families are nested in the
budget):

* a point proven ``robust`` at budget ``n`` answers every query at ``n' ≤ n``;
* a point left ``unknown`` at budget ``n`` answers every query at ``n' ≥ n``.

Budgets are stored as a pair ``(budget, budget_f)`` so the composite
removal+flip family — whose perturbation spaces are nested in the
*componentwise* order on ``(n_remove, n_flip)`` — derives along pair
dominance and never across non-nested pairs: ``robust`` at ``(r, f)``
answers ``(r' ≤ r, f' ≤ f)``; ``unknown`` at ``(r, f)`` answers
``(r' ≥ r, f' ≥ f)``.  One-dimensional families store ``budget_f = 0``,
which makes their pair queries degenerate to exactly the scalar rules above.

Only decisive verdicts (``robust`` / ``unknown``) are stored.  ``timeout``
and ``resource_exhausted`` outcomes depend on the machine and the configured
limits, so they are always recomputed.

Long-lived caches (serving fleets, daemons) are bounded by :meth:`gc`:
verdicts carry a ``last_used`` recency stamp (refreshed on every hit, flushed
in chunks alongside the normal commit cadence) and are evicted LRU-first —
preferring verdicts *derivable* from a surviving row (a robust verdict
dominated by another robust one, an unknown verdict dominating another
unknown one), whose eviction loses no answering power at all.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.runtime.fingerprint import BudgetKey
from repro.telemetry import metrics
from repro.verify.result import VerificationResult, VerificationStatus

#: Latency of the cache's sqlite operations, by operation.  Lookups are the
#: warm serving path's dominant cost, so this is the histogram to watch when
#: tuning chunk sizes or WAL settings.
_SQLITE_SECONDS = metrics.histogram(
    "cache_sqlite_seconds",
    "Wall seconds per verdict-cache sqlite operation.",
    labelnames=("op",),
)
_SQLITE_LOOKUP = _SQLITE_SECONDS.labels(op="lookup")
_SQLITE_STORE = _SQLITE_SECONDS.labels(op="store")
_SQLITE_COMMIT = _SQLITE_SECONDS.labels(op="commit")
_SQLITE_GC = _SQLITE_SECONDS.labels(op="gc")
_GC_EVICTED = metrics.counter(
    "cache_gc_evicted_total", "Verdicts evicted by cache garbage collection."
)

#: Statuses that are environment-independent facts about the proof problem.
#: Shared with the run journal: neither layer may persist a timeout or a
#: resource exhaustion, or a resumed/warm run would keep serving an outcome
#: that a faster machine (or a raised limit) would not reproduce.
CACHEABLE_STATUSES = (VerificationStatus.ROBUST, VerificationStatus.UNKNOWN)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS verdicts (
    dataset_fp   TEXT    NOT NULL,
    point_digest TEXT    NOT NULL,
    family       TEXT    NOT NULL,
    engine_key   TEXT    NOT NULL,
    budget       INTEGER NOT NULL,
    budget_f     INTEGER NOT NULL DEFAULT 0,
    status       TEXT    NOT NULL,
    payload      TEXT    NOT NULL,
    created_at   REAL    NOT NULL,
    last_used    REAL    NOT NULL DEFAULT 0,
    PRIMARY KEY (dataset_fp, point_digest, family, engine_key, budget, budget_f)
);
CREATE INDEX IF NOT EXISTS idx_verdicts_lookup
    ON verdicts (dataset_fp, point_digest, family, engine_key, status, budget, budget_f);
"""

#: Rebuild of a pre-composite (single-budget-column) database.  The old rows
#: migrate with ``budget_f = 0`` and keep answering exactly the queries they
#: answered before — except flip-family verdicts, which are dropped: they
#: were computed by the old Box-only flip path under the same
#: ``(family, engine_key)`` a ladder engine now resolves to, so keeping
#: their UNKNOWNs would permanently mask the flip-disjuncts precision on
#: warm caches.
_MIGRATE_V1 = """
DROP INDEX IF EXISTS idx_verdicts_lookup;
ALTER TABLE verdicts RENAME TO verdicts_v1;
CREATE TABLE verdicts (
    dataset_fp   TEXT    NOT NULL,
    point_digest TEXT    NOT NULL,
    family       TEXT    NOT NULL,
    engine_key   TEXT    NOT NULL,
    budget       INTEGER NOT NULL,
    budget_f     INTEGER NOT NULL DEFAULT 0,
    status       TEXT    NOT NULL,
    payload      TEXT    NOT NULL,
    created_at   REAL    NOT NULL,
    last_used    REAL    NOT NULL DEFAULT 0,
    PRIMARY KEY (dataset_fp, point_digest, family, engine_key, budget, budget_f)
);
INSERT INTO verdicts
    SELECT dataset_fp, point_digest, family, engine_key, budget, 0,
           status, payload, created_at, created_at
    FROM verdicts_v1
    WHERE family NOT LIKE 'label-flip:%';
DROP TABLE verdicts_v1;
CREATE INDEX idx_verdicts_lookup
    ON verdicts (dataset_fp, point_digest, family, engine_key, status, budget, budget_f);
"""

#: In-place upgrade of a pair-budget (v2) database that predates the recency
#: stamp: existing rows inherit their creation time as the initial recency.
_MIGRATE_V2 = """
ALTER TABLE verdicts ADD COLUMN last_used REAL NOT NULL DEFAULT 0;
UPDATE verdicts SET last_used = created_at;
"""

#: How many refreshed recency stamps accumulate in memory before they are
#: flushed to the database.  Stamps also flush on every :meth:`commit`,
#: :meth:`close`, and :meth:`gc`, so the window only bounds how stale
#: ``last_used`` can be for a crash-killed pure-read workload.
_TOUCH_CHUNK = 64


def _budget_pair(budget: BudgetKey) -> Tuple[int, int]:
    """Normalize a budget key to the stored ``(budget, budget_f)`` pair."""
    if isinstance(budget, tuple):
        removals, flips = budget
        return int(removals), int(flips)
    return int(budget), 0


def _stored_budget(budget: int, budget_f: int) -> BudgetKey:
    """Present a stored pair the way the family keyed it (int for 1-D rows)."""
    return (int(budget), int(budget_f)) if budget_f else int(budget)


@dataclass(frozen=True)
class CacheHit:
    """One answered lookup: the stored verdict plus how it was derived.

    ``kind`` is ``"exact"`` for a same-budget row or ``"monotone"`` when the
    verdict was derived from a different budget; ``stored_budget`` records
    which budget actually produced the proof (a ``(n_remove, n_flip)`` pair
    for composite-family rows).
    """

    result: VerificationResult
    kind: str
    stored_budget: BudgetKey

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


def reanchor(
    hit: CacheHit, amount: int, flips: int, log10_datasets: float
) -> VerificationResult:
    """Re-anchor a stored verdict to the budget the caller asked about.

    The one rule for every verdict served without running the learner: a
    cache hit, a journal restore, or a lease of another batch's in-flight
    work.  The stored result may come from a different nominal amount (exact
    hits share resolved budgets) or a different budget entirely (monotone
    hits); the status and certificate carry over, while the reported
    ``(amount, flips)`` pair and ``log10 |Δ(T)|`` reflect the current
    query.  Class intervals survive only where they stay sound: a *robust*
    verdict derived from a larger budget keeps its (wider, still
    over-approximating) intervals, but an *unknown* verdict derived from a
    smaller budget drops its intervals — they under-approximate what a
    larger budget can reach.

    ``elapsed_seconds`` / ``peak_memory_bytes`` deliberately keep their
    stored values: per-point numbers describe what the *proof* cost when it
    was computed (provenance), while the report's batch wall-clock describes
    the serving run — a warm rerun shows seconds-long per-point proofs under
    a near-zero batch wall-clock.
    """
    result = hit.result
    changes: dict = {}
    if result.poisoning_amount != amount:
        changes["poisoning_amount"] = amount
    if result.poisoning_flips != flips:
        changes["poisoning_flips"] = flips
    if result.log10_num_datasets != log10_datasets:
        changes["log10_num_datasets"] = log10_datasets
    if not hit.is_exact:
        changes["message"] = f"derived from cached verdict at budget {hit.stored_budget}"
        if not result.is_certified and result.class_intervals:
            changes["class_intervals"] = ()
    return replace(result, **changes) if changes else result


class CertificationCache:
    """On-disk verdict store shared by every run against a cache directory."""

    DB_NAME = "certcache.sqlite"

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir).expanduser()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.db_path = self.cache_dir / self.DB_NAME
        self._connection: Optional[sqlite3.Connection] = None
        # One connection shared by every thread of the process (the service
        # handler threads and the scheduler all hit the same cache), guarded
        # by a re-entrant lock; sqlite's own check is disabled at connect.
        self._lock = threading.RLock()
        # Recency stamps of rows served since the last flush, keyed by the
        # full primary key of the stored row.
        self._touches: Dict[Tuple[str, str, str, str, int, int], float] = {}

    # ------------------------------------------------------------ connection
    @property
    def _db(self) -> sqlite3.Connection:
        if self._connection is None:
            # WAL lets concurrent processes read while a batch writes, and
            # the 30s busy timeout rides out another writer's commit window.
            self._connection = sqlite3.connect(
                str(self.db_path), timeout=30.0, check_same_thread=False
            )
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.executescript(_SCHEMA)
            columns = {
                row[1]
                for row in self._connection.execute("PRAGMA table_info(verdicts)")
            }
            if "budget_f" not in columns:
                # A database created before the composite family: rebuild it
                # with the pair-budget primary key, preserving every verdict.
                self._connection.executescript(_MIGRATE_V1)
            elif "last_used" not in columns:
                # A pair-budget database from before the GC layer: add the
                # recency stamp in place, seeding it from the creation time.
                self._connection.executescript(_MIGRATE_V2)
        return self._connection

    def close(self) -> None:
        with self._lock:
            if self._connection is not None:
                self._flush_touches_locked()
                self._connection.commit()
                self._connection.close()
                self._connection = None

    def __getstate__(self) -> dict:
        # sqlite connections and locks cannot cross process boundaries;
        # reconnect (and re-lock) lazily on the other side.
        state = dict(self.__dict__)
        state["_connection"] = None
        state["_lock"] = None
        state["_touches"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ---------------------------------------------------------------- lookup
    def lookup(
        self,
        dataset_fp: str,
        point_digest: str,
        family: str,
        engine_key: str,
        budget: BudgetKey,
        *,
        monotone: bool = True,
    ) -> Optional[CacheHit]:
        """Answer one verdict query, or return ``None`` on a miss.

        With ``monotone=True`` the lookup may derive the answer from a verdict
        stored at a different budget (see the module docstring); the caller is
        responsible for only enabling this for monotone model families.  For
        pair budgets the derivation ranges over componentwise dominance, so a
        verdict is never derived across non-nested ``(n_remove, n_flip)``
        pairs — both components must point the same (sound) way.
        """
        started = time.perf_counter()
        try:
            return self._lookup(
                dataset_fp, point_digest, family, engine_key, budget, monotone=monotone
            )
        finally:
            _SQLITE_LOOKUP.observe(time.perf_counter() - started)

    def _lookup(
        self,
        dataset_fp: str,
        point_digest: str,
        family: str,
        engine_key: str,
        budget: BudgetKey,
        *,
        monotone: bool,
    ) -> Optional[CacheHit]:
        base = (dataset_fp, point_digest, family, engine_key)
        removals, flips = _budget_pair(budget)
        with self._lock:
            row = self._db.execute(
                "SELECT payload, budget, budget_f FROM verdicts WHERE dataset_fp=? AND "
                "point_digest=? AND family=? AND engine_key=? AND budget=? AND budget_f=?",
                base + (removals, flips),
            ).fetchone()
            if row is not None:
                return self._hit_locked(base, row, kind="exact")
            if not monotone:
                return None
            # Robust at a dominating budget (both components ≥) ⇒ robust here.
            row = self._db.execute(
                "SELECT payload, budget, budget_f FROM verdicts WHERE dataset_fp=? AND "
                "point_digest=? AND family=? AND engine_key=? AND status=? AND "
                "budget>=? AND budget_f>=? ORDER BY budget ASC, budget_f ASC LIMIT 1",
                base + (VerificationStatus.ROBUST.value, removals, flips),
            ).fetchone()
            if row is not None:
                return self._hit_locked(base, row, kind="monotone")
            # Unknown at a dominated budget (both components ≤) ⇒ still unknown here.
            row = self._db.execute(
                "SELECT payload, budget, budget_f FROM verdicts WHERE dataset_fp=? AND "
                "point_digest=? AND family=? AND engine_key=? AND status=? AND "
                "budget<=? AND budget_f<=? ORDER BY budget DESC, budget_f DESC LIMIT 1",
                base + (VerificationStatus.UNKNOWN.value, removals, flips),
            ).fetchone()
            if row is not None:
                return self._hit_locked(base, row, kind="monotone")
            return None

    def _hit_locked(self, base: Tuple[str, str, str, str], row, *, kind: str) -> CacheHit:
        """Build a hit and refresh the stored row's recency stamp (chunked).

        The ``_locked`` suffix is a contract: the caller holds ``self._lock``.
        """
        self._touches[base + (int(row[1]), int(row[2]))] = time.time()
        if len(self._touches) >= _TOUCH_CHUNK:
            self._flush_touches_locked()
            self._db.commit()
        return CacheHit(
            result=VerificationResult.from_dict(json.loads(row[0])),
            kind=kind,
            stored_budget=_stored_budget(row[1], row[2]),
        )

    def _flush_touches_locked(self) -> None:
        """Write buffered recency stamps (caller holds the lock, commits)."""
        if not self._touches:
            return
        self._db.executemany(
            "UPDATE verdicts SET last_used=? WHERE dataset_fp=? AND point_digest=? "
            "AND family=? AND engine_key=? AND budget=? AND budget_f=?",
            [(stamp,) + key for key, stamp in self._touches.items()],
        )
        self._touches.clear()

    # ----------------------------------------------------------------- store
    def store(
        self,
        dataset_fp: str,
        point_digest: str,
        family: str,
        engine_key: str,
        budget: BudgetKey,
        result: VerificationResult,
        *,
        commit: bool = True,
    ) -> bool:
        """Persist one verdict; returns whether it was cacheable.

        Batch writers pass ``commit=False`` and call :meth:`commit` in
        chunks — a per-verdict fsync on the hot path is wasted work when the
        run journal already provides crash-granularity recovery.  Chunked
        (rather than end-of-batch) commits matter for concurrency: an open
        write transaction blocks other writers of the same cache, so it must
        never be held for a whole multi-minute batch.
        """
        if result.status not in CACHEABLE_STATUSES:
            return False
        removals, flips = _budget_pair(budget)
        now = time.time()
        started = time.perf_counter()
        with self._lock:
            self._db.execute(
                "INSERT OR REPLACE INTO verdicts VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    dataset_fp,
                    point_digest,
                    family,
                    engine_key,
                    removals,
                    flips,
                    result.status.value,
                    json.dumps(result.to_dict()),
                    now,
                    now,
                ),
            )
            if commit:
                self._db.commit()
        _SQLITE_STORE.observe(time.perf_counter() - started)
        return True

    def commit(self) -> None:
        """Flush verdicts stored with ``commit=False`` (and recency stamps)."""
        started = time.perf_counter()
        with self._lock:
            if self._connection is not None:
                self._flush_touches_locked()
                self._connection.commit()
        _SQLITE_COMMIT.observe(time.perf_counter() - started)

    # ------------------------------------------------------------ management
    def stats(self) -> dict:
        """Aggregate cache statistics for the ``cache stats`` CLI command."""
        with self._lock:
            total = self._db.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0]
            by_status = dict(
                self._db.execute(
                    "SELECT status, COUNT(*) FROM verdicts GROUP BY status"
                ).fetchall()
            )
            datasets = self._db.execute(
                "SELECT COUNT(DISTINCT dataset_fp) FROM verdicts"
            ).fetchone()[0]
        return {
            "path": str(self.db_path),
            "verdicts": int(total),
            "by_status": {key: int(value) for key, value in by_status.items()},
            "datasets": int(datasets),
            "size_bytes": self.db_path.stat().st_size if self.db_path.exists() else 0,
        }

    def clear(self) -> int:
        """Delete every stored verdict and run journal; returns the verdict count.

        Journals must go too: a ``--resume`` after a clear would otherwise
        replay the supposedly-deleted verdicts, and the journal files are
        where most of the reclaimed disk lives.
        """
        with self._lock:
            removed = self._db.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0]
            self._db.execute("DELETE FROM verdicts")
            self._touches.clear()
            self._db.commit()
        for journal in self.cache_dir.glob("journal-*.jsonl"):
            try:
                journal.unlink()
            except OSError:  # pragma: no cover - concurrent removal
                pass
        return int(removed)

    # -------------------------------------------------------------------- gc
    #: SQL truth-value of "this verdict is derivable from another stored row":
    #: a robust verdict strictly dominated by another robust one, or an
    #: unknown verdict strictly dominating another unknown one, answers no
    #: query the other row does not — evicting it loses nothing.
    _DERIVABLE_SQL = """
        CASE WHEN (
            v.status = 'robust' AND EXISTS (
                SELECT 1 FROM verdicts AS w
                WHERE w.dataset_fp = v.dataset_fp AND w.point_digest = v.point_digest
                  AND w.family = v.family AND w.engine_key = v.engine_key
                  AND w.status = 'robust'
                  AND w.budget >= v.budget AND w.budget_f >= v.budget_f
                  AND (w.budget > v.budget OR w.budget_f > v.budget_f)
            )
        ) OR (
            v.status = 'unknown' AND EXISTS (
                SELECT 1 FROM verdicts AS w
                WHERE w.dataset_fp = v.dataset_fp AND w.point_digest = v.point_digest
                  AND w.family = v.family AND w.engine_key = v.engine_key
                  AND w.status = 'unknown'
                  AND w.budget <= v.budget AND w.budget_f <= v.budget_f
                  AND (w.budget < v.budget OR w.budget_f < v.budget_f)
            )
        ) THEN 1 ELSE 0 END
    """

    def _evict(self, count: int) -> int:
        """Evict up to ``count`` verdicts: derivable rows first, then LRU.

        Caller holds the lock and commits.  Returns how many rows went.
        """
        if count <= 0:
            return 0
        victims = self._db.execute(
            f"SELECT v.rowid FROM verdicts AS v ORDER BY {self._DERIVABLE_SQL} DESC, "
            "v.last_used ASC, v.rowid ASC LIMIT ?",
            (count,),
        ).fetchall()
        if not victims:
            return 0
        self._db.executemany(
            "DELETE FROM verdicts WHERE rowid=?", victims
        )
        return len(victims)

    def _logical_size(self) -> int:
        """Size of the database proper (excluding not-yet-checkpointed WAL)."""
        page_count = self._db.execute("PRAGMA page_count").fetchone()[0]
        page_size = self._db.execute("PRAGMA page_size").fetchone()[0]
        return int(page_count) * int(page_size)

    def gc(
        self,
        *,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> dict:
        """Bound the cache by age, entry count, and/or on-disk size.

        * ``max_age`` drops every verdict not used (stored or served) within
          the last ``max_age`` seconds;
        * ``max_entries`` / ``max_bytes`` then evict least-recently-used
          verdicts — **derivable verdicts first**: a robust verdict dominated
          by a surviving robust row (or an unknown verdict dominating a
          surviving unknown row) answers nothing its dominator cannot, so its
          eviction costs zero future learner invocations.

        Returns a summary dict (``evicted``, ``remaining``, byte sizes, and
        ``repaired`` clock-skew stamps).  With no bound given this reports
        current sizes (and still repairs skewed stamps).
        """
        started = time.perf_counter()
        with self._lock:
            db = self._db
            self._flush_touches_locked()
            now = time.time()
            # Recency stamps come from the wall clock, which can step
            # backwards (NTP corrections, VM migrations).  A row stamped
            # while the clock was ahead carries ``last_used > now`` — a
            # negative age.  Left alone it sorts as the freshest row in the
            # LRU order *forever*, so under entry/size pressure genuinely
            # fresh verdicts get evicted as "oldest" while the ghost row
            # survives every pass.  Clamp negative ages to zero before
            # applying any bound; subsequent real hits stamp later times, so
            # a repaired row ages normally from here.
            repaired = db.execute(
                "UPDATE verdicts SET last_used=? WHERE last_used>?", (now, now)
            ).rowcount
            db.commit()
            size_before = self._logical_size()
            evicted = 0
            if max_age is not None:
                cursor = db.execute(
                    "DELETE FROM verdicts WHERE last_used < ?",
                    (now - float(max_age),),
                )
                evicted += cursor.rowcount
            if max_entries is not None:
                count = db.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0]
                evicted += self._evict(int(count) - int(max_entries))
            # Commit even when nothing was evicted: a 0-row DELETE still
            # auto-begins a write transaction, which would make the VACUUMs
            # below fail (and, left dangling, lock out other connections).
            db.commit()
            if evicted:
                db.execute("VACUUM")
            if max_bytes is not None:
                if not evicted:
                    # Reclaim free pages from earlier deletes before
                    # measuring, or they count against the bound and force
                    # eviction of live verdicts VACUUM alone would save.
                    db.execute("VACUUM")
                size = self._logical_size()
                while size > int(max_bytes):
                    count = db.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0]
                    if count == 0:
                        break
                    # Estimate how many rows must go to reach the bound and
                    # evict them in one round; re-measure after VACUUM in
                    # case variable-width payloads skewed the estimate.
                    per_row = max(1.0, size / count)
                    need = max(1, math.ceil((size - int(max_bytes)) / per_row))
                    removed = self._evict(min(need, int(count)))
                    if removed == 0:  # pragma: no cover - defensive
                        break
                    evicted += removed
                    db.commit()
                    db.execute("VACUUM")
                    size = self._logical_size()
            remaining = db.execute("SELECT COUNT(*) FROM verdicts").fetchone()[0]
            size_after = self._logical_size()
        if evicted:
            _GC_EVICTED.inc(evicted)
        _SQLITE_GC.observe(time.perf_counter() - started)
        return {
            "evicted": int(evicted),
            "remaining": int(remaining),
            "repaired": int(repaired),
            "size_bytes_before": int(size_before),
            "size_bytes_after": int(size_after),
        }
