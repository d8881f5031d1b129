"""The certification runtime: verdict cache + run journal + budget searches.

:class:`CertificationRuntime` is the service layer between the stateless
:class:`~repro.api.engine.CertificationEngine` and repeated, overlapping
certification traffic:

* it answers repeat queries from the **persistent cache**
  (:mod:`repro.runtime.cache`), including budget-monotone derivations
  (robust at ``n`` ⇒ robust at ``n' ≤ n``; unknown at ``n`` ⇒ unknown at
  ``n' ≥ n``; for the composite removal+flip family the same rules over
  componentwise ``(n_remove, n_flip)`` dominance);
* it checkpoints batch progress in a **run journal**
  (:mod:`repro.runtime.journal`) so a killed batch resumes where it left
  off; and
* it binds the **budget searches** of :mod:`repro.verify.search` (the max
  certified ``n`` per point, the composite ``(r, f)`` frontier) to that
  cache, so their probes resolve from prior verdicts; they return the same
  result types as the engine's own searches.

Every engine certifies through a runtime: ``CertificationEngine(runtime=...)``
attaches a shared one, and an engine given none builds its own cache-less
runtime.  Process-pool workers never see the parent's: each starts from a
fresh cache-less one, and under the fork start method inherits the training
set from the parent.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.core.dataset import Dataset
from repro.poisoning.models import PerturbationModel, resolve_model_classes
from repro.runtime.cache import (
    CACHEABLE_STATUSES,
    CacheHit,
    CertificationCache,
    reanchor,
)
from repro.runtime.fingerprint import RowKey, monotone_in_budget, row_keys
from repro.runtime.journal import RunJournal, run_id
from repro.telemetry import events, metrics
from repro.verify import search
from repro.verify.result import VerificationResult

_CACHE_LOOKUPS = metrics.counter(
    "cache_lookups_total",
    "Verdict-cache lookups by result (exact hit, monotone derivation, miss).",
    labelnames=("result",),
)
_CACHE_HIT = _CACHE_LOOKUPS.labels(result="hit")
_CACHE_MONOTONE = _CACHE_LOOKUPS.labels(result="monotone")
_CACHE_MISS = _CACHE_LOOKUPS.labels(result="miss")
_JOURNAL_RESTORED = metrics.counter(
    "journal_restored_total", "Verdicts replayed from a resumable run journal."
)
_DEDUPLICATED = metrics.counter(
    "runtime_deduplicated_total",
    "Points answered by another point's work (in-batch dups + delivered leases).",
)


@dataclass
class BatchStats:
    """Counters for one batch (and, summed, for a runtime's lifetime).

    ``learner_invocations`` is the headline number: how many points actually
    ran the abstract learner.  A warm-cache rerun of an identical batch must
    report zero.
    """

    points: int = 0
    cache_hits: int = 0
    cache_monotone_hits: int = 0
    cache_misses: int = 0
    journal_restored: int = 0
    deduplicated: int = 0
    learner_invocations: int = 0
    truncated_at: Optional[int] = None

    @property
    def answered_without_learner(self) -> int:
        return (
            self.cache_hits
            + self.cache_monotone_hits
            + self.journal_restored
            + self.deduplicated
        )

    @property
    def hit_rate(self) -> Optional[float]:
        if self.points == 0:
            return None
        return self.answered_without_learner / self.points

    def add(self, other: "BatchStats") -> None:
        self.points += other.points
        self.cache_hits += other.cache_hits
        self.cache_monotone_hits += other.cache_monotone_hits
        self.cache_misses += other.cache_misses
        self.journal_restored += other.journal_restored
        self.deduplicated += other.deduplicated
        self.learner_invocations += other.learner_invocations

    def snapshot(self) -> dict:
        return {
            "points": self.points,
            "cache_hits": self.cache_hits,
            "cache_monotone_hits": self.cache_monotone_hits,
            "cache_misses": self.cache_misses,
            "journal_restored": self.journal_restored,
            "deduplicated": self.deduplicated,
            "learner_invocations": self.learner_invocations,
            "hit_rate": self.hit_rate,
            "truncated_at": self.truncated_at,
        }


#: How many uncommitted verdict stores a stream accumulates before flushing;
#: bounds both the fsync amortization and how long a concurrent writer of the
#: same cache can be made to wait.
_STORE_CHUNK = 16


class CertificationRuntime:
    """Persistent verdict cache + run journal + budget searches.

    Parameters
    ----------
    cache_dir:
        Directory for the sqlite verdict cache and the run journals.  ``None``
        disables both: the runtime then only deduplicates within batches and
        runs searches.  An engine built without a runtime holds such a
        cache-less one.
    resume:
        Whether :meth:`stream` replays a prior journal for the same run id
        (``False`` discards prior progress and starts fresh).
    max_new_points:
        If set, a batch stops after this many *new* learner invocations (the
        journal keeps the progress); used to bound the cost of one run and to
        exercise the interrupt/resume path deterministically.  A truncated
        batch yields (and reports) fewer results than requested points —
        check ``last_batch_stats.truncated_at`` (also exported as
        ``runtime_stats["truncated_at"]`` in the report) before treating a
        report as complete.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        *,
        resume: bool = True,
        max_new_points: Optional[int] = None,
    ) -> None:
        if max_new_points is not None and cache_dir is None:
            # Without a journal the truncated remainder is unrecoverable: the
            # batch could never complete no matter how often it is rerun.
            raise ValueError("max_new_points requires a cache_dir to journal progress")
        self.cache: Optional[CertificationCache] = (
            CertificationCache(cache_dir) if cache_dir is not None else None
        )
        self.resume = resume
        self.max_new_points = max_new_points
        self.stats = BatchStats()
        # Lifetime counters are read/written by concurrent streams (service
        # handler threads, scheduler submissions); int += is not atomic.
        self._stats_lock = threading.Lock()
        # Per-batch counters are thread-local: concurrent streams (service
        # handlers, scheduler submissions) must not clobber each other's
        # report stats.  Readers consume the stream and read the stats on
        # the same thread.
        self._batch_local = threading.local()

    @property
    def last_batch_stats(self) -> Optional[BatchStats]:
        """Counters of the most recent batch streamed *on this thread*.

        ``None`` when this thread has not streamed a batch — including a
        batch whose points were all leased from another in-flight stream.
        """
        return getattr(self._batch_local, "stats", None)

    @last_batch_stats.setter
    def last_batch_stats(self, stats: Optional[BatchStats]) -> None:
        self._batch_local.stats = stats

    # ------------------------------------------------------------- streaming
    def stream(
        self,
        engine,
        dataset: Dataset,
        model: PerturbationModel,
        rows: Sequence[np.ndarray],
        keys: Sequence[RowKey],
        *,
        n_jobs: int = 1,
    ) -> Iterator[VerificationResult]:
        """Certify ``rows`` in order, answering from cache/journal when possible.

        ``keys`` are the rows' :func:`~repro.runtime.fingerprint.row_keys`,
        as the scheduler built them.  Only cache misses reach the engine's
        learners, and a row repeated within the batch reaches them once;
        computed verdicts are written back to the cache and the journal as
        they arrive, so the stream is resumable at per-point granularity.
        """
        stats = BatchStats(points=len(rows))
        self.last_batch_stats = stats

        amount = model.nominal_amount(len(dataset))
        flips = model.nominal_flip_amount(len(dataset))
        log10_datasets = model.log10_num_neighbors(len(dataset))
        monotone = monotone_in_budget(model)

        journal: Optional[RunJournal] = None
        restored: Dict[int, VerificationResult] = {}
        if self.cache is not None and keys:
            first = keys[0]
            journal = RunJournal(
                self.cache.cache_dir,
                run_id(
                    first.dataset,
                    [key.point for key in keys],
                    first.family,
                    first.budget,
                    first.engine,
                ),
            )
            if self.resume:
                restored = journal.load()
            else:
                journal.discard()

        pending_stores = 0

        def store_chunked(key: RowKey, result: VerificationResult) -> None:
            nonlocal pending_stores
            assert self.cache is not None
            if self.cache.store(*_cache_args(key), result, commit=False):
                pending_stores += 1
                if pending_stores >= _STORE_CHUNK:
                    self.cache.commit()
                    pending_stores = 0

        resolved: Dict[int, VerificationResult] = {}
        miss_indices: List[int] = []
        # Duplicate rows within the batch (tiled/augmented test sets) share
        # one verdict: only the first occurrence reaches the learner, and
        # later occurrences copy its result as it lands.
        first_miss_for: Dict[RowKey, int] = {}
        duplicate_of: Dict[int, RowKey] = {}
        cutoff = len(rows)
        for index, key in enumerate(keys):
            if index in restored:
                # Journal entries are exact-budget verdicts, but the nominal
                # amount may differ (run ids key on the *resolved* budget), so
                # they are re-anchored like cache hits.  They are also written
                # back to the verdict cache: the journal is discarded once the
                # run completes, and a crash may have lost the original store.
                resolved[index] = reanchor(
                    CacheHit(restored[index], "exact", key.budget),
                    amount,
                    flips,
                    log10_datasets,
                )
                stats.journal_restored += 1
                _JOURNAL_RESTORED.inc()
                store_chunked(key, resolved[index])
                continue
            if key in first_miss_for:
                duplicate_of[index] = key
                stats.deduplicated += 1
                _DEDUPLICATED.inc()
                continue
            if self.cache is not None:
                hit = self.cache.lookup(*_cache_args(key), monotone=monotone)
                if hit is not None:
                    resolved[index] = reanchor(hit, amount, flips, log10_datasets)
                    if hit.is_exact:
                        stats.cache_hits += 1
                    else:
                        stats.cache_monotone_hits += 1
                    continue
            if (
                self.max_new_points is not None
                and len(miss_indices) >= self.max_new_points
            ):
                # The stream stays in input order, so it stops at the first
                # miss it is no longer allowed to compute; later points are
                # neither looked up nor counted — the stats describe exactly
                # what this run served.
                cutoff = index
                stats.truncated_at = index
                break
            first_miss_for[key] = index
            miss_indices.append(index)
        stats.points = cutoff
        # Without a cache there is nothing to miss — only report cache
        # counters a persistent cache actually produced.
        stats.cache_misses = len(miss_indices) if self.cache is not None else 0
        # One amortized increment per batch, not one per point: the lookup
        # loop above is the warm hot path the <5% overhead budget guards.
        if stats.cache_hits:
            _CACHE_HIT.inc(stats.cache_hits)
        if stats.cache_monotone_hits:
            _CACHE_MONOTONE.inc(stats.cache_monotone_hits)
        if stats.cache_misses:
            _CACHE_MISS.inc(stats.cache_misses)
        # learner_invocations counts computed results as they arrive (below),
        # so an abandoned or failed stream does not overstate the work done.

        computed: Iterator[VerificationResult] = iter(())
        if miss_indices:
            computed = engine._compute_stream(
                dataset, [rows[i] for i in miss_indices], model, n_jobs=n_jobs
            )

        computed_by_key: Dict[RowKey, VerificationResult] = {}
        try:
            for index in range(cutoff):
                result = resolved.get(index)
                if result is None:
                    duplicated = duplicate_of.get(index)
                    if duplicated is not None:
                        # The first occurrence is always at a smaller index,
                        # so its verdict has already landed.
                        result = computed_by_key[duplicated]
                    else:
                        result = next(computed)
                        stats.learner_invocations += 1
                        computed_by_key[keys[index]] = result
                        if self.cache is not None:
                            store_chunked(keys[index], result)
                        if journal is not None and result.status in CACHEABLE_STATUSES:
                            # Timeouts / resource exhaustion are machine-
                            # dependent; a resumed run must re-attempt them,
                            # not replay them.
                            journal.record(index, result)
                yield result
        finally:
            if self.cache is not None:
                self.cache.commit()
            with self._stats_lock:
                self.stats.add(stats)
            events.emit("runtime.batch", **stats.snapshot())
        if journal is not None and cutoff == len(rows):
            # Once the run completes, every journaled verdict also lives in
            # the (now committed) cache — drop the journal so the cache
            # directory does not accumulate one file per finished batch.
            journal.discard()

    # ------------------------------------------------------------ point-wise
    def certify_point(
        self,
        engine,
        dataset: Dataset,
        x: Sequence[float],
        model: PerturbationModel,
    ) -> VerificationResult:
        """Cache-aware single-point certification (used by budget searches).

        Cache effectiveness is accounted in :attr:`stats`; a budget search
        reads its own learner work from the engine's :meth:`tally`.
        """
        # Budget-search probes reach this entry point directly (not through
        # CertificationRequest), so class-count-dependent families are
        # resolved here before their cache family key is computed.
        model = resolve_model_classes(model, dataset.n_classes)
        row = np.asarray(x, dtype=float)
        (key,) = row_keys(engine, dataset, model, [row])
        if self.cache is not None:
            hit = self.cache.lookup(
                *_cache_args(key), monotone=monotone_in_budget(model)
            )
            if hit is not None:
                with self._stats_lock:
                    if hit.is_exact:
                        self.stats.cache_hits += 1
                        _CACHE_HIT.inc()
                    else:
                        self.stats.cache_monotone_hits += 1
                        _CACHE_MONOTONE.inc()
                return reanchor(
                    hit,
                    model.nominal_amount(len(dataset)),
                    model.nominal_flip_amount(len(dataset)),
                    model.log10_num_neighbors(len(dataset)),
                )
        result = engine._certify_one(row, model, engine._plan_for(dataset, model))
        with self._stats_lock:
            self.stats.learner_invocations += 1
            if self.cache is not None:
                self.stats.cache_misses += 1
        if self.cache is not None:
            _CACHE_MISS.inc()
            self.cache.store(*_cache_args(key), result)
        return result

    # ---------------------------------------------------------- budget search
    def max_certified(
        self,
        engine,
        dataset: Dataset,
        x: Sequence[float],
        *,
        start: int = 1,
        max_budget: Optional[int] = None,
        model: Optional[PerturbationModel] = None,
    ) -> search.PoisoningSearchResult:
        """Largest budget in ``[1, max_budget]`` the point is certified for.

        The doubling/binary search itself is
        :func:`repro.verify.search.max_certified_poisoning`; this method only
        binds its attempts to this runtime's cache, with monotone derivation,
        so overlapping searches (and reruns) resolve from prior verdicts.
        """
        return search.max_certified_poisoning(
            _CacheBoundVerifier(self, engine),
            dataset,
            x,
            start=start,
            max_n=max_budget,
            model=model,
        )

    def pareto_frontier(
        self,
        engine,
        dataset: Dataset,
        x: Sequence[float],
        *,
        max_remove: Optional[int] = None,
        max_flip: Optional[int] = None,
        model: Optional[PerturbationModel] = None,
    ) -> search.ParetoFrontierResult:
        """Maximal certified ``(n_remove, n_flip)`` pairs of one point, cached.

        The staircase descent itself is
        :func:`repro.verify.search.pareto_frontier`; this method binds its
        probes to this runtime's cache, whose componentwise pair-dominance
        derivation answers dominated/dominating queries without the learner.
        """
        return search.pareto_frontier(
            _CacheBoundVerifier(self, engine),
            dataset,
            x,
            max_remove=max_remove,
            max_flip=max_flip,
            model=model,
        )

    def record_coalesced(self, count: int) -> None:
        """Credit ``count`` points answered by another batch's in-flight work.

        Called by the :class:`~repro.api.scheduler.CertificationScheduler`
        when a batch leases points instead of computing (or cache-probing)
        them, so the lifetime ``deduplicated`` counter covers cross-batch
        coalescing as well as in-batch duplicates.
        """
        with self._stats_lock:
            self.stats.deduplicated += count
        _DEDUPLICATED.inc(count)

    def stats_snapshot(self) -> dict:
        """A consistent copy of the lifetime counters, taken under the lock.

        External readers (the service's ``stats`` op, the CLI summary lines)
        must come through here instead of reaching into ``self.stats`` so
        they never observe a batch's counters mid-update.
        """
        with self._stats_lock:
            return self.stats.snapshot()

    def __getstate__(self) -> dict:
        # Runtimes never travel to pool workers (a pickled or forked engine
        # starts from a fresh cache-less runtime), but stay safe if someone
        # pickles one: neither the sqlite connection (the cache drops it) nor
        # the locks survive.
        state = dict(self.__dict__)
        state["_stats_lock"] = None
        state["_batch_local"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()
        self._batch_local = threading.local()


def _cache_args(key: RowKey) -> tuple:
    """A row key in the argument order of the cache's ``lookup``/``store``."""
    return key.dataset, key.point, key.family, key.engine, key.budget


class _CacheBoundVerifier:
    """Adapter letting `repro.verify.search` attempt budgets through a runtime.

    It exposes the two methods the search protocol calls:
    ``certify_point(dataset, x, model)``, routed through the runtime's cache
    whether or not the engine itself holds this runtime, and
    ``tally()``, the bound engine's learner-run count, from which the search
    reads its learner invocations.
    """

    def __init__(self, runtime: CertificationRuntime, bound_engine) -> None:
        self._runtime = runtime
        self._engine = bound_engine

    def certify_point(self, dataset, x, model):
        return self._runtime.certify_point(self._engine, dataset, x, model)

    def tally(self):
        return self._engine.tally()
