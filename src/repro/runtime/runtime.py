"""The certification runtime: dataset plane + verdict cache + run journal.

:class:`CertificationRuntime` is the service layer between the stateless
:class:`~repro.api.engine.CertificationEngine` and repeated, overlapping
certification traffic:

* it publishes datasets into the **shared-memory plane**
  (:mod:`repro.runtime.shm`) so process-pool workers attach zero-copy
  instead of unpickling a private copy of the training set;
* it answers repeat queries from the **persistent cache**
  (:mod:`repro.runtime.cache`), including budget-monotone derivations
  (robust at ``n`` ⇒ robust at ``n' ≤ n``; unknown at ``n`` ⇒ unknown at
  ``n' ≥ n``; for the composite removal+flip family the same rules over
  componentwise ``(n_remove, n_flip)`` dominance);
* it checkpoints batch progress in a **run journal**
  (:mod:`repro.runtime.journal`) so a killed batch resumes where it left
  off; and
* it resolves **budget sweeps** (the max certified ``n`` per point) with a
  cache-aware doubling/binary search seeded from prior verdicts.

Attach a runtime to an engine with ``CertificationEngine(runtime=...)``;
engines with no explicit runtime get a process-wide shared-memory-only
runtime automatically whenever ``n_jobs > 1``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace as _replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.core.dataset import Dataset
from repro.poisoning.models import PerturbationModel, resolve_model_classes
from repro.runtime.cache import CACHEABLE_STATUSES, CacheHit, CertificationCache
from repro.runtime.fingerprint import (
    engine_cache_key,
    fingerprint_dataset,
    model_cache_key,
    monotone_in_budget,
    point_digest,
)
from repro.runtime.journal import RunJournal, run_id
from repro.runtime.shm import DatasetStore, SharedDatasetHandle, default_store
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
    shared_memory: bool = False
    truncated_at: Optional[int] = None
    # Box-learner filter steps of this batch's serial learner runs, and how
    # many were warm-started from a prior probe's ladder trace.  Pool workers
    # account their steps in `trace_warmstart_total` via the metric merge
    # plane, not here.
    trace_steps: int = 0
    trace_reused: int = 0

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

    @property
    def trace_reuse_fraction(self) -> float:
        if self.trace_steps == 0:
            return 0.0
        return self.trace_reused / self.trace_steps

    def add(self, other: "BatchStats") -> None:
        self.points += other.points
        self.cache_hits += other.cache_hits
        self.cache_monotone_hits += other.cache_monotone_hits
        self.cache_misses += other.cache_misses
        self.journal_restored += other.journal_restored
        self.deduplicated += other.deduplicated
        self.learner_invocations += other.learner_invocations
        self.shared_memory = self.shared_memory or other.shared_memory
        self.trace_steps += other.trace_steps
        self.trace_reused += other.trace_reused

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
            "shared_memory": self.shared_memory,
            "truncated_at": self.truncated_at,
            "trace_steps": self.trace_steps,
            "trace_reused": self.trace_reused,
            "trace_reuse_fraction": self.trace_reuse_fraction,
        }


@dataclass(frozen=True)
class BudgetSweepOutcome:
    """Per-point outcome of :meth:`CertificationRuntime.budget_sweep`.

    ``trace_steps`` / ``trace_reused`` count the Box-learner filter steps of
    this point's probes and how many were warm-started from a prior probe's
    ladder trace instead of re-running the closed-form ``filter#``.
    """

    max_certified_n: int
    attempts: int
    learner_invocations: int
    trace_steps: int = 0
    trace_reused: int = 0

    @property
    def trace_reuse_fraction(self) -> float:
        return self.trace_reused / self.trace_steps if self.trace_steps else 0.0

    @property
    def ever_certified(self) -> bool:
        return self.max_certified_n > 0


@dataclass(frozen=True)
class ParetoOutcome:
    """Per-point outcome of :meth:`CertificationRuntime.pareto_frontier`.

    ``frontier`` is the staircase of maximal certified ``(n_remove, n_flip)``
    pairs; ``attempted_pairs`` counts every pair the search decided, of which
    ``probes`` reached the verifier (the rest were derived from local pair
    dominance) and only ``learner_invocations`` actually ran the abstract
    learner (the rest were answered by the cache, exactly or by pair
    dominance).
    """

    frontier: tuple
    probes: int
    attempted_pairs: int
    learner_invocations: int
    trace_steps: int = 0
    trace_reused: int = 0

    @property
    def trace_reuse_fraction(self) -> float:
        return self.trace_reused / self.trace_steps if self.trace_steps else 0.0

    def to_dict(self) -> dict:
        """JSON rows shape-compatible with ``ParetoFrontierResult.to_dict``."""
        return {
            "frontier": [[r, f] for r, f in self.frontier],
            "probes": self.probes,
            "attempted_pairs": self.attempted_pairs,
            "learner_invocations": self.learner_invocations,
            "trace_steps": self.trace_steps,
            "trace_reused": self.trace_reused,
        }

    @property
    def ever_certified(self) -> bool:
        return bool(self.frontier)


#: How many uncommitted verdict stores a stream accumulates before flushing;
#: bounds both the fsync amortization and how long a concurrent writer of the
#: same cache can be made to wait.
_STORE_CHUNK = 16


class CertificationRuntime:
    """Shared-memory dataset plane + persistent verdict cache + run journal.

    Parameters
    ----------
    cache_dir:
        Directory for the sqlite verdict cache and the run journals.  ``None``
        disables both (the runtime then only provides the shared-memory
        plane).
    shared_memory:
        Whether to publish datasets into shared memory for pool workers
        (falls back to pickling automatically when the host has no usable
        shared-memory filesystem).
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
        shared_memory: bool = True,
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
        self.shared_memory = shared_memory
        self.resume = resume
        self.max_new_points = max_new_points
        self.stats = BatchStats()
        self._store: Optional[DatasetStore] = None
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

    def _op_invocations(self) -> int:
        """Learner invocations of this thread's current sweep operation.

        Sweeps (:meth:`max_certified`, :meth:`pareto_frontier`) reset this
        thread-local counter before probing and report it afterwards; using
        the shared lifetime counter's delta instead would attribute other
        threads' concurrent work to this operation.
        """
        return int(getattr(self._batch_local, "op_invocations", 0))

    def _reset_op_counters(self) -> None:
        """Zero this thread's per-operation counters before a sweep's probes."""
        self._batch_local.op_invocations = 0
        self._batch_local.op_trace_steps = 0
        self._batch_local.op_trace_reused = 0

    def _op_trace(self) -> tuple:
        return (
            int(getattr(self._batch_local, "op_trace_steps", 0)),
            int(getattr(self._batch_local, "op_trace_reused", 0)),
        )

    # ------------------------------------------------------------- the plane
    def publish(self, dataset: Dataset) -> Optional[SharedDatasetHandle]:
        """Publish a dataset into shared memory (``None`` = unavailable/off)."""
        if not self.shared_memory:
            return None
        if self._store is None:
            self._store = default_store()
        return self._store.publish(dataset)

    # ------------------------------------------------------------- streaming
    def stream(
        self,
        engine,
        dataset: Dataset,
        model: PerturbationModel,
        rows: Sequence[np.ndarray],
        *,
        n_jobs: int = 1,
    ) -> Iterator[VerificationResult]:
        """Certify ``rows`` in order, answering from cache/journal when possible.

        Only cache misses reach the engine's learners; computed verdicts are
        written back to the cache and the journal as they arrive, so the
        stream is resumable at per-point granularity.
        """
        stats = BatchStats(points=len(rows))
        self.last_batch_stats = stats
        consume_trace = getattr(engine, "consume_trace_stats", None)
        if consume_trace is not None:
            # Drop trace-step residue a non-runtime caller may have left on
            # this thread, so this batch's reuse fraction is its own.
            consume_trace()

        fp = fingerprint_dataset(dataset)
        family, budget = model_cache_key(model, len(dataset))
        engine_key = engine_cache_key(engine)
        amount = model.nominal_amount(len(dataset))
        flips = model.nominal_flip_amount(len(dataset))
        log10_datasets = model.log10_num_neighbors(len(dataset))
        monotone = monotone_in_budget(model)
        digests = [point_digest(row) for row in rows]

        journal: Optional[RunJournal] = None
        restored: Dict[int, VerificationResult] = {}
        if self.cache is not None:
            journal = RunJournal(
                self.cache.cache_dir, run_id(fp, digests, family, budget, engine_key)
            )
            if self.resume:
                restored = journal.load()
            else:
                journal.discard()

        pending_stores = 0

        def store_chunked(digest: str, result: VerificationResult) -> None:
            nonlocal pending_stores
            assert self.cache is not None
            if self.cache.store(
                fp, digest, family, engine_key, budget, result, commit=False
            ):
                pending_stores += 1
                if pending_stores >= _STORE_CHUNK:
                    self.cache.commit()
                    pending_stores = 0

        resolved: Dict[int, VerificationResult] = {}
        miss_indices: List[int] = []
        # Duplicate rows within the batch (tiled/augmented test sets) share
        # one verdict: only the first occurrence reaches the learner, and
        # later occurrences copy its result as it lands.
        first_miss_for: Dict[str, int] = {}
        duplicate_of: Dict[int, str] = {}
        cutoff = len(rows)
        for index in range(len(rows)):
            if index in restored:
                # Journal entries are exact-budget verdicts, but the nominal
                # amount may differ (run ids key on the *resolved* budget), so
                # they are re-anchored like cache hits.  They are also written
                # back to the verdict cache: the journal is discarded once the
                # run completes, and a crash may have lost the original store.
                resolved[index] = self._adapt_hit(
                    CacheHit(restored[index], "exact", budget),
                    amount,
                    flips,
                    log10_datasets,
                )
                stats.journal_restored += 1
                _JOURNAL_RESTORED.inc()
                if self.cache is not None:
                    store_chunked(digests[index], resolved[index])
                continue
            if digests[index] in first_miss_for:
                duplicate_of[index] = digests[index]
                stats.deduplicated += 1
                _DEDUPLICATED.inc()
                continue
            if self.cache is not None:
                hit = self.cache.lookup(
                    fp, digests[index], family, engine_key, budget, monotone=monotone
                )
                if hit is not None:
                    resolved[index] = self._adapt_hit(hit, amount, flips, log10_datasets)
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
            first_miss_for[digests[index]] = index
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

        shared_handle = None
        if len(miss_indices) > 1 and n_jobs > 1:
            # A single miss runs serially inside _compute_stream, so don't
            # copy the dataset into shared memory (or claim we did) for it.
            shared_handle = self.publish(dataset)
            stats.shared_memory = shared_handle is not None

        computed: Iterator[VerificationResult] = iter(())
        if miss_indices:
            computed = engine._compute_stream(
                dataset,
                [rows[i] for i in miss_indices],
                model,
                n_jobs=n_jobs,
                shared_handle=shared_handle,
            )

        computed_by_digest: Dict[str, VerificationResult] = {}
        try:
            for index in range(cutoff):
                result = resolved.get(index)
                if result is None:
                    duplicated = duplicate_of.get(index)
                    if duplicated is not None:
                        # The first occurrence is always at a smaller index,
                        # so its verdict has already landed.
                        result = computed_by_digest[duplicated]
                    else:
                        result = next(computed)
                        stats.learner_invocations += 1
                        computed_by_digest[digests[index]] = result
                        if self.cache is not None:
                            store_chunked(digests[index], result)
                        if journal is not None and result.status in CACHEABLE_STATUSES:
                            # Timeouts / resource exhaustion are machine-
                            # dependent; a resumed run must re-attempt them,
                            # not replay them.
                            journal.record(index, result)
                yield result
        finally:
            if self.cache is not None:
                self.cache.commit()
            if consume_trace is not None:
                steps, reused = consume_trace()
                stats.trace_steps += steps
                stats.trace_reused += reused
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
        """Cache-aware single-point certification (used by budget sweeps).

        Cache effectiveness is accounted in :attr:`stats` (budget sweeps
        measure their learner work as a ``learner_invocations`` delta).
        """
        # Budget-search probes reach this entry point directly (not through
        # CertificationRequest), so class-count-dependent families are
        # resolved here before their cache family key is computed.
        model = resolve_model_classes(model, dataset.n_classes)
        row = np.asarray(x, dtype=float)
        fp = fingerprint_dataset(dataset)
        family, budget = model_cache_key(model, len(dataset))
        engine_key = engine_cache_key(engine)
        amount = model.nominal_amount(len(dataset))
        flips = model.nominal_flip_amount(len(dataset))
        if self.cache is not None:
            hit = self.cache.lookup(
                fp,
                point_digest(row),
                family,
                engine_key,
                budget,
                monotone=monotone_in_budget(model),
            )
            if hit is not None:
                with self._stats_lock:
                    if hit.is_exact:
                        self.stats.cache_hits += 1
                        _CACHE_HIT.inc()
                    else:
                        self.stats.cache_monotone_hits += 1
                        _CACHE_MONOTONE.inc()
                return self._adapt_hit(
                    hit, amount, flips, model.log10_num_neighbors(len(dataset))
                )
        consume_trace = getattr(engine, "consume_trace_stats", None)
        if consume_trace is not None:
            consume_trace()
        result = engine._certify_one(
            dataset, row, model, engine._plan_for(dataset, model)
        )
        trace_steps, trace_reused = (
            consume_trace() if consume_trace is not None else (0, 0)
        )
        with self._stats_lock:
            self.stats.cache_misses += 1
            self.stats.learner_invocations += 1
            self.stats.trace_steps += trace_steps
            self.stats.trace_reused += trace_reused
        if self.cache is not None:
            _CACHE_MISS.inc()
        # Per-operation accounting for sweeps: thread-local, so concurrent
        # requests on a shared runtime cannot inflate each other's counts.
        self._batch_local.op_invocations = self._op_invocations() + 1
        self._batch_local.op_trace_steps = (
            int(getattr(self._batch_local, "op_trace_steps", 0)) + trace_steps
        )
        self._batch_local.op_trace_reused = (
            int(getattr(self._batch_local, "op_trace_reused", 0)) + trace_reused
        )
        if self.cache is not None:
            self.cache.store(fp, point_digest(row), family, engine_key, budget, result)
        return result

    # ---------------------------------------------------------- budget sweep
    def budget_sweep(
        self,
        engine,
        dataset: Dataset,
        points: np.ndarray,
        *,
        start: int = 1,
        max_budget: Optional[int] = None,
        model: Optional[PerturbationModel] = None,
    ) -> List[BudgetSweepOutcome]:
        """Max certified budget per point (doubling + binary search, cached).

        Every attempt flows through the verdict cache with monotone
        derivation enabled, so overlapping sweeps — and reruns of the same
        sweep — resolve from prior verdicts instead of re-running the
        learner.  ``model`` is the scalar-budget family template of
        :func:`repro.verify.search.max_certified_poisoning` (``None`` means
        the paper's ``Δn``).
        """
        return [
            self.max_certified(
                engine, dataset, row, start=start, max_budget=max_budget, model=model
            )
            for row in np.asarray(points, dtype=float)
        ]

    def max_certified(
        self,
        engine,
        dataset: Dataset,
        x: Sequence[float],
        *,
        start: int = 1,
        max_budget: Optional[int] = None,
        model: Optional[PerturbationModel] = None,
    ) -> BudgetSweepOutcome:
        """Largest budget in ``[1, max_budget]`` the point is certified for.

        The doubling/binary search itself is
        :func:`repro.verify.search.max_certified_poisoning`; this method only
        binds its attempts to this runtime's cache and counts how many of
        them actually ran the learner.
        """
        self._reset_op_counters()
        outcome = search.max_certified_poisoning(
            _CacheBoundVerifier(self, engine),
            dataset,
            x,
            start=start,
            max_n=max_budget,
            model=model,
        )
        trace_steps, trace_reused = self._op_trace()
        return BudgetSweepOutcome(
            max_certified_n=outcome.max_certified_n,
            attempts=len(outcome.attempts),
            learner_invocations=self._op_invocations(),
            trace_steps=trace_steps,
            trace_reused=trace_reused,
        )

    # --------------------------------------------------------- pareto sweeps
    def pareto_frontier(
        self,
        engine,
        dataset: Dataset,
        x: Sequence[float],
        *,
        max_remove: Optional[int] = None,
        max_flip: Optional[int] = None,
        model: Optional[PerturbationModel] = None,
    ) -> ParetoOutcome:
        """Maximal certified ``(n_remove, n_flip)`` pairs of one point, cached.

        The staircase descent itself is
        :func:`repro.verify.search.pareto_frontier`; this method binds its
        probes to this runtime's cache — whose componentwise pair-dominance
        derivation answers dominated/dominating queries without the learner —
        and counts how many probes actually ran it.
        """
        self._reset_op_counters()
        outcome = search.pareto_frontier(
            _CacheBoundVerifier(self, engine),
            dataset,
            x,
            max_remove=max_remove,
            max_flip=max_flip,
            model=model,
        )
        trace_steps, trace_reused = self._op_trace()
        return ParetoOutcome(
            frontier=outcome.frontier,
            probes=outcome.probes,
            attempted_pairs=len(outcome.attempts),
            learner_invocations=self._op_invocations(),
            trace_steps=trace_steps,
            trace_reused=trace_reused,
        )

    def pareto_sweep(
        self,
        engine,
        dataset: Dataset,
        points: np.ndarray,
        *,
        max_remove: Optional[int] = None,
        max_flip: Optional[int] = None,
        model: Optional[PerturbationModel] = None,
    ) -> List[ParetoOutcome]:
        """Per-point cached Pareto frontiers for a batch of test points.

        Serial by design: the value of the runtime path is that every probe
        shares one verdict cache, so later points (and reruns) are answered
        by dominance derivation.  For cache-less parallel fan-out use
        :func:`repro.verify.search.pareto_sweep` with ``n_jobs``.
        """
        return [
            self.pareto_frontier(
                engine,
                dataset,
                row,
                max_remove=max_remove,
                max_flip=max_flip,
                model=model,
            )
            for row in np.asarray(points, dtype=float)
        ]

    # ----------------------------------------------------------------- misc
    @staticmethod
    def _adapt_hit(
        hit: CacheHit, amount: int, flips: int, log10_datasets: float
    ) -> VerificationResult:
        """Re-anchor a cached verdict to the budget the caller asked about.

        The stored result may come from a different nominal amount (exact
        hits share resolved budgets) or a different budget entirely (monotone
        hits); the status and certificate carry over, while the reported
        ``(amount, flips)`` pair and ``log10 |Δ(T)|`` reflect the current
        query.  Class intervals survive only where they stay sound: a
        *robust* verdict derived from a larger budget keeps its (wider,
        still over-approximating) intervals, but an *unknown* verdict
        derived from a smaller budget drops its intervals — they
        under-approximate what a larger budget can reach.

        ``elapsed_seconds`` / ``peak_memory_bytes`` deliberately keep their
        stored values: per-point numbers describe what the *proof* cost when
        it was computed (provenance), while the report's batch wall-clock
        describes the serving run — a warm rerun shows seconds-long per-point
        proofs under a near-zero batch wall-clock.
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
            changes["message"] = (
                f"derived from cached verdict at budget {hit.stored_budget}"
            )
            if not result.is_certified and result.class_intervals:
                changes["class_intervals"] = ()
        return _replace(result, **changes) if changes else result

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
        # Runtimes never travel to pool workers (the engine drops its
        # reference when pickled), but stay safe if someone pickles one:
        # neither the sqlite connection, the segment registry, nor the lock
        # survive.
        state = dict(self.__dict__)
        state["_store"] = None
        state["_stats_lock"] = None
        state["_batch_local"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._stats_lock = threading.Lock()
        self._batch_local = threading.local()


class _CacheBoundVerifier:
    """Adapter letting `repro.verify.search` attempt budgets through a runtime.

    It exposes the one method the search protocol calls —
    ``certify_point(dataset, x, model)`` — and routes it through the
    runtime's cache, whether or not the engine itself has this (or any)
    runtime attached.
    """

    def __init__(self, runtime: CertificationRuntime, bound_engine) -> None:
        self._runtime = runtime
        self._engine = bound_engine

    def certify_point(self, dataset, x, model):
        return self._runtime.certify_point(self._engine, dataset, x, model)


_DEFAULT_RUNTIME: Optional[CertificationRuntime] = None


def default_runtime() -> CertificationRuntime:
    """The process-wide shared-memory-only runtime (no cache, no journal).

    This is what engines without an explicit ``runtime=`` use for
    ``n_jobs > 1`` batches, giving every parallel caller the zero-copy
    dataset plane by default.
    """
    global _DEFAULT_RUNTIME
    if _DEFAULT_RUNTIME is None:
        _DEFAULT_RUNTIME = CertificationRuntime()
    return _DEFAULT_RUNTIME
