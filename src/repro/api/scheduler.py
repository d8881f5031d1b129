"""Async submission and cross-batch coalescing for the certification engine.

The certification workload is embarrassingly request-shaped — one
``(dataset, point, threat model, engine config)`` quadruple maps to one
verdict — which means *identical* requests arriving concurrently (N clients
of a certification service asking about the same point, overlapping batches
of a sweep) should cost one learner invocation, not N.  The persistent cache
already deduplicates across *time*; this module deduplicates across
*in-flight work*:

* :class:`CertificationScheduler` keeps a table of in-flight certification
  keys — :class:`~repro.runtime.fingerprint.RowKey`, the content-addressed
  identity the verdict cache uses — and lets a batch that encounters a key
  another batch is already computing *lease* that batch's future instead of
  recomputing the point;
* :meth:`CertificationScheduler.submit` is the asynchronous face: it returns
  a :class:`BatchSubmission` of per-point futures immediately and certifies
  the request on a background thread (coalescing with every other in-flight
  submission);
* ``CertificationEngine.certify_batch`` / ``certify_stream`` are thin clients
  of :meth:`stream_rows`, so synchronous callers participate in the same
  in-flight table as asynchronous and remote (``repro.service``) ones;
  the points a batch owns go on, with their keys, to the engine's runtime.

Leased results are re-anchored to the lessee's nominal budget by the rule
cache hits use (:func:`repro.runtime.cache.reanchor`: two models resolving to
the same family and budget share one proof), and a lease whose owner fails
or abandons its stream falls back to certifying the point through the
runtime — coalescing is an optimization, never a new failure mode.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.api.report import CertificationReport
from repro.api.request import CertificationRequest
from repro.core.dataset import Dataset
from repro.poisoning.models import PerturbationModel
from repro.runtime.cache import CacheHit, reanchor
from repro.runtime.fingerprint import RowKey, row_keys
from repro.telemetry import events, metrics, tracing
from repro.utils.timing import Stopwatch
from repro.verify.result import VerificationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.engine import CertificationEngine

_BATCHES = metrics.counter(
    "scheduler_batches_total", "Batches streamed through the scheduler."
)
_SUBMITTED = metrics.counter(
    "scheduler_submitted_total", "Points submitted across all batches."
)
_COALESCED = metrics.counter(
    "scheduler_coalesced_total",
    "Points leased from another batch's in-flight computation.",
)
_LEASE_FALLBACKS = metrics.counter(
    "scheduler_lease_fallback_total",
    "Leases whose owner failed/stalled, recomputed locally.",
)
_LEASE_WAIT_SECONDS = metrics.histogram(
    "scheduler_lease_wait_seconds",
    "Time a batch spent blocked on another batch's in-flight future.",
)


class InflightAbandoned(RuntimeError):
    """The batch owning an in-flight computation exited before resolving it.

    Lessees never see this exception: :meth:`CertificationScheduler.stream_rows`
    catches it (and any other owner-side failure) and recomputes the leased
    point locally.
    """


@dataclass
class SchedulerStats:
    """Lifetime counters of one scheduler (shown by the service ``stats`` op).

    ``coalesced`` is the headline number: leases granted against another
    batch's in-flight computation instead of running (or even cache-probing)
    one's own.  (A granted lease whose owner fails or stalls is recomputed
    locally — the runtime's lifetime counters record only *delivered*
    leases as deduplicated work.)
    """

    batches: int = 0
    submitted: int = 0
    coalesced: int = 0

    def snapshot(self) -> dict:
        return {
            "batches": self.batches,
            "submitted": self.submitted,
            "coalesced": self.coalesced,
        }


@dataclass
class BatchSubmission:
    """Handle for one asynchronously submitted certification request.

    ``futures`` holds one :class:`concurrent.futures.Future` per request
    point, in request order; :meth:`gather` blocks for all of them and
    :meth:`report` aggregates them into the same
    :class:`~repro.api.report.CertificationReport` a synchronous
    ``verify(request)`` would have produced.
    """

    request: CertificationRequest
    futures: List["Future[VerificationResult]"]
    _watch: Stopwatch = field(default_factory=lambda: Stopwatch().start())
    #: Runtime counters of the batch, captured by the submission thread once
    #: the stream completes (``None`` before completion, or when every point
    #: was leased from another batch).
    _runtime_stats: Optional[dict] = None
    #: Set by the submission thread after the stream (and the stats capture
    #: above) finished — the last future resolves slightly *before* that.
    _completed: threading.Event = field(default_factory=threading.Event)

    def done(self) -> bool:
        return all(future.done() for future in self.futures)

    def gather(self, timeout: Optional[float] = None) -> List[VerificationResult]:
        """Block until every point is certified; results in request order.

        ``timeout`` bounds the wait *per point* (the futures resolve in
        request order, so the total wait is at most ``timeout × points``).
        """
        return [future.result(timeout) for future in self.futures]

    def report(self, timeout: Optional[float] = None) -> CertificationReport:
        """Gather into an aggregate report (see :meth:`gather` for waiting)."""
        results = self.gather(timeout)
        self._completed.wait(timeout)
        return CertificationReport(
            results=results,
            model_description=self.request.model.describe(),
            dataset_name=self.request.dataset.name,
            total_seconds=self._watch.elapsed(),
            runtime_stats=self._runtime_stats,
        )


class CertificationScheduler:
    """Coalesce identical in-flight certification work across batches.

    One scheduler guards one engine (``engine.scheduler`` creates it lazily);
    every batch path of that engine — synchronous streams, asynchronous
    submissions, and service requests — registers its points here before
    computing, so concurrent identical questions are answered once.
    """

    #: Background threads driving asynchronous submissions.  The learner is
    #: CPU-bound pure Python, so this is about *concurrency* (overlapping
    #: submissions coalescing against each other), not parallelism — process
    #: pools via ``n_jobs`` remain the parallel execution vehicle.
    DEFAULT_WORKERS = 4

    #: How long a lessee waits for the owning batch before giving up and
    #: computing the point itself.  An owner's stream advances only as fast
    #: as its consumer, so a stalled consumer (a hung streaming client) must
    #: not block other batches forever; the fallback trades duplicated work
    #: for boundedness.
    LEASE_TIMEOUT_SECONDS = 600.0

    def __init__(self, engine: "CertificationEngine", *, max_workers: int = DEFAULT_WORKERS) -> None:
        self._engine = engine
        self._max_workers = max_workers
        self._lock = threading.Lock()
        self._inflight: Dict[RowKey, "Future[VerificationResult]"] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self.stats = SchedulerStats()

    def stats_snapshot(self) -> dict:
        """A consistent copy of the coalescing counters, taken under the lock."""
        with self._lock:
            return self.stats.snapshot()

    # -------------------------------------------------------------- streaming
    def stream_rows(
        self,
        dataset: Dataset,
        model: PerturbationModel,
        rows: Sequence[np.ndarray],
        *,
        n_jobs: int = 1,
    ) -> Iterator[VerificationResult]:
        """Certify ``rows`` in order; the coalescing core under every batch.

        Points whose key another batch is already computing are *leased* (the
        other batch's future answers them); the remainder goes, with its
        keys, to the engine's runtime (cache, journal, in-batch duplicates,
        process pool), so a batch with no concurrent overlap behaves exactly
        as before this layer existed.
        """
        engine = self._engine
        runtime = engine.runtime
        with tracing.span("scheduler.dispatch"):
            keys = row_keys(engine, dataset, model, rows)
        owned_indices: List[int] = []
        owned_futures: Dict[RowKey, "Future[VerificationResult]"] = {}
        leases: Dict[int, "Future[VerificationResult]"] = {}
        with self._lock:
            self.stats.batches += 1
            self.stats.submitted += len(rows)
            for index, key in enumerate(keys):
                if key in owned_futures:
                    # In-batch duplicate: owned by this batch's first
                    # occurrence; the runtime runs the learner once for both.
                    owned_indices.append(index)
                    continue
                future = self._inflight.get(key)
                if future is not None:
                    leases[index] = future
                    self.stats.coalesced += 1
                    continue
                future = Future()
                future.set_running_or_notify_cancel()
                self._inflight[key] = future
                owned_futures[key] = future
                owned_indices.append(index)
        _BATCHES.inc()
        _SUBMITTED.inc(len(rows))
        if leases:
            _COALESCED.inc(len(leases))
        # One event per batch: how the points split between freshly registered
        # in-flight leases (owned, computed here) and leases of other batches'
        # futures (coalesced).  Carries the thread's bound request id.
        events.emit(
            "scheduler.lease",
            points=len(rows),
            owned=len(owned_indices),
            coalesced=len(leases),
            n_jobs=n_jobs,
        )
        amount = model.nominal_amount(len(dataset))
        flips = model.nominal_flip_amount(len(dataset))
        log10_datasets = model.log10_num_neighbors(len(dataset))
        # A fully-leased batch never reaches runtime.stream; reset the
        # thread-local batch counters so a report built after this stream
        # cannot pick up a *previous* batch's stats from a reused thread.
        runtime.last_batch_stats = None
        try:
            computed: Iterator[VerificationResult] = iter(())
            if owned_indices:
                computed = runtime.stream(
                    engine,
                    dataset,
                    model,
                    [rows[i] for i in owned_indices],
                    [keys[i] for i in owned_indices],
                    n_jobs=n_jobs,
                )
            for index in range(len(rows)):
                lease = leases.get(index)
                if lease is None:
                    with tracing.span("scheduler.point"):
                        try:
                            result = next(computed)
                        except StopIteration:
                            # The batch machinery truncated the stream (a
                            # runtime's max_new_points budget ran out); end
                            # this stream the same way — un-computed futures
                            # are released as abandoned below.
                            return
                        future = owned_futures.get(keys[index])
                        if future is not None and not future.done():
                            future.set_result(result)
                    yield result
                    continue
                wait_started = Stopwatch().start()
                try:
                    leased = lease.result(timeout=self.LEASE_TIMEOUT_SECONDS)
                except BaseException:
                    # The owning batch failed, was abandoned mid-stream, or
                    # its consumer stalled past the lease timeout; compute
                    # the point ourselves rather than surfacing (or waiting
                    # on) a stranger's failure.  The local computation is
                    # what the lifetime stats count — nothing was saved.
                    _LEASE_WAIT_SECONDS.observe(wait_started.elapsed())
                    _LEASE_FALLBACKS.inc()
                    with tracing.span("scheduler.lease_fallback"):
                        fallback = runtime.certify_point(
                            engine, dataset, rows[index], model
                        )
                    yield fallback
                else:
                    _LEASE_WAIT_SECONDS.observe(wait_started.elapsed())
                    # Only a *delivered* lease is deduplicated work.
                    runtime.record_coalesced(1)
                    yield reanchor(
                        CacheHit(leased, "exact", keys[index].budget),
                        amount,
                        flips,
                        log10_datasets,
                    )
            # Advance the batch generator past its final yield so its
            # completion work (journal discard, lifetime stats accounting)
            # runs now, not at garbage collection.  A truncated stream
            # returned above instead, leaving its journal for --resume.
            for _ in computed:  # pragma: no cover - defensive, never yields
                pass
        finally:
            self._release(owned_futures)

    # ------------------------------------------------------------- submission
    def submit(
        self, request: CertificationRequest, *, n_jobs: int = 1
    ) -> BatchSubmission:
        """Certify a request asynchronously; returns per-point futures now.

        The batch runs on a background thread through the engine's
        ``certify_stream``, so it coalesces with every other in-flight
        submission and synchronous stream of this engine.
        """
        futures: List["Future[VerificationResult]"] = [
            Future() for _ in range(request.n_points)
        ]
        submission = BatchSubmission(request=request, futures=futures)
        self._ensure_executor().submit(self._run_submission, request, submission, n_jobs)
        return submission

    def gather(
        self, submissions: Sequence[BatchSubmission], timeout: Optional[float] = None
    ) -> List[List[VerificationResult]]:
        """Block for several submissions at once (results in submission order)."""
        return [submission.gather(timeout) for submission in submissions]

    def _run_submission(
        self,
        request: CertificationRequest,
        submission: BatchSubmission,
        n_jobs: int,
    ) -> None:
        futures = submission.futures
        try:
            engine = self._engine
            for future, result in zip(
                futures, engine.certify_stream(request, n_jobs=n_jobs)
            ):
                future.set_result(result)
            stats = engine.runtime.last_batch_stats
            if stats is not None:
                submission._runtime_stats = stats.snapshot()
            # A truncated stream (a runtime's max_new_points budget) yields
            # fewer results than points; the leftover futures must resolve,
            # not strand their waiters.
            for future in futures:
                if not future.done():
                    future.set_exception(
                        InflightAbandoned(
                            "the stream ended before this point was certified "
                            "(runtime max_new_points truncation)"
                        )
                    )
        except BaseException as error:  # resolve every waiter, never strand one
            for future in futures:
                if not future.done():
                    future.set_exception(error)
        finally:
            submission._completed.set()

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-scheduler",
                )
            return self._executor

    # ---------------------------------------------------------------- helpers
    def _release(
        self, owned: Dict[RowKey, "Future[VerificationResult]"]
    ) -> None:
        with self._lock:
            for key, future in owned.items():
                if self._inflight.get(key) is future:
                    del self._inflight[key]
        for future in owned.values():
            if not future.done():
                # The stream exited before computing this point (consumer
                # abandoned it, or the compute path raised).  Waiters fall
                # back to local computation when they see the exception.
                future.set_exception(
                    InflightAbandoned("owning batch exited before this point")
                )

    @property
    def inflight_count(self) -> int:
        with self._lock:
            return len(self._inflight)

    def close(self) -> None:
        """Stop the background submission threads (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
