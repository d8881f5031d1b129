"""The unified certification engine: one entry point for every threat model.

:class:`CertificationEngine` is the *how* of certification.  It is configured
once (tree depth, abstract domain, resource budgets) and then solves any
number of :class:`~repro.api.request.CertificationRequest` objects:

* the abstract learners (`BoxAbstractLearner`, `DisjunctiveAbstractLearner`)
  and the concrete trace learner are constructed **once** per engine and
  reused across every certified point;
* the initial abstraction ``⟨T, n, f⟩`` (``f = 0`` for removal models) and
  ``log10 |Δ(T)|`` are computed once per (dataset, model) pair and shared by
  every point of a batch;
* removal-family models (:class:`RemovalPoisoningModel`,
  :class:`FractionalRemovalModel`), :class:`LabelFlipModel`, and
  :class:`CompositePoisoningModel` dispatch through the same
  ``verify(request)`` call into the appropriate abstract-training-set
  initializer — the generic ``Δ(T)`` of the paper — and the flip-family
  models run the same Box/disjunctive domain ladder as removal
  (``domain="either"`` falls back to ``flip-disjuncts`` when ``flip-box``
  is inconclusive);
* ``verify(request, n_jobs=N)`` certifies batches on a process pool, and
  :meth:`certify_stream` yields per-point results incrementally in input
  order for streaming consumers (CLI progress, dashboards);
* every batch and every point goes through the engine's
  :class:`~repro.runtime.CertificationRuntime`, which runs a row repeated
  within a batch once.  A runtime with a cache directory (the ``runtime=``
  parameter) adds the scaling layer: repeat queries answer from the
  persistent verdict cache (with budget-monotone derivation), and long
  batches checkpoint to a resumable run journal.  Without one the engine
  holds a private cache-less runtime.  Pool workers start from a fresh
  cache-less runtime: under the fork start method they inherit the training
  set and the parent's warm request plans.
"""

from __future__ import annotations

import os
import threading
import time
import tracemalloc
import uuid
import warnings
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import (
    Callable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro.api.report import CertificationReport
from repro.api.scheduler import BatchSubmission, CertificationScheduler
from repro.api.request import CertificationRequest, ModelLike, as_perturbation_model
from repro.core.dataset import Dataset
from repro.core.trace_learner import TraceLearner
from repro.domains.trainingset import AbstractTrainingSet
from repro.poisoning.label_flip import FlipAbstractTrainingSet
from repro.poisoning.models import (
    CompositePoisoningModel,
    LabelFlipModel,
    PerturbationModel,
    resolve_model_classes,
)
from repro.runtime.fingerprint import fingerprint_dataset
from repro.runtime.runtime import CertificationRuntime
from repro.telemetry import events, metrics, tracing
from repro.telemetry import profiling
from repro.utils.memory import MemoryTracker
from repro.utils.timing import Stopwatch, TimeBudget, TimeoutExceeded
from repro.utils.validation import ValidationError, check_positive_int
from repro.verify.abstract_learner import AbstractRunResult, BoxAbstractLearner
from repro.verify.disjunctive_learner import (
    DisjunctBudgetExceeded,
    DisjunctiveAbstractLearner,
)
from repro.verify import search
from repro.verify.result import DOMAINS, VerificationResult, VerificationStatus
from repro.verify.transformers import CPROB_METHODS

#: Domain label reported for flip-family certificates proven on the Box-style
#: abstraction of ``⟨T, r, f⟩``.
FLIP_DOMAIN = "flip-box"

#: Domain label reported for flip-family certificates proven on the
#: disjunctive domain (one disjunct per surviving control-flow path, exactly
#: as for removal).
FLIP_DISJUNCTS_DOMAIN = "flip-disjuncts"

#: Models certified on the flip family's ladder: the cache and telemetry
#: family follows the model type, not the element's flip budget.
_FLIP_MODELS = (LabelFlipModel, CompositePoisoningModel)

#: The domain ladder attempted per engine ``domain`` setting, for each model
#: family.  ``"either"`` tries Box first and escalates to the disjunctive
#: domain only when Box is inconclusive — for flips exactly as for removal.
_DOMAIN_LADDERS = {
    "removal": {
        "box": ("box",),
        "disjuncts": ("disjuncts",),
        "either": ("box", "disjuncts"),
    },
    "flip": {
        "box": (FLIP_DOMAIN,),
        "disjuncts": (FLIP_DISJUNCTS_DOMAIN,),
        "either": (FLIP_DOMAIN, FLIP_DISJUNCTS_DOMAIN),
    },
}

#: Learner-side certification latency, by threat-model family, final ladder
#: domain, and outcome.  Only observed on the cold path (cache hits and
#: leases never reach :meth:`CertificationEngine._certify_one`).
_CERTIFY_SECONDS = metrics.histogram(
    "certify_seconds",
    "Per-point certification latency through the abstract learners.",
    labelnames=("family", "domain", "outcome"),
)
#: Actual learner runs in this process (warm serving keeps this flat).
_LEARNER_INVOCATIONS = metrics.counter(
    "learner_invocations_total",
    "Points certified by running the abstract learners (not cache/lease).",
)
#: Pool dispatch latency: task submission in the parent to task start in the
#: worker (queue wait + argument pickling).  The first explanation to check
#: when pooled throughput trails serial (certbench's
#: ``api.engine.pool_efficiency``).
_DISPATCH_OVERHEAD = metrics.histogram(
    "dispatch_overhead_seconds",
    "Pool task latency from parent submit to worker start.",
)
#: Per-worker certification wall time (the busy half of utilization).
_WORKER_TASK_SECONDS = metrics.histogram(
    "worker_task_seconds",
    "Per-task certification wall time inside one pool worker.",
    labelnames=("worker",),
)
#: Worker-side pool start-up: the task bind in the pool initializer.
#: Observed in the worker and shipped to the parent inside its first task's
#: metric delta, so a worker that runs no task never reports its bind.
_POOL_ATTACH_SECONDS = metrics.histogram(
    "pool_attach_seconds",
    "Pool initializer time: the task bind (a plan-cache lookup when the "
    "worker forked from the warm parent). Observed only by workers that ran "
    "at least one task.",
)
#: Batches that asked for ``n_jobs > 1`` and ended in the parent because a
#: pool would not have paid for its workers (see :func:`_pool_pays`).
_POOL_DECLINED = metrics.counter(
    "pool_declined_total",
    "Batches asking for n_jobs > 1 that the parent certified alone because "
    "a pool would not pay for its workers.",
)
#: Busy fraction of each worker over the last pooled batch's wall time.
_WORKER_UTILIZATION = metrics.gauge(
    "worker_utilization",
    "Fraction of the last pooled batch each worker spent certifying.",
    labelnames=("worker",),
)
#: Parent-side cost of folding worker metric deltas into the registry
#: (CI's worker-shipping smoke keeps this under 5% of a pooled batch's wall).
_WORKER_MERGE_SECONDS = metrics.histogram(
    "worker_merge_seconds",
    "Parent-side merge cost per worker metric delta.",
)

@dataclass(frozen=True)
class _RequestPlan:
    """Shared per-(dataset, model) state reused across every point of a batch.

    ``amount`` is the model's nominal budget (what results report, matching
    the legacy driver even when it exceeds the training size); ``budget`` is
    the amount resolved against the training set.  ``trainset`` is the
    initial abstraction ``⟨T, n, f⟩``; ``flips`` the nominal flip budget
    results report.
    """

    amount: int
    budget: int
    log10_datasets: float
    trainset: AbstractTrainingSet
    flips: int = 0


@dataclass
class CertificationEngine:
    """Certify test points against first-class poisoning threat models.

    Parameters
    ----------
    max_depth:
        Decision-tree depth ``d`` of the learner being verified (1–4 in the
        paper's evaluation).
    domain:
        ``"box"``, ``"disjuncts"``, or ``"either"`` (try Box first, fall back
        to the more precise but more expensive disjunctive domain).  Applies
        to every model family; flip-family results report the domain that
        proved them as ``"flip-box"`` / ``"flip-disjuncts"``.
    cprob_method:
        ``"optimal"`` (default, footnote 6) or ``"box"``.
    timeout_seconds:
        Per-point wall-clock budget; ``None`` disables the timeout.
    max_disjuncts:
        Resource limit of the disjunctive learner.
    runtime:
        The :class:`~repro.runtime.CertificationRuntime` every batch and
        point goes through; one with a ``cache_dir`` adds the persistent
        verdict cache and resumable run journals.  ``None`` (the default)
        gives the engine its own cache-less runtime, so after construction
        this is never ``None``.
    """

    max_depth: int = 2
    domain: str = "either"
    cprob_method: str = "optimal"
    timeout_seconds: Optional[float] = None
    max_disjuncts: int = 4096
    impurity: str = "gini"
    runtime: Optional[CertificationRuntime] = None
    _trace_learner: TraceLearner = field(init=False, repr=False)
    _box_learner: BoxAbstractLearner = field(init=False, repr=False)
    _disjunctive_learner: DisjunctiveAbstractLearner = field(init=False, repr=False)
    _plan_cache: "OrderedDict[Tuple[str, PerturbationModel], _RequestPlan]" = field(
        init=False, repr=False, default_factory=OrderedDict
    )
    _plan_lock: threading.Lock = field(
        init=False, repr=False, default_factory=threading.Lock
    )
    _scheduler: Optional[CertificationScheduler] = field(
        init=False, repr=False, default=None
    )
    # Per-thread running learner-run count read by :meth:`tally`.
    _tally_local: threading.local = field(
        init=False, repr=False, default_factory=threading.local
    )

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}, got {self.domain!r}")
        if self.cprob_method not in CPROB_METHODS:
            raise ValueError(
                f"cprob_method must be one of {CPROB_METHODS}, "
                f"got {self.cprob_method!r}"
            )
        # A cap of 0 is well-formed: every disjunctive run then exhausts it.
        self.max_disjuncts = check_positive_int(
            self.max_disjuncts, "max_disjuncts", allow_zero=True
        )
        timeout = self.timeout_seconds
        if timeout is not None and not (isinstance(timeout, Real) and timeout > 0):
            raise ValidationError(
                f"timeout_seconds must be positive or None, got {timeout!r}"
            )
        self._trace_learner = TraceLearner(
            max_depth=self.max_depth, impurity=self.impurity
        )
        self._box_learner = BoxAbstractLearner(
            max_depth=self.max_depth, cprob_method=self.cprob_method
        )
        self._disjunctive_learner = DisjunctiveAbstractLearner(
            max_depth=self.max_depth,
            cprob_method=self.cprob_method,
            max_disjuncts=self.max_disjuncts,
        )
        self.runtime = self.runtime or CertificationRuntime()

    def _worker_state(self, warm: bool) -> dict:
        """This engine's fields as a pool worker gets them.

        The runtime (sqlite handles), the scheduler (locks, in-flight
        futures, thread pools), the plan lock and the per-thread tallies are
        parent-only state and never reach a worker, which starts from a
        fresh cache-less runtime instead.  The plan cache comes along only
        when ``warm``: a forked worker inherits it in memory, while pickling
        it would ship full abstract training sets.
        """
        state = dict(self.__dict__)
        state["_plan_cache"] = {}
        if warm:
            with self._plan_lock:
                state["_plan_cache"] = OrderedDict(self._plan_cache)
        state["runtime"] = None
        state["_scheduler"] = None
        state["_plan_lock"] = None
        state["_tally_local"] = None
        return state

    def _forked_worker(self) -> "CertificationEngine":
        """The engine a forked pool worker starts from: warm, parent-free."""
        engine = object.__new__(CertificationEngine)
        engine.__setstate__(self._worker_state(warm=True))
        return engine

    def __getstate__(self) -> dict:
        return self._worker_state(warm=False)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.runtime = CertificationRuntime()
        self._plan_cache = OrderedDict(state["_plan_cache"])
        self._plan_lock = threading.Lock()
        self._tally_local = threading.local()

    @property
    def scheduler(self) -> CertificationScheduler:
        """The in-flight coalescing scheduler guarding this engine's batches."""
        # Double-checked fast path: reading the reference is atomic, and a
        # stale None only sends us into the locked slow path below.
        scheduler = self._scheduler  # repro: ignore[lock-discipline]
        if scheduler is None:
            with self._plan_lock:
                if self._scheduler is None:
                    self._scheduler = CertificationScheduler(self)
                scheduler = self._scheduler
        return scheduler

    # ----------------------------------------------------------------- public
    def verify(
        self, request: CertificationRequest, *, n_jobs: int = 1
    ) -> CertificationReport:
        """Solve one certification request and aggregate into a report.

        This is the single entry point all threat models flow through; with
        ``n_jobs > 1`` the points of the request are certified on a process
        pool once the batch head shows that one pays (results stay in input
        order either way).
        """
        watch = Stopwatch().start()
        with tracing.span("engine.verify") as trace_root:
            results = list(self.certify_stream(request, n_jobs=n_jobs))
        stats = self.runtime.last_batch_stats
        runtime_stats = None if stats is None else stats.snapshot()
        if trace_root is not None:
            runtime_stats = dict(runtime_stats or {})
            runtime_stats["trace"] = trace_root.to_dict()
        return CertificationReport(
            results=results,
            model_description=request.model.describe(),
            dataset_name=request.dataset.name,
            total_seconds=watch.elapsed(),
            runtime_stats=runtime_stats,
        )

    def certify_batch(
        self,
        dataset: Dataset,
        points: np.ndarray,
        model: ModelLike,
        *,
        n_jobs: int = 1,
    ) -> CertificationReport:
        """Certify every row of ``points`` against ``model`` (order preserved)."""
        return self.verify(
            CertificationRequest(dataset, points, as_perturbation_model(model)),
            n_jobs=n_jobs,
        )

    def certify_stream(
        self, request: CertificationRequest, *, n_jobs: int = 1
    ) -> Iterator[VerificationResult]:
        """Yield one :class:`VerificationResult` per request point, in order.

        The stream is incremental: consumers see each point's verdict as soon
        as it (and every earlier point) is done, which keeps progress
        reporting responsive even for long batches.

        Streams are thin clients of the :attr:`scheduler`: a point another
        batch of this engine is already computing is leased from it instead of
        recomputed, so concurrent overlapping batches — e.g. several service
        clients asking the same question — cost one learner invocation per
        distinct point.  The non-leased remainder flows through the
        engine's :attr:`runtime` (cache and journal when it has a cache
        directory), and only its misses reach the learners, each distinct
        row once.
        """
        dataset = request.dataset
        # Requests resolve n_classes at construction; re-resolving here keeps
        # hand-built requests (or shims bypassing __post_init__) honest.
        model = resolve_model_classes(request.model, dataset.n_classes)
        rows = [np.asarray(row, dtype=float) for row in request.points]
        yield from self.scheduler.stream_rows(dataset, model, rows, n_jobs=n_jobs)

    def submit(
        self, request: CertificationRequest, *, n_jobs: int = 1
    ) -> BatchSubmission:
        """Certify a request asynchronously; returns per-point futures now.

        The submission runs on a scheduler background thread and coalesces
        with every other in-flight batch of this engine: N concurrent
        submissions of the same ``(dataset, point, model)`` cost one learner
        invocation.  ``BatchSubmission.gather()`` blocks for the results (in
        request order); ``BatchSubmission.report()`` aggregates them into the
        same report :meth:`verify` would have produced.
        """
        return self.scheduler.submit(request, n_jobs=n_jobs)

    def _compute_stream(
        self,
        dataset: Dataset,
        rows: Sequence[np.ndarray],
        model: PerturbationModel,
        *,
        n_jobs: int = 1,
    ) -> Iterator[VerificationResult]:
        """Run the learners over ``rows`` in order (no cache consultation).

        This is the compute primitive under the runtime's batch stream: each
        row is one :meth:`_certify_one` call against the (dataset, model)
        plan, mapped through :meth:`_map_rows`.
        """
        yield from self._map_rows(dataset, rows, _CertifyRows(model), n_jobs=n_jobs)

    def _map_rows(
        self,
        dataset: Dataset,
        rows: Sequence[np.ndarray],
        task: "_RowTask",
        *,
        n_jobs: int = 1,
    ) -> Iterator:
        """Apply a per-row ``task`` to ``rows``, yielding its outputs in order.

        The engine's one process pool, started only when it pays.
        ``task.bind(engine, dataset)`` builds the per-row function once per
        process.  With ``n_jobs > 1`` the parent certifies the head of the
        batch itself, which computes the point-independent prefix (request
        plan, split plan, root work) once, and after every row asks
        :func:`_pool_pays` whether workers would win back that prefix on the
        rows left.  A batch that ends in the parent counts in
        ``pool_declined_total``.  A starting pool hands its workers the
        dataset itself: under the fork start method they inherit it and the
        parent's warm request plans, and nothing is copied.  Pool failures
        fall back to the parent's bound task on every row not yet yielded.
        """
        workers = min(int(n_jobs), len(rows))
        if workers <= 1:
            run = task.bind(self, dataset)
            for row in rows:
                yield run(row)
            return
        walls: List[float] = []
        started = time.perf_counter()
        run = task.bind(self, dataset)
        while not _pool_pays(walls, len(rows) - len(walls), workers, _POOL_STARTUP[0]):
            output = run(rows[len(walls)])
            walls.append(time.perf_counter() - started)
            if len(walls) == len(rows):
                # Counted before the last yield: a consumer that takes every
                # row and then closes the stream never resumes it.
                _POOL_DECLINED.inc()
                yield output
                return
            yield output
            started = time.perf_counter()
        rows = rows[len(walls) :]
        workers = min(workers, len(rows))
        startup_began = time.perf_counter()
        request_id = events.current_request_id()
        # Chunked dispatch: one pool task per *group* of rows, not per row.
        # Per-row tasks made the pool slower than serial on fast workloads —
        # each task pays pickling, queue latency, and a metrics snapshot diff,
        # which for sub-100ms certifications outweighed the certification
        # itself.  ~4 chunks per worker keeps the pool load-balanced against
        # stragglers while amortizing the per-task overhead.
        chunk = max(1, -(-len(rows) // (4 * workers)))
        tasks = [
            _WorkerTask(
                rows=rows[start : start + chunk],
                submitted_at=time.time(),
                request_id=request_id,
            )
            for start in range(0, len(rows), chunk)
        ]
        registry = metrics.get_registry()
        busy_seconds: dict = {}
        pool_started = time.perf_counter()
        yielded = 0
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_initializer,
                initargs=(self._forked_worker(), dataset, task),
            ) as executor:
                for envelope in executor.map(_pool_run, tasks):
                    merge_started = time.perf_counter()
                    if envelope.metrics_delta:
                        registry.merge_snapshot(
                            envelope.metrics_delta, task_id=envelope.task_id
                        )
                    _WORKER_MERGE_SECONDS.observe(time.perf_counter() - merge_started)
                    _DISPATCH_OVERHEAD.observe(envelope.dispatch_seconds)
                    _WORKER_TASK_SECONDS.observe(
                        envelope.task_seconds, worker=envelope.worker
                    )
                    busy_seconds[envelope.worker] = (
                        busy_seconds.get(envelope.worker, 0.0) + envelope.task_seconds
                    )
                    if yielded + len(envelope.results) == len(rows):
                        # Booked before the last yield: a consumer that takes
                        # every row and closes the stream never resumes it.
                        _book_pool(busy_seconds, workers, pool_started, startup_began)
                    yield from envelope.results
                    yielded += len(envelope.results)
            return
        except (OSError, BrokenExecutor) as error:
            # Worker processes could not be spawned (sandboxed hosts forbid
            # fork/spawn, and the failure only surfaces once map() runs).
            warnings.warn(
                f"process pool unavailable ({error}); falling back to serial "
                "certification",
                RuntimeWarning,
                stacklevel=2,
            )
        for row in rows[yielded:]:
            yield run(row)

    def certify_point(
        self, dataset: Dataset, x: Sequence[float], model: ModelLike
    ) -> VerificationResult:
        """Certify a single test point through the engine's :attr:`runtime`."""
        return self.runtime.certify_point(
            self, dataset, x, as_perturbation_model(model)
        )

    def max_certified(
        self,
        dataset: Dataset,
        x: Sequence[float],
        *,
        model: Optional[PerturbationModel] = None,
        start: int = 1,
        max_budget: Optional[int] = None,
    ) -> search.PoisoningSearchResult:
        """Largest budget in ``[1, max_budget]`` the point is certified for.

        Runs the §6.1 doubling/binary search of
        :func:`repro.verify.search.max_certified_poisoning` against this
        engine for any scalar-budget family (``model`` is the family template
        rebound per probe via ``with_budget``; ``None`` means the paper's
        ``Δn``).  Probes flow through :meth:`certify_point`, so a runtime
        with a cache answers them from the persistent cache with monotone
        derivation.
        """
        return search.max_certified_poisoning(
            self, dataset, x, start=start, max_n=max_budget, model=model
        )

    def pareto_frontier(
        self,
        dataset: Dataset,
        x: Sequence[float],
        *,
        max_remove: Optional[int] = None,
        max_flip: Optional[int] = None,
        model: Optional[PerturbationModel] = None,
    ) -> search.ParetoFrontierResult:
        """Maximal certified ``(n_remove, n_flip)`` pairs of one test point.

        The two-dimensional counterpart of :meth:`max_certified` for the
        composite removal+flip family: delegates to
        :func:`repro.verify.search.pareto_frontier` (staircase descent over
        the pair lattice), with probes answered through :meth:`certify_point`
        — and therefore through the runtime cache's componentwise
        pair-dominance derivation.
        """
        return search.pareto_frontier(
            self, dataset, x, max_remove=max_remove, max_flip=max_flip, model=model
        )

    def pareto_sweep(
        self,
        dataset: Dataset,
        points: np.ndarray,
        *,
        max_remove: Optional[int] = None,
        max_flip: Optional[int] = None,
        model: Optional[PerturbationModel] = None,
        n_jobs: int = 1,
    ) -> List[search.ParetoFrontierResult]:
        """Per-point Pareto frontiers for a batch of test points.

        ``n_jobs > 1`` spreads the points over this engine's process pool.
        """
        return search.pareto_sweep(
            self,
            dataset,
            points,
            max_remove=max_remove,
            max_flip=max_flip,
            model=model,
            n_jobs=n_jobs,
        )

    # ------------------------------------------------------------- dispatch
    def _plan_for(self, dataset: Dataset, model: PerturbationModel) -> _RequestPlan:
        """The shared initial abstraction for one (dataset, model) pair.

        Keyed by the dataset's content fingerprint: object ids can be
        recycled after a dataset is garbage-collected (serving a stale plan),
        and content keys additionally let equal copies of a dataset — e.g.
        one decoded again from a service request — share a plan.  The cache is a true
        LRU: hits refresh recency, so a hot (dataset, model) plan survives
        interleaved traffic over more than eight pairs.
        """
        key = (fingerprint_dataset(dataset), model)
        with self._plan_lock:
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_cache.move_to_end(key)
                return plan
        with profiling.phase("plan"):
            return self._build_plan(dataset, model, key)

    def _build_plan(
        self, dataset: Dataset, model: PerturbationModel, key: tuple
    ) -> _RequestPlan:
        budget = model.resolve_budget(len(dataset))
        amount = model.nominal_amount(len(dataset))
        log10_datasets = model.log10_num_neighbors(len(dataset))
        if isinstance(model, _FLIP_MODELS):
            removals, flips = model.resolve_budgets(len(dataset))
            plan = _RequestPlan(
                amount=amount,
                budget=budget,
                log10_datasets=log10_datasets,
                trainset=FlipAbstractTrainingSet.full(dataset, removals, flips),
                flips=model.nominal_flip_amount(len(dataset)),
            )
        else:
            plan = _RequestPlan(
                amount=amount,
                budget=budget,
                log10_datasets=log10_datasets,
                trainset=AbstractTrainingSet.full(dataset, budget),
            )
        with self._plan_lock:
            # Concurrent builders of the same plan: last writer wins (the
            # plans are equal; rebuilding one is wasted work, not a bug).
            if len(self._plan_cache) >= 8 and key not in self._plan_cache:
                self._plan_cache.popitem(last=False)
            self._plan_cache[key] = plan
        return plan

    def _certify_one(
        self,
        x: np.ndarray,
        model: PerturbationModel,
        plan: _RequestPlan,
    ) -> VerificationResult:
        """Certify one point: walk the domain ladder of the plan's family.

        Every family flows through the same loop and the same
        :meth:`_build_result`, so result rows are shape-identical across
        removal, label-flip, and composite certificates (including the
        TIMEOUT / RESOURCE_EXHAUSTED counters).
        """
        family = "flip" if isinstance(model, _FLIP_MODELS) else "removal"
        domains = _DOMAIN_LADDERS[family][self.domain]
        with tracing.span("engine.certify_one"):
            with profiling.phase("concrete_predict"):
                # The plan's dataset: a fingerprint-equal copy of the
                # request's then shares one split plan with the rungs.
                predicted = int(self._trace_learner.predict(plan.trainset.dataset, x))
            watch = Stopwatch().start()
            budget = TimeBudget(self.timeout_seconds)
            last_result: Optional[VerificationResult] = None
            # Peak memory only while the caller traces allocations
            # (tracemalloc.start(), -X tracemalloc): starting tracemalloc
            # here would hook every allocation of every point.  Unentered,
            # the tracker reports 0 = not measured.
            memory = MemoryTracker()
            with ExitStack() as scope:
                if tracemalloc.is_tracing():
                    scope.enter_context(memory)
                for domain in domains:
                    outcome = self._run_domain(domain, plan.trainset, x, budget)
                    result = self._build_result(
                        outcome,
                        domain=domain,
                        n=plan.amount,
                        flips=plan.flips,
                        predicted=predicted,
                        log10_datasets=plan.log10_datasets,
                    )
                    last_result = result
                    if result.is_certified:
                        break
            assert last_result is not None
            elapsed = watch.elapsed()
        local = self._tally_local
        local.runs = getattr(local, "runs", 0) + 1
        _LEARNER_INVOCATIONS.inc()
        _CERTIFY_SECONDS.observe(
            elapsed,
            family=family,
            domain=last_result.domain,
            outcome=last_result.status.value,
        )
        return replace(
            last_result,
            elapsed_seconds=elapsed,
            peak_memory_bytes=memory.peak_bytes,
        )

    # ---------------------------------------------------------------- helpers
    def _run_domain(
        self,
        domain: str,
        trainset: AbstractTrainingSet,
        x: Sequence[float],
        budget: TimeBudget,
    ) -> "_DomainOutcome":
        """Run one rung of the domain ladder; same learners for every family."""
        is_box = domain not in ("disjuncts", FLIP_DISJUNCTS_DOMAIN)
        learner = self._box_learner if is_box else self._disjunctive_learner
        try:
            with profiling.ladder_stage(domain), tracing.span(f"ladder.{domain}"):
                run = learner.run(trainset, x, time_budget=budget)
        except TimeoutExceeded as error:
            return _DomainOutcome(run=None, failure=VerificationStatus.TIMEOUT, message=str(error))
        except (DisjunctBudgetExceeded, MemoryError) as error:
            return _DomainOutcome(
                run=None,
                failure=VerificationStatus.RESOURCE_EXHAUSTED,
                message=str(error),
            )
        return _DomainOutcome(run=run, failure=None, message="")

    def tally(self) -> int:
        """How many points ran the learners on this thread.

        The count is never reset: a reader (a budget search's result) takes
        the difference of two readings, so nested readers do not zero each
        other and concurrent threads on a shared engine do not see each
        other's work.
        """
        return getattr(self._tally_local, "runs", 0)

    def _build_result(
        self,
        outcome: "_DomainOutcome",
        *,
        domain: str,
        n: int,
        flips: int,
        predicted: int,
        log10_datasets: float,
    ) -> VerificationResult:
        if outcome.run is None:
            assert outcome.failure is not None
            return VerificationResult(
                status=outcome.failure,
                poisoning_amount=n,
                poisoning_flips=flips,
                predicted_class=predicted,
                certified_class=None,
                class_intervals=(),
                domain=domain,
                elapsed_seconds=0.0,
                peak_memory_bytes=0,
                exit_count=0,
                max_disjuncts=0,
                log10_num_datasets=log10_datasets,
                message=outcome.message,
            )
        run: AbstractRunResult = outcome.run
        robust_class = run.robust_class
        status = (
            VerificationStatus.ROBUST if robust_class is not None else VerificationStatus.UNKNOWN
        )
        return VerificationResult(
            status=status,
            poisoning_amount=n,
            poisoning_flips=flips,
            predicted_class=predicted,
            certified_class=robust_class,
            class_intervals=run.class_intervals,
            domain=domain,
            elapsed_seconds=0.0,
            peak_memory_bytes=0,
            exit_count=run.exit_count,
            max_disjuncts=run.max_disjuncts,
            log10_num_datasets=log10_datasets,
            message="" if status.is_certified else "no dominating class interval",
        )


@dataclass(frozen=True)
class _DomainOutcome:
    run: Optional[AbstractRunResult]
    failure: Optional[VerificationStatus]
    message: str


# ---------------------------------------------------------------------------
# Process-pool plumbing.  A pool starts only once `_pool_pays` says so.  Its
# workers receive the engine, the dataset and the row task once via the pool
# initializer (inherited under fork, pickled once per worker under spawn or
# forkserver); afterwards only the (small) test points travel through the
# task queue — and each chunk's outputs travel
# back inside a `_WorkerEnvelope` that also carries the worker's metric delta
# for that task, so pooled runs lose no attribution.
# ---------------------------------------------------------------------------


#: Start-up seconds of this process's last pool, one slot (0 before any
#: pool ran): the fixed cost the next pool must also win back.
_POOL_STARTUP: List[float] = [0.0]


def _pool_pays(
    walls: Sequence[float], remaining: int, n_jobs: int, startup: float = 0.0
) -> bool:
    """Whether a pool started now would beat the parent on the rows left.

    ``walls`` are the parent's per-row wall times so far, the first one
    including the task's bind.  After h ≥ 2 rows the median of the later ones
    is the per-row cost c, and p = t₀ − c is the point-independent prefix
    (plans, root tables, root splits) that each worker would repeat.  With
    r = ``remaining`` rows over w = min(n_jobs, r) workers, the pool saves
    c·r·(1 − 1/w) of parent time, so it pays only when that exceeds p plus
    ``startup``, the pool's own fixed cost (fork, bind, dispatch)
    as last measured.  A warm batch has p ≈ 0, and ``startup`` alone then
    keeps cheap rows in the parent.
    """
    workers = min(n_jobs, remaining)
    if len(walls) < 2 or workers < 2:
        return False
    per_row = float(np.median(walls[1:]))
    return per_row * remaining * (1 - 1 / workers) > walls[0] - per_row + startup


def _book_pool(
    busy_seconds: Mapping[str, float],
    workers: int,
    pool_started: float,
    startup_began: float,
) -> None:
    """Record a finished pool's worker utilization and its start-up cost."""
    finished = time.perf_counter()
    wall = finished - pool_started
    if wall > 0:
        for worker, seconds in busy_seconds.items():
            _WORKER_UTILIZATION.set(min(1.0, seconds / wall), worker=worker)
    # Fork, bind, dispatch and merge: the batch's wall beyond an
    # even split of the task time over the pool's workers.
    even_split = sum(busy_seconds.values()) / workers
    _POOL_STARTUP[0] = max(0.0, finished - startup_began - even_split)


class _RowTask(Protocol):
    """A picklable per-row job for :meth:`CertificationEngine._map_rows`."""

    def bind(self, engine: CertificationEngine, dataset: Dataset) -> Callable:
        """Build the per-row function (once per process)."""

    def status(self, output) -> Optional[str]:
        """The verdict label of one output for ``worker.task`` events."""


@dataclass(frozen=True)
class _CertifyRows:
    """Certify each row against ``model`` on the shared (dataset, model) plan."""

    model: PerturbationModel

    def bind(self, engine: CertificationEngine, dataset: Dataset) -> Callable:
        plan = engine._plan_for(dataset, self.model)
        return lambda row: engine._certify_one(row, self.model, plan)

    @staticmethod
    def status(output: VerificationResult) -> Optional[str]:
        return output.status.value


_POOL_STATE: dict = {}


@dataclass(frozen=True)
class _WorkerTask:
    """One pool task: a chunk of rows plus its submit timestamp and request id.

    ``submitted_at`` is ``time.time()`` (wall clock — ``perf_counter`` is not
    comparable across processes) so the worker can report dispatch overhead.
    """

    rows: Sequence[np.ndarray]
    submitted_at: float
    request_id: Optional[str]


@dataclass(frozen=True)
class _WorkerEnvelope:
    """A worker's reply: the chunk's outputs plus the telemetry to merge
    parent-side."""

    results: Sequence
    task_id: str
    worker: str
    task_seconds: float
    dispatch_seconds: float
    metrics_delta: Mapping


def _pool_initializer(
    engine: CertificationEngine,
    dataset: Dataset,
    task: _RowTask,
) -> None:
    # Snapshot *before* any work: under the fork start method the worker's
    # registry inherits the parent's series wholesale, and everything in this
    # baseline is excluded from the first task's delta.  Bind happens after,
    # so its cost ships with that first delta.  A forked engine keeps the
    # parent's warm plan cache, which the inherited dataset's fingerprint
    # hits: bind is then a lookup, not a rebuild.
    _POOL_STATE["baseline"] = metrics.get_registry().snapshot()
    _POOL_STATE["epoch"] = uuid.uuid4().hex[:8]
    _POOL_STATE["task_counter"] = 0
    bind_started = time.perf_counter()
    _POOL_STATE["task"] = task
    _POOL_STATE["run"] = task.bind(engine, dataset)
    _POOL_ATTACH_SECONDS.observe(time.perf_counter() - bind_started)


def _pool_run(task: _WorkerTask) -> _WorkerEnvelope:
    state = _POOL_STATE
    started = time.time()
    dispatch_seconds = max(0.0, started - task.submitted_at)
    task_started = time.perf_counter()
    run = state["run"]
    results = [run(row) for row in task.rows]
    task_seconds = time.perf_counter() - task_started
    worker = str(os.getpid())
    state["task_counter"] += 1
    task_id = f"{state['epoch']}:{worker}:{state['task_counter']}"
    after = metrics.get_registry().snapshot()
    delta = metrics.diff_snapshots(state["baseline"], after)
    state["baseline"] = after
    statuses = {state["task"].status(result) for result in results}
    events.emit(
        "worker.task",
        rid=task.request_id,
        worker=worker,
        task_id=task_id,
        seconds=task_seconds,
        dispatch_seconds=dispatch_seconds,
        points=len(results),
        status=statuses.pop() if len(statuses) == 1 else "mixed",
    )
    return _WorkerEnvelope(
        results=results,
        task_id=task_id,
        worker=worker,
        task_seconds=task_seconds,
        dispatch_seconds=dispatch_seconds,
        metrics_delta=delta,
    )
