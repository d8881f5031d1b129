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
* an attached :class:`~repro.runtime.CertificationRuntime` (the ``runtime=``
  parameter) adds the scaling layer: pool workers attach the training set
  zero-copy from shared memory instead of unpickling a private copy, repeat
  queries answer from the persistent verdict cache (with budget-monotone
  derivation), and long batches checkpoint to a resumable run journal.
  Engines without an explicit runtime still get the shared-memory dataset
  plane by default whenever ``n_jobs > 1``.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import tracemalloc
import uuid
import warnings
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
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
from repro.runtime.fingerprint import fingerprint_dataset, point_digest
from repro.runtime.shm import SharedDatasetHandle
from repro.telemetry import events, metrics, tracing
from repro.telemetry import profiling
from repro.utils.memory import MemoryTracker
from repro.utils.timing import Stopwatch, TimeBudget, TimeoutExceeded
from repro.utils.validation import ValidationError
from repro.verify.abstract_learner import AbstractRunResult, BoxAbstractLearner
from repro.verify.disjunctive_learner import (
    DisjunctBudgetExceeded,
    DisjunctiveAbstractLearner,
)
from repro.verify import search
from repro.verify.result import DOMAINS, VerificationResult, VerificationStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import CertificationRuntime

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
#: when pooled throughput trails serial (``BENCH_parallel.json``).
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
#: Worker-side pool start-up: dataset attach/unpickle plus plan rebuild.
#: Observed in the worker and shipped to the parent via the merge plane.
_POOL_ATTACH_SECONDS = metrics.histogram(
    "pool_attach_seconds",
    "Pool initializer time: dataset attach plus request-plan rebuild.",
)
#: Bytes of pickled per-worker payload (a shm handle or the full dataset).
_POOL_PAYLOAD_BYTES = metrics.gauge(
    "pool_payload_bytes",
    "Pickled size of the per-worker pool payload.",
    labelnames=("kind",),
)
#: Busy fraction of each worker over the last pooled batch's wall time.
_WORKER_UTILIZATION = metrics.gauge(
    "worker_utilization",
    "Fraction of the last pooled batch each worker spent certifying.",
    labelnames=("worker",),
)
#: Parent-side cost of folding worker metric deltas into the registry
#: (``bench_telemetry.py`` keeps this under 5% of pooled batch wall time).
_WORKER_MERGE_SECONDS = metrics.histogram(
    "worker_merge_seconds",
    "Parent-side merge cost per worker metric delta.",
)
#: Filter steps of Box-domain runs, by how they were served: ``reused`` steps
#: replayed a warm trace from a prior budget probe of the same (point,
#: family) by pure budget arithmetic; ``replayed`` steps ran the closed-form
#: ``filter#`` (first probe, or a step whose abstract decisions changed with
#: the budget).
_TRACE_WARMSTART = metrics.counter(
    "trace_warmstart_total",
    "Box-learner filter steps served from a warm ladder trace (result=reused) "
    "versus computed by the closed-form filter# (result=replayed).",
    labelnames=("result",),
)
_TRACE_REUSED = _TRACE_WARMSTART.labels(result="reused")
_TRACE_REPLAYED = _TRACE_WARMSTART.labels(result="replayed")

#: Engine-level bound on retained ladder traces (cleared wholesale on
#: overflow, like the split-plan caches).
_TRACE_CACHE_SIZE = 512


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
    predicate_pool:
        Optional fixed predicate set Φ shared by the concrete and abstract
        learners.  Not supported for the label-flip/composite families (the
        flip ``bestSplit#`` derives candidates from the data).
    runtime:
        Optional :class:`~repro.runtime.CertificationRuntime` providing the
        shared-memory dataset plane, the persistent verdict cache, and
        resumable run journals.  Without one, parallel batches
        (``n_jobs > 1``) still use the process-wide shared-memory default.
    """

    max_depth: int = 2
    domain: str = "either"
    cprob_method: str = "optimal"
    timeout_seconds: Optional[float] = None
    max_disjuncts: int = 4096
    predicate_pool: Optional[Sequence] = None
    impurity: str = "gini"
    runtime: Optional["CertificationRuntime"] = None
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
    # Warm-start ladder traces, keyed (dataset fingerprint, point digest,
    # family).  Plain dict under the GIL: values are immutable LadderTrace
    # objects and a lost race merely recomputes one filter step.
    _trace_cache: dict = field(init=False, repr=False, default_factory=dict)
    # Per-thread (steps, reused) accumulators consumed by the runtime/search
    # layers for `trace_reuse_fraction` reporting.
    _trace_local: threading.local = field(
        init=False, repr=False, default_factory=threading.local
    )

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}, got {self.domain!r}")
        self._trace_learner = TraceLearner(
            max_depth=self.max_depth,
            impurity=self.impurity,
            predicate_pool=self.predicate_pool,
        )
        self._box_learner = BoxAbstractLearner(
            max_depth=self.max_depth,
            cprob_method=self.cprob_method,
            predicate_pool=self.predicate_pool,
        )
        self._disjunctive_learner = DisjunctiveAbstractLearner(
            max_depth=self.max_depth,
            cprob_method=self.cprob_method,
            predicate_pool=self.predicate_pool,
            max_disjuncts=self.max_disjuncts,
        )

    def __getstate__(self) -> dict:
        # Cached plans hold full abstract training sets — shipping them to
        # pool workers would defeat the shared-memory dataset plane, so they
        # are rebuilt worker-side.  The runtime (sqlite handles, shared-memory
        # registries) and the scheduler (locks, in-flight futures, thread
        # pools) are parent-only state and never travel either.
        state = dict(self.__dict__)
        state["_plan_cache"] = {}
        state["runtime"] = None
        state["_scheduler"] = None
        state["_plan_lock"] = None
        state["_trace_cache"] = {}
        state["_trace_local"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._plan_cache = OrderedDict()
        self._plan_lock = threading.Lock()
        self._trace_cache = {}
        self._trace_local = threading.local()

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
        pool (results stay in input order either way).
        """
        watch = Stopwatch().start()
        with tracing.span("engine.verify") as trace_root:
            results = list(self.certify_stream(request, n_jobs=n_jobs))
        runtime_stats = None
        if self.runtime is not None and self.runtime.last_batch_stats is not None:
            runtime_stats = self.runtime.last_batch_stats.snapshot()
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
        distinct point.  With a :class:`~repro.runtime.CertificationRuntime`
        attached, the non-leased remainder flows through its cache/journal
        first and only the misses reach the learners; without one, parallel
        batches still get the process-wide shared-memory dataset plane.
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

    def _stream_rows(
        self,
        dataset: Dataset,
        model: PerturbationModel,
        rows: Sequence[np.ndarray],
        *,
        n_jobs: int = 1,
    ) -> Iterator[VerificationResult]:
        """Certify ``rows`` through the cache/journal/pool machinery, in order.

        This is the batch primitive under the scheduler (which handles
        cross-batch coalescing before delegating here); ``model`` must already
        be class-count resolved.
        """
        workers = min(int(n_jobs), len(rows))
        runtime = self.runtime
        if runtime is not None:
            yield from runtime.stream(self, dataset, model, rows, n_jobs=workers)
            return
        shared_handle = None
        if workers > 1:
            # Deferred import: repro.runtime pulls in this module's siblings.
            from repro.runtime.runtime import default_runtime

            shared_handle = default_runtime().publish(dataset)
        yield from self._compute_stream(
            dataset, rows, model, n_jobs=workers, shared_handle=shared_handle
        )

    def _compute_stream(
        self,
        dataset: Dataset,
        rows: Sequence[np.ndarray],
        model: PerturbationModel,
        *,
        n_jobs: int = 1,
        shared_handle: Optional[SharedDatasetHandle] = None,
    ) -> Iterator[VerificationResult]:
        """Run the learners over ``rows`` in order (no cache consultation).

        This is the compute primitive under :meth:`certify_stream` and the
        runtime layer: each row is one :meth:`_certify_one` call against the
        (dataset, model) plan, mapped through :meth:`_map_rows`.
        """
        yield from self._map_rows(
            dataset, rows, _CertifyRows(model), n_jobs=n_jobs, shared_handle=shared_handle
        )

    def _map_rows(
        self,
        dataset: Dataset,
        rows: Sequence[np.ndarray],
        task: "_RowTask",
        *,
        n_jobs: int = 1,
        shared_handle: Optional[SharedDatasetHandle] = None,
    ) -> Iterator:
        """Apply a per-row ``task`` to ``rows``, yielding its outputs in order.

        The engine's one process pool.  ``task.bind(engine, dataset)`` builds
        the per-row function once per process: in the parent for serial
        runs, in each worker's initializer otherwise.  With ``n_jobs > 1``
        the workers receive ``shared_handle`` (attaching the dataset
        zero-copy) when one is given, and the pickled dataset otherwise;
        pool failures fall back to serial execution of the remaining rows.
        """
        workers = min(int(n_jobs), len(rows))
        if workers <= 1:
            run = task.bind(self, dataset)
            for row in rows:
                yield run(row)
            return
        # Workers rebuild the dataset (from shared memory when possible) and
        # bind the task in the pool initializer, so the parent ships neither
        # plans nor per-row state.
        payload: Union[Dataset, SharedDatasetHandle] = (
            shared_handle if shared_handle is not None else dataset
        )
        _POOL_PAYLOAD_BYTES.set(
            len(pickle.dumps(payload)),
            kind="shared" if shared_handle is not None else "inline",
        )
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
                initargs=(self, payload, task),
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
                    yield from envelope.results
                    yielded += len(envelope.results)
            wall = time.perf_counter() - pool_started
            if wall > 0:
                for worker, seconds in busy_seconds.items():
                    _WORKER_UTILIZATION.set(min(1.0, seconds / wall), worker=worker)
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
        run = task.bind(self, dataset)
        for row in rows[yielded:]:
            yield run(row)

    def certify_point(
        self, dataset: Dataset, x: Sequence[float], model: ModelLike
    ) -> VerificationResult:
        """Certify a single test point (convenience wrapper over :meth:`verify`)."""
        model = resolve_model_classes(as_perturbation_model(model), dataset.n_classes)
        if self.runtime is not None:
            return self.runtime.certify_point(self, dataset, x, model)
        return self._certify_one(
            dataset, np.asarray(x, dtype=float), model, self._plan_for(dataset, model)
        )

    def max_certified(
        self,
        dataset: Dataset,
        x: Sequence[float],
        *,
        model: Optional[PerturbationModel] = None,
        start: int = 1,
        max_budget: Optional[int] = None,
    ):
        """Largest budget in ``[1, max_budget]`` the point is certified for.

        Runs the §6.1 doubling/binary search of
        :func:`repro.verify.search.max_certified_poisoning` against this
        engine for any scalar-budget family (``model`` is the family template
        rebound per probe via ``with_budget``; ``None`` means the paper's
        ``Δn``).  Probes flow through :meth:`certify_point`, so an attached
        runtime answers them from the persistent cache with monotone
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
    ):
        """Maximal certified ``(n_remove, n_flip)`` pairs of one test point.

        The two-dimensional counterpart of :meth:`max_certified` for the
        composite removal+flip family: delegates to
        :func:`repro.verify.search.pareto_frontier` (staircase descent over
        the pair lattice), with probes answered through :meth:`certify_point`
        — and therefore through an attached runtime's componentwise
        pair-dominance cache derivation.
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
    ):
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
        one rebuilt from shared memory — share a plan.  The cache is a true
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
            if self.predicate_pool is not None:
                raise ValidationError(
                    "predicate pools are not supported for the label-flip/"
                    "composite threat models"
                )
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
        dataset: Dataset,
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
        # Warm-start key for the Box rungs: budget-independent on purpose, so
        # the next probe of the same (dataset, point, family) at budget n+1
        # (or the next (r, f) staircase step) finds this probe's trace.
        trace_key = (fingerprint_dataset(dataset), point_digest(x), family)
        with tracing.span("engine.certify_one"):
            with profiling.phase("concrete_predict"):
                # The plan's dataset, not ``dataset``: a fingerprint-equal
                # copy then shares one split plan with the rungs.
                predicted = int(self._trace_learner.predict(plan.trainset.dataset, x))
            watch = Stopwatch().start()
            budget = (
                TimeBudget(self.timeout_seconds)
                if self.timeout_seconds
                else TimeBudget.unlimited()
            )
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
                    outcome = self._run_domain(
                        domain, plan.trainset, x, budget, trace_key=trace_key
                    )
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
        *,
        trace_key: Optional[tuple] = None,
    ) -> "_DomainOutcome":
        """Run one rung of the domain ladder; same learners for every family."""
        is_box = domain not in ("disjuncts", FLIP_DISJUNCTS_DOMAIN)
        learner = self._box_learner if is_box else self._disjunctive_learner
        try:
            with profiling.ladder_stage(domain), tracing.span(f"ladder.{domain}"):
                if is_box:
                    warm = (
                        self._trace_cache.get(trace_key)
                        if trace_key is not None
                        else None
                    )
                    run = learner.run(
                        trainset, x, time_budget=budget, warm_trace=warm
                    )
                    if trace_key is not None:
                        self._record_trace(trace_key, run)
                else:
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

    def _record_trace(self, trace_key: tuple, run: AbstractRunResult) -> None:
        """Retain a Box run's trace and account its warm-start effectiveness."""
        if run.trace is not None:
            if len(self._trace_cache) >= _TRACE_CACHE_SIZE:
                self._trace_cache.clear()
            self._trace_cache[trace_key] = run.trace
        reused = run.trace_reused
        computed = run.trace_steps - reused
        if reused:
            _TRACE_REUSED.inc(reused)
        if computed:
            _TRACE_REPLAYED.inc(computed)
        local = self._trace_local
        local.steps = getattr(local, "steps", 0) + run.trace_steps
        local.reused = getattr(local, "reused", 0) + reused

    def consume_trace_stats(self) -> Tuple[int, int]:
        """``(filter_steps, warm_reused)`` accumulated on this thread; resets.

        The runtime's batch stats and the search-protocol results read their
        ``trace_reuse_fraction`` from this delta, so concurrent threads on a
        shared engine cannot attribute each other's steps to their operation.
        """
        local = self._trace_local
        steps = int(getattr(local, "steps", 0))
        reused = int(getattr(local, "reused", 0))
        local.steps = 0
        local.reused = 0
        return steps, reused

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
# Process-pool plumbing.  Workers receive the engine and the row task once via
# the pool initializer together with either a SharedDatasetHandle (attached
# zero-copy from shared memory) or, as a fallback, the pickled dataset;
# afterwards only the (small) test points travel through the task queue — and
# each chunk's outputs travel back inside a `_WorkerEnvelope` that also
# carries the worker's metric delta for that task, so `n_jobs > 1` runs lose
# no attribution.
# ---------------------------------------------------------------------------


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
        return lambda row: engine._certify_one(dataset, row, self.model, plan)

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
    dataset: Union[Dataset, SharedDatasetHandle],
    task: _RowTask,
) -> None:
    # Snapshot *before* any work: under the fork start method the worker's
    # registry inherits the parent's series wholesale, and everything in this
    # baseline is excluded from the first task's delta.  Attach and plan
    # rebuild happen after, so their cost ships with that first delta.
    _POOL_STATE["baseline"] = metrics.get_registry().snapshot()
    _POOL_STATE["epoch"] = uuid.uuid4().hex[:8]
    _POOL_STATE["task_counter"] = 0
    attach_started = time.perf_counter()
    if isinstance(dataset, SharedDatasetHandle):
        dataset = dataset.attach()
    _POOL_STATE["task"] = task
    _POOL_STATE["run"] = task.bind(engine, dataset)
    _POOL_ATTACH_SECONDS.observe(time.perf_counter() - attach_started)


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
