"""The certified-budget search protocols of §6.1, generalized over families.

The paper explores, for every test point, how much poisoning it can be proven
robust against: start at ``n = 1``, double ``n`` while the proof still
succeeds, and binary-search between the last success and the first failure.
This module provides that protocol — and its two-dimensional generalization —
for *every* :class:`~repro.poisoning.models.PerturbationModel` family, via the
``with_budget(n)`` / ``with_budgets(r, f)`` rebinding protocol on the models:

* :func:`max_certified_poisoning` — the per-point doubling + binary search,
  returning the largest ``n`` for which the verifier certifies the point.
  The doubling phase clamps its final attempt to ``max_n``, so a cap that is
  not a power of two times the start is still searched exactly (certified at
  8 with ``max_n = 10`` probes 10, then binary-searches 9–10);
* :func:`robustness_sweep` — the dataset-level sweep used to regenerate
  Figure 6: the fraction of test points certified at each budget level,
  re-attempting at level ``n`` only the points that were still certified at
  the previous level (certification is monotonically harder in ``n``, so this
  mirrors the paper's incremental protocol);
* :func:`pareto_frontier` — the composite-family counterpart: the set of
  *maximal* certified ``(n_remove, n_flip)`` pairs of one point under
  componentwise dominance, found by staircase descent (alternating
  largest-certified-flip and largest-certified-removal searches), with local
  pair-dominance derivation so no probe is ever recomputed;
* :func:`pareto_sweep` — the batch frontier over many points, optionally on
  the engine's process pool (``n_jobs``).

All entry points run on the unified :class:`repro.api.CertificationEngine`;
a legacy :class:`~repro.verify.robustness.PoisoningVerifier` is still
accepted and silently unwrapped to its engine.  Engines with an attached
:class:`~repro.runtime.CertificationRuntime` answer probes from the
persistent verdict cache (scalar budget monotonicity for the one-dimensional
families, componentwise ``(r, f)`` pair dominance for the composite family),
so repeated or overlapping searches reuse prior verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.dataset import Dataset
from repro.poisoning.models import (
    CompositePoisoningModel,
    PerturbationModel,
    RemovalPoisoningModel,
)
from repro.utils.validation import ValidationError
from repro.verify.result import VerificationResult, VerificationStatus
from repro.verify.robustness import PoisoningVerifier

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.engine import CertificationEngine

#: Either the modern engine or the deprecated shim.
VerifierLike = Union["CertificationEngine", PoisoningVerifier]

#: Anything accepted as the family template of a search: a model instance
#: whose budget is rebound per probe, or ``None`` for the paper's ``Δn``.
ModelTemplate = Optional[PerturbationModel]


def _as_engine(verifier: VerifierLike) -> "CertificationEngine":
    # Duck-typed (rather than isinstance) so this module never has to import
    # the engine at module scope, which would recreate the api/verify cycle.
    engine = getattr(verifier, "engine", None)
    return engine if engine is not None else verifier


def _scalar_template(model: ModelTemplate) -> PerturbationModel:
    """The family template a scalar-budget search sweeps (default: ``Δn``)."""
    if model is None:
        return RemovalPoisoningModel(0)
    if not isinstance(model, PerturbationModel):
        raise ValidationError(
            f"model template must be a PerturbationModel, got {type(model).__name__}"
        )
    # Fail fast on families without a scalar budget (e.g. composite) instead
    # of erroring mid-search on the first probe.
    model.with_budget(0)
    return model


def _pair_template(model: ModelTemplate) -> PerturbationModel:
    """The family template a pair-budget search sweeps (default: ``Δ_{r,f}``)."""
    if model is None:
        return CompositePoisoningModel(0, 0)
    if not isinstance(model, PerturbationModel):
        raise ValidationError(
            f"model template must be a PerturbationModel, got {type(model).__name__}"
        )
    model.with_budgets(0, 0)
    return model


@dataclass(frozen=True)
class PoisoningSearchResult:
    """Outcome of the per-point doubling/binary search.

    ``trace_steps`` / ``trace_reused`` count the Box-learner filter steps the
    probes of this search executed and how many were warm-started from the
    previous probe's ladder trace (zero when the verifier does not expose
    trace accounting — e.g. probes routed through a runtime cache, which
    reports the same numbers on its own sweep outcomes instead).
    """

    max_certified_n: int
    attempts: Dict[int, bool]
    results: Dict[int, VerificationResult]
    trace_steps: int = 0
    trace_reused: int = 0

    @property
    def trace_reuse_fraction(self) -> float:
        return self.trace_reused / self.trace_steps if self.trace_steps else 0.0

    @property
    def ever_certified(self) -> bool:
        return self.max_certified_n > 0


def max_certified_poisoning(
    verifier: VerifierLike,
    dataset: Dataset,
    x: Sequence[float],
    *,
    start: int = 1,
    max_n: Optional[int] = None,
    model: ModelTemplate = None,
) -> PoisoningSearchResult:
    """Find the largest ``n`` (within ``[1, max_n]``) the point is certified for.

    Uses the doubling phase followed by a binary search, assuming (as the
    paper's protocol does) that certification is monotone in ``n``.  The
    ``model`` template selects the family: probes certify against
    ``model.with_budget(n)``, so removal, fractional, and label-flip models
    are all swept by the same machinery (``None`` means the paper's ``Δn``).
    """
    engine = _as_engine(verifier)
    template = _scalar_template(model)
    if max_n is None:
        max_n = len(dataset)
    max_n = min(max_n, len(dataset))
    attempts: Dict[int, bool] = {}
    results: Dict[int, VerificationResult] = {}

    def attempt(n: int) -> bool:
        if n in attempts:
            return attempts[n]
        result = engine.certify_point(dataset, x, template.with_budget(n))
        attempts[n] = result.is_certified
        results[n] = result
        return attempts[n]

    consume_trace = getattr(engine, "consume_trace_stats", None)
    if consume_trace is not None:
        consume_trace()
    # Budget 0 is the trivial floor of the protocol ("never certified"), so
    # this is exactly the shared doubling/clamp/binary-search helper the
    # frontier search uses, with the doubling seeded at ``start``.
    best = _largest_certified(0, max_n, attempt, span=max(1, start))
    trace_steps, trace_reused = (
        consume_trace() if consume_trace is not None else (0, 0)
    )
    return PoisoningSearchResult(
        max_certified_n=best,
        attempts=attempts,
        results=results,
        trace_steps=trace_steps,
        trace_reused=trace_reused,
    )


@dataclass
class SweepRecord:
    """Aggregated verification statistics at one budget level ``n``."""

    poisoning_amount: int
    attempted: int
    certified: int
    fraction_certified: float
    average_seconds: float
    average_peak_memory_bytes: float
    timeouts: int
    resource_exhausted: int
    results: List[VerificationResult] = field(default_factory=list, repr=False)


def robustness_sweep(
    verifier: VerifierLike,
    dataset: Dataset,
    test_points: np.ndarray,
    amounts: Sequence[int],
    *,
    incremental: bool = True,
    keep_results: bool = False,
    n_jobs: int = 1,
    model: ModelTemplate = None,
) -> List[SweepRecord]:
    """Sweep the budget over ``amounts`` and aggregate per level.

    With ``incremental=True`` (the paper's protocol), only the points still
    certified at the previous level are re-attempted at the next level; points
    that already failed count as not certified at every larger ``n``.  With
    ``n_jobs > 1`` each level's batch is certified on a process pool.  The
    ``model`` template selects the family exactly as in
    :func:`max_certified_poisoning`; duplicate entries of ``amounts`` are
    collapsed so no level is ever certified (or recorded) twice.
    """
    engine = _as_engine(verifier)
    template = _scalar_template(model)
    test_points = np.asarray(test_points, dtype=float)
    total = test_points.shape[0]
    if total == 0:
        # Nothing to attempt: no level can produce a meaningful record, and a
        # phantom `attempted=0` row would read as a completed level.
        return []
    active = list(range(total))
    records: List[SweepRecord] = []

    for n in sorted({int(a) for a in amounts}):
        report = engine.certify_batch(
            dataset, test_points[active], template.with_budget(n), n_jobs=n_jobs
        )
        level_results = list(report.results)
        certified_indices = [
            index
            for index, result in zip(active, level_results)
            if result.is_certified
        ]
        counts = report.status_counts
        records.append(
            SweepRecord(
                poisoning_amount=n,
                attempted=len(active),
                certified=len(certified_indices),
                fraction_certified=len(certified_indices) / total,
                average_seconds=report.mean_seconds,
                average_peak_memory_bytes=report.mean_peak_memory_bytes,
                timeouts=counts["timeout"],
                resource_exhausted=counts["resource_exhausted"],
                results=level_results if keep_results else [],
            )
        )
        if incremental:
            active = certified_indices
            if not active:
                break
    return records


# ---------------------------------------------------------------------------
# Composite (r, f) Pareto frontiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParetoFrontierResult:
    """The maximal certified ``(n_remove, n_flip)`` pairs of one test point.

    ``frontier`` lists the maximal elements (under componentwise dominance) of
    the certified region of the ``[0, max_remove] × [0, max_flip]`` budget
    grid, ordered by ascending removal budget (hence descending flip budget —
    a staircase).  An empty frontier means the point was not even certified at
    ``(0, 0)``.  ``attempts`` maps every pair whose verdict the search
    *decided* to its outcome; ``probes`` counts how many of those actually
    queried the verifier (the rest were derived from pair dominance locally).
    """

    frontier: Tuple[Tuple[int, int], ...]
    attempts: Dict[Tuple[int, int], bool]
    probes: int
    results: Dict[Tuple[int, int], VerificationResult] = field(repr=False, default_factory=dict)
    trace_steps: int = 0
    trace_reused: int = 0

    @property
    def trace_reuse_fraction(self) -> float:
        return self.trace_reused / self.trace_steps if self.trace_steps else 0.0

    @property
    def ever_certified(self) -> bool:
        return bool(self.frontier)

    def dominates(self, n_remove: int, n_flip: int) -> bool:
        """Whether the certified region covers the pair ``(n_remove, n_flip)``."""
        return any(r >= n_remove and f >= n_flip for r, f in self.frontier)

    def to_dict(self) -> dict:
        """JSON-serializable summary (the report/CLI frontier export rows)."""
        return {
            "frontier": [[r, f] for r, f in self.frontier],
            "probes": self.probes,
            "attempted_pairs": len(self.attempts),
        }


class _PairOracle:
    """Memoized certified/uncertified queries over the ``(r, f)`` pair lattice.

    Answers repeat queries from local componentwise dominance — ``robust`` at
    a dominating pair, or ``unknown`` at a dominated pair, decides the query
    without touching the verifier — mirroring exactly the derivation rules of
    the runtime cache, so the frontier search stays cheap even on engines
    with no runtime attached.  Timeout / resource-exhausted outcomes count as
    "not certified" for the probe that saw them but are never used to derive
    other pairs (they are environmental, not facts about the proof problem).
    """

    def __init__(
        self,
        engine: "CertificationEngine",
        dataset: Dataset,
        x: Sequence[float],
        template: PerturbationModel,
    ) -> None:
        self._engine = engine
        self._dataset = dataset
        self._x = x
        self._template = template
        self.attempts: Dict[Tuple[int, int], bool] = {}
        self.results: Dict[Tuple[int, int], VerificationResult] = {}
        self.probes = 0

    def _derive(self, pair: Tuple[int, int]) -> Optional[bool]:
        removals, flips = pair
        for (r, f), result in self.results.items():
            if (
                result.status is VerificationStatus.ROBUST
                and r >= removals
                and f >= flips
            ):
                return True
            if (
                result.status is VerificationStatus.UNKNOWN
                and r <= removals
                and f <= flips
            ):
                return False
        return None

    def certified(self, removals: int, flips: int) -> bool:
        pair = (removals, flips)
        known = self.attempts.get(pair)
        if known is not None:
            return known
        derived = self._derive(pair)
        if derived is not None:
            self.attempts[pair] = derived
            return derived
        result = self._engine.certify_point(
            self._dataset, self._x, self._template.with_budgets(removals, flips)
        )
        self.probes += 1
        self.results[pair] = result
        self.attempts[pair] = result.is_certified
        return result.is_certified


def _largest_certified(
    lo: int, hi: int, certified: Callable[[int], bool], *, span: int = 1
) -> int:
    """Largest value in ``[lo, hi]`` satisfying ``certified``.

    Precondition: ``certified(lo)`` holds (or ``lo`` is the protocol's
    trivial floor).  This is the one copy of the §6.1 protocol, shared by
    the scalar budget search and the frontier staircase: doubling on the
    offset from ``lo`` (seeded at ``span``) with the final attempt clamped
    to ``hi``, then binary search between the last success and the first
    failure — ``O(log(hi - lo))`` probes.
    """
    if hi <= lo:
        return lo
    best = lo
    first_failure: Optional[int] = None
    while lo + span <= hi:
        if certified(lo + span):
            best = lo + span
            span *= 2
        else:
            first_failure = lo + span
            break
    if first_failure is None and best < hi:
        if certified(hi):
            return hi
        first_failure = hi
    if first_failure is None:
        return best
    low, high = best, first_failure
    while high - low > 1:
        mid = (low + high) // 2
        if certified(mid):
            low = mid
        else:
            high = mid
    return low


def pareto_frontier(
    verifier: VerifierLike,
    dataset: Dataset,
    x: Sequence[float],
    *,
    max_remove: Optional[int] = None,
    max_flip: Optional[int] = None,
    model: ModelTemplate = None,
) -> ParetoFrontierResult:
    """The maximal certified ``(n_remove, n_flip)`` pairs of one test point.

    Walks the pair lattice by **staircase descent**: starting at ``r = 0``,
    alternately find the largest certified flip budget at the current removal
    budget, then the largest removal budget still certified at that flip
    level — each an O(log) doubling/binary search — emit the corner, and
    continue below-right of it.  Certification is monotone under componentwise
    dominance (``Δ_{r',f'} ⊆ Δ_{r,f}`` iff ``r' ≤ r ∧ f' ≤ f``), so the
    corners are exactly the maximal certified pairs of the grid.

    Probes certify against ``model.with_budgets(r, f)`` (``None`` means a
    plain :class:`~repro.poisoning.models.CompositePoisoningModel`); when the
    engine has a :class:`~repro.runtime.CertificationRuntime` attached, every
    probe flows through the persistent cache's pair-dominance derivation, so
    overlapping frontiers — and re-runs of the same frontier — reuse prior
    verdicts instead of re-running the learner.
    """
    engine = _as_engine(verifier)
    template = _pair_template(model)
    size = len(dataset)
    max_remove = size if max_remove is None else min(int(max_remove), size)
    max_flip = size if max_flip is None else min(int(max_flip), size)
    if max_remove < 0 or max_flip < 0:
        raise ValidationError("max_remove and max_flip must be non-negative")

    oracle = _PairOracle(engine, dataset, x, template)
    consume_trace = getattr(engine, "consume_trace_stats", None)
    if consume_trace is not None:
        consume_trace()
    frontier: List[Tuple[int, int]] = []
    r_lo = 0
    f_hi = max_flip
    while r_lo <= max_remove and oracle.certified(r_lo, 0):
        # Tallest certified flip budget at this removal level (monotonicity
        # bounds it by the previous corner's flip level minus one).
        f = _largest_certified(0, f_hi, lambda q: oracle.certified(r_lo, q))
        # Widest certified removal budget at that flip level.
        r = _largest_certified(
            r_lo, max_remove, lambda q: oracle.certified(q, f)
        )
        frontier.append((r, f))
        r_lo = r + 1
        if f == 0:
            break
        f_hi = f - 1
    trace_steps, trace_reused = (
        consume_trace() if consume_trace is not None else (0, 0)
    )
    return ParetoFrontierResult(
        frontier=tuple(frontier),
        attempts=dict(oracle.attempts),
        probes=oracle.probes,
        results=dict(oracle.results),
        trace_steps=trace_steps,
        trace_reused=trace_reused,
    )


def pareto_sweep(
    verifier: VerifierLike,
    dataset: Dataset,
    points: np.ndarray,
    *,
    max_remove: Optional[int] = None,
    max_flip: Optional[int] = None,
    model: ModelTemplate = None,
    n_jobs: int = 1,
) -> List[ParetoFrontierResult]:
    """Per-point Pareto frontiers for every row of ``points`` (order preserved).

    With ``n_jobs > 1`` the points are distributed over the engine's process
    pool (chunked dispatch, merged worker metrics, request-id-stamped
    ``worker.task`` events); each worker runs the staircase descent for its
    points against a private engine copy and ships back the frontier summary
    only.  Pool workers have no runtime attached, so cross-point cache sharing
    only happens in the serial path — exactly as for batch certification.
    """
    engine = _as_engine(verifier)
    template = _pair_template(model)
    rows = [np.asarray(row, dtype=float) for row in np.asarray(points, dtype=float)]
    if min(int(n_jobs), len(rows)) > 1:
        task = _FrontierRows(template, max_remove, max_flip)
        return list(engine._map_rows(dataset, rows, task, n_jobs=n_jobs))
    return [
        pareto_frontier(
            engine,
            dataset,
            row,
            max_remove=max_remove,
            max_flip=max_flip,
            model=template,
        )
        for row in rows
    ]


@dataclass(frozen=True)
class _FrontierRows:
    """The engine-pool row task of :func:`pareto_sweep`: one frontier per row."""

    template: PerturbationModel
    max_remove: Optional[int]
    max_flip: Optional[int]

    def bind(self, engine: "CertificationEngine", dataset: Dataset) -> Callable:
        def frontier(row: np.ndarray) -> ParetoFrontierResult:
            outcome = pareto_frontier(
                engine,
                dataset,
                row,
                max_remove=self.max_remove,
                max_flip=self.max_flip,
                model=self.template,
            )
            # Full per-pair results are heavy (interval tuples per probe) and
            # irrelevant to batch consumers; ship the frontier summary only.
            return ParetoFrontierResult(
                frontier=outcome.frontier,
                attempts=outcome.attempts,
                probes=outcome.probes,
            )

        return frontier

    @staticmethod
    def status(output: ParetoFrontierResult) -> Optional[str]:
        del output
        return None
