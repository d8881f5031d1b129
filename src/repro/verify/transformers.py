"""Abstract transformers for the operations of ``DTrace`` (§4.4–4.7).

Every function here soundly overapproximates the corresponding concrete
operation of :mod:`repro.core`: given any concrete training set
``T' ∈ γ(⟨T, n⟩)``, the concrete result is contained in the abstract result.
The property-based tests in ``tests/verify`` check exactly this containment
by enumerating small concretizations.

Two variants of ``cprob#`` are provided:

* ``"box"`` — the naïve interval-arithmetic lifting written out in §4.4
  (numerator interval divided by denominator interval);
* ``"optimal"`` — the optimal transformer of footnote 6, which the paper's
  implementation uses.  It is both tighter and cheaper.

``bestSplit#`` has a vectorized fast path that scores every candidate
threshold of a feature at once using the same per-feature split tables as the
concrete learner, plus a generic slow path over an explicit predicate pool.

``filter#`` has a closed form (:func:`filter_closed_form`), which the Box
learner runs through :mod:`repro.verify.trace`; the sequential fold of split
pieces (:func:`filter_abstract`) is kept as its scalar oracle.

The entry points the abstract learners call (``cprob_intervals``,
``pure_exit_vector``, ``best_split_abstract``) dispatch structurally on the
abstract element: an element exposing the flip protocol
(``class_probability_intervals`` / ``pure_exit_intervals`` /
``abstract_best_split`` — i.e.
:class:`repro.poisoning.label_flip.FlipAbstractTrainingSet` for the
label-flip and composite removal+flip threat models) is routed to its own
transformers, so the same Box and disjunctive learners soundly interpret
``⟨T, n⟩`` and ``⟨T, r, f⟩`` alike.  The dispatch is duck-typed on purpose:
importing the flip domain here would cycle through ``repro.poisoning``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import FeatureKind
from repro.core.predicates import (
    EqualityPredicate,
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.core import split_plan
from repro.core.splitter import FeatureSplitTable
from repro.domains.interval import Interval, mul_bounds
from repro.domains.predicate_set import AbstractPredicateSet
from repro.domains.trainingset import AbstractTrainingSet
from repro.telemetry import profiling

#: Tolerance used when comparing abstract scores; widening the comparison by a
#: tiny epsilon can only *add* predicates to the returned set, which keeps the
#: transformer sound in the presence of floating-point rounding.
SCORE_TOLERANCE = 1e-9

CPROB_METHODS = ("optimal", "box")


# ---------------------------------------------------------------------------
# Scalar transformers on AbstractTrainingSet
# ---------------------------------------------------------------------------


def size_interval(trainset: AbstractTrainingSet) -> Interval:
    """``|⟨T, n⟩| = [|T| - n, |T|]`` (§4.6)."""
    return Interval(float(trainset.size - trainset.n), float(trainset.size))


def cprob_box(trainset: AbstractTrainingSet) -> Tuple[Interval, ...]:
    """The naïve ``cprob#`` of §4.4: interval numerator / interval denominator."""
    size = trainset.size
    n = trainset.n
    k = trainset.dataset.n_classes
    if n >= size:
        return tuple(Interval.unit() for _ in range(k))
    counts = trainset.class_counts()
    denominator = Interval(float(size - n), float(size))
    intervals = []
    for count in counts:
        numerator = Interval(float(max(0, count - n)), float(count))
        intervals.append(numerator.divide(denominator))
    return tuple(intervals)


def cprob_optimal(trainset: AbstractTrainingSet) -> Tuple[Interval, ...]:
    """The optimal ``cprob#`` of footnote 6.

    For each class ``i`` with count ``c_i`` and ``m = |T| - n`` remaining
    elements, the extremal probabilities are reached by dropping either as
    many class-``i`` elements as possible or as many other elements as
    possible, giving the interval ``[max(0, c_i - n)/m, min(c_i, m)/m]``.
    """
    size = trainset.size
    n = trainset.n
    k = trainset.dataset.n_classes
    m = size - n
    if m <= 0:
        return tuple(Interval.unit() for _ in range(k))
    counts = trainset.class_counts()
    intervals = []
    for count in counts:
        lower = max(0, int(count) - n) / m
        upper = min(int(count), m) / m
        intervals.append(Interval(lower, upper))
    return tuple(intervals)


def cprob_intervals(
    trainset: AbstractTrainingSet, method: str = "optimal"
) -> Tuple[Interval, ...]:
    """Dispatch between the two ``cprob#`` transformers (and the flip domain)."""
    flip_cprob = getattr(trainset, "class_probability_intervals", None)
    if flip_cprob is not None:
        return flip_cprob(method)
    if method == "optimal":
        return cprob_optimal(trainset)
    if method == "box":
        return cprob_box(trainset)
    raise ValueError(f"unknown cprob method {method!r}; expected one of {CPROB_METHODS}")


def gini_interval(
    trainset: AbstractTrainingSet, method: str = "optimal"
) -> Interval:
    """``ent#(⟨T, n⟩) = Σ_i ι_i (1 - ι_i)`` with interval arithmetic (§4.4)."""
    total = Interval.zero()
    one = Interval.point(1.0)
    for component in cprob_intervals(trainset, method):
        total = total + component * (one - component)
    return total


def score_interval(
    trainset: AbstractTrainingSet, predicate: Predicate, method: str = "optimal"
) -> Interval:
    """``score#(⟨T, n⟩, φ)`` of §4.6 for an arbitrary predicate."""
    left = trainset.split_down(predicate, True)
    right = trainset.split_down(predicate, False)
    return size_interval(left) * gini_interval(left, method) + size_interval(
        right
    ) * gini_interval(right, method)


def pure_restriction(trainset: AbstractTrainingSet) -> Optional[AbstractTrainingSet]:
    """The restriction used by the ``ent(T) = 0`` branch (§4.7), or ``None``."""
    return trainset.restrict_pure_any()


def pure_exit_vector(
    trainset: AbstractTrainingSet, method: str = "optimal"
) -> Optional[Tuple[Interval, ...]]:
    """Class-probability intervals of the ``ent(T) = 0`` exit, or ``None``.

    For removal elements this is ``cprob#`` of :func:`pure_restriction`.  Flip
    elements have no state-shaped pure restriction (a pure concretization may
    have *flipped* rows into the majority class), so they contribute the
    joined point vectors of every feasible pure class directly — which is
    exactly the classification of those exits.
    """
    with profiling.phase("pure_exit"):
        pure_exits = getattr(trainset, "pure_exit_intervals", None)
        if pure_exits is not None:
            return pure_exits()
        restricted = trainset.restrict_pure_any()
        if restricted is None:
            return None
        return cprob_intervals(restricted, method)


def entropy_is_definitely_zero(
    trainset: AbstractTrainingSet, method: str = "optimal"
) -> bool:
    """Whether every concretization has zero impurity (else-branch infeasible)."""
    return gini_interval(trainset, method).upper_at_most(0.0)


# ---------------------------------------------------------------------------
# filter#
# ---------------------------------------------------------------------------


def filter_abstract(
    trainset: AbstractTrainingSet,
    predicates: AbstractPredicateSet,
    x: Sequence[float],
) -> Optional[AbstractTrainingSet]:
    """``filter#(⟨T, n⟩, Ψ, x)`` of §4.5 (and its symbolic variant of App. B).

    The join of every split piece, folded one piece at a time.  The learners
    run :func:`filter_closed_form` instead; this fold is its scalar oracle.

    Returns ``None`` (bottom) when no piece survives: ``Ψ`` has no concrete
    choices, or every piece the point can take is empty.
    """
    with profiling.phase("filter"):
        satisfied, falsified = predicates.partition_for_point(x)
        pieces: List[AbstractTrainingSet] = []
        for predicate in satisfied:
            pieces.append(trainset.split_down(predicate, True))
        for predicate in falsified:
            pieces.append(trainset.split_down(predicate, False))
        # An abstractly empty side means no concrete run can take that branch
        # with that predicate (a non-trivial split needs both sides non-empty),
        # so such pieces are identity elements for the join (Example 4.8).
        pieces = [piece for piece in pieces if piece.size > 0]
        if not pieces:
            return None
        result = pieces[0]
        for piece in pieces[1:]:
            result = result.join(piece)
        return result


def _predicate_table(predicates: Sequence[Predicate]) -> np.ndarray:
    """Ψ as rows ``(feature, low, high, is_equality)``.

    A threshold ``x <= τ`` is stored as the symbolic ``x <= [τ, τ⁺)``, where
    ``τ⁺`` is the next float above ``τ``: no value lies strictly between the
    two, so both give the same pieces, tight counts and branch tests.  An
    equality ``x == v`` is stored as ``[v, v]``.
    """
    values: List[float] = []
    for predicate in predicates:
        if isinstance(predicate, SymbolicThresholdPredicate):
            values += (predicate.feature, predicate.low, predicate.high, 0.0)
        elif isinstance(predicate, ThresholdPredicate):
            threshold = predicate.threshold
            upper = math.nextafter(threshold, math.inf)
            values += (predicate.feature, threshold, upper, 0.0)
        elif isinstance(predicate, EqualityPredicate):
            values += (predicate.feature, predicate.value, predicate.value, 1.0)
        else:
            raise TypeError(f"filter# cannot split on {type(predicate).__name__}")
    table = np.fromiter(values, dtype=np.float64, count=len(values))
    return table.reshape(-1, 4)


def filter_closed_form(
    trainset, predicates: AbstractPredicateSet, x: Sequence[float]
) -> Optional[Tuple[np.ndarray, int, int]]:
    """The join :func:`filter_abstract` folds, computed from piece counts.

    Definition 4.1's join keeps ``|T1 ∪ T2| − n' = min(|T1| − n1, |T2| − n2)``,
    so a fold of joins does not depend on its order.  A split piece of
    ``⟨T, n⟩`` has ``|Ti| − ni = max(0, si − n)``, where the *tight* count
    ``si`` is the size of a concrete piece and ``t`` of a symbolic one.  The
    fold is therefore ``⟨U, |U| − max(0, s_min − n)⟩`` for the union ``U``
    of the non-empty pieces and their smallest tight count ``s_min``.  A flip
    element ``⟨T, r, f⟩`` keeps ``r`` by the same formula and gets
    ``f' = min(f, largest piece size)``.

    On one feature the threshold pieces (concrete or symbolic) of the
    satisfied side are nested prefixes of the node's sorted values, and those
    of the falsified side nested suffixes, so ``U`` needs only the widest
    piece of each side; equality pieces add their own rows.

    Works on any element with ``dataset`` and ``indices`` (removal and flip
    alike).  Returns ``(U, s_min, largest piece size)``, or ``None`` (bottom)
    when no piece survives.
    """
    table = _predicate_table(predicates.predicates)
    if table.shape[0] == 0:
        return None
    # Rows of one feature form one run; the join does not depend on order.
    table = table[np.argsort(table[:, 0], kind="stable")]
    feature = table[:, 0].astype(np.int64)
    low, high, equality = table[:, 1], table[:, 2], table[:, 3] > 0
    bounds = [0, *(np.flatnonzero(feature[1:] != feature[:-1]) + 1).tolist()]
    runs = [slice(a, b) for a, b in zip(bounds, [*bounds[1:], feature.size])]
    indices = trainset.indices
    size = int(indices.size)
    X = trainset.dataset.X

    # Node rows with value <= low and < high: one sort per feature, then a
    # binary search per bound.
    le_low = np.empty(feature.size, dtype=np.int64)
    lt_high = np.empty(feature.size, dtype=np.int64)
    nodes = []
    for run in runs:
        node = X[indices, feature[run.start]]
        ordered = np.sort(node)
        le_low[run] = np.searchsorted(ordered, low[run], side="right")
        lt_high[run] = np.searchsorted(ordered, high[run], side="left")
        nodes.append((node, ordered))

    # Piece sizes and tight counts of both branches; a branch the point
    # cannot take (three-valued for a symbolic ρ) gets size 0.
    value = np.asarray(x, dtype=np.float64)[feature]
    matches = le_low - lt_high  # rows equal to an equality predicate's value
    true_size = np.where(
        np.where(equality, value == low, value < high),
        np.where(equality, matches, lt_high),
        0,
    )
    false_size = np.where(
        np.where(equality, value != low, value > low),
        size - np.where(equality, matches, le_low),
        0,
    )
    largest = int(max(true_size.max(), false_size.max()))
    if largest == 0:
        return None
    true_tight = np.where(equality, matches, le_low)
    false_tight = size - np.where(equality, matches, lt_high)
    tight = int(
        min(
            true_tight[true_size > 0].min(initial=size),
            false_tight[false_size > 0].min(initial=size),
        )
    )

    # U: per feature, the widest satisfied prefix and falsified suffix, plus
    # the rows of every equality piece.
    widest_true = np.maximum.reduceat(np.where(equality, 0, true_size), bounds)
    widest_false = np.maximum.reduceat(np.where(equality, 0, false_size), bounds)
    has_equality = np.logical_or.reduceat(equality, bounds)
    keep = np.zeros(size, dtype=bool)
    for j, (run, (node, ordered)) in enumerate(zip(runs, nodes)):
        if widest_true[j]:
            keep |= node <= ordered[widest_true[j] - 1]
        if widest_false[j]:
            keep |= node >= ordered[size - widest_false[j]]
        if has_equality[j]:
            taken = equality[run] & (true_size[run] > 0)
            keep |= (node[:, None] == low[run][taken]).any(axis=1)
            taken = equality[run] & (false_size[run] > 0)
            keep |= (node[:, None] != low[run][taken]).any(axis=1)
    rows = indices[keep]
    rows.setflags(write=False)
    return rows, tight, largest


# ---------------------------------------------------------------------------
# bestSplit#
# ---------------------------------------------------------------------------


@dataclass
class _ScoredCandidates:
    """Scored candidate predicates of one feature (vectorized bounds).

    Predicate objects are materialized lazily: the common selection path only
    instantiates the (typically few) candidates that survive the ``lub``
    comparison, while the score arrays cover every candidate position.  The
    generic pool/categorical paths pre-materialize and set ``predicates``.
    """

    score_lower: np.ndarray
    score_upper: np.ndarray
    universal: np.ndarray  # boolean mask: non-trivial for every concretization
    predicates: Optional[List[Predicate]] = None  # eager (pool path) predicates
    feature: int = -1
    kind: Optional[FeatureKind] = None
    table: Optional[FeatureSplitTable] = None

    def materialize(self, positions: Sequence[int]) -> List[Predicate]:
        """Predicate objects at ``positions``, preserving candidate order."""
        if self.predicates is not None:
            return [self.predicates[int(i)] for i in positions]
        table = self.table
        assert table is not None
        if self.kind is FeatureKind.REAL:
            return [
                split_plan.symbolic_predicate(
                    self.feature,
                    float(table.lower_values[int(i)]),
                    float(table.upper_values[int(i)]),
                )
                for i in positions
            ]
        return [
            split_plan.threshold_predicate(self.feature, float(table.thresholds[int(i)]))
            for i in positions
        ]

    def materialize_all(self) -> List[Predicate]:
        return self.materialize(range(int(self.score_lower.shape[0])))


def _side_probability_bounds(
    sizes: np.ndarray, class_counts: np.ndarray, budget: int, method: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``cprob#`` bounds for one side of every candidate split.

    Parameters are arrays over candidates: ``sizes`` has shape ``(c,)`` and
    ``class_counts`` shape ``(c, k)``.  Returns per-candidate, per-class lower
    and upper probability bounds of shape ``(c, k)``.
    """
    sizes = sizes.astype(np.float64)
    counts = class_counts.astype(np.float64)
    budgets = np.minimum(float(budget), sizes)
    remaining = sizes - budgets  # m = |T| - n for each candidate side

    lower = np.zeros_like(counts)
    upper = np.ones_like(counts)
    positive = remaining > 0
    if method == "optimal":
        safe_remaining = np.where(positive, remaining, 1.0)[:, None]
        lower_pos = np.maximum(0.0, counts - budgets[:, None]) / safe_remaining
        upper_pos = np.minimum(counts, remaining[:, None]) / safe_remaining
    elif method == "box":
        # Numerator [max(0, c - n), c], denominator [m, |T|] — interval division
        # with a positive divisor.
        numerator_lo = np.maximum(0.0, counts - budgets[:, None])
        numerator_hi = counts
        denominator_lo = np.where(positive, remaining, 1.0)[:, None]
        denominator_hi = np.maximum(sizes, 1.0)[:, None]
        lower_pos = numerator_lo / denominator_hi
        upper_pos = numerator_hi / denominator_lo
    else:
        raise ValueError(f"unknown cprob method {method!r}")
    mask = positive[:, None]
    lower = np.where(mask, lower_pos, lower)
    upper = np.where(mask, upper_pos, upper)
    return lower, upper


def _side_score_bounds(
    sizes: np.ndarray, class_counts: np.ndarray, budget: int, method: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bounds of ``|side| · ent#(side)`` for every candidate."""
    prob_lower, prob_upper = _side_probability_bounds(
        sizes, class_counts, budget, method
    )
    term_lower, term_upper = mul_bounds(
        prob_lower, prob_upper, 1.0 - prob_upper, 1.0 - prob_lower
    )
    gini_lower = term_lower.sum(axis=1)
    gini_upper = term_upper.sum(axis=1)
    sizes = sizes.astype(np.float64)
    budgets = np.minimum(float(budget), sizes)
    size_lower = sizes - budgets
    size_upper = sizes
    return mul_bounds(size_lower, size_upper, gini_lower, gini_upper)


def _side_score_bounds_reference(
    sizes: np.ndarray, class_counts: np.ndarray, budget: int, method: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar per-candidate mirror of :func:`_side_score_bounds`.

    Retained as the property-test oracle for the vectorized kernel: one
    candidate at a time, in plain :class:`Interval` arithmetic.
    """
    lower = np.empty(int(sizes.shape[0]))
    upper = np.empty(int(sizes.shape[0]))
    for i in range(int(sizes.shape[0])):
        size = int(sizes[i])
        n = min(budget, size)
        m = size - n
        if m <= 0:
            probs = [Interval.unit() for _ in range(class_counts.shape[1])]
        elif method == "optimal":
            probs = [
                Interval(max(0, int(c) - n) / m, min(int(c), m) / m)
                for c in class_counts[i]
            ]
        else:
            denominator = Interval(float(m), float(size))
            probs = [
                Interval(float(max(0, int(c) - n)), float(int(c))).divide(denominator)
                for c in class_counts[i]
            ]
        gini = Interval.zero()
        one = Interval.point(1.0)
        for p in probs:
            gini = gini + p * (one - p)
        score = Interval(float(m), float(size)) * gini
        lower[i] = score.lo
        upper[i] = score.hi
    return lower, upper


def _scored_threshold_candidates(
    trainset: AbstractTrainingSet,
    feature: int,
    kind: FeatureKind,
    method: str,
    table: FeatureSplitTable,
) -> Optional[_ScoredCandidates]:
    """Score every threshold candidate of one (real or boolean) feature."""
    if table.n_candidates == 0:
        return None
    budget = trainset.n

    left_lower, left_upper = _side_score_bounds(
        table.left_sizes, table.left_class_counts, budget, method
    )
    right_lower, right_upper = _side_score_bounds(
        table.right_sizes, table.right_class_counts, budget, method
    )
    score_lower = left_lower + right_lower
    score_upper = left_upper + right_upper
    universal = (table.left_sizes > budget) & (table.right_sizes > budget)

    return _ScoredCandidates(
        score_lower=score_lower,
        score_upper=score_upper,
        universal=universal,
        feature=feature,
        kind=kind,
        table=table,
    )


def _scored_pool_candidates(
    trainset: AbstractTrainingSet, pool: Sequence[Predicate], method: str
) -> Optional[_ScoredCandidates]:
    """Score an explicit predicate pool (slow generic path)."""
    predicates: List[Predicate] = []
    lower: List[float] = []
    upper: List[float] = []
    universal: List[bool] = []
    for predicate in pool:
        left = trainset.split_down(predicate, True)
        right = trainset.split_down(predicate, False)
        if left.size == 0 or right.size == 0:
            # Trivial for every concretization: not in Φ∃.
            continue
        score = size_interval(left) * gini_interval(left, method) + size_interval(
            right
        ) * gini_interval(right, method)
        predicates.append(predicate)
        lower.append(score.lo)
        upper.append(score.hi)
        universal.append(not left.can_be_empty() and not right.can_be_empty())
    if not predicates:
        return None
    return _ScoredCandidates(
        predicates=predicates,
        score_lower=np.asarray(lower),
        score_upper=np.asarray(upper),
        universal=np.asarray(universal, dtype=bool),
    )


def _scored_categorical_candidates(
    trainset: AbstractTrainingSet, feature: int, method: str
) -> Optional[_ScoredCandidates]:
    """Score equality predicates for one categorical feature."""
    values = np.unique(trainset.features[:, feature])
    pool = [EqualityPredicate(feature, float(v)) for v in values]
    return _scored_pool_candidates(trainset, pool, method)


def best_split_abstract(
    trainset: AbstractTrainingSet,
    *,
    method: str = "optimal",
    predicate_pool: Optional[Sequence[Predicate]] = None,
) -> AbstractPredicateSet:
    """``bestSplit#(⟨T, n⟩)`` of §4.6 (with the real-valued lifting of App. B).

    Returns the abstract predicate set containing every predicate whose score
    interval overlaps the minimal achievable score, plus ``⋄`` when some
    concretization might admit no non-trivial split at all.
    """
    with profiling.phase("best_split"):
        return _best_split_abstract(
            trainset, method=method, predicate_pool=predicate_pool
        )


def _best_split_abstract(
    trainset: AbstractTrainingSet,
    *,
    method: str,
    predicate_pool: Optional[Sequence[Predicate]],
) -> AbstractPredicateSet:
    flip_split = getattr(trainset, "abstract_best_split", None)
    if flip_split is not None:
        return flip_split(method=method, predicate_pool=predicate_pool)
    if trainset.size == 0:
        return AbstractPredicateSet.of((), includes_null=True)

    plan = None
    cache_key = None
    if predicate_pool is None:
        # bestSplit# is a pure function of (node rows, budget, method); the
        # learners re-pose the same query for same-rows disjuncts and across
        # ladder rungs, so memoize the immutable result on the plan.
        plan = split_plan.plan_for(trainset.dataset)
        cache_key = (trainset.indices.tobytes(), trainset.n, method)
        cached = plan.cached_best_split(cache_key)
        if cached is not None:
            return cached

    groups: List[_ScoredCandidates] = []
    if predicate_pool is not None:
        scored = _scored_pool_candidates(trainset, predicate_pool, method)
        if scored is not None:
            groups.append(scored)
    else:
        tables = plan.node_tables(trainset.indices)
        stacked = tables.stacked
        stacked_scores = None
        if stacked is not None:
            # Bound every threshold candidate of every feature in one batch
            # kernel call; the per-feature groups below are O(1) slices of it.
            budget = trainset.n
            left_lower, left_upper = _side_score_bounds(
                stacked.left_sizes, stacked.left_class_counts, budget, method
            )
            right_lower, right_upper = _side_score_bounds(
                stacked.right_sizes, stacked.right_class_counts, budget, method
            )
            stacked_scores = (
                left_lower + right_lower,
                left_upper + right_upper,
                (stacked.left_sizes > budget) & (stacked.right_sizes > budget),
            )
        for feature, kind in enumerate(trainset.dataset.feature_kinds):
            if kind is FeatureKind.CATEGORICAL:
                scored = _scored_categorical_candidates(trainset, feature, method)
            else:
                part = stacked.feature_slice(feature) if stacked is not None else None
                if (
                    stacked_scores is None
                    or part is None
                    or part.stop == part.start
                ):
                    continue
                scored = _ScoredCandidates(
                    score_lower=stacked_scores[0][part],
                    score_upper=stacked_scores[1][part],
                    universal=stacked_scores[2][part],
                    feature=feature,
                    kind=kind,
                    table=tables[feature],
                )
            if scored is not None:
                groups.append(scored)

    if not groups:
        # Φ∃ is empty: every predicate is trivial on every concretization.
        result = AbstractPredicateSet.of((), includes_null=True)
    elif not any(bool(group.universal.any()) for group in groups):
        # Φ∀ = ∅: return all existentially non-trivial predicates plus ⋄.
        predicates = [p for group in groups for p in group.materialize_all()]
        result = AbstractPredicateSet.of(predicates, includes_null=True)
    else:
        lub = min(
            float(group.score_upper[group.universal].min())
            for group in groups
            if group.universal.any()
        )
        selected: List[Predicate] = []
        for group in groups:
            mask = group.score_lower <= lub + SCORE_TOLERANCE
            selected.extend(group.materialize(np.nonzero(mask)[0]))
        result = AbstractPredicateSet.of(selected, includes_null=False)
    if plan is not None and cache_key is not None:
        plan.store_best_split(cache_key, result)
    return result
