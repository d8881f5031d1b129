"""Abstract transformers for the operations of ``DTrace`` (§4.4–4.7).

Every function here soundly overapproximates the corresponding concrete
operation of :mod:`repro.core`: given any concrete training set
``T' ∈ γ(⟨T, n, f⟩)``, the concrete result is contained in the abstract
result.  The element is the one training-set domain ``⟨T, n, f⟩``; the
paper's ``⟨T, n⟩`` is its ``f = 0`` case, and every transformer reduces to
the paper's there.
The property-based tests in ``tests/verify`` check exactly this containment
by enumerating small concretizations.

Two variants of ``cprob#`` are provided:

* ``"box"`` — the naïve interval-arithmetic lifting written out in §4.4
  (numerator interval divided by denominator interval);
* ``"optimal"`` — the optimal transformer of footnote 6, which the paper's
  implementation uses.  It is both tighter and cheaper.

``bestSplit#`` (:func:`best_split_candidates`) bounds every candidate of a
node at once from the node's stacked split table (threshold rows for real
and boolean features, equality rows for categorical ones), or from the
``split_down`` sides of an explicit predicate pool.  One score kernel
(:func:`_split_score_bounds`) ranges over the ``f + 1`` ways of sharing the
flip budget between a split's two sides, which is a single allocation when
``f = 0``.  It returns the selected candidates as arrays, with the size, class
counts and budgets of both sides of each, so the disjunctive learner
classifies its leaves with one :func:`exit_bounds` call instead of building
a state per leaf.  :func:`best_split_abstract` materializes the predicates.

``filter#`` has a closed form (:func:`filter_closed_form`), which the Box
learner runs through :mod:`repro.verify.trace`; the sequential fold of split
pieces (:func:`filter_abstract`) is kept as its scalar oracle.

``cprob#`` is one formula for every element: with ``m = |T| − n`` rows
left, class ``i`` keeps ``[max(0, c_i − n − f), min(c_i + f, m)] / m``.
Only the ``ent(T) = 0`` exit (:func:`pure_exit_vector`) branches on ``f``:
a pure concretization of ``⟨T, n, f⟩`` may have flipped rows into its
class, so for ``f > 0`` it has no element form and the exit is the join of
the point vectors of the feasible classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.predicates import (
    EqualityPredicate,
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.core import split_plan
from repro.domains.interval import Interval, mul_bounds
from repro.domains.predicate_set import AbstractPredicateSet
from repro.domains.trainingset import AbstractTrainingSet
from repro.telemetry import profiling
from repro.utils.validation import ValidationError

#: Tolerance used when comparing abstract scores; widening the comparison by a
#: tiny epsilon can only *add* predicates to the returned set, which keeps the
#: transformer sound in the presence of floating-point rounding.
SCORE_TOLERANCE = 1e-9

CPROB_METHODS = ("optimal", "box")


# ---------------------------------------------------------------------------
# Scalar transformers on AbstractTrainingSet
# ---------------------------------------------------------------------------


def size_interval(trainset: AbstractTrainingSet) -> Interval:
    """``|⟨T, n, f⟩| = [|T| - n, |T|]`` (§4.6); flips never change sizes."""
    return Interval(float(trainset.size - trainset.n), float(trainset.size))


def cprob_box(trainset: AbstractTrainingSet) -> Tuple[Interval, ...]:
    """The naïve ``cprob#`` of §4.4: interval numerator / interval denominator.

    Class ``i`` with count ``c_i`` has numerator
    ``[max(0, c_i - n - f), min(c_i + f, |T|)]`` over ``[|T| - n, |T|]``.
    """
    size = trainset.size
    n = trainset.n
    flips = trainset.flips
    k = trainset.dataset.n_classes
    if n >= size:
        return tuple(Interval.unit() for _ in range(k))
    counts = trainset.class_counts()
    denominator = Interval(float(size - n), float(size))
    intervals = []
    for count in counts:
        numerator = Interval(
            float(max(0, int(count) - n - flips)),
            float(min(int(count) + flips, size)),
        )
        intervals.append(numerator.divide(denominator))
    return tuple(intervals)


def cprob_optimal(trainset: AbstractTrainingSet) -> Tuple[Interval, ...]:
    """The optimal ``cprob#`` of footnote 6, with label flips.

    For each class ``i`` with count ``c_i`` and ``m = |T| - n`` remaining
    elements, the extremal probabilities are reached by dropping as many
    class-``i`` elements as possible and flipping ``f`` more away, or by
    dropping other elements and flipping ``f`` of them to ``i``:
    ``[max(0, c_i - n - f)/m, min(c_i + f, m)/m]``.  With ``f = 0`` this is
    the paper's interval.
    """
    size = trainset.size
    n = trainset.n
    flips = trainset.flips
    k = trainset.dataset.n_classes
    m = size - n
    if m <= 0:
        return tuple(Interval.unit() for _ in range(k))
    counts = trainset.class_counts()
    intervals = []
    for count in counts:
        lower = max(0, int(count) - n - flips) / m
        upper = min(int(count) + flips, m) / m
        intervals.append(Interval(lower, upper))
    return tuple(intervals)


def cprob_intervals(
    trainset: AbstractTrainingSet, method: str = "optimal"
) -> Tuple[Interval, ...]:
    """Dispatch between the two ``cprob#`` transformers."""
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

    For ``f = 0`` this is ``cprob#`` of :func:`pure_restriction`, as in the
    paper.  For ``f > 0`` a pure concretization may have *flipped* rows into
    its class, so there is no pure element; the exit is the join of the
    point vectors of every class ``i`` some concretization can make pure
    (the rows of other classes fit in ``n + f``), which is exactly the
    classification of those exits.
    """
    with profiling.phase("pure_exit"):
        if not trainset.flips:
            restricted = trainset.restrict_pure_any()
            if restricted is None:
                return None
            return cprob_intervals(restricted, method)
        others = trainset.size - trainset.class_counts()
        feasible = others <= trainset.n + trainset.flips
        if not feasible.any():
            return None
        single = int(feasible.sum()) == 1
        return tuple(
            Interval(1.0 if single else 0.0, 1.0) if hit else Interval.zero()
            for hit in feasible.tolist()
        )


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


def _branches(
    value: np.ndarray, low: np.ndarray, high: np.ndarray, equality: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Whether a point can take each row's true and false branch.

    Rows are ``x <= [low, high)`` (a threshold ``τ`` as ``[τ, τ⁺)``) or, where
    ``equality``, ``x == low``; ``value`` is the point's value of each row's
    feature.  A symbolic row evaluating to *maybe* admits both branches.
    """
    return (
        np.where(equality, value == low, value < high),
        np.where(equality, value != low, value > low),
    )


def filter_closed_form(
    trainset: AbstractTrainingSet, predicates: AbstractPredicateSet, x: Sequence[float]
) -> Optional[Tuple[np.ndarray, int, int]]:
    """The join :func:`filter_abstract` folds, computed from piece counts.

    Definition 4.1's join keeps ``|T1 ∪ T2| − n' = min(|T1| − n1, |T2| − n2)``,
    so a fold of joins does not depend on its order.  A split piece of
    ``⟨T, n⟩`` has ``|Ti| − ni = max(0, si − n)``, where the *tight* count
    ``si`` is the size of a concrete piece and ``t`` of a symbolic one.  The
    fold is therefore ``⟨U, |U| − max(0, s_min − n)⟩`` for the union ``U``
    of the non-empty pieces and their smallest tight count ``s_min``; the
    flip budget becomes ``f' = min(f, largest piece size)``.

    On one feature the threshold pieces (concrete or symbolic) of the
    satisfied side are nested prefixes of the node's sorted values, and those
    of the falsified side nested suffixes, so ``U`` needs only the widest
    piece of each side; equality pieces add their own rows.

    Returns ``(U, s_min, largest piece size)``, or ``None`` (bottom) when no
    piece survives.
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
    takes_true, takes_false = _branches(
        np.asarray(x, dtype=np.float64)[feature], low, high, equality
    )
    matches = le_low - lt_high  # rows equal to an equality predicate's value
    true_size = np.where(takes_true, np.where(equality, matches, lt_high), 0)
    false_size = np.where(
        takes_false, size - np.where(equality, matches, le_low), 0
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
# bestSplit#: score kernels
# ---------------------------------------------------------------------------


def _split_score_bounds(
    left_sizes: np.ndarray,
    left_class_counts: np.ndarray,
    right_sizes: np.ndarray,
    right_class_counts: np.ndarray,
    left_removals,
    right_removals,
    flips: int,
    method: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bounds of ``score#`` for every candidate split.

    ``score#`` is ``|left| · ent#(left) + |right| · ent#(right)`` (§4.6),
    each side's ``cprob#`` as in :func:`cprob_optimal` / :func:`cprob_box`.
    Sizes have shape ``(c,)`` and class counts ``(c, k)``; the removal
    budgets are one per side, for all candidates or one per candidate, and
    each side keeps the full budget (clamped to its size).

    A flipped label lives on exactly one side, so the flip budget is not
    granted to both sides at once (which would double-count every flip):
    the bound ranges over the allocations ``f_l + f_r ≤ f``.  The side
    bounds widen monotonically in their flip budget, so the extremes lie on
    ``f_l + f_r = f``.  Each side evaluates all ``f + 1`` allocations as one
    ``(c, f + 1, k)`` cube, and the envelope is a min/max over the
    allocation axis.  With ``f = 0`` there is one allocation and the bound
    is the paper's.  Oracles: :func:`_side_score_bounds_reference` (``f =
    0``) and :func:`_flip_split_score_bounds_reference`.
    """
    if method not in CPROB_METHODS:
        raise ValueError(f"unknown cprob method {method!r}")

    def side(sizes, class_counts, removals, side_flips):
        """``(c, a)`` bounds of ``|side| · ent#(side)``, one column per allocation.

        One side at a time, in place where possible: node tables reach
        millions of candidates, so every ``(c, a, k)`` temporary counts.
        """
        sizes = sizes.astype(np.float64)[:, None]  # (c, 1)
        removals = np.minimum(removals, sizes[:, 0])[:, None]
        remaining = sizes - removals  # m = |T| - n
        side_flips = np.minimum(side_flips, sizes)[:, :, None]  # (c, a, 1)
        counts = class_counts.astype(np.float64)[:, None, :]  # (c, 1, k)
        lower = counts - (removals[:, :, None] + side_flips)
        np.maximum(lower, 0.0, out=lower)
        upper = counts + side_flips
        del counts, removals, side_flips
        positive = remaining[:, 0] > 0
        # m is integral, so this is m, or 1 where m = 0.
        safe_remaining = np.maximum(remaining, 1.0)[:, :, None]
        if method == "optimal":
            # Both bounds stay within [0, 1]: c - n - f <= m and min(c + f, m) <= m.
            lower /= safe_remaining
            np.minimum(upper, remaining[:, :, None], out=upper)
        else:
            # Numerator [max(0, c - n - f), min(c + f, |T|)] over [m, |T|]:
            # interval division with a positive divisor.
            lower /= np.maximum(sizes, 1.0)[:, :, None]
            np.minimum(upper, sizes[:, :, None], out=upper)
        upper /= safe_remaining
        del safe_remaining
        if not positive.all():
            lower[~positive] = 0.0
            upper[~positive] = 1.0
        if method == "optimal":
            # Optimal bounds lie in [0, 1] and rounded products are monotone,
            # so each interval product is lower·lower' and upper·upper': the
            # values mul_bounds would pick, without the other products.
            term = 1.0 - upper
            term *= lower
            gini_lower = term.sum(axis=-1)
            np.subtract(1.0, lower, out=term)
            term *= upper
            del lower, upper
            return remaining * gini_lower, sizes * term.sum(axis=-1)
        term_lower, term_upper = mul_bounds(lower, upper, 1.0 - upper, 1.0 - lower)
        del lower, upper
        return mul_bounds(
            remaining, sizes, term_lower.sum(axis=-1), term_upper.sum(axis=-1)
        )

    allocations = np.arange(flips + 1, dtype=np.float64)
    # The left side gets f_l = 0..f flips, the right side the rest.
    left_lower, left_upper = side(
        left_sizes, left_class_counts, left_removals, allocations
    )
    right_lower, right_upper = side(
        right_sizes, right_class_counts, right_removals, allocations[::-1]
    )
    return (
        (left_lower + right_lower).min(axis=-1),
        (left_upper + right_upper).max(axis=-1),
    )


def _side_score_bounds_reference(
    sizes: np.ndarray, class_counts: np.ndarray, budget: int, method: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar per-candidate bounds of ``|side| · ent#(side)`` for ``f = 0``.

    Retained as the property-test oracle for :func:`_split_score_bounds`
    without flips: one side of one candidate at a time, in plain
    :class:`Interval` arithmetic.
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


def _flip_split_score_bounds_reference(
    left_sizes: np.ndarray,
    left_class_counts: np.ndarray,
    right_sizes: np.ndarray,
    right_class_counts: np.ndarray,
    removals: int,
    flips: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Allocation-at-a-time bounds of ``score#`` under ``optimal`` ``cprob#``.

    Retained as the property-test oracle for :func:`_split_score_bounds`
    with flips: one flip allocation per loop iteration, each side in
    general :func:`mul_bounds` interval products.
    """

    def side(sizes: np.ndarray, class_counts: np.ndarray, side_flips: int):
        sizes = sizes.astype(np.float64)
        counts = class_counts.astype(np.float64)
        side_removals = np.minimum(float(removals), sizes)
        granted = np.minimum(float(side_flips), sizes)[:, None]
        remaining = sizes - side_removals
        positive = (remaining > 0)[:, None]
        safe_remaining = np.where(positive, remaining[:, None], 1.0)
        lower = np.maximum(0.0, counts - (side_removals[:, None] + granted))
        upper = np.minimum(counts + granted, remaining[:, None])
        lower = np.where(positive, np.minimum(lower / safe_remaining, 1.0), 0.0)
        upper = np.where(positive, np.minimum(upper / safe_remaining, 1.0), 1.0)
        term_lower, term_upper = mul_bounds(lower, upper, 1.0 - upper, 1.0 - lower)
        return mul_bounds(
            remaining, sizes, term_lower.sum(axis=1), term_upper.sum(axis=1)
        )

    score_lower: Optional[np.ndarray] = None
    score_upper: Optional[np.ndarray] = None
    for left_flips in range(flips + 1):
        left_lower, left_upper = side(left_sizes, left_class_counts, left_flips)
        right_lower, right_upper = side(
            right_sizes, right_class_counts, flips - left_flips
        )
        allocation_lower = left_lower + right_lower
        allocation_upper = left_upper + right_upper
        if score_lower is None:
            score_lower, score_upper = allocation_lower, allocation_upper
        else:
            score_lower = np.minimum(score_lower, allocation_lower)
            score_upper = np.maximum(score_upper, allocation_upper)
    assert score_lower is not None and score_upper is not None
    return score_lower, score_upper


# ---------------------------------------------------------------------------
# bestSplit#: candidate selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SplitCandidates:
    """The candidates ``bestSplit#`` selects at one node, one row each.

    Row ``i`` is a predicate on feature ``feature[i]`` with the row encoding
    of :class:`~repro.core.split_plan.StackedCandidates`: the point can take
    the true branch when ``x < high[i]`` and the false branch when
    ``x > low[i]`` (``x == low[i]`` / ``x != low[i]`` for an equality row).
    The ``(c, 2)`` side arrays hold the child element of each branch (true
    side at ``[:, 0]``): its size, class counts and budgets.  For a node
    table candidate no node value lies strictly between ``low`` and
    ``high``, so the symbolic split is exact and a side of size ``s`` keeps
    ``min(n, s)`` removals and ``min(f, s)`` flips.  ``pool`` holds the
    predicate objects of an explicit predicate pool's rows.
    """

    feature: np.ndarray  # (c,) int64
    low: np.ndarray  # (c,) float64
    high: np.ndarray  # (c,) float64
    kind: np.ndarray  # (c,) int8, split_plan's *_ROW codes
    sizes: np.ndarray  # (c, 2)
    class_counts: np.ndarray  # (c, 2, k)
    removals: np.ndarray  # (c, 2)
    flips: np.ndarray  # (c, 2)
    includes_null: bool
    pool: Optional[Tuple[Predicate, ...]] = None

    @cached_property
    def predicates(self) -> Tuple[Predicate, ...]:
        """The rows as (interned) predicate objects, in row order."""
        if self.pool is not None:
            return self.pool
        predicates: List[Predicate] = []
        for feature, low, high, kind in zip(
            self.feature.tolist(),
            self.low.tolist(),
            self.high.tolist(),
            self.kind.tolist(),
        ):
            if kind == split_plan.SYMBOLIC_ROW:
                predicates.append(split_plan.symbolic_predicate(feature, low, high))
            elif kind == split_plan.THRESHOLD_ROW:
                predicates.append(split_plan.threshold_predicate(feature, low))
            else:
                predicates.append(EqualityPredicate(feature, low))
        return tuple(predicates)

    def predicate_set(self) -> AbstractPredicateSet:
        return AbstractPredicateSet(self.predicates, self.includes_null)

    def branches(self, x: Sequence[float]) -> np.ndarray:
        """``(c, 2)`` mask of the branches ``x`` can take (true side first)."""
        value = np.asarray(x, dtype=np.float64)[self.feature]
        equality = self.kind == split_plan.EQUALITY_ROW
        return np.stack(_branches(value, self.low, self.high, equality), axis=1)


def _no_split(k: int) -> SplitCandidates:
    """``bestSplit#`` = ``{⋄}``: no candidate is non-trivial."""
    empty = np.empty(0)
    sides = np.empty((0, 2), dtype=np.int64)
    return SplitCandidates(
        feature=np.empty(0, dtype=np.int64),
        low=empty,
        high=empty,
        kind=np.empty(0, dtype=np.int8),
        sizes=sides,
        class_counts=np.empty((0, 2, k), dtype=np.int64),
        removals=sides,
        flips=sides,
        includes_null=True,
    )


def best_split_candidates(
    state: AbstractTrainingSet,
    method: str = "optimal",
    predicate_pool: Optional[Sequence[Predicate]] = None,
) -> SplitCandidates:
    """``bestSplit#`` of §4.6 (with App. B's lifting) as candidate arrays.

    The candidates are every split of the node's table (equality splits for
    categorical features).  Without a pool the result is memoized on the
    dataset's split plan, since it depends only on the node rows, the
    budgets and ``method``.  Predicate pools are supported for ``f = 0``
    only.
    """
    with profiling.phase("best_split"):
        if predicate_pool is not None and state.flips:
            raise ValidationError(
                "predicate pools are not supported for the label-flip/composite "
                "threat models"
            )
        if state.size == 0:
            return _no_split(state.dataset.n_classes)
        if predicate_pool is not None:
            return _pool_candidates(state, predicate_pool, method)
        plan = split_plan.plan_for(state.dataset)
        key = (state.indices.tobytes(), state.n, state.flips, method)
        result = plan.cached_best_split(key)
        if result is None:
            result = _table_candidates(
                plan.node_candidates(state.indices), state.n, state.flips, method
            )
            plan.store_best_split(key, result)
        return result


def _table_candidates(
    rows: split_plan.StackedCandidates, removals: int, flips: int, method: str
) -> SplitCandidates:
    """The selected rows of a node's candidate table."""
    keep, includes_null = _selection(
        rows.left_sizes,
        rows.left_class_counts,
        rows.right_sizes,
        rows.right_class_counts,
        removals,
        removals,
        flips,
        method,
    )
    feature = rows.features(keep)
    left_sizes = rows.left_sizes[keep]
    left_counts = rows.left_class_counts[keep]
    sizes = np.stack((left_sizes, rows.total_size - left_sizes), axis=1)
    return SplitCandidates(
        feature=feature,
        low=rows.low[keep],
        high=rows.high[keep],
        kind=rows.kinds[feature],
        sizes=sizes,
        class_counts=np.stack(
            (left_counts, rows.total_class_counts - left_counts), axis=1
        ),
        removals=np.minimum(removals, sizes),
        flips=np.minimum(flips, sizes),
        includes_null=includes_null,
    )


def _pool_candidates(
    state: AbstractTrainingSet, pool: Sequence[Predicate], method: str
) -> SplitCandidates:
    """The selected predicates of an explicit pool, sides from ``split_down``.

    A pool predicate need not be one of the node's table candidates, so a
    symbolic one may keep a budget above ``min(n, size)``; its sides are the
    ``split_down`` elements themselves.  Predicates with an empty side are
    trivial for every concretization and are not in Φ∃.  Only ``f = 0``
    elements reach here.
    """
    kept: List[Predicate] = []
    sides = []
    for predicate in pool:
        left = state.split_down(predicate, True)
        right = state.split_down(predicate, False)
        if left.size and right.size:
            kept.append(predicate)
            sides.append((left, right))
    if not kept:
        return _no_split(state.dataset.n_classes)
    sizes = np.array([[side.size for side in pair] for pair in sides])
    counts = np.array([[side.class_counts() for side in pair] for pair in sides])
    budgets = np.array([[side.n for side in pair] for pair in sides])
    keep, includes_null = _selection(
        sizes[:, 0],
        counts[:, 0],
        sizes[:, 1],
        counts[:, 1],
        budgets[:, 0],
        budgets[:, 1],
        0,
        method,
    )
    table = _predicate_table([kept[i] for i in keep])
    return SplitCandidates(
        feature=table[:, 0].astype(np.int64),
        low=table[:, 1],
        high=table[:, 2],
        # Pool rows materialize from ``pool``; ``kind`` only marks equalities.
        kind=np.where(
            table[:, 3] > 0, split_plan.EQUALITY_ROW, split_plan.SYMBOLIC_ROW
        ).astype(np.int8),
        sizes=sizes[keep],
        class_counts=counts[keep],
        removals=budgets[keep],
        flips=np.zeros_like(sizes[keep]),
        includes_null=includes_null,
        pool=tuple(kept[i] for i in keep),
    )


def _selection(
    left_sizes: np.ndarray,
    left_class_counts: np.ndarray,
    right_sizes: np.ndarray,
    right_class_counts: np.ndarray,
    left_removals,
    right_removals,
    flips: int,
    method: str,
) -> Tuple[np.ndarray, bool]:
    """The Φ∃ rows that may be optimal (§4.6), and whether ``⋄`` joins them.

    Φ∀ holds the rows non-trivial for every concretization: both sides
    larger than their removal budget (flips never move rows across a
    split).  With ``lub`` the least score upper bound over Φ∀, the result is
    every row whose score lower bound is at most ``lub``.  When Φ∀ is empty
    some concretization may have no non-trivial split, so every row is kept
    and ``⋄`` added.  The removal budgets are one per side, for all rows or
    per row.
    """
    universal = (left_sizes > left_removals) & (right_sizes > right_removals)
    if not universal.any():
        return np.arange(left_sizes.shape[0]), True
    score_lower, score_upper = _split_score_bounds(
        left_sizes,
        left_class_counts,
        right_sizes,
        right_class_counts,
        left_removals,
        right_removals,
        flips,
        method,
    )
    lub = float(score_upper[universal].min())
    return np.flatnonzero(score_lower <= lub + SCORE_TOLERANCE), False


def best_split_abstract(
    trainset: AbstractTrainingSet,
    *,
    method: str = "optimal",
    predicate_pool: Optional[Sequence[Predicate]] = None,
) -> AbstractPredicateSet:
    """``bestSplit#`` as an abstract predicate set (see :func:`best_split_candidates`).

    Returns every predicate whose score interval overlaps the minimal
    achievable score, plus ``⋄`` when some concretization might admit no
    non-trivial split at all.
    """
    return best_split_candidates(trainset, method, predicate_pool).predicate_set()


# ---------------------------------------------------------------------------
# Leaf exits
# ---------------------------------------------------------------------------


def exit_bounds(
    sizes: np.ndarray,
    class_counts: np.ndarray,
    removals: np.ndarray,
    flips: np.ndarray,
    method: str = "optimal",
) -> Tuple[np.ndarray, np.ndarray]:
    """``cprob#`` of ``E`` exits ``⟨T_i, r_i, f_i⟩`` at once, as ``(E, k)`` lo/hi.

    Row ``i`` equals :func:`cprob_optimal` / :func:`cprob_box` of
    ``⟨T_i, r_i, f_i⟩``; those scalar transformers are its oracles.  With
    ``m = |T| − r`` remaining rows, class ``i`` keeps
    ``[max(0, c_i − r − f), min(c_i + f, m)] / m`` (``"optimal"``) or that
    numerator over ``[m, |T|]`` with upper count ``min(c_i + f, |T|)``
    (``"box"``); an exit with ``m = 0`` gets ``[0, 1]``.
    """
    sizes = np.asarray(sizes, dtype=np.float64)[:, None]
    counts = np.asarray(class_counts, dtype=np.float64)
    removals = np.asarray(removals, dtype=np.float64)[:, None]
    flips = np.asarray(flips, dtype=np.float64)[:, None]
    remaining = sizes - removals
    positive = remaining > 0
    safe_remaining = np.where(positive, remaining, 1.0)
    numerator_lo = np.maximum(0.0, counts - removals - flips)
    if method == "optimal":
        lower = np.minimum(numerator_lo / safe_remaining, 1.0)
        upper = np.minimum(
            np.minimum(counts + flips, remaining) / safe_remaining, 1.0
        )
    elif method == "box":
        # Interval division by [m, |T|] with non-negative numerators.
        lower = numerator_lo / np.maximum(sizes, 1.0)
        upper = np.minimum(counts + flips, sizes) / safe_remaining
    else:
        raise ValueError(
            f"unknown cprob method {method!r}; expected one of {CPROB_METHODS}"
        )
    return np.where(positive, lower, 0.0), np.where(positive, upper, 1.0)
