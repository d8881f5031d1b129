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

``bestSplit#`` (:func:`best_split_abstract`) bounds every candidate of a
node at once from the node's stacked split table (threshold rows for real
and boolean features, equality rows for categorical ones).  One score kernel
(:func:`_split_score_bounds`) ranges over the ``f + 1`` ways of sharing the
flip budget between a split's two sides, which is a single allocation when
``f = 0``.  Under ``optimal`` ``cprob#``, a table that spans more than one
row block is first screened by each row's concrete Gini score
(:func:`_screened_selection`), and the kernel bounds only the rows that can
reach the lub; the selection is the full kernel's.  It returns the selected
candidates Ψ as rows (:class:`SplitCandidates`): each row's feature, bounds
and kind, with the size, class counts and budgets of both of its sides.
Both learners read Ψ in that form only: the disjunctive learner classifies
its leaves with one :func:`exit_bounds` call and builds its inner children
with :meth:`SplitCandidates.child`, and the Box learner filters with
:func:`filter_closed_form`.

``filter#`` has a closed form (:func:`filter_closed_form`), from which
:func:`repro.verify.trace.filter_abstract_traced` builds the Box learner's
filtered element; the sequential fold of split pieces
(:func:`filter_abstract`) over a predicate set is kept as its scalar oracle.

``cprob#`` is one formula for every element: with ``m = |T| − n`` rows
left, class ``i`` keeps ``[max(0, c_i − n − f), min(c_i + f, m)] / m``.
Only the ``ent(T) = 0`` exit (:func:`pure_exit_vector`) branches on ``f``:
a pure concretization of ``⟨T, n, f⟩`` may have flipped rows into its
class, so for ``f > 0`` it has no element form and the exit is the join of
the point vectors of the feasible classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.predicates import Predicate
from repro.core import split_plan
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
    trainset: AbstractTrainingSet, candidates: SplitCandidates, x: Sequence[float]
) -> Optional[Tuple[np.ndarray, int, int]]:
    """The join :func:`filter_abstract` folds over the rows of Ψ, from piece counts.

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
    piece of each side; equality pieces add their own rows.  Only the rows'
    feature, bounds and kind are read.

    Returns ``(U, s_min, largest piece size)``, or ``None`` (bottom) when no
    piece survives.
    """
    if candidates.feature.size == 0:
        return None
    # Rows of one feature form one run; the join does not depend on order.
    order = np.argsort(candidates.feature, kind="stable")
    feature = candidates.feature[order]
    low, high = candidates.low[order], candidates.high[order]
    equality = candidates.kind[order] == split_plan.EQUALITY_ROW
    bounds = [0, *(np.flatnonzero(feature[1:] != feature[:-1]) + 1).tolist()]
    runs = [slice(a, b) for a, b in zip(bounds, [*bounds[1:], feature.size])]
    indices = trainset.indices
    size = int(indices.size)
    X = trainset.dataset.X
    plan = split_plan.plan_for(trainset.dataset)

    # Node rows with value <= low and < high.  A boolean feature holds only
    # 0 and 1, so the rows of all boolean features are counted at once from
    # the node's bits: ``x <= low`` holds for its zeros when ``0 <= low`` and
    # for its ones when ``1 <= low``.  Any other feature sorts its node
    # values once, then binary-searches each bound.
    counted = plan.is_boolean(feature)
    any_counted = bool(counted.any())
    le_low = np.empty(feature.size, dtype=np.int64)
    lt_high = np.empty(feature.size, dtype=np.int64)
    if any_counted:
        bits = plan.node_bits(indices, feature[counted])
        ones = bits.sum(axis=0, dtype=np.int64)
        zeros = size - ones
        le_low[counted] = np.where(low[counted] >= 0, zeros, 0) + np.where(
            low[counted] >= 1, ones, 0
        )
        lt_high[counted] = np.where(high[counted] > 0, zeros, 0) + np.where(
            high[counted] > 1, ones, 0
        )
    nodes = []
    for j, run in enumerate(runs):
        if counted[run.start]:
            continue
        node = X[indices, feature[run.start]]
        ordered = np.sort(node)
        le_low[run] = np.searchsorted(ordered, low[run], side="right")
        lt_high[run] = np.searchsorted(ordered, high[run], side="left")
        nodes.append((j, node, ordered))

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
    # the rows of every equality piece.  A boolean row's piece holds all of
    # the node's zeros or ones of its feature, or both.
    keep = np.zeros(size, dtype=bool)
    if any_counted:
        taken = (true_size[counted] > 0, false_size[counted] > 0)
        for value in (0, 1):
            sides = _branches(
                float(value), low[counted], high[counted], equality[counted]
            )
            wanted = (sides[0] & taken[0]) | (sides[1] & taken[1])
            keep |= (bits[:, wanted] == value).any(axis=1)
    widest_true = np.maximum.reduceat(np.where(equality, 0, true_size), bounds)
    widest_false = np.maximum.reduceat(np.where(equality, 0, false_size), bounds)
    has_equality = np.logical_or.reduceat(equality, bounds)
    for j, node, ordered in nodes:
        run = runs[j]
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
    right_class_counts,
    removals: int,
    flips: int,
    method: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bounds of ``score#`` for every candidate split.

    ``score#`` is ``|left| · ent#(left) + |right| · ent#(right)`` (§4.6),
    each side's ``cprob#`` as in :func:`cprob_optimal` / :func:`cprob_box`.
    Sizes have shape ``(c,)`` and class counts ``(c, k)``; each side keeps
    the full removal budget (clamped to its size).  The right class counts
    may also be a :class:`_RowComplement` of a node table.

    A flipped label lives on exactly one side, so the flip budget is not
    granted to both sides at once (which would double-count every flip):
    the bound ranges over the allocations ``f_l + f_r ≤ f``.  The side
    bounds widen monotonically in their flip budget, so the extremes lie on
    ``f_l + f_r = f``.  Each side evaluates all ``f + 1`` allocations as one
    ``(b, f + 1, k)`` cube per block of ``b`` rows
    (:func:`~repro.core.split_plan.row_blocks`), and the envelope is a
    min/max over the allocation axis.  With ``f = 0`` there is one
    allocation and the bound is the paper's.  Oracles:
    :func:`_side_score_bounds_reference` (``f = 0``) and
    :func:`_flip_split_score_bounds_reference`.

    A side's Gini sum adds its class terms left to right
    (:func:`~repro.core.split_plan.class_sum`).  That is numpy's ``sum``
    order for ``k < 8``; from ``k = 8`` numpy sums pairwise, so against a
    ``sum``-based oracle the bounds may differ in the last few ulps (by at
    most 1.2e-13 on 100 random tables with k = 8–10).
    """
    if method not in CPROB_METHODS:
        raise ValueError(f"unknown cprob method {method!r}")

    def side(sizes, class_counts, removals, side_flips):
        """``(b, a)`` bounds of ``|side| · ent#(side)``, one column per allocation.

        One side of one block at a time, in place where possible, so every
        ``(b, a, k)`` temporary stays in cache.
        """
        sizes = sizes.astype(np.float64)[:, None]  # (b, 1)
        removals = np.minimum(removals, sizes[:, 0])[:, None]
        remaining = sizes - removals  # m = |T| - n
        counts = class_counts.astype(np.float64)[:, None, :]  # (b, 1, k)
        if flips:
            side_flips = np.minimum(side_flips, sizes)[:, :, None]  # (b, a, 1)
            lower = counts - (removals[:, :, None] + side_flips)
            upper = counts + side_flips
        else:
            # One allocation granting no flip, and x + 0.0 == x.
            lower = counts - removals[:, :, None]
            upper = counts
        np.maximum(lower, 0.0, out=lower)
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
            # Where m = 0 every class count is at most the removals, so the
            # lower bound is 0 already.
            upper[~positive] = 1.0
        if method == "optimal":
            # Optimal bounds lie in [0, 1] and rounded products are monotone,
            # so each interval product is lower·lower' and upper·upper': the
            # values mul_bounds would pick, without the other products.
            term = 1.0 - upper
            term *= lower
            gini_lower = split_plan.class_sum(term)
            np.subtract(1.0, lower, out=term)
            term *= upper
            del lower, upper
            return remaining * gini_lower, sizes * split_plan.class_sum(term)
        term_lower, term_upper = mul_bounds(lower, upper, 1.0 - upper, 1.0 - lower)
        del lower, upper
        return mul_bounds(
            remaining,
            sizes,
            split_plan.class_sum(term_lower),
            split_plan.class_sum(term_upper),
        )

    allocations = np.arange(flips + 1, dtype=np.float64)
    lower = np.empty(left_sizes.shape[0])
    upper = np.empty(left_sizes.shape[0])
    for block in split_plan.row_blocks(lower.size):
        # The left side gets f_l = 0..f flips, the right side the rest.
        left_lower, left_upper = side(
            left_sizes[block],
            left_class_counts[block],
            removals,
            allocations,
        )
        right_lower, right_upper = side(
            right_sizes[block],
            right_class_counts[block],
            removals,
            allocations[::-1],
        )
        left_lower += right_lower
        left_upper += right_upper
        left_lower.min(axis=-1, out=lower[block])
        left_upper.max(axis=-1, out=upper[block])
    return lower, upper


class _RowComplement:
    """``total − part`` row by row, built one block of rows at a time.

    A node table's right sides are its totals minus its left sides; the
    score kernel slices this instead of a full-size ``(c, k)`` copy.
    """

    __slots__ = ("_total", "_part")

    def __init__(self, total: np.ndarray, part: np.ndarray) -> None:
        self._total = total
        self._part = part

    def __getitem__(self, block: slice) -> np.ndarray:
        return self._total - self._part[block]


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
    side at ``[:, 0]``): its size, class counts and budgets.  No node value
    lies strictly between ``low`` and ``high``, so the symbolic split is
    exact and a side of size ``s`` keeps ``min(n, s)`` removals and
    ``min(f, s)`` flips.
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

    @cached_property
    def key(self) -> bytes:
        """The rows' identity: equal keys mean the same rows in the same order."""
        columns = (self.feature, self.low, self.high, self.kind)
        return b"".join(column.tobytes() for column in columns)

    def branches(self, x: Sequence[float]) -> np.ndarray:
        """``(c, 2)`` mask of the branches ``x`` can take (true side first)."""
        value = np.asarray(x, dtype=np.float64)[self.feature]
        equality = self.kind == split_plan.EQUALITY_ROW
        return np.stack(_branches(value, self.low, self.high, equality), axis=1)

    def child(
        self, state: AbstractTrainingSet, row: int, side: int
    ) -> AbstractTrainingSet:
        """The element on ``side`` (0 = true) of row ``row``, split from ``state``.

        Its rows are the node rows that side keeps (the loose side, ``x <
        high`` or ``x > low``), through the split plan's cache; its budgets
        are the side's ``removals`` and ``flips``.  This is ``state``'s
        ``split_down`` by the row's predicate.
        """
        kept, _, _ = split_plan.plan_for(state.dataset).symbolic_split(
            state.indices,
            int(self.feature[row]),
            float(self.low[row]),
            float(self.high[row]),
            int(self.kind[row]),
            side == 0,
        )
        return AbstractTrainingSet._trusted(
            state.dataset,
            kept,
            int(self.removals[row, side]),
            int(self.flips[row, side]),
        )


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


def best_split_abstract(
    trainset: AbstractTrainingSet, *, method: str = "optimal"
) -> SplitCandidates:
    """``bestSplit#`` of §4.6 (with App. B's lifting) as candidate rows.

    Returns every candidate whose score interval overlaps the minimal
    achievable score, plus ``⋄`` (``includes_null``) when some
    concretization might admit no non-trivial split at all.  The candidates
    are every split of the node's table (equality splits for categorical
    features).  The result is memoized on the dataset's split plan, since it
    depends only on the node rows, the budgets and ``method``.
    """
    with profiling.phase("best_split"):
        if trainset.size == 0:
            return _no_split(trainset.dataset.n_classes)
        plan = split_plan.plan_for(trainset.dataset)
        key = (trainset.indices.tobytes(), trainset.n, trainset.flips, method)
        result = plan.cached_best_split(key)
        if result is None:
            result = _table_candidates(
                plan.node_candidates(trainset.indices),
                trainset.n,
                trainset.flips,
                method,
            )
            plan.store_best_split(key, result)
        return result


def _table_candidates(
    rows: split_plan.StackedCandidates, removals: int, flips: int, method: str
) -> SplitCandidates:
    """The selected rows of a node's candidate table.

    A table that spans more than one row block is screened under
    ``optimal`` (:func:`_screened_selection`); a one-block table is a
    single kernel pass already.
    """
    if method == "optimal" and rows.left_sizes.size > split_plan._BLOCK_ROWS:
        keep, includes_null = _screened_selection(
            rows.left_sizes,
            rows.left_class_counts,
            rows.total_size,
            rows.total_class_counts,
            rows.gini,
            rows.gini_argmin,
            removals,
            flips,
        )
    else:
        keep, includes_null = _selection(
            rows.left_sizes,
            rows.left_class_counts,
            rows.right_sizes,
            _RowComplement(rows.total_class_counts, rows.left_class_counts),
            removals,
            flips,
            method,
        )
    feature = rows.features(keep)
    # The side arrays are int64, whatever the table's columns.
    left_sizes = rows.left_sizes[keep].astype(np.int64)
    left_counts = rows.left_class_counts[keep].astype(np.int64)
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


def _selection(
    left_sizes: np.ndarray,
    left_class_counts: np.ndarray,
    right_sizes: np.ndarray,
    right_class_counts,
    removals: int,
    flips: int,
    method: str,
) -> Tuple[np.ndarray, bool]:
    """The Φ∃ rows that may be optimal (§4.6), and whether ``⋄`` joins them.

    Φ∀ holds the rows non-trivial for every concretization: both sides
    larger than the removal budget (flips never move rows across a split).
    With ``lub`` the least score upper bound over Φ∀, the result is every
    row whose score lower bound is at most ``lub``.  When Φ∀ is empty some
    concretization may have no non-trivial split, so every row is kept and
    ``⋄`` added.
    """
    universal = (left_sizes > removals) & (right_sizes > removals)
    if not universal.any():
        return np.arange(left_sizes.shape[0]), True
    score_lower, score_upper = _split_score_bounds(
        left_sizes,
        left_class_counts,
        right_sizes,
        right_class_counts,
        removals,
        flips,
        method,
    )
    lub = float(score_upper[universal].min())
    return np.flatnonzero(score_lower <= lub + SCORE_TOLERANCE), False


#: Allowance, relative to the node size ``|T|``, for the float rounding of
#: the screen's concrete scores and the kernel's bounds (see
#: :func:`_screened_selection`).
_SCREEN_ROUNDING = 1e-12


def _screened_selection(
    left_sizes: np.ndarray,
    left_class_counts: np.ndarray,
    total_size: int,
    total_class_counts: np.ndarray,
    scores: np.ndarray,
    best: int,
    removals: int,
    flips: int,
) -> Tuple[np.ndarray, bool]:
    """:func:`_selection` under ``optimal``, bounding only rows that can reach the lub.

    ``scores`` holds each row's concrete Gini score
    (:func:`~repro.core.split_plan.gini_scores`) and ``best`` its first
    minimum; a node table stores both.
    Take one side with size ``s`` and class count ``c``, ``n' = min(n, s)``,
    its clamped flip allocation ``f'`` and ``N = n' + f'``.  The kernel's
    lower-bound term of the class is ``(c − N)⁺ (s − c − N)⁺ / (s − n')``,
    and the concrete Gini term ``c (s − c) / s`` exceeds it by at most
    ``N``: ``c (s − c) / s ≤ min(c, s − c) ≤ N`` when either factor is 0,
    and else the excess is at most ``N (s − N) / s`` since ``s − n' ≤ s``.
    Summed over ``k`` classes, both sides and ``f'_L + f'_R ≤ f``, every
    row's concrete score exceeds its ``score#`` lower bound by at most
    ``k · (n'_L + n'_R + f)``, and so by at most the one margin
    ``k · (2n + f)`` the screen uses for every row.  The margin adds
    ``_SCREEN_ROUNDING · |T|`` for the rounding of both scores, each a few
    rounded operations per class on terms no larger than ``|T|``.

    Let ``u`` be the kernel's upper bound of some universal row, so
    ``u ≥ lub``.  A row whose concrete score minus the margin exceeds
    ``u + SCORE_TOLERANCE`` has a lower bound above ``lub +
    SCORE_TOLERANCE``: it is not selected, and its upper bound, at least
    its lower one, is not the lub.  The row that attains the lub survives,
    so :func:`_selection` on the survivors gives the same rows, ``⋄`` and
    lub as on the whole table, with the same per-row arithmetic.  The
    screen takes ``u`` of the universal row of lowest concrete score, with
    one one-row kernel call, and keeps the rows within the margin of it in
    one pass over ``scores``.

    Not for ``box``: its ``upper_j = min(c + f', s) / m`` exceeds 1 once
    removals are large, so ``1 − upper_j`` is negative and the lower bound
    falls below the concrete score by up to about ``s² / m``, which no
    margin linear in ``N`` covers.
    """
    universal = (left_sizes > removals) & (left_sizes < total_size - removals)
    if not universal.any():
        return np.arange(left_sizes.shape[0]), True
    # n'_L + n'_R ≤ 2n: one margin for every row.
    margin = total_class_counts.shape[0] * (2 * removals + flips)
    margin += _SCREEN_ROUNDING * total_size

    def sides(index):
        """The kernel's four side arguments for the rows ``index``."""
        left = left_class_counts[index]
        sizes = left_sizes[index]
        return sizes, left, total_size - sizes, total_class_counts - left

    budgets = (removals, flips, "optimal")
    if not universal[best]:
        best = int(np.argmin(np.where(universal, scores, np.inf)))
    _, upper = _split_score_bounds(*sides(slice(best, best + 1)), *budgets)
    rows = np.flatnonzero(scores <= float(upper[0]) + SCORE_TOLERANCE + margin)
    keep, _ = _selection(*sides(rows), *budgets)
    return rows[keep], False


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
