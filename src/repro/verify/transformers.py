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

``bestSplit#`` bounds every candidate of a node at once from the node's
stacked split table (threshold rows for real and boolean features, equality
rows for categorical ones), and :func:`best_splits` bounds those of many
elements at once: the rows of every table not memoized go through one call
of the score kernel (:func:`_split_score_bounds`) per flip budget, each row
at its own element's removal budget (:func:`_table_selections`, whose
one-table oracles are :func:`_selection` and :func:`_screened_selection`).
The kernel ranges over the ``f + 1`` ways of sharing the flip budget
between a split's two sides, which is a single allocation when ``f = 0``.
Under ``optimal`` ``cprob#``, a table of more than ``_SCREEN_ROWS`` rows is
first screened by each row's concrete Gini score (:func:`_screen_rows`),
and the kernel bounds only the rows that can reach the lub; the selection
is the full kernel's.  :func:`best_split_abstract` is the one-element case.
The selected candidates Ψ are rows (:class:`SplitCandidates`): each row's
feature, bounds and kind, with the size, class counts and budgets of both
of its sides.  The learners read Ψ in that form only: the disjunctive
learner stacks the results of a chunk of states (:func:`stack_candidates`),
classifies its leaves with one :func:`exit_bounds` call and builds its
inner children with :meth:`SplitCandidates.child`, and the Box learner
filters with :func:`filter_closed_form`.

``filter#`` has a closed form (:func:`filter_closed_form`), from which
:func:`repro.verify.trace.filter_abstract_traced` builds the Box learner's
filtered element; the sequential fold of split pieces
(:func:`filter_abstract`) over a predicate set is kept as its scalar oracle.

``cprob#`` is one formula for every element: with ``m = |T| − n`` rows
left, class ``i`` keeps ``[max(0, c_i − n − f), min(c_i + f, m)] / m``.
Only the ``ent(T) = 0`` exit (:func:`pure_exit_vector`) branches on ``f``:
a pure concretization of ``⟨T, n, f⟩`` may have flipped rows into its
class, so for ``f > 0`` it has no element form and the exit is the join of
the point vectors of the feasible classes.  Both learners take each
element's ``cprob#``, ``ent(T) = 0`` test and pure exit from its class
counts, for many elements at once (:func:`state_exits`);
:func:`cprob_intervals`, :func:`entropy_is_definitely_zero` and
:func:`pure_exit_vector` are its scalar oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    removals,
    flips: int,
    method: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bounds of ``score#`` for every candidate split.

    ``score#`` is ``|left| · ent#(left) + |right| · ent#(right)`` (§4.6),
    each side's ``cprob#`` as in :func:`cprob_optimal` / :func:`cprob_box`.
    Sizes have shape ``(c,)`` and class counts ``(c, k)``.  The removal
    budget is one int or one per row (``(c,)``, rows of several nodes
    scored together); each side keeps its row's full budget, clamped to its
    size.  The right class counts may also be a :class:`_RowComplement` of
    a node table.

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
    per_row = isinstance(removals, np.ndarray)
    for block in split_plan.row_blocks(lower.size):
        budgets = removals[block] if per_row else removals
        # The left side gets f_l = 0..f flips, the right side the rest.
        left_lower, left_upper = side(
            left_sizes[block],
            left_class_counts[block],
            budgets,
            allocations,
        )
        right_lower, right_upper = side(
            right_sizes[block],
            right_class_counts[block],
            budgets,
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


#: The row arrays of :class:`SplitCandidates`, in field order.
ROW_COLUMNS = (
    "feature",
    "low",
    "high",
    "kind",
    "sizes",
    "class_counts",
    "removals",
    "flips",
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


def stack_candidates(parts: Sequence[SplitCandidates], k: int) -> SplitCandidates:
    """The rows of several ``bestSplit#`` results, in order, as one table.

    ``k`` is the class count; the table has ``⋄`` when some result has.
    """
    if len(parts) == 1:
        return parts[0]
    everything = (_no_split(k), *parts)
    return SplitCandidates(
        *(
            np.concatenate([getattr(part, column) for part in everything])
            for column in ROW_COLUMNS
        ),
        includes_null=any(part.includes_null for part in parts),
    )


def best_split_abstract(
    trainset: AbstractTrainingSet, *, method: str = "optimal"
) -> SplitCandidates:
    """``bestSplit#`` of §4.6 (with App. B's lifting) as candidate rows.

    Returns every candidate whose score interval overlaps the minimal
    achievable score, plus ``⋄`` (``includes_null``) when some
    concretization might admit no non-trivial split at all.  The candidates
    are every split of the node's table (equality splits for categorical
    features).  This is :func:`best_splits` of the one element.
    """
    return best_splits([trainset], method)[0]


def best_splits(
    states: Sequence[AbstractTrainingSet], method: str = "optimal"
) -> List[SplitCandidates]:
    """``bestSplit#`` of every element of ``states``, all over one dataset.

    Each result is memoized on the dataset's split plan, since it depends
    only on the node rows, the budgets and ``method``.  Memo hits are
    answered element by element; the node tables of the misses are built
    (and cached) one node at a time, and their rows are selected together
    by :func:`_table_selections`.  Elements with the same rows and budgets
    are selected once.
    """
    if not states:
        return []
    with profiling.phase("best_split"):
        plan = split_plan.plan_for(states[0].dataset)
        results: List[Optional[SplitCandidates]] = [None] * len(states)
        misses: Dict[tuple, List[int]] = {}
        for i, state in enumerate(states):
            if state.size == 0:
                results[i] = _no_split(state.dataset.n_classes)
                continue
            key = (state.indices.tobytes(), state.n, state.flips, method)
            results[i] = plan.cached_best_split(key)
            if results[i] is None:
                misses.setdefault(key, []).append(i)
        if misses:
            first = [states[group[0]] for group in misses.values()]
            tables = [plan.node_candidates(state.indices) for state in first]
            selections = _table_selections(
                tables,
                [state.n for state in first],
                [state.flips for state in first],
                method,
            )
            for (key, group), state, rows, (keep, includes_null) in zip(
                misses.items(), first, tables, selections
            ):
                result = _table_candidates(
                    rows, keep, includes_null, state.n, state.flips
                )
                plan.store_best_split(key, result)
                for i in group:
                    results[i] = result
        return results  # type: ignore[return-value]


def _table_candidates(
    rows: split_plan.StackedCandidates,
    keep: np.ndarray,
    includes_null: bool,
    removals: int,
    flips: int,
) -> SplitCandidates:
    """The rows ``keep`` of a node's candidate table, with both of their sides."""
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


#: Tables of more rows than this are screened under ``optimal`` before the
#: score kernel bounds them (:func:`_table_selections`).  On a 2-CPU x86_64
#: host the screen (a one-row kernel call, the table's concrete Gini scores
#: and a pass over them) costs about as much as bounding ~1,300 rows in a
#: kernel call of their own and ~1,700 rows in a shared batch; it saves
#: ~0.5 ms on a 6,800-row wdbc table.
_SCREEN_ROWS = 2048


def _table_selections(
    tables: Sequence[split_plan.StackedCandidates],
    removals: Sequence[int],
    flips: Sequence[int],
    method: str,
) -> List[Tuple[np.ndarray, bool]]:
    """:func:`_selection` of many node tables, one kernel call per flip budget.

    Table ``j`` is selected at the budgets ``removals[j]`` and ``flips[j]``.
    A table with no universal row keeps every row and ``⋄``, unscored.
    Under ``optimal``, a table of more than ``_SCREEN_ROWS`` rows is first
    screened (:func:`_screen_rows`), and only its survivors are bounded:
    its selection is :func:`_screened_selection`'s.  The other tables join
    one batch per flip budget.  The score kernel bounds every row on its
    own, each at its table's removal budget, so a table's bounds in a batch
    are those of a call of its own, bit for bit; its lub is the least upper
    bound of its universal rows, a segmented min over the batch.  A table
    whose bounded rows span more than one row block is bounded alone,
    with its right sides computed block by block (:class:`_RowComplement`),
    so a batch never copies more than one block of rows per table.
    """
    selections: List[Optional[Tuple[np.ndarray, bool]]] = [None] * len(tables)
    batches: Dict[tuple, list] = {}
    for j, rows in enumerate(tables):
        n, f = int(removals[j]), int(flips[j])
        left = rows.left_sizes
        universal = (left > n) & (left < rows.total_size - n)
        if not universal.any():
            selections[j] = (np.arange(left.size), True)
            continue
        counts = rows.left_class_counts
        index: Optional[np.ndarray] = None
        if method == "optimal" and left.size > _SCREEN_ROWS:
            index = _screen_rows(
                left,
                counts,
                rows.total_size,
                rows.total_class_counts,
                rows.gini,
                rows.gini_argmin,
                universal,
                n,
                f,
            )
            left, counts, universal = left[index], counts[index], universal[index]
        # A batch per flip budget, and one for each table bounded alone.
        alone = left.size > split_plan._BLOCK_ROWS
        batches.setdefault((f, j if alone else -1), []).append(
            (j, index, left, counts, universal)
        )

    for (f, _), parts in batches.items():
        lengths = [part[2].size for part in parts]
        if len(parts) == 1:
            j, _, left, counts, universal = parts[0]
            right = tables[j].total_size - left
            right_counts = _RowComplement(tables[j].total_class_counts, counts)
            budget = removals[j]
        else:
            left = np.concatenate([part[2] for part in parts])
            counts = np.concatenate([part[3] for part in parts])
            universal = np.concatenate([part[4] for part in parts])
            totals = [tables[part[0]] for part in parts]
            right = np.repeat([rows.total_size for rows in totals], lengths) - left
            right_counts = np.concatenate(
                [rows.total_class_counts - part[3] for rows, part in zip(totals, parts)]
            )
            budget = np.repeat([removals[part[0]] for part in parts], lengths)
        lower, upper = _split_score_bounds(
            left, counts, right, right_counts, budget, f, method
        )
        ends = np.cumsum(lengths)
        lub = np.minimum.reduceat(np.where(universal, upper, np.inf), ends - lengths)
        selected = lower <= np.repeat(lub, lengths) + SCORE_TOLERANCE
        for (j, index, *_), end, length in zip(parts, ends.tolist(), lengths):
            kept = np.flatnonzero(selected[end - length : end])
            selections[j] = (kept if index is None else index[kept], False)
    return selections  # type: ignore[return-value]


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
    rows = _screen_rows(
        left_sizes,
        left_class_counts,
        total_size,
        total_class_counts,
        scores,
        best,
        universal,
        removals,
        flips,
    )
    left = left_class_counts[rows]
    sizes = left_sizes[rows]
    keep, _ = _selection(
        sizes,
        left,
        total_size - sizes,
        total_class_counts - left,
        removals,
        flips,
        "optimal",
    )
    return rows[keep], False


def _screen_rows(
    left_sizes: np.ndarray,
    left_class_counts: np.ndarray,
    total_size: int,
    total_class_counts: np.ndarray,
    scores: np.ndarray,
    best: int,
    universal: np.ndarray,
    removals: int,
    flips: int,
) -> np.ndarray:
    """The rows of a node table that :func:`_screened_selection` bounds.

    ``universal`` marks the table's universal rows, of which there is one
    at least.  The margin and the proof are :func:`_screened_selection`'s.
    """
    # n'_L + n'_R ≤ 2n: one margin for every row.
    margin = total_class_counts.shape[0] * (2 * removals + flips)
    margin += _SCREEN_ROUNDING * total_size
    if not universal[best]:
        best = int(np.argmin(np.where(universal, scores, np.inf)))
    left = left_class_counts[best : best + 1]
    sizes = left_sizes[best : best + 1]
    _, upper = _split_score_bounds(
        sizes,
        left,
        total_size - sizes,
        total_class_counts - left,
        removals,
        flips,
        "optimal",
    )
    return np.flatnonzero(scores <= float(upper[0]) + SCORE_TOLERANCE + margin)


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
    lower = np.maximum(counts - removals - flips, 0.0)
    if method == "optimal":
        # Both stay within [0, 1]: c − r − f ≤ m and min(c + f, m) ≤ m.
        lower /= safe_remaining
        upper = np.minimum(counts + flips, remaining)
    elif method == "box":
        # Interval division by [m, |T|] with non-negative numerators.
        lower /= np.maximum(sizes, 1.0)
        upper = np.minimum(counts + flips, sizes)
    else:
        raise ValueError(
            f"unknown cprob method {method!r}; expected one of {CPROB_METHODS}"
        )
    upper /= safe_remaining
    if not positive.all():
        lower[~positive[:, 0]] = 0.0
        upper[~positive[:, 0]] = 1.0
    return lower, upper


class StateExits(NamedTuple):
    """The exits of ``S`` elements' ``ent(T) = 0`` and ``φ = ⋄`` tests."""

    #: ``(S, k)`` ``cprob#`` bounds of each element: its ``⋄`` exit.
    cprob_lower: np.ndarray
    cprob_upper: np.ndarray
    #: ``(S,)``: every concretization is pure (the else branch is infeasible).
    zero_entropy: np.ndarray
    #: ``(S,)``: some concretization is pure, so the element has a pure exit.
    pure: np.ndarray
    #: ``(S, k)`` bounds of the pure exit, where ``pure``.
    pure_lower: np.ndarray
    pure_upper: np.ndarray


def state_exits(
    sizes: np.ndarray,
    class_counts: np.ndarray,
    removals: np.ndarray,
    flips: np.ndarray,
    method: str = "optimal",
) -> StateExits:
    """The exits of ``S`` elements ``⟨T_i, n_i, f_i⟩`` from their class counts.

    Row ``i`` equals the scalar transformers of the element, which are its
    oracles: :func:`cprob_intervals` (through :func:`exit_bounds`),
    :func:`entropy_is_definitely_zero` and :func:`pure_exit_vector`.

    * ``ent#`` sums ``ι_j (1 − ι_j)`` over the classes.  Each ``ι_j =
      [lo, hi]`` has ``0 ≤ lo ≤ min(1, hi)`` under either method, so the
      largest of the interval product's four products is ``hi (1 − lo) ≥
      0``, and the sum of these is 0 exactly when every one is.
    * Class ``j`` can be made pure when the rows of the other classes fit
      in ``n + f``.  For ``f = 0`` the pure exit is ``cprob#`` of the join
      of every such class's restriction ``⟨T_j, n − (|T| − c_j)⟩``: their
      rows are disjoint and each keeps ``|T_j| − n_j = |T| − n``, so by
      Definition 4.1 the join is ``⟨U, |U| − (|T| − n)⟩`` for the union
      ``U`` of their rows, of size ``Σ c_j``.  For ``f > 0`` it is the
      join of the feasible classes' point vectors.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    counts = np.asarray(class_counts, dtype=np.int64)
    removals = np.asarray(removals, dtype=np.int64)
    flips = np.asarray(flips, dtype=np.int64)
    feasible = (sizes[:, None] - counts) <= (removals + flips)[:, None]
    pure_counts = np.where(feasible, counts, 0)
    union = pure_counts.sum(axis=1)
    # Each element's cprob# rows, then its f = 0 pure exit's, in one call.
    lower, upper = exit_bounds(
        np.concatenate((sizes, union)),
        np.concatenate((counts, pure_counts)),
        np.concatenate((removals, np.maximum(union - (sizes - removals), 0))),
        np.concatenate((flips, np.zeros_like(flips))),
        method,
    )
    cprob_lower, pure_lower = lower[: sizes.size], lower[sizes.size :]
    cprob_upper, pure_upper = upper[: sizes.size], upper[sizes.size :]
    flipped = (flips > 0)[:, None]
    if flipped.any():
        single = (feasible.sum(axis=1) == 1)[:, None]
        pure_lower = np.where(flipped, feasible & single, pure_lower)
        pure_upper = np.where(flipped, feasible, pure_upper)
    return StateExits(
        cprob_lower,
        cprob_upper,
        ~(cprob_upper * (1.0 - cprob_lower)).any(axis=1),
        feasible.any(axis=1),
        pure_lower,
        pure_upper,
    )


def level_exits(
    states: Sequence[AbstractTrainingSet], method: str = "optimal"
) -> StateExits:
    """:func:`state_exits` of elements over one dataset, from their rows."""
    with profiling.phase("pure_exit"):
        dataset = states[0].dataset
        k = dataset.n_classes
        sizes = np.array([state.size for state in states], dtype=np.int64)
        owners = np.repeat(np.arange(0, sizes.size * k, k), sizes)
        labels = dataset.y[np.concatenate([state.indices for state in states])]
        counts = np.bincount(owners + labels, minlength=sizes.size * k)
        removals, flips = np.array(
            [(state.n, state.flips) for state in states], dtype=np.int64
        ).T
        return state_exits(sizes, counts.reshape(-1, k), removals, flips, method)
