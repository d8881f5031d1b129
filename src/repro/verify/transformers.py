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

``bestSplit#`` (:func:`best_split_candidates`) bounds every candidate of a
node at once from the node's stacked split table (threshold rows for real
and boolean features, equality rows for categorical ones), or from the
``split_down`` sides of an explicit predicate pool.  One selection serves
removal ``⟨T, n⟩`` and flip ``⟨T, r, f⟩`` elements; only the score kernel
differs.  It returns the selected candidates as arrays, with the size, class
counts and budgets of both sides of each, so the disjunctive learner
classifies its leaves with one :func:`exit_bounds` call instead of building
a state per leaf.  :func:`best_split_abstract` materializes the predicates.

``filter#`` has a closed form (:func:`filter_closed_form`), which the Box
learner runs through :mod:`repro.verify.trace`; the sequential fold of split
pieces (:func:`filter_abstract`) is kept as its scalar oracle.

``cprob_intervals`` and ``pure_exit_vector`` dispatch structurally on the
abstract element: an element exposing the flip protocol
(``class_probability_intervals`` / ``pure_exit_intervals``, i.e.
:class:`repro.poisoning.label_flip.FlipAbstractTrainingSet` for the
label-flip and composite removal+flip threat models) is routed to its own
transformers, so the same Box and disjunctive learners soundly interpret
``⟨T, n⟩`` and ``⟨T, r, f⟩`` alike.  The dispatch is duck-typed on purpose:
importing the flip domain here would cycle through ``repro.poisoning``.
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


def _side_probability_bounds(
    sizes: np.ndarray, class_counts: np.ndarray, budget, method: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``cprob#`` bounds for one side of every candidate split.

    Parameters are arrays over candidates: ``sizes`` has shape ``(c,)`` and
    ``class_counts`` shape ``(c, k)``; ``budget`` is the removal budget, one
    for all candidates or one per candidate.  Returns per-candidate,
    per-class lower and upper probability bounds of shape ``(c, k)``.
    """
    sizes = sizes.astype(np.float64)
    counts = class_counts.astype(np.float64)
    budgets = np.minimum(np.asarray(budget, dtype=np.float64), sizes)
    remaining = sizes - budgets  # m = |T| - n for each candidate side
    positive = remaining > 0
    safe_remaining = np.where(positive, remaining, 1.0)[:, None]
    lower = counts - budgets[:, None]
    np.maximum(lower, 0.0, out=lower)
    if method == "optimal":
        lower /= safe_remaining
        upper = np.minimum(counts, remaining[:, None]) / safe_remaining
    elif method == "box":
        # Numerator [max(0, c - n), c], denominator [m, |T|] — interval division
        # with a positive divisor.
        lower /= np.maximum(sizes, 1.0)[:, None]
        upper = counts / safe_remaining
    else:
        raise ValueError(f"unknown cprob method {method!r}")
    if not positive.all():
        lower[~positive] = 0.0
        upper[~positive] = 1.0
    return lower, upper


def _side_score_bounds(
    sizes: np.ndarray, class_counts: np.ndarray, budget, method: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bounds of ``|side| · ent#(side)`` for every candidate."""
    prob_lower, prob_upper = _side_probability_bounds(
        sizes, class_counts, budget, method
    )
    sizes = sizes.astype(np.float64)
    size_lower = sizes - np.minimum(np.asarray(budget, dtype=np.float64), sizes)
    if method == "optimal":
        # Optimal bounds lie in [0, 1] and rounded products are monotone, so
        # each interval product is lower·lower' and upper·upper': the values
        # mul_bounds would pick, without computing the other products.
        gini_lower = (prob_lower * (1.0 - prob_upper)).sum(axis=1)
        gini_upper = (prob_upper * (1.0 - prob_lower)).sum(axis=1)
        return size_lower * gini_lower, sizes * gini_upper
    term_lower, term_upper = mul_bounds(
        prob_lower, prob_upper, 1.0 - prob_upper, 1.0 - prob_lower
    )
    return mul_bounds(
        size_lower, sizes, term_lower.sum(axis=1), term_upper.sum(axis=1)
    )


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


def _flip_side_score_bounds(
    sizes: np.ndarray, class_counts: np.ndarray, removals: int, flips: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized bounds of ``|side| * gini(side)`` under the combined model.

    This is the per-side primitive: ``flips`` here is the flip budget granted
    to *this* side alone.  :func:`_flip_split_score_bounds` combines the two
    sides over all ways of allocating the shared flip budget between them.
    """
    sizes = sizes.astype(np.float64)
    counts = class_counts.astype(np.float64)
    side_removals = np.minimum(float(removals), sizes)
    side_flips = np.minimum(float(flips), sizes)
    remaining = sizes - side_removals

    lower = np.zeros_like(counts)
    upper = np.ones_like(counts)
    positive = remaining > 0
    safe_remaining = np.where(positive, remaining, 1.0)[:, None]
    budget = (side_removals + side_flips)[:, None]
    lower_pos = np.maximum(0.0, counts - budget) / safe_remaining
    upper_pos = np.minimum(counts + side_flips[:, None], remaining[:, None]) / safe_remaining
    mask = positive[:, None]
    lower = np.where(mask, np.minimum(lower_pos, 1.0), lower)
    upper = np.where(mask, np.minimum(upper_pos, 1.0), upper)

    term_lower, term_upper = mul_bounds(lower, upper, 1.0 - upper, 1.0 - lower)
    gini_lower = term_lower.sum(axis=1)
    gini_upper = term_upper.sum(axis=1)
    return mul_bounds(remaining, sizes, gini_lower, gini_upper)


def _flip_side_score_bounds_batch(
    sizes: np.ndarray,
    class_counts: np.ndarray,
    removals: int,
    flip_allocations: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`_flip_side_score_bounds` over a vector of flip budgets.

    Evaluates the per-side bounds for every candidate *and* every flip
    allocation at once: ``sizes`` has shape ``(c,)``, ``class_counts`` shape
    ``(c, k)``, ``flip_allocations`` shape ``(a,)``; the result arrays have
    shape ``(c, a)``.  The arithmetic is the same as the scalar kernel, just
    broadcast over a ``(c, a, k)`` cube.
    """
    sizes = sizes.astype(np.float64)
    counts = class_counts.astype(np.float64)
    side_removals = np.minimum(float(removals), sizes)  # (c,)
    side_flips = np.minimum(
        flip_allocations.astype(np.float64)[None, :], sizes[:, None]
    )  # (c, a)
    remaining = sizes - side_removals  # (c,)

    positive = remaining > 0
    safe_remaining = np.where(positive, remaining, 1.0)[:, None, None]  # (c, 1, 1)
    budget = (side_removals[:, None] + side_flips)[:, :, None]  # (c, a, 1)
    cube_counts = counts[:, None, :]  # (c, 1, k)
    lower_pos = np.maximum(0.0, cube_counts - budget) / safe_remaining
    upper_pos = (
        np.minimum(cube_counts + side_flips[:, :, None], remaining[:, None, None])
        / safe_remaining
    )
    mask = positive[:, None, None]
    lower = np.where(mask, np.minimum(lower_pos, 1.0), 0.0)
    upper = np.where(mask, np.minimum(upper_pos, 1.0), 1.0)

    term_lower, term_upper = mul_bounds(lower, upper, 1.0 - upper, 1.0 - lower)
    gini_lower = term_lower.sum(axis=2)  # (c, a)
    gini_upper = term_upper.sum(axis=2)
    return mul_bounds(
        remaining[:, None], sizes[:, None], gini_lower, gini_upper
    )


def _flip_split_score_bounds(
    left_sizes: np.ndarray,
    left_class_counts: np.ndarray,
    right_sizes: np.ndarray,
    right_class_counts: np.ndarray,
    removals: int,
    flips: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds of ``score(left) + score(right)`` with the flip budget shared.

    A single flipped label lives on exactly one side of a split, so a sound
    *and tight* bound ranges over the allocations ``f_l + f_r ≤ f`` rather
    than granting the full flip budget to both sides at once (which
    double-counts every flip and was the pre-fix behavior).  The per-side
    bounds widen monotonically in the flip budget, so the extremes over
    ``f_l + f_r ≤ f`` are attained on the boundary ``f_l + f_r = f``: the
    batched kernel evaluates all ``f + 1`` boundary allocations as one
    ``(n_candidates, f + 1, n_classes)`` broadcast (left side gets
    ``f_l = 0..f``, right side the reversed vector) and the envelope is a
    min/max over the allocation axis.  The removal budget is *not* allocated
    — each side keeps the full ``r`` — because removal already
    over-approximates per-side independently in the removal-only transformer.
    :func:`_flip_split_score_bounds_reference` retains the allocation-at-a-
    time evaluation as the property-test oracle.
    """
    allocations = np.arange(flips + 1, dtype=np.int64)
    left_lower, left_upper = _flip_side_score_bounds_batch(
        left_sizes, left_class_counts, removals, allocations
    )
    right_lower, right_upper = _flip_side_score_bounds_batch(
        right_sizes, right_class_counts, removals, allocations[::-1]
    )
    score_lower = (left_lower + right_lower).min(axis=1)
    score_upper = (left_upper + right_upper).max(axis=1)
    return score_lower, score_upper


def _flip_split_score_bounds_reference(
    left_sizes: np.ndarray,
    left_class_counts: np.ndarray,
    right_sizes: np.ndarray,
    right_class_counts: np.ndarray,
    removals: int,
    flips: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Allocation-at-a-time mirror of :func:`_flip_split_score_bounds`.

    Retained as the property-test oracle for the batched kernel: one flip
    allocation per loop iteration through the scalar-budget side kernel.
    """
    score_lower: Optional[np.ndarray] = None
    score_upper: Optional[np.ndarray] = None
    for left_flips in range(flips + 1):
        left_lower, left_upper = _flip_side_score_bounds(
            left_sizes, left_class_counts, removals, left_flips
        )
        right_lower, right_upper = _flip_side_score_bounds(
            right_sizes, right_class_counts, removals, flips - left_flips
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
# bestSplit#: one candidate selection for removal and flip elements
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
    ``min(r, s)`` removals and ``min(f, s)`` flips.  ``flips`` is all zeros
    for removal elements.  ``pool`` holds the predicate objects of an
    explicit predicate pool's rows.
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
    state,
    method: str = "optimal",
    predicate_pool: Optional[Sequence[Predicate]] = None,
) -> SplitCandidates:
    """``bestSplit#`` of §4.6 (with App. B's lifting) as candidate arrays.

    Works on removal ``⟨T, n⟩`` and flip ``⟨T, r, f⟩`` elements alike: they
    share the candidates (every split of the node's table; equality splits
    for categorical features) and the selection, and differ only in the
    score kernel.  Without a pool the result is memoized on the dataset's
    split plan, since it depends only on the node rows, the budgets and
    ``method``.  Predicate pools are supported for removal elements only.
    """
    with profiling.phase("best_split"):
        # A flip element ⟨T, r, f⟩ has ``removals`` and ``flips``; ⟨T, n⟩ has ``n``.
        flips = getattr(state, "flips", None)
        removals = state.n if flips is None else state.removals
        if predicate_pool is not None and flips is not None:
            raise ValidationError(
                "predicate pools are not supported for the label-flip/composite "
                "threat models"
            )
        if state.size == 0:
            return _no_split(state.dataset.n_classes)
        if predicate_pool is not None:
            return _pool_candidates(state, predicate_pool, method)
        plan = split_plan.plan_for(state.dataset)
        key = (state.indices.tobytes(), removals, flips, method)
        result = plan.cached_best_split(key)
        if result is None:
            result = _table_candidates(
                plan.node_candidates(state.indices), removals, flips, method
            )
            plan.store_best_split(key, result)
        return result


def _table_candidates(
    rows: split_plan.StackedCandidates,
    removals: int,
    flips: Optional[int],
    method: str,
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
        flips=np.minimum(flips or 0, sizes),
        includes_null=includes_null,
    )


def _pool_candidates(
    state: AbstractTrainingSet, pool: Sequence[Predicate], method: str
) -> SplitCandidates:
    """The selected predicates of an explicit pool, sides from ``split_down``.

    A pool predicate need not be one of the node's table candidates, so a
    symbolic one may keep a budget above ``min(n, size)``; its sides are the
    ``split_down`` elements themselves.  Predicates with an empty side are
    trivial for every concretization and are not in Φ∃.
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
        None,
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
    flips: Optional[int],
    method: str,
) -> Tuple[np.ndarray, bool]:
    """The Φ∃ rows that may be optimal (§4.6), and whether ``⋄`` joins them.

    Φ∀ holds the rows non-trivial for every concretization: both sides
    larger than their removal budget (flips never move rows across a
    split).  With ``lub`` the least score upper bound over Φ∀, the result is
    every row whose score lower bound is at most ``lub``.  When Φ∀ is empty
    some concretization may have no non-trivial split, so every row is kept
    and ``⋄`` added.  The removal budgets are one per side, for all rows or
    per row; a flip element (``flips`` not ``None``) has the same removal
    budget on every side.
    """
    universal = (left_sizes > left_removals) & (right_sizes > right_removals)
    if not universal.any():
        return np.arange(left_sizes.shape[0]), True
    if flips is None:
        left_lower, left_upper = _side_score_bounds(
            left_sizes, left_class_counts, left_removals, method
        )
        right_lower, right_upper = _side_score_bounds(
            right_sizes, right_class_counts, right_removals, method
        )
        score_lower = left_lower + right_lower
        score_upper = left_upper + right_upper
    else:
        score_lower, score_upper = _flip_split_score_bounds(
            left_sizes,
            left_class_counts,
            right_sizes,
            right_class_counts,
            left_removals,
            flips,
        )
    lub = float(score_upper[universal].min())
    return np.flatnonzero(score_lower <= lub + SCORE_TOLERANCE), False


def best_split_abstract(
    trainset,
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
    ``⟨T_i, r_i⟩`` when ``f_i = 0`` and the flip element's
    ``class_probability_intervals`` otherwise; those scalar transformers are
    its oracles.  With ``m = |T| − r`` remaining rows, class ``i`` keeps
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
