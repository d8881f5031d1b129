"""Extension: certifying robustness against label-flipping (and mixed) poisoning.

The paper's related-work section points to a second widely studied poisoning
model in which the attacker does not *add* training elements but corrupts the
**labels** of existing ones (e.g. Xiao et al.'s adversarial label flips).
This module extends the abstract-interpretation machinery to the combined
threat model

``Δ_{r,f}(T) = { flip_{≤f}(T') : T' ⊆ T, |T \\ T'| ≤ r }``

i.e. the attacker may have contributed up to ``r`` whole elements *and*
corrupted up to ``f`` labels of genuine elements.  Setting ``r = 0`` gives the
pure label-flip model; ``f = 0`` recovers the paper's ``Δn``.

The abstraction mirrors §4 of the paper: an element ``⟨T, r, f⟩`` tracks the
surviving rows plus the two budgets, class-count intervals absorb both
budgets, and the trace-based abstract learner joins the class-probability
intervals of every exit state.  :class:`FlipAbstractTrainingSet` implements
the transformer protocol the generic learners dispatch on
(``class_probability_intervals`` / ``pure_exit_intervals`` /
``abstract_best_split`` / ``split_down`` / ``join``), so both the Box-style
:class:`~repro.verify.abstract_learner.BoxAbstractLearner` and the
disjunctive :class:`~repro.verify.disjunctive_learner.DisjunctiveAbstractLearner`
run directly on flip/composite abstractions; :class:`LabelFlipVerifier` is
the thin Box-only convenience wrapper kept for the original extension API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import Dataset, FeatureKind
from repro.core.predicates import (
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.core import split_plan
from repro.core.trace_learner import TraceLearner
from repro.domains.interval import Interval, dominating_component, join_interval_vectors, mul_bounds
from repro.domains.predicate_set import AbstractPredicateSet
from repro.utils.timing import TimeBudget
from repro.utils.validation import ValidationError, check_index_array, check_positive_int


# ---------------------------------------------------------------------------
# The abstract element ⟨T, r, f⟩
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlipAbstractTrainingSet:
    """Abstract element for the combined removal + label-flip threat model."""

    dataset: Dataset
    indices: np.ndarray
    removals: int
    flips: int

    def __post_init__(self) -> None:
        indices = check_index_array(self.indices, len(self.dataset), "indices")
        indices.setflags(write=False)
        removals = check_positive_int(self.removals, "removals", allow_zero=True)
        flips = check_positive_int(self.flips, "flips", allow_zero=True)
        removals = min(removals, int(indices.size))
        flips = min(flips, int(indices.size))
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "removals", removals)
        object.__setattr__(self, "flips", flips)

    @classmethod
    def full(cls, dataset: Dataset, removals: int, flips: int) -> "FlipAbstractTrainingSet":
        return cls(dataset, np.arange(len(dataset), dtype=np.int64), removals, flips)

    @classmethod
    def _trusted(
        cls, dataset: Dataset, indices: np.ndarray, removals: int, flips: int
    ) -> "FlipAbstractTrainingSet":
        """Construct without re-validating ``indices``.

        Same contract as :meth:`AbstractTrainingSet._trusted`: callers must
        pass index arrays that are sorted, unique, and in-range by
        construction; both budgets are clamped to the element size here.
        """
        obj = object.__new__(cls)
        size = int(indices.size)
        object.__setattr__(obj, "dataset", dataset)
        object.__setattr__(obj, "indices", indices)
        object.__setattr__(obj, "removals", removals if removals <= size else size)
        object.__setattr__(obj, "flips", flips if flips <= size else size)
        return obj

    # ----------------------------------------------------------------- basics
    @property
    def size(self) -> int:
        return int(self.indices.size)

    @property
    def labels(self) -> np.ndarray:
        return self.dataset.y[self.indices]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.dataset.n_classes).astype(np.int64)

    # ---------------------------------------------------------------- lattice
    def _require_same_base(self, other: "FlipAbstractTrainingSet") -> None:
        if self.dataset is not other.dataset:
            raise ValidationError("flip abstract sets must share the same base dataset")

    def join(self, other: "FlipAbstractTrainingSet") -> "FlipAbstractTrainingSet":
        """Sound join: rows follow Definition 4.1, flip budgets take the max.

        As for removal elements, ``|T1 ∪ T2| − r' = min(|T1| − r1, |T2| − r2)``,
        so a fold of joins does not depend on its order.
        """
        self._require_same_base(other)
        # Mask-based set arithmetic, mirroring AbstractTrainingSet.join: one
        # O(N) pass instead of union1d/intersect1d sorts.
        mask = np.zeros(len(self.dataset), dtype=bool)
        mask[self.indices] = True
        common = int(np.count_nonzero(mask[other.indices]))
        mask[other.indices] = True
        union = np.flatnonzero(mask)
        only_self = self.size - common
        only_other = other.size - common
        removals = max(only_self + other.removals, only_other + self.removals)
        return FlipAbstractTrainingSet._trusted(
            self.dataset, union, removals, max(self.flips, other.flips)
        )

    # ---------------------------------------------------------- transformers
    def split_down(self, predicate: Predicate, branch: bool) -> "FlipAbstractTrainingSet":
        """Filter by a predicate; label flips never move elements across the split."""
        if isinstance(predicate, SymbolicThresholdPredicate):
            # The tight side (x <= a resp. x >= b) is a subset of the loose
            # side (x < b resp. x > a) because a < b, so the tight⊔loose join
            # keeps the loose rows with r' = max(min(r, l), (l - t) + min(r, t))
            # and f' = min(f, l) — no set operations needed.
            loose_indices, t, l = split_plan.plan_for(self.dataset).symbolic_split(
                self.indices, predicate.feature, predicate.low, predicate.high, branch
            )
            removals = max(min(self.removals, l), (l - t) + min(self.removals, t))
            return FlipAbstractTrainingSet._trusted(
                self.dataset, loose_indices, removals, self.flips
            )
        if isinstance(predicate, ThresholdPredicate):
            kept = split_plan.plan_for(self.dataset).threshold_split(
                self.indices, predicate.feature, predicate.threshold, branch
            )
        else:
            mask = predicate.evaluate_matrix(self.dataset.X[self.indices])
            if not branch:
                mask = ~mask
            kept = self.indices[mask]
        return FlipAbstractTrainingSet._trusted(
            self.dataset, kept, self.removals, self.flips
        )

    def class_probability_intervals(self, method: str = "optimal") -> Tuple[Interval, ...]:
        """``cprob#`` for the combined model.

        ``"optimal"`` is tight per component: for class ``i`` with count
        ``c_i``, the worst case removes ``r`` class-``i`` elements and flips
        ``f`` more away; the best case removes ``r`` elements of other classes
        and flips ``f`` others towards ``i``.  ``"box"`` is the naïve
        interval-numerator / interval-denominator lifting of §4.4, provided so
        the cprob ablation covers the flip families too.
        """
        k = self.dataset.n_classes
        size = self.size
        remaining = size - self.removals
        if remaining <= 0:
            return tuple(Interval.unit() for _ in range(k))
        counts = self.class_counts()
        if method == "box":
            denominator = Interval(float(remaining), float(size))
            return tuple(
                Interval(
                    float(max(0, int(count) - self.removals - self.flips)),
                    float(min(int(count) + self.flips, size)),
                ).divide(denominator)
                for count in counts
            )
        if method != "optimal":
            raise ValueError(f"unknown cprob method {method!r}")
        intervals = []
        for count in counts:
            count = int(count)
            lower = max(0, count - self.removals - self.flips) / remaining
            upper = min(count + self.flips, remaining) / remaining
            intervals.append(Interval(min(lower, 1.0), min(upper, 1.0)))
        return tuple(intervals)

    def gini_interval(self) -> Interval:
        total = Interval.zero()
        one = Interval.point(1.0)
        for component in self.class_probability_intervals():
            total = total + component * (one - component)
        return total

    def entropy_definitely_zero(self) -> bool:
        return self.gini_interval().upper_at_most(0.0)

    def pure_is_feasible(self) -> bool:
        """Whether some concretization is single-class (for the ``ent = 0`` exit)."""
        counts = self.class_counts()
        total = counts.sum()
        for count in counts:
            others = int(total - count)
            if others <= self.removals + self.flips:
                return True
        return False

    def pure_exit_intervals(self) -> Optional[Tuple[Interval, ...]]:
        """Joined class-probability vectors of every feasible pure exit."""
        counts = self.class_counts()
        total = int(counts.sum())
        vectors: List[Tuple[Interval, ...]] = []
        for class_index, count in enumerate(counts):
            others = total - int(count)
            if others > self.removals + self.flips:
                continue
            vector = tuple(
                Interval.point(1.0) if i == class_index else Interval.point(0.0)
                for i in range(self.dataset.n_classes)
            )
            vectors.append(vector)
        if not vectors:
            return None
        joined = vectors[0]
        for vector in vectors[1:]:
            joined = join_interval_vectors(joined, vector)
        return joined

    def abstract_best_split(
        self,
        *,
        method: str = "optimal",
        predicate_pool: Optional[Sequence[Predicate]] = None,
    ) -> AbstractPredicateSet:
        """``bestSplit#`` as the generic learners consume it.

        This is the dispatch target of
        :func:`repro.verify.transformers.best_split_abstract`, letting the Box
        and disjunctive learners interpret flip/composite abstractions with no
        flip-specific code.  The candidate score bounds of
        :func:`flip_best_split_abstract` are sound for either ``cprob``
        method, so ``method`` only affects exit-interval tightness elsewhere.
        """
        del method
        if predicate_pool is not None:
            raise ValidationError(
                "predicate pools are not supported for the label-flip/composite "
                "threat models"
            )
        predicates, includes_null = flip_best_split_abstract(self)
        return AbstractPredicateSet.of(predicates, includes_null=includes_null)


# ---------------------------------------------------------------------------
# Abstract bestSplit and filter for the combined model
# ---------------------------------------------------------------------------


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


def flip_best_split_abstract(
    trainset: FlipAbstractTrainingSet,
) -> Tuple[List[Predicate], bool]:
    """``bestSplit#`` under the combined model.

    Returns ``(predicates, includes_null)`` following the same Φ∃ / Φ∀ logic
    as the removal-only transformer; flips never change which rows fall on
    which side of a split, so the non-triviality conditions only involve the
    removal budget.
    """
    if trainset.size == 0:
        return [], True
    plan = split_plan.plan_for(trainset.dataset)
    removals = trainset.removals
    flips = trainset.flips
    cache_key = (trainset.indices.tobytes(), removals, flips)
    cached = plan.cached_best_split(cache_key)
    if cached is not None:
        return cached
    tables = plan.node_tables(trainset.indices)

    def materialize(feature: int, kind: FeatureKind, table, positions) -> List[Predicate]:
        if kind is FeatureKind.REAL:
            return [
                split_plan.symbolic_predicate(
                    feature,
                    float(table.lower_values[int(i)]),
                    float(table.upper_values[int(i)]),
                )
                for i in positions
            ]
        return [
            split_plan.threshold_predicate(feature, float(table.thresholds[int(i)]))
            for i in positions
        ]

    stacked = tables.stacked
    groups = []
    if stacked is not None:
        # One (n_candidates, flips + 1, n_classes) batch over every threshold
        # candidate of every feature; per-feature groups slice the result.
        all_lower, all_upper = _flip_split_score_bounds(
            stacked.left_sizes,
            stacked.left_class_counts,
            stacked.right_sizes,
            stacked.right_class_counts,
            removals,
            flips,
        )
        all_universal = (stacked.left_sizes > removals) & (
            stacked.right_sizes > removals
        )
        for feature, kind in enumerate(trainset.dataset.feature_kinds):
            part = stacked.feature_slice(feature)
            if part.stop == part.start:
                continue
            groups.append(
                (
                    feature,
                    kind,
                    tables[feature],
                    all_lower[part],
                    all_upper[part],
                    all_universal[part],
                )
            )

    if not groups:
        result: Tuple[List[Predicate], bool] = ([], True)
    elif not any(bool(universal.any()) for *_, universal in groups):
        # Φ∀ = ∅: every existentially non-trivial candidate, plus ⋄.
        result = (
            [
                predicate
                for feature, kind, table, *_ in groups
                for predicate in materialize(
                    feature, kind, table, range(table.n_candidates)
                )
            ],
            True,
        )
    else:
        lub = min(
            float(score_upper[universal].min())
            for *_, score_upper, universal in groups
            if universal.any()
        )
        selected: List[Predicate] = []
        for feature, kind, table, score_lower, _, _ in groups:
            positions = np.nonzero(score_lower <= lub + 1e-9)[0]
            selected.extend(materialize(feature, kind, table, positions))
        result = (selected, False)
    plan.store_best_split(cache_key, result)
    return result


# ---------------------------------------------------------------------------
# The abstract learner and verification driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlipVerificationResult:
    """Outcome of certifying a point against the combined threat model."""

    robust: bool
    predicted_class: int
    certified_class: Optional[int]
    class_intervals: Tuple[Interval, ...]
    removals: int
    flips: int


@dataclass
class LabelFlipVerifier:
    """Box-style abstract verifier for the removal + label-flip threat model.

    ``verify(dataset, x, flips, removals=0)`` proves that the classification
    of ``x`` is unchanged for every dataset obtained by removing up to
    ``removals`` elements and flipping up to ``flips`` labels of ``dataset``.

    Since :class:`FlipAbstractTrainingSet` became a first-class citizen of the
    transformer protocol, this class is a thin wrapper over the generic
    :class:`~repro.verify.abstract_learner.BoxAbstractLearner` (the engine
    additionally runs the disjunctive learner on the same abstractions for
    ``domain="disjuncts"/"either"``).
    """

    max_depth: int = 2

    def run_abstract(
        self,
        trainset: FlipAbstractTrainingSet,
        x: Sequence[float],
        *,
        time_budget: Optional[TimeBudget] = None,
    ):
        """Run the generic Box learner on a flip abstraction."""
        # Deferred import: repro.verify's package init pulls in the legacy
        # verifier shim, which imports back into repro.poisoning.
        from repro.verify.abstract_learner import BoxAbstractLearner

        learner = BoxAbstractLearner(max_depth=self.max_depth)
        return learner.run(trainset, x, time_budget=time_budget)

    def run(
        self,
        trainset: FlipAbstractTrainingSet,
        x: Sequence[float],
        *,
        time_budget: Optional[TimeBudget] = None,
    ) -> Tuple[Tuple[Interval, ...], int]:
        result = self.run_abstract(trainset, x, time_budget=time_budget)
        return result.class_intervals, result.iterations

    def verify(
        self, dataset: Dataset, x: Sequence[float], flips: int, removals: int = 0
    ) -> FlipVerificationResult:
        trainset = FlipAbstractTrainingSet.full(dataset, removals, flips)
        predicted = TraceLearner(max_depth=self.max_depth).predict(dataset, x)
        intervals, _ = self.run(trainset, x)
        certified = dominating_component(intervals)
        return FlipVerificationResult(
            robust=certified is not None,
            predicted_class=int(predicted),
            certified_class=certified,
            class_intervals=intervals,
            removals=removals,
            flips=flips,
        )


# ---------------------------------------------------------------------------
# Exact enumeration oracle for the flip model (small instances only)
# ---------------------------------------------------------------------------


def enumerate_label_flips(dataset: Dataset, flips: int) -> Iterator[Dataset]:
    """Yield every dataset obtained from ``dataset`` by flipping up to ``flips`` labels."""
    n_classes = dataset.n_classes
    size = len(dataset)
    for flipped in range(0, min(flips, size) + 1):
        for positions in itertools.combinations(range(size), flipped):
            if not positions:
                yield dataset
                continue
            alternatives = [
                [c for c in range(n_classes) if c != int(dataset.y[p])] for p in positions
            ]
            for choice in itertools.product(*alternatives):
                labels = dataset.y.copy()
                for position, new_label in zip(positions, choice):
                    labels[position] = new_label
                yield dataset.replace(y=labels)


def verify_flips_by_enumeration(
    dataset: Dataset, x: Sequence[float], flips: int, *, max_depth: int = 2
) -> bool:
    """Exactly decide label-flip robustness by exhaustive retraining."""
    learner = TraceLearner(max_depth=max_depth)
    baseline = learner.predict(dataset, x)
    for poisoned in enumerate_label_flips(dataset, flips):
        if learner.predict(poisoned, x) != baseline:
            return False
    return True


def enumerate_composite_poisonings(
    dataset: Dataset, removals: int, flips: int
) -> Iterator[Dataset]:
    """Yield every element of ``Δ_{r,f}(T)``: remove ≤ r rows, then flip ≤ f labels."""
    size = len(dataset)
    base = np.arange(size, dtype=np.int64)
    for removed in range(0, min(removals, size) + 1):
        for drop in itertools.combinations(range(size), removed):
            survivors = dataset.subset(np.delete(base, list(drop)))
            yield from enumerate_label_flips(survivors, flips)


def verify_composite_by_enumeration(
    dataset: Dataset,
    x: Sequence[float],
    removals: int,
    flips: int,
    *,
    max_depth: int = 2,
) -> bool:
    """Exactly decide combined removal+flip robustness by exhaustive retraining."""
    learner = TraceLearner(max_depth=max_depth)
    baseline = learner.predict(dataset, x)
    for poisoned in enumerate_composite_poisonings(dataset, removals, flips):
        if learner.predict(poisoned, x) != baseline:
            return False
    return True
