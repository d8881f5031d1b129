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
(``class_probability_intervals`` / ``pure_exit_intervals`` / ``split_down``
/ ``join``; ``bestSplit#`` reads its ``removals`` and ``flips`` budgets and
shares the removal domain's candidate selection), so both the Box-style
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

from repro.core.dataset import Dataset
from repro.core.predicates import (
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.core import split_plan
from repro.core.trace_learner import TraceLearner
from repro.domains.interval import Interval, dominating_component, join_interval_vectors
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
