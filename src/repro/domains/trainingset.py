"""The abstract training-set domain ``⟨T, n⟩`` (§4.2 of the paper).

An element ``⟨T, n⟩`` concisely represents the perturbed set
``Δn(T) = { T' ⊆ T : |T \\ T'| ≤ n }`` — every training set an attacker who
contributed up to ``n`` poisoned elements could have started from.  All
abstract transformers only ever manipulate the pair ``(T, n)``; nothing ever
enumerates the (astronomically many) concrete training sets.

Implementation notes
---------------------
``T`` is represented as a sorted array of row indices into a fixed *base*
:class:`~repro.core.dataset.Dataset`.  Every element produced during one
verification run shares the same base dataset, which makes the set-difference
cardinalities needed by the join (Definition 4.1) cheap array operations and
keeps memory proportional to the number of indices rather than copies of the
feature matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core import split_plan
from repro.core.dataset import Dataset
from repro.core.predicates import (
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.utils.validation import ValidationError, check_index_array


@dataclass(frozen=True)
class AbstractTrainingSet:
    """The abstract element ``⟨T, n⟩`` over a fixed base dataset.

    Attributes
    ----------
    dataset:
        The base dataset that row indices refer to.
    indices:
        Sorted, unique row indices forming ``T``.
    n:
        The poisoning budget (how many elements may be missing).  Always kept
        within ``[0, |T|]``; the constructor clamps it as the transformers do
        (``min(n, |T↓φ|)`` in Equation 1).
    """

    dataset: Dataset
    indices: np.ndarray
    n: int

    def __post_init__(self) -> None:
        indices = check_index_array(self.indices, len(self.dataset), "indices")
        indices.setflags(write=False)
        n = int(self.n)
        if n < 0:
            raise ValidationError(f"poisoning budget must be non-negative, got {n}")
        n = min(n, int(indices.size))
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "n", n)

    # ------------------------------------------------------------- builders
    @classmethod
    def full(cls, dataset: Dataset, n: int) -> "AbstractTrainingSet":
        """The initial abstraction ``α(Δn(T)) = ⟨T, n⟩`` over the whole dataset."""
        return cls(dataset, np.arange(len(dataset), dtype=np.int64), n)

    @classmethod
    def _trusted(
        cls, dataset: Dataset, indices: np.ndarray, n: int
    ) -> "AbstractTrainingSet":
        """Construct without re-validating ``indices``.

        Only for transformer-internal constructions whose index arrays are
        sorted, unique, in-range int64 *by construction* (masked subsets of an
        already-valid element, or ``flatnonzero`` of a base-sized mask).  The
        public constructor's ``check_index_array`` — an ``np.unique`` per
        element — dominated the cold path before this fast path existed.
        """
        obj = object.__new__(cls)
        size = int(indices.size)
        object.__setattr__(obj, "dataset", dataset)
        object.__setattr__(obj, "indices", indices)
        object.__setattr__(obj, "n", n if n <= size else size)
        return obj

    @classmethod
    def from_indices(
        cls, dataset: Dataset, indices: Iterable[int], n: int
    ) -> "AbstractTrainingSet":
        return cls(dataset, np.asarray(list(indices), dtype=np.int64), n)

    # ----------------------------------------------------------------- size
    @property
    def size(self) -> int:
        return int(self.indices.size)

    def __len__(self) -> int:
        return self.size

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    @property
    def labels(self) -> np.ndarray:
        return self.dataset.y[self.indices]

    @property
    def features(self) -> np.ndarray:
        return self.dataset.X[self.indices]

    def class_counts(self) -> np.ndarray:
        """Per-class counts of ``T`` itself (the unpoisoned upper counts)."""
        return np.bincount(self.labels, minlength=self.dataset.n_classes).astype(
            np.int64
        )

    def to_dataset(self) -> Dataset:
        """Materialize ``T`` as a standalone :class:`Dataset`."""
        return self.dataset.subset(self.indices)

    def estimated_bytes(self) -> int:
        """Rough memory footprint, used by the disjunctive learner's budget."""
        return int(self.indices.nbytes) + 64

    # -------------------------------------------------------- concretization
    def contains_concrete(self, subset_indices: Iterable[int]) -> bool:
        """Membership test ``T' ∈ γ(⟨T, n⟩)`` for an explicit index subset."""
        subset = check_index_array(subset_indices, len(self.dataset), "subset_indices")
        if not np.all(np.isin(subset, self.indices)):
            return False
        removed = self.size - subset.size
        return removed <= self.n

    def concretizations(self) -> Iterator[np.ndarray]:
        """Enumerate every concrete training set in ``γ(⟨T, n⟩)``.

        Only feasible for tiny instances; used by tests and the naïve
        enumeration baseline.
        """
        base = self.indices
        for removed in range(0, self.n + 1):
            for drop in itertools.combinations(range(base.size), removed):
                keep = np.delete(base, list(drop))
                yield keep

    def num_concretizations(self) -> int:
        """Exact ``|Δn(T)| = Σ_{i<=n} C(|T|, i)`` as a Python integer."""
        return sum(math.comb(self.size, i) for i in range(0, self.n + 1))

    def log10_num_concretizations(self) -> float:
        """``log10 |Δn(T)|`` computed without overflowing to infinity."""
        if self.n <= 0:
            return 0.0
        total = self.num_concretizations()
        digits = str(total)
        if len(digits) <= 15:
            return math.log10(total)
        return math.log10(int(digits[:15])) + (len(digits) - 15)

    def sample_concretization(
        self, rng: np.random.Generator, removals: Optional[int] = None
    ) -> np.ndarray:
        """Sample a random concrete training set (row indices) from ``γ``."""
        if removals is None:
            removals = int(rng.integers(0, self.n + 1))
        removals = min(removals, self.n, self.size)
        if removals == 0:
            return self.indices.copy()
        drop = rng.choice(self.size, size=removals, replace=False)
        return np.delete(self.indices, drop)

    # ----------------------------------------------------- lattice structure
    def _require_same_base(self, other: "AbstractTrainingSet") -> None:
        if self.dataset is not other.dataset:
            raise ValidationError(
                "abstract training sets must share the same base dataset"
            )

    def join(self, other: "AbstractTrainingSet") -> "AbstractTrainingSet":
        """The join of Definition 4.1.

        ``⟨T1, n1⟩ ⊔ ⟨T2, n2⟩ = ⟨T1 ∪ T2, max(|T1 \\ T2| + n2, |T2 \\ T1| + n1)⟩``

        Equivalently ``|T1 ∪ T2| − n' = min(|T1| − n1, |T2| − n2)``: a fold
        of joins does not depend on its order, which is what lets
        :func:`repro.verify.transformers.filter_closed_form` skip the fold.
        """
        self._require_same_base(other)
        # One boolean mask over the base dataset replaces union1d/intersect1d:
        # membership counting and the (sorted, unique) union are then O(N)
        # with no sorting, which matters because every filter# step joins.
        mask = np.zeros(len(self.dataset), dtype=bool)
        mask[self.indices] = True
        common = int(np.count_nonzero(mask[other.indices]))
        mask[other.indices] = True
        union = np.flatnonzero(mask)
        only_self = self.size - common
        only_other = other.size - common
        budget = max(only_self + other.n, only_other + self.n)
        return AbstractTrainingSet._trusted(self.dataset, union, budget)

    def meet(self, other: "AbstractTrainingSet") -> Optional["AbstractTrainingSet"]:
        """The meet of footnote 4; returns ``None`` for bottom (infeasible)."""
        self._require_same_base(other)
        common = np.intersect1d(self.indices, other.indices, assume_unique=True)
        only_self = self.size - common.size
        only_other = other.size - common.size
        if only_self > self.n or only_other > other.n:
            return None
        budget = min(self.n - only_self, other.n - only_other)
        return AbstractTrainingSet(self.dataset, common, budget)

    def is_leq(self, other: "AbstractTrainingSet") -> bool:
        """The ordering of footnote 4: ``⟨T1,n1⟩ ⊑ ⟨T2,n2⟩``."""
        self._require_same_base(other)
        if not np.all(np.isin(self.indices, other.indices)):
            return False
        only_other = other.size - self.size
        return self.n <= other.n - only_other

    # -------------------------------------------------- abstract transformers
    def split_down(self, predicate: Predicate, branch: bool) -> "AbstractTrainingSet":
        """``⟨T, n⟩↓#φ`` (Equation 1), or its negation when ``branch`` is false.

        Symbolic predicates are dispatched to :meth:`split_down_symbolic`.
        """
        if isinstance(predicate, SymbolicThresholdPredicate):
            return self.split_down_symbolic(predicate, branch)
        if isinstance(predicate, ThresholdPredicate):
            kept = split_plan.plan_for(self.dataset).threshold_split(
                self.indices, predicate.feature, predicate.threshold, branch
            )
        else:
            mask = predicate.evaluate_matrix(self.features)
            if not branch:
                mask = ~mask
            kept = self.indices[mask]
        return AbstractTrainingSet._trusted(self.dataset, kept, self.n)

    def split_down_symbolic(
        self, predicate: SymbolicThresholdPredicate, branch: bool
    ) -> "AbstractTrainingSet":
        """``⟨T, n⟩↓#ρ`` for a symbolic predicate ``x_i <= [a, b)`` (Appendix B).

        The positive branch is the join of filtering with the two concrete
        extremes ``x <= a`` and ``x < b``; the negative branch joins
        ``x >= b`` and ``x > a``.  Because ``a < b``, the tight side is always
        a *subset* of the loose side, so the join degenerates: the row set is
        the loose side and the budget follows from Definition 4.1 with
        ``|tight \\ loose| = 0`` — pure integer arithmetic, no set operations.
        """
        loose_indices, t, l = split_plan.plan_for(self.dataset).symbolic_split(
            self.indices, predicate.feature, predicate.low, predicate.high, branch
        )
        budget = max(min(self.n, l), (l - t) + min(self.n, t))
        return AbstractTrainingSet._trusted(self.dataset, loose_indices, budget)

    def restrict_pure(self, class_index: int) -> Optional["AbstractTrainingSet"]:
        """``pure(⟨T, n⟩, i)`` of §4.7; ``None`` when the restriction is ⊥."""
        mask = self.labels == class_index
        removed = self.size - int(mask.sum())
        if removed > self.n:
            return None
        return AbstractTrainingSet._trusted(
            self.dataset, self.indices[mask], self.n - removed
        )

    def restrict_pure_any(self) -> Optional["AbstractTrainingSet"]:
        """Join of ``pure(⟨T, n⟩, i)`` over all classes; ``None`` when all ⊥."""
        result: Optional[AbstractTrainingSet] = None
        for class_index in range(self.dataset.n_classes):
            restricted = self.restrict_pure(class_index)
            if restricted is None:
                continue
            result = restricted if result is None else result.join(restricted)
        return result

    def can_be_empty(self) -> bool:
        """Whether ``∅ ∈ γ(⟨T, n⟩)`` (equivalently ``n = |T|``, footnote 7)."""
        return self.n >= self.size

    # -------------------------------------------------------------- printing
    def describe(self) -> str:
        return f"<|T|={self.size}, n={self.n}>"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"AbstractTrainingSet(size={self.size}, n={self.n})"


def initial_abstraction(dataset: Dataset, n: int) -> AbstractTrainingSet:
    """Build ``α(Δn(T)) = ⟨T, n⟩`` for a whole training set."""
    return AbstractTrainingSet.full(dataset, n)
