"""The abstract training-set domain ``⟨T, n, f⟩`` (§4.2 of the paper, extended).

An element ``⟨T, n⟩`` concisely represents the perturbed set
``Δn(T) = { T' ⊆ T : |T \\ T'| ≤ n }`` — every training set an attacker who
contributed up to ``n`` poisoned elements could have started from.  The
label-flip extension adds a third component: ``⟨T, n, f⟩`` represents
``Δ_{n,f}(T) = { flip_{≤f}(T') : T' ∈ Δn(T) }``, where up to ``f`` labels of
the surviving rows may also have been corrupted.  ``⟨T, n, 0⟩`` is the
paper's ``⟨T, n⟩``, so removal certification is the ``f = 0`` case of one
domain.  All abstract transformers only ever manipulate ``(T, n, f)``;
nothing ever enumerates the (astronomically many) concrete training sets.

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
from repro.core.predicates import Predicate
from repro.utils.validation import ValidationError, check_index_array


@dataclass(frozen=True)
class AbstractTrainingSet:
    """The abstract element ``⟨T, n, f⟩`` over a fixed base dataset.

    Attributes
    ----------
    dataset:
        The base dataset that row indices refer to.
    indices:
        Sorted, unique row indices forming ``T``.
    n:
        The removal budget (how many elements may be missing).  Always kept
        within ``[0, |T|]``; the constructor clamps it as the transformers do
        (``min(n, |T↓φ|)`` in Equation 1).
    flips:
        The label-flip budget ``f`` (how many surviving labels may be
        corrupted), clamped to ``[0, |T|]`` likewise.  ``0`` is the paper's
        removal-only domain.
    """

    dataset: Dataset
    indices: np.ndarray
    n: int
    flips: int = 0

    def __post_init__(self) -> None:
        indices = check_index_array(self.indices, len(self.dataset), "indices")
        indices.setflags(write=False)
        n = int(self.n)
        flips = int(self.flips)
        if n < 0 or flips < 0:
            raise ValidationError(
                f"poisoning budgets must be non-negative, got n={n}, flips={flips}"
            )
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "n", min(n, int(indices.size)))
        object.__setattr__(self, "flips", min(flips, int(indices.size)))

    # ------------------------------------------------------------- builders
    @classmethod
    def full(cls, dataset: Dataset, n: int, flips: int = 0) -> "AbstractTrainingSet":
        """The initial abstraction ``α(Δ_{n,f}(T)) = ⟨T, n, f⟩`` over the whole dataset."""
        return cls(dataset, np.arange(len(dataset), dtype=np.int64), n, flips)

    @classmethod
    def _trusted(
        cls, dataset: Dataset, indices: np.ndarray, n: int, flips: int = 0
    ) -> "AbstractTrainingSet":
        """Construct without re-validating ``indices``.

        Only for transformer-internal constructions whose index arrays are
        sorted, unique, in-range int64 *by construction* (masked subsets of an
        already-valid element, or ``flatnonzero`` of a base-sized mask).  The
        public constructor's ``check_index_array`` — an ``np.unique`` per
        element — dominated the cold path before this fast path existed.
        Both budgets are clamped to the element size here.
        """
        obj = object.__new__(cls)
        size = int(indices.size)
        object.__setattr__(obj, "dataset", dataset)
        object.__setattr__(obj, "indices", indices)
        object.__setattr__(obj, "n", n if n <= size else size)
        object.__setattr__(obj, "flips", flips if flips <= size else size)
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
    # These work on row subsets, i.e. ``γ(⟨T, n⟩)``.  With ``f > 0`` each
    # subset also stands for its relabelings by up to ``f`` flips, which
    # ``repro.poisoning.label_flip.enumerate_composite_poisonings`` enumerates.
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
        """The join of Definition 4.1, with flip budgets taking the max.

        ``⟨T1, n1⟩ ⊔ ⟨T2, n2⟩ = ⟨T1 ∪ T2, max(|T1 \\ T2| + n2, |T2 \\ T1| + n1)⟩``
        and ``f' = max(f1, f2)``.

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
        return AbstractTrainingSet._trusted(
            self.dataset, union, budget, max(self.flips, other.flips)
        )

    def meet(self, other: "AbstractTrainingSet") -> Optional["AbstractTrainingSet"]:
        """The meet of footnote 4; returns ``None`` for bottom (infeasible)."""
        self._require_same_base(other)
        common = np.intersect1d(self.indices, other.indices, assume_unique=True)
        only_self = self.size - common.size
        only_other = other.size - common.size
        if only_self > self.n or only_other > other.n:
            return None
        budget = min(self.n - only_self, other.n - only_other)
        return AbstractTrainingSet(
            self.dataset, common, budget, min(self.flips, other.flips)
        )

    def is_leq(self, other: "AbstractTrainingSet") -> bool:
        """The ordering of footnote 4: ``⟨T1,n1⟩ ⊑ ⟨T2,n2⟩``, and ``f1 <= f2``."""
        self._require_same_base(other)
        if not np.all(np.isin(self.indices, other.indices)):
            return False
        only_other = other.size - self.size
        return self.n <= other.n - only_other and self.flips <= other.flips

    # -------------------------------------------------- abstract transformers
    def split_down(self, predicate: Predicate, branch: bool) -> "AbstractTrainingSet":
        """``⟨T, n, f⟩↓#φ`` (Equation 1), or its negation when ``branch`` is false.

        Label flips never move rows across a split, so both sides keep ``f``
        (clamped to their size).  Every predicate splits as its candidate
        row (:func:`~repro.core.split_plan.predicate_row`); only a symbolic
        one can have a tight side smaller than its loose side.

        For a symbolic predicate ``x_i <= [a, b)`` (Appendix B) the positive
        branch is the join of filtering with the two concrete extremes
        ``x <= a`` and ``x < b``; the negative branch joins ``x >= b`` and
        ``x > a``.  Because ``a < b``, the tight side is always a *subset* of
        the loose side, so the join degenerates: the row set is the loose
        side and the budget follows from Definition 4.1 with
        ``|tight \\ loose| = 0`` — pure integer arithmetic, no set operations.
        """
        feature, low, high, kind = split_plan.predicate_row(predicate)
        loose_indices, t, l = split_plan.plan_for(self.dataset).symbolic_split(
            self.indices, feature, low, high, kind, branch
        )
        budget = max(min(self.n, l), (l - t) + min(self.n, t))
        return AbstractTrainingSet._trusted(
            self.dataset, loose_indices, budget, self.flips
        )

    def restrict_pure(self, class_index: int) -> Optional["AbstractTrainingSet"]:
        """``pure(⟨T, n⟩, i)`` of §4.7; ``None`` when the restriction is ⊥.

        Only for ``f = 0``: a pure concretization of ``⟨T, n, f⟩`` may have
        flipped rows *into* class ``i``, so it has no element form.
        """
        if self.flips:
            raise ValidationError("pure(⟨T, n, f⟩, i) has no element form for f > 0")
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
        flips = f", f={self.flips}" if self.flips else ""
        return f"<|T|={self.size}, n={self.n}{flips}>"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(size={self.size}, n={self.n}, flips={self.flips})"


def initial_abstraction(dataset: Dataset, n: int) -> AbstractTrainingSet:
    """Build ``α(Δn(T)) = ⟨T, n⟩`` for a whole training set."""
    return AbstractTrainingSet.full(dataset, n)
