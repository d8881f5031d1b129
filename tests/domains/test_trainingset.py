"""Unit tests for the abstract training-set domain ⟨T, n⟩."""

import numpy as np
import pytest

from repro.core.predicates import SymbolicThresholdPredicate, ThresholdPredicate
from repro.datasets.toy import figure2_dataset
from repro.domains.trainingset import AbstractTrainingSet
from repro.utils.validation import ValidationError


@pytest.fixture
def dataset():
    return figure2_dataset()


class TestConstruction:
    def test_full_abstraction(self, dataset):
        trainset = AbstractTrainingSet.full(dataset, 3)
        assert trainset.size == 13
        assert trainset.n == 3
        assert not trainset.is_empty

    def test_budget_clamped_to_size(self, dataset):
        trainset = AbstractTrainingSet.from_indices(dataset, [0, 1], 10)
        assert trainset.n == 2

    def test_negative_budget_rejected(self, dataset):
        with pytest.raises(ValidationError):
            AbstractTrainingSet.full(dataset, -1)

    def test_class_counts(self, dataset):
        trainset = AbstractTrainingSet.full(dataset, 2)
        assert trainset.class_counts().tolist() == [7, 6]

    def test_to_dataset_roundtrip(self, dataset):
        trainset = AbstractTrainingSet.from_indices(dataset, [0, 1, 2], 1)
        assert len(trainset.to_dataset()) == 3


class TestConcretization:
    def test_membership(self, dataset):
        trainset = AbstractTrainingSet.full(dataset, 2)
        all_indices = list(range(13))
        assert trainset.contains_concrete(all_indices)
        assert trainset.contains_concrete(all_indices[:-2])
        assert not trainset.contains_concrete(all_indices[:-3])

    def test_membership_requires_subset(self, dataset):
        trainset = AbstractTrainingSet.from_indices(dataset, [0, 1, 2], 2)
        assert not trainset.contains_concrete([0, 5])

    def test_enumeration_count_matches_formula(self, dataset):
        trainset = AbstractTrainingSet.from_indices(dataset, range(6), 2)
        concretizations = list(trainset.concretizations())
        assert len(concretizations) == trainset.num_concretizations() == 1 + 6 + 15

    def test_log10_count(self, dataset):
        trainset = AbstractTrainingSet.full(dataset, 2)
        assert trainset.log10_num_concretizations() == pytest.approx(np.log10(92), abs=1e-6)

    def test_log10_count_huge_values(self, dataset):
        # MNIST-scale sanity check quoted in §4.1: |Δ50(T)| ≈ 10^141 for |T| = 13007.
        big = AbstractTrainingSet(dataset, np.arange(13), 0)
        assert big.log10_num_concretizations() == 0.0

    def test_sample_concretization(self, dataset):
        trainset = AbstractTrainingSet.full(dataset, 3)
        rng = np.random.default_rng(0)
        sample = trainset.sample_concretization(rng)
        assert trainset.contains_concrete(sample)

    def test_can_be_empty(self, dataset):
        assert AbstractTrainingSet.from_indices(dataset, [0, 1], 2).can_be_empty()
        assert not AbstractTrainingSet.from_indices(dataset, [0, 1], 1).can_be_empty()


class TestLatticeOperations:
    def test_join_same_set_takes_max_budget(self, dataset):
        # Example 4.3, first part.
        a = AbstractTrainingSet.full(dataset, 2)
        b = AbstractTrainingSet.full(dataset, 3)
        joined = a.join(b)
        assert joined.size == 13 and joined.n == 3

    def test_join_with_extra_element_increases_budget(self, dataset):
        # Example 4.3, second part: ⟨T2, 2⟩ ⊔ ⟨T2 ∪ {x3}, 2⟩ = ⟨T2 ∪ {x3}, 3⟩.
        t2 = AbstractTrainingSet.from_indices(dataset, [0, 1], 2)
        t2_extra = AbstractTrainingSet.from_indices(dataset, [0, 1, 2], 2)
        joined = t2.join(t2_extra)
        assert joined.size == 3 and joined.n == 3

    def test_join_requires_same_base(self, dataset):
        other = figure2_dataset()
        a = AbstractTrainingSet.full(dataset, 1)
        b = AbstractTrainingSet.full(other, 1)
        with pytest.raises(ValidationError):
            a.join(b)

    def test_meet_disjoint_overflow_is_bottom(self, dataset):
        a = AbstractTrainingSet.from_indices(dataset, [0, 1, 2, 3], 1)
        b = AbstractTrainingSet.from_indices(dataset, [5, 6, 7, 8], 1)
        assert a.meet(b) is None

    def test_meet_of_overlapping_sets(self, dataset):
        a = AbstractTrainingSet.from_indices(dataset, [0, 1, 2], 1)
        b = AbstractTrainingSet.from_indices(dataset, [1, 2, 3], 1)
        met = a.meet(b)
        assert met is not None
        assert met.indices.tolist() == [1, 2]
        assert met.n == 0

    def test_ordering(self, dataset):
        small = AbstractTrainingSet.from_indices(dataset, [0, 1], 1)
        large = AbstractTrainingSet.from_indices(dataset, [0, 1, 2], 2)
        assert small.is_leq(large)
        assert not large.is_leq(small)

    def test_flip_budgets_in_meet_and_ordering(self, dataset):
        # ⟨T, n, f⟩ ⊑ ⟨T, n, f'⟩ iff f <= f'; the meet keeps the smaller f.
        few = AbstractTrainingSet(dataset, np.arange(3), 1, 1)
        many = AbstractTrainingSet(dataset, np.arange(3), 1, 2)
        assert few.is_leq(many)
        assert not many.is_leq(few)
        met = few.meet(many)
        assert met is not None and met.flips == 1


class TestSplitDown:
    def test_concrete_threshold(self, dataset):
        trainset = AbstractTrainingSet.full(dataset, 2)
        left = trainset.split_down(ThresholdPredicate(0, 10.5), True)
        right = trainset.split_down(ThresholdPredicate(0, 10.5), False)
        assert left.size == 9 and left.n == 2
        assert right.size == 4 and right.n == 2

    def test_budget_clamped_after_split(self, dataset):
        trainset = AbstractTrainingSet.full(dataset, 6)
        right = trainset.split_down(ThresholdPredicate(0, 10.5), False)
        assert right.size == 4 and right.n == 4

    def test_symbolic_split_equals_concrete_when_no_gap_values(self, dataset):
        trainset = AbstractTrainingSet.full(dataset, 2)
        symbolic = SymbolicThresholdPredicate(0, 10.0, 11.0)
        left = trainset.split_down(symbolic, True)
        right = trainset.split_down(symbolic, False)
        assert left.size == 9 and right.size == 4

    def test_symbolic_split_with_gap_values_overapproximates(self, dataset):
        trainset = AbstractTrainingSet.full(dataset, 1)
        # Thresholds in [3, 7) may or may not include the element with value 4.
        symbolic = SymbolicThresholdPredicate(0, 3.0, 7.0)
        left = trainset.split_down(symbolic, True)
        assert left.size == 5  # values {0, 1, 2, 3, 4}
        assert left.n >= 1 + 1  # the uncertain element inflates the budget

    def test_restrict_pure(self, dataset):
        left = AbstractTrainingSet.from_indices(
            dataset, [0, 1, 2, 3, 4, 5, 6, 7, 8], 2
        )
        pure_white = left.restrict_pure(0)
        assert pure_white is not None
        assert pure_white.size == 7 and pure_white.n == 0
        assert left.restrict_pure(1) is None

    def test_restrict_pure_any(self, dataset):
        trainset = AbstractTrainingSet.full(dataset, 1)
        assert trainset.restrict_pure_any() is None
        nearly_pure = AbstractTrainingSet.from_indices(dataset, [1, 2, 3, 0], 1)
        restricted = nearly_pure.restrict_pure_any()
        assert restricted is not None
        assert restricted.size == 3
