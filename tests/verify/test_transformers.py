"""Unit and soundness tests for the abstract transformers of §4.4–4.6."""

import dataclasses

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.predicates import (
    SymbolicThresholdPredicate,
    ThresholdPredicate,
    point_satisfies,
)
from repro.core.splitter import best_split
from repro.core.impurity import gini_impurity
from repro.datasets.toy import figure2_dataset, tiny_boolean_dataset
from repro.domains.predicate_set import AbstractPredicateSet
from repro.domains.trainingset import AbstractTrainingSet
from repro.verify.transformers import (
    best_split_abstract,
    cprob_box,
    cprob_intervals,
    cprob_optimal,
    entropy_is_definitely_zero,
    filter_abstract,
    gini_interval,
    pure_restriction,
    score_interval,
    size_interval,
)
from tests.conftest import row_predicates


@pytest.fixture
def figure2():
    return figure2_dataset()


def left_branch(dataset: Dataset, n: int) -> AbstractTrainingSet:
    indices = [i for i, value in enumerate(dataset.X[:, 0]) if value <= 10]
    return AbstractTrainingSet.from_indices(dataset, indices, n)


class TestSizeInterval:
    def test_bounds(self, figure2):
        trainset = AbstractTrainingSet.full(figure2, 3)
        assert size_interval(trainset) .lo == 10.0
        assert size_interval(trainset).hi == 13.0


class TestCprobTransformers:
    def test_box_matches_example_4_6(self, figure2):
        intervals = cprob_box(left_branch(figure2, 2))
        assert intervals[0].lo == pytest.approx(5 / 9)
        assert intervals[0].hi == pytest.approx(1.0)
        assert intervals[1].lo == pytest.approx(0.0)
        assert intervals[1].hi == pytest.approx(2 / 7)

    def test_optimal_matches_footnote_6(self, figure2):
        intervals = cprob_optimal(left_branch(figure2, 2))
        assert intervals[0].lo == pytest.approx(5 / 7)
        assert intervals[0].hi == pytest.approx(1.0)

    def test_optimal_is_subset_of_box(self, figure2):
        for n in (0, 1, 2, 5, 9):
            trainset = left_branch(figure2, n)
            for tight, loose in zip(cprob_optimal(trainset), cprob_box(trainset)):
                assert tight.lo >= loose.lo - 1e-12
                assert tight.hi <= loose.hi + 1e-12

    def test_full_budget_corner_case(self, figure2):
        trainset = AbstractTrainingSet.from_indices(figure2, [0, 1], 2)
        for method in ("box", "optimal"):
            intervals = cprob_intervals(trainset, method)
            assert all(i.lo == 0.0 and i.hi == 1.0 for i in intervals)

    def test_zero_budget_is_exact(self, figure2):
        trainset = AbstractTrainingSet.full(figure2, 0)
        expected = figure2.class_probabilities()
        for method in ("box", "optimal"):
            intervals = cprob_intervals(trainset, method)
            for interval, value in zip(intervals, expected):
                assert interval.lo == pytest.approx(value)
                assert interval.hi == pytest.approx(value)

    def test_unknown_method_rejected(self, figure2):
        with pytest.raises(ValueError):
            cprob_intervals(AbstractTrainingSet.full(figure2, 1), "nope")

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_soundness_against_enumeration(self, figure2, n):
        """Proposition 4.5: every concretization's cprob is inside the intervals."""
        trainset = AbstractTrainingSet.from_indices(figure2, range(8), n)
        box = cprob_box(trainset)
        optimal = cprob_optimal(trainset)
        for concrete in trainset.concretizations():
            labels = figure2.y[concrete]
            if labels.size == 0:
                continue
            counts = np.bincount(labels, minlength=2)
            probabilities = counts / counts.sum()
            for k in range(2):
                assert box[k].lo - 1e-9 <= probabilities[k] <= box[k].hi + 1e-9
                assert optimal[k].lo - 1e-9 <= probabilities[k] <= optimal[k].hi + 1e-9


class TestGiniAndScoreIntervals:
    def test_gini_zero_budget_is_exact(self, figure2):
        trainset = AbstractTrainingSet.full(figure2, 0)
        interval = gini_interval(trainset)
        assert interval.lo == pytest.approx(gini_impurity(figure2.class_counts()))
        assert interval.hi == pytest.approx(gini_impurity(figure2.class_counts()))

    def test_gini_contains_all_concrete_values(self, figure2):
        trainset = AbstractTrainingSet.from_indices(figure2, range(9), 2)
        interval = gini_interval(trainset)
        for concrete in trainset.concretizations():
            labels = figure2.y[concrete]
            if labels.size == 0:
                continue
            value = gini_impurity(np.bincount(labels, minlength=2))
            assert interval.lo - 1e-9 <= value <= interval.hi + 1e-9

    def test_score_interval_contains_concrete_scores(self, figure2):
        trainset = AbstractTrainingSet.from_indices(figure2, range(10), 2)
        predicate = ThresholdPredicate(0, 4.5)
        interval = score_interval(trainset, predicate)
        for concrete in trainset.concretizations():
            subset = figure2.subset(concrete)
            if len(subset) == 0:
                continue
            mask = predicate.evaluate_matrix(subset.X)
            left = np.bincount(subset.y[mask], minlength=2)
            right = np.bincount(subset.y[~mask], minlength=2)
            score = left.sum() * gini_impurity(left) + right.sum() * gini_impurity(right)
            assert interval.lo - 1e-9 <= score <= interval.hi + 1e-9

    def test_entropy_definitely_zero(self, figure2):
        pure = AbstractTrainingSet.from_indices(figure2, [11, 12, 13 - 1], 1)
        assert entropy_is_definitely_zero(pure)
        mixed = AbstractTrainingSet.full(figure2, 1)
        assert not entropy_is_definitely_zero(mixed)


class TestPureRestriction:
    def test_infeasible_returns_none(self, figure2):
        assert pure_restriction(AbstractTrainingSet.full(figure2, 2)) is None

    def test_feasible_single_class(self, figure2):
        trainset = left_branch(figure2, 2)
        restricted = pure_restriction(trainset)
        assert restricted is not None
        assert restricted.size == 7  # only the white elements remain


class TestFilterAbstract:
    def test_example_4_8(self, figure2):
        # filter#(⟨T, 2⟩, {x <= 10}, x=4) = ⟨T↓x<=10, 2⟩.
        trainset = AbstractTrainingSet.full(figure2, 2)
        predicates = AbstractPredicateSet.of([ThresholdPredicate(0, 10.5)])
        filtered = filter_abstract(trainset, predicates, [4.0])
        assert filtered.size == 9
        assert filtered.n == 2

    def test_example_5_3_join_loss(self, figure2):
        # Example 5.3: joining the two sides of {x <= 3, x <= 4} for x = 4
        # recovers (almost) the original set with a much larger budget.
        indices = [i for i, value in enumerate(figure2.X[:, 0]) if value <= 10]
        trainset = AbstractTrainingSet.from_indices(figure2, indices, 1)
        predicates = AbstractPredicateSet.of(
            [ThresholdPredicate(0, 3.5), ThresholdPredicate(0, 4.5)]
        )
        filtered = filter_abstract(trainset, predicates, [4.0])
        assert filtered.size == 9
        assert filtered.n >= 5

    def test_bottom_when_no_predicates(self, figure2):
        trainset = AbstractTrainingSet.full(figure2, 1)
        assert filter_abstract(trainset, AbstractPredicateSet.of(()), [4.0]) is None

    def test_symbolic_maybe_joins_both_sides(self, figure2):
        trainset = AbstractTrainingSet.full(figure2, 1)
        predicates = AbstractPredicateSet.of([SymbolicThresholdPredicate(0, 4.0, 7.0)])
        filtered = filter_abstract(trainset, predicates, [5.0])
        # Both polarities are possible, so the result covers the whole set.
        assert filtered.size == 13

    def test_soundness_against_concrete_filter(self, figure2):
        trainset = AbstractTrainingSet.from_indices(figure2, range(9), 2)
        predicates = AbstractPredicateSet.of(
            [ThresholdPredicate(0, 2.5), ThresholdPredicate(0, 4.5)]
        )
        x = [1.0]
        filtered = filter_abstract(trainset, predicates, x)
        for concrete in trainset.concretizations():
            for predicate in predicates.predicates:
                values = figure2.X[concrete, 0]
                branch = predicate.evaluate(x)
                mask = values <= predicate.threshold if branch else values > predicate.threshold
                result = np.asarray(concrete)[mask]
                assert filtered.contains_concrete(result)


class TestBestSplitAbstract:
    def test_zero_budget_matches_concrete(self, figure2):
        trainset = AbstractTrainingSet.full(figure2, 0)
        abstract = best_split_abstract(trainset)
        concrete = best_split(figure2)
        assert not abstract.includes_null
        covering = [
            p
            for p in row_predicates(abstract)
            if isinstance(p, SymbolicThresholdPredicate)
            and p.contains_threshold(concrete.predicate.threshold)
        ]
        assert covering, "the concrete best split must be covered"

    def test_boolean_features_return_concrete_predicates(self):
        dataset = tiny_boolean_dataset()
        trainset = AbstractTrainingSet.full(dataset, 1)
        abstract = row_predicates(best_split_abstract(trainset))
        assert all(isinstance(p, ThresholdPredicate) for p in abstract)
        assert ThresholdPredicate(0, 0.5) in abstract

    def test_small_budget_keeps_good_predicate_and_drops_terrible_one(self, figure2):
        trainset = AbstractTrainingSet.full(figure2, 1)
        abstract = best_split_abstract(trainset)
        features = [
            (p.low, p.high)
            for p in row_predicates(abstract)
            if isinstance(p, SymbolicThresholdPredicate)
        ]
        assert (10.0, 11.0) in features  # the paper's best split survives
        assert (0.0, 1.0) not in features  # a uniformly bad split is pruned

    def test_constant_dataset_returns_null(self, figure2):
        trainset = AbstractTrainingSet.from_indices(figure2, [0], 0)
        abstract = best_split_abstract(trainset)
        assert abstract.includes_null
        assert not abstract.feature.size

    def test_large_budget_includes_null(self):
        # When the budget can empty one side of every split, Φ∀ = ∅ and the
        # null predicate must be included.
        X = np.array([[0.0], [1.0]])
        dataset = Dataset(X=X, y=np.array([0, 1]), n_classes=2)
        trainset = AbstractTrainingSet.full(dataset, 1)
        abstract = best_split_abstract(trainset)
        assert abstract.includes_null
        assert abstract.feature.size

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_soundness_lemma_4_10(self, figure2, n):
        """Every concretization's concrete best split is covered abstractly."""
        trainset = AbstractTrainingSet.from_indices(figure2, range(9), n)
        abstract = best_split_abstract(trainset)
        for concrete in trainset.concretizations():
            subset = figure2.subset(concrete)
            if len(subset) == 0:
                continue
            concrete_choice = best_split(subset)
            if concrete_choice is None:
                assert abstract.includes_null
                continue
            threshold = concrete_choice.predicate.threshold
            covered = any(
                (
                    isinstance(p, SymbolicThresholdPredicate)
                    and p.contains_threshold(threshold)
                )
                or (isinstance(p, ThresholdPredicate) and p.threshold == threshold)
                for p in row_predicates(abstract)
            )
            assert covered, f"best split {threshold} not covered at n={n}"


class TestSplitCandidates:
    @pytest.mark.parametrize("value", [0.0, 4.0, 10.5, 14.0])
    def test_branches_match_point_satisfies(self, figure2, value):
        candidates = best_split_abstract(AbstractTrainingSet.full(figure2, 2))
        branches = candidates.branches([value])
        for row, predicate in enumerate(row_predicates(candidates)):
            verdict = point_satisfies(predicate, [value])
            assert branches[row, 0] == verdict.possibly_true
            assert branches[row, 1] == verdict.possibly_false

    def test_empty_node_is_null_only(self, figure2):
        candidates = best_split_abstract(AbstractTrainingSet.from_indices(figure2, [], 0))
        assert candidates.includes_null
        assert candidates.feature.size == 0
        assert candidates.class_counts.shape == (0, 2, figure2.n_classes)

    def test_child_budgets_are_clamped_to_the_side(self, figure2):
        state = AbstractTrainingSet.full(figure2, 5)
        candidates = best_split_abstract(state)
        for row in range(candidates.feature.size):
            for side in (0, 1):
                child = candidates.child(state, row, side)
                assert child.size == candidates.sizes[row, side]
                assert child.n == candidates.removals[row, side] == min(5, child.size)

    def test_key_changes_with_the_rows(self, figure2):
        candidates = best_split_abstract(AbstractTrainingSet.full(figure2, 1))
        assert candidates.key == best_split_abstract(
            AbstractTrainingSet.full(figure2, 1)
        ).key
        moved = dataclasses.replace(candidates, low=candidates.low - 0.5)
        assert moved.key != candidates.key
