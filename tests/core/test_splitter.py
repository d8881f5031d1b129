"""Tests for candidate enumeration and the concrete bestSplit criterion."""

import numpy as np
import pytest

from repro.core.dataset import Dataset, FeatureKind
from repro.core.predicates import EqualityPredicate, ThresholdPredicate
from repro.core.split_plan import plan_for
from repro.core.splitter import best_split, candidate_predicates
from repro.datasets.toy import figure2_dataset


def _root_rows(X, y):
    """The root candidate rows of a one-feature real dataset."""
    dataset = Dataset(X=X, y=y, n_classes=2)
    return plan_for(dataset).node_candidates(np.arange(len(dataset), dtype=np.int64))


class TestRootSplitTable:
    def test_candidates_between_adjacent_values(self):
        X = np.array([[1.0], [3.0], [3.0], [7.0]])
        y = np.array([0, 0, 1, 1])
        rows = _root_rows(X, y)
        assert rows.low.tolist() == [1.0, 3.0]
        assert rows.high.tolist() == [3.0, 7.0]
        assert rows.left_sizes.tolist() == [1, 3]
        thresholds = [p.threshold for p in candidate_predicates(Dataset(X=X, y=y))]
        assert thresholds == [2.0, 5.0]

    def test_left_class_counts(self):
        X = np.array([[1.0], [3.0], [3.0], [7.0]])
        y = np.array([0, 0, 1, 1])
        rows = _root_rows(X, y)
        assert rows.left_class_counts.tolist() == [[1, 0], [2, 1]]
        assert rows.right_class_counts.tolist() == [[1, 2], [0, 1]]

    def test_constant_feature_has_no_candidates(self):
        X = np.array([[2.0], [2.0], [2.0]])
        y = np.array([0, 1, 0])
        assert _root_rows(X, y).low.size == 0

    def test_single_row(self):
        assert _root_rows(np.array([[1.0]]), np.array([0])).low.size == 0

    def test_paper_candidate_thresholds(self):
        # Example 5.1: the Figure 2 dataset induces thresholds at
        # {0.5, 1.5, 2.5, 3.5, 5.5, 7.5, ..., 13.5}.
        thresholds = [p.threshold for p in candidate_predicates(figure2_dataset())]
        expected = [0.5, 1.5, 2.5, 3.5, 5.5, 7.5, 8.5, 9.5, 10.5, 11.5, 12.5, 13.5]
        assert thresholds == expected


class TestCandidatePredicates:
    def test_boolean_feature_yields_single_predicate(self):
        X = np.array([[0.0], [1.0], [1.0]])
        dataset = Dataset(X=X, y=np.array([0, 1, 1]), feature_kinds=(FeatureKind.BOOLEAN,))
        predicates = candidate_predicates(dataset)
        assert predicates == [ThresholdPredicate(0, 0.5)]

    def test_categorical_feature_yields_equality_predicates(self):
        X = np.array([[1.0], [2.0], [3.0]])
        dataset = Dataset(
            X=X, y=np.array([0, 1, 1]), feature_kinds=(FeatureKind.CATEGORICAL,)
        )
        predicates = candidate_predicates(dataset)
        assert EqualityPredicate(0, 1.0) in predicates
        assert len(predicates) == 3

    def test_constant_categorical_skipped(self):
        X = np.array([[1.0], [1.0]])
        dataset = Dataset(
            X=X, y=np.array([0, 1]), feature_kinds=(FeatureKind.CATEGORICAL,)
        )
        assert candidate_predicates(dataset) == []


class TestBestSplit:
    def test_figure2_best_split_is_x_leq_10(self):
        dataset = figure2_dataset()
        choice = best_split(dataset)
        assert isinstance(choice.predicate, ThresholdPredicate)
        assert choice.predicate.threshold == pytest.approx(10.5)
        assert choice.score == pytest.approx(3.111, abs=1e-2)
        assert choice.left_size == 9 and choice.right_size == 4

    def test_empty_dataset_returns_none(self):
        dataset = figure2_dataset().subset([])
        assert best_split(dataset) is None

    def test_constant_features_return_none(self):
        X = np.ones((4, 2))
        dataset = Dataset(X=X, y=np.array([0, 1, 0, 1]))
        assert best_split(dataset) is None

    def test_pool_based_split(self):
        dataset = figure2_dataset()
        pool = [ThresholdPredicate(0, 10.5), ThresholdPredicate(0, 4.0)]
        choice = best_split(dataset, predicate_pool=pool)
        assert choice.predicate == ThresholdPredicate(0, 10.5)

    def test_pool_with_only_trivial_predicates(self):
        dataset = figure2_dataset()
        pool = [ThresholdPredicate(0, 100.0)]
        assert best_split(dataset, predicate_pool=pool) is None

    def test_multi_feature_selects_most_informative(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(size=20)
        informative = np.array([0.0] * 10 + [5.0] * 10)
        X = np.column_stack([noise, informative])
        y = np.array([0] * 10 + [1] * 10)
        choice = best_split(Dataset(X=X, y=y))
        assert choice.predicate.feature == 1
        assert choice.score == pytest.approx(0.0)

    def test_categorical_best_split(self):
        X = np.array([[1.0], [1.0], [2.0], [3.0]])
        dataset = Dataset(
            X=X, y=np.array([0, 0, 1, 1]), feature_kinds=(FeatureKind.CATEGORICAL,)
        )
        choice = best_split(dataset)
        assert isinstance(choice.predicate, EqualityPredicate)
        assert choice.predicate.value == 1.0
        assert choice.score == pytest.approx(0.0)

    def test_entropy_impurity_also_works(self):
        dataset = figure2_dataset()
        choice = best_split(dataset, impurity="entropy")
        assert choice.predicate.threshold == pytest.approx(10.5)
