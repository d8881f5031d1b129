"""Tests for the CART-style full-tree learner."""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.learner import DecisionTreeLearner, evaluate_accuracy
from repro.core.predicates import ThresholdPredicate
from repro.datasets.toy import figure2_dataset, tiny_boolean_dataset


class TestDecisionTreeLearner:
    def test_figure2_depth1_tree(self):
        tree = DecisionTreeLearner(max_depth=1).fit(figure2_dataset())
        assert tree.depth() == 1
        assert isinstance(tree.root.predicate, ThresholdPredicate)
        assert tree.root.predicate.threshold == pytest.approx(10.5)
        assert tree.predict([5.0]) == 0
        assert tree.predict([18.0]) == 1

    def test_depth_zero_is_majority_vote(self):
        tree = DecisionTreeLearner(max_depth=0).fit(figure2_dataset())
        assert tree.depth() == 0
        assert tree.predict([5.0]) == 0  # 7 white vs 6 black

    def test_pure_node_stops_early(self):
        X = np.array([[0.0], [1.0], [2.0]])
        dataset = Dataset(X=X, y=np.array([1, 1, 1]), n_classes=2)
        tree = DecisionTreeLearner(max_depth=3).fit(dataset)
        assert tree.depth() == 0

    def test_min_samples_split(self):
        dataset = tiny_boolean_dataset()
        tree = DecisionTreeLearner(max_depth=5, min_samples_split=100).fit(dataset)
        assert tree.depth() == 0

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            DecisionTreeLearner(max_depth=1).fit(figure2_dataset().subset([]))

    def test_rejects_bad_impurity(self):
        with pytest.raises(ValueError):
            DecisionTreeLearner(impurity="nope")

    def test_rejects_negative_depth(self):
        with pytest.raises(Exception):
            DecisionTreeLearner(max_depth=-1)

    def test_boolean_dataset_perfectly_separable(self):
        dataset = tiny_boolean_dataset()
        tree = DecisionTreeLearner(max_depth=2).fit(dataset)
        assert evaluate_accuracy(tree, dataset.X, dataset.y) == 1.0

    def test_deeper_trees_do_not_hurt_training_accuracy(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
        dataset = Dataset(X=X, y=y)
        accuracies = []
        for depth in (1, 2, 3, 4):
            tree = DecisionTreeLearner(max_depth=depth).fit(dataset)
            accuracies.append(evaluate_accuracy(tree, X, y))
        assert all(b >= a - 1e-9 for a, b in zip(accuracies, accuracies[1:]))


class TestEvaluateAccuracy:
    def test_perfect_and_empty(self):
        dataset = figure2_dataset()
        tree = DecisionTreeLearner(max_depth=4).fit(dataset)
        assert evaluate_accuracy(tree, dataset.X, dataset.y) == 1.0
        assert evaluate_accuracy(tree, np.empty((0, 1)), np.empty(0, dtype=int)) == 0.0
