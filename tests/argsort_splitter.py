"""The per-feature-argsort ``bestSplit``, kept test-local as a parity oracle.

The library reads every node's candidates from the root dataset's split plan
(:mod:`repro.core.split_plan`).  This module is the direct construction the
plan replaced: every node is a materialized ``subset_mask`` copy, and every
feature column of it is argsorted again to build that feature's split table.
It is deliberately naive; the property tests in
``tests/core/test_splitter_oracle.py`` hold the library's ``best_split``,
``TraceLearner.run`` and ``DecisionTreeLearner.fit`` to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.dataset import Dataset, FeatureKind
from repro.core.impurity import gini_impurity, shannon_entropy, split_score
from repro.core.predicates import EqualityPredicate, Predicate, ThresholdPredicate
from repro.core.splitter import SplitChoice
from repro.core.trace_learner import TraceResult
from repro.core.tree import DecisionTree, TreeNode


@dataclass(frozen=True)
class FeatureSplitTable:
    """All candidate split positions for one feature of one training set.

    ``lower_values``/``upper_values`` are the adjacent distinct values
    bracketing each candidate, ``thresholds`` their midpoints, and
    ``left_*`` the statistics of the ``x <= lower`` side.
    """

    feature: int
    lower_values: np.ndarray
    upper_values: np.ndarray
    thresholds: np.ndarray
    left_sizes: np.ndarray
    left_class_counts: np.ndarray
    total_size: int
    total_class_counts: np.ndarray

    @property
    def n_candidates(self) -> int:
        return int(self.thresholds.shape[0])

    @property
    def right_sizes(self) -> np.ndarray:
        return self.total_size - self.left_sizes

    @property
    def right_class_counts(self) -> np.ndarray:
        return self.total_class_counts[np.newaxis, :] - self.left_class_counts


def feature_split_table(
    X: np.ndarray, y: np.ndarray, feature: int, n_classes: int
) -> FeatureSplitTable:
    """One feature's split table, by a stable argsort of its column."""
    values = np.asarray(X)[:, feature]
    order = np.argsort(values, kind="stable")
    sorted_values, sorted_labels = values[order], np.asarray(y)[order]
    total = int(sorted_values.shape[0])
    total_counts = np.bincount(sorted_labels, minlength=n_classes).astype(np.int64)
    change = (
        np.nonzero(np.diff(sorted_values) > 0)[0] + 1
        if total > 1
        else np.empty(0, dtype=np.int64)
    )
    one_hot = np.zeros((total, n_classes), dtype=np.int64)
    one_hot[np.arange(total), sorted_labels] = 1
    cumulative = np.cumsum(one_hot, axis=0)
    lower_values = sorted_values[change - 1]
    upper_values = sorted_values[change]
    return FeatureSplitTable(
        feature=feature,
        lower_values=lower_values,
        upper_values=upper_values,
        thresholds=(lower_values + upper_values) / 2.0,
        left_sizes=change.astype(np.int64),
        left_class_counts=cumulative[change - 1].reshape(-1, n_classes),
        total_size=total,
        total_class_counts=total_counts,
    )


def score_table(table: FeatureSplitTable, impurity: str) -> np.ndarray:
    """Per-feature scores: closed-form gini, scalar ``split_score`` otherwise."""
    left_counts = table.left_class_counts
    right_counts = table.right_class_counts
    if impurity == "gini":
        left_sizes = table.left_sizes.astype(np.float64)
        right_sizes = table.right_sizes.astype(np.float64)
        left_term = left_sizes - np.sum(left_counts**2, axis=1) / np.maximum(left_sizes, 1)
        right_term = right_sizes - np.sum(right_counts**2, axis=1) / np.maximum(
            right_sizes, 1
        )
        return left_term + right_term
    scores = np.empty(table.n_candidates)
    for i in range(table.n_candidates):
        scores[i] = split_score(left_counts[i], right_counts[i], impurity=impurity)
    return scores


def _best_categorical_split(
    dataset: Dataset, feature: int, impurity: str
) -> Optional[SplitChoice]:
    values = dataset.feature_values(feature)
    if values.size <= 1:
        return None
    best: Optional[SplitChoice] = None
    column = dataset.X[:, feature]
    for value in values:
        mask = column == value
        left_counts = np.bincount(dataset.y[mask], minlength=dataset.n_classes)
        right_counts = np.bincount(dataset.y[~mask], minlength=dataset.n_classes)
        candidate = SplitChoice(
            predicate=EqualityPredicate(feature, float(value)),
            score=split_score(left_counts, right_counts, impurity=impurity),
            left_size=int(mask.sum()),
            right_size=len(dataset) - int(mask.sum()),
            left_class_counts=left_counts,
            right_class_counts=right_counts,
        )
        if best is None or candidate.score < best.score:
            best = candidate
    return best


def best_split(dataset: Dataset, impurity: str = "gini") -> Optional[SplitChoice]:
    """The best split of ``dataset``: per-feature argmin, then strict ``<``."""
    if len(dataset) == 0:
        return None
    best: Optional[SplitChoice] = None
    for feature, kind in enumerate(dataset.feature_kinds):
        if kind is FeatureKind.CATEGORICAL:
            candidate = _best_categorical_split(dataset, feature, impurity)
        else:
            table = feature_split_table(dataset.X, dataset.y, feature, dataset.n_classes)
            if table.n_candidates == 0:
                continue
            scores = score_table(table, impurity)
            index = int(np.argmin(scores))
            candidate = SplitChoice(
                predicate=ThresholdPredicate(feature, float(table.thresholds[index])),
                score=float(scores[index]),
                left_size=int(table.left_sizes[index]),
                right_size=int(table.right_sizes[index]),
                left_class_counts=table.left_class_counts[index].copy(),
                right_class_counts=table.right_class_counts[index].copy(),
            )
        if candidate is not None and (best is None or candidate.score < best.score):
            best = candidate
    return best


def _impurity(counts: np.ndarray, impurity: str) -> float:
    return gini_impurity(counts) if impurity == "gini" else shannon_entropy(counts)


def run_trace(
    dataset: Dataset, x: np.ndarray, max_depth: int, impurity: str = "gini"
) -> TraceResult:
    """``DTrace(T, x)`` over ``subset_mask`` copies of the training set."""
    current = dataset
    decisions: List[Tuple[Predicate, bool]] = []
    stopped_reason = "depth"
    for _ in range(max_depth):
        if _impurity(current.class_counts(), impurity) == 0.0:
            stopped_reason = "pure"
            break
        choice = best_split(current, impurity)
        if choice is None:
            stopped_reason = "no_split"
            break
        branch = bool(choice.predicate.evaluate(x))
        mask = choice.predicate.evaluate_matrix(current.X)
        current = current.subset_mask(mask if branch else ~mask)
        decisions.append((choice.predicate, branch))
    probabilities = current.class_probabilities()
    return TraceResult(
        prediction=int(np.argmax(probabilities)),
        class_counts=tuple(int(c) for c in current.class_counts()),
        class_probabilities=tuple(float(p) for p in probabilities),
        decisions=tuple(decisions),
        stopped_reason=stopped_reason,
    )


def fit_tree(dataset: Dataset, max_depth: int, impurity: str = "gini") -> DecisionTree:
    """The full CART tree over ``subset_mask`` copies of the training set."""

    def build(current: Dataset, depth: int) -> TreeNode:
        counts = current.class_counts()
        node = TreeNode(class_counts=counts)
        if depth >= max_depth or len(current) < 2 or _impurity(counts, impurity) == 0.0:
            return node
        choice = best_split(current, impurity)
        if choice is None:
            return node
        mask = choice.predicate.evaluate_matrix(current.X)
        node.predicate = choice.predicate
        node.left = build(current.subset_mask(mask), depth + 1)
        node.right = build(current.subset_mask(~mask), depth + 1)
        return node

    return DecisionTree(
        root=build(dataset, 0),
        n_classes=dataset.n_classes,
        feature_names=dataset.feature_names,
        class_names=dataset.class_names,
    )
