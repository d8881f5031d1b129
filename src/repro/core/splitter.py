"""Candidate-predicate enumeration and the concrete ``bestSplit`` criterion.

This module implements the greedy split selection of §3.3:

``bestSplit(T) = argmin_{φ ∈ Φ'} |T↓φ|·ent(T↓φ) + |T↓¬φ|·ent(T↓¬φ)``

where ``Φ'`` contains only predicates that split ``T`` non-trivially.  For
real-valued features the candidate thresholds are the midpoints between
adjacent distinct observed values (§5.1), recomputed from the current subset
of the data at every node, exactly as ``DTraceR`` prescribes.

The per-feature split tables produced by :func:`feature_split_table` are the
shared computational backbone of both the concrete learner and the abstract
transformers in :mod:`repro.verify.transformers`: the abstract learner scores
the same candidate positions, but with interval arithmetic and a poisoning
budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.dataset import Dataset, FeatureKind
from repro.core.impurity import split_score
from repro.core.predicates import EqualityPredicate, Predicate, ThresholdPredicate
from repro.telemetry import profiling


@dataclass(frozen=True)
class FeatureSplitTable:
    """All candidate split positions for one feature of one training set.

    Attributes
    ----------
    feature:
        Column index the table refers to.
    lower_values / upper_values:
        For each candidate, the adjacent pair of distinct observed values
        ``(a, b)`` bracketing the threshold (``a < b``).  The concrete
        candidate threshold is the midpoint; the symbolic predicate of
        Appendix B is ``x <= [a, b)``.
    thresholds:
        Concrete midpoints ``(a + b) / 2``.
    left_sizes / left_class_counts:
        Number of elements (and per-class counts) satisfying ``x <= a``
        (equivalently ``x < b`` since no value lies strictly between).
    total_size / total_class_counts:
        Statistics of the whole training set the table was built from.
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
    """Build the :class:`FeatureSplitTable` for one feature of ``(X, y)``.

    Candidates are placed between every pair of adjacent *distinct* values of
    the feature, so every candidate splits the data non-trivially by
    construction.  The table is empty when the feature is constant.
    """
    with profiling.phase("split_table"):
        return _feature_split_table(X, y, feature, n_classes)


def _feature_split_table(
    X: np.ndarray, y: np.ndarray, feature: int, n_classes: int
) -> FeatureSplitTable:
    values = np.asarray(X)[:, feature]
    labels = np.asarray(y)
    order = np.argsort(values, kind="stable")
    return table_from_sorted(values[order], labels[order], feature, n_classes)


def table_from_sorted(
    sorted_values: np.ndarray,
    sorted_labels: np.ndarray,
    feature: int,
    n_classes: int,
) -> FeatureSplitTable:
    """Build a :class:`FeatureSplitTable` from one feature's value-sorted rows.

    :mod:`repro.core.split_plan` derives the same tables for every feature
    of a node at once (``SplitTablePlan.node_candidates``).
    """
    total = int(sorted_values.shape[0])
    total_counts = np.bincount(sorted_labels, minlength=n_classes).astype(np.int64)

    # Boundary positions: index i such that sorted_values[i-1] < sorted_values[i].
    change = (
        np.nonzero(np.diff(sorted_values) > 0)[0] + 1
        if total > 1
        else np.empty(0, dtype=np.int64)
    )
    if change.size == 0:
        empty = np.empty(0)
        return FeatureSplitTable(
            feature=feature,
            lower_values=empty,
            upper_values=empty,
            thresholds=empty,
            left_sizes=np.empty(0, dtype=np.int64),
            left_class_counts=np.empty((0, n_classes), dtype=np.int64),
            total_size=total,
            total_class_counts=total_counts,
        )

    one_hot = np.zeros((total, n_classes), dtype=np.int64)
    one_hot[np.arange(total), sorted_labels] = 1
    cumulative = np.cumsum(one_hot, axis=0)

    left_sizes = change.astype(np.int64)
    left_class_counts = cumulative[change - 1]
    lower_values = sorted_values[change - 1]
    upper_values = sorted_values[change]
    thresholds = (lower_values + upper_values) / 2.0

    return FeatureSplitTable(
        feature=feature,
        lower_values=lower_values,
        upper_values=upper_values,
        thresholds=thresholds,
        left_sizes=left_sizes,
        left_class_counts=left_class_counts,
        total_size=total,
        total_class_counts=total_counts,
    )


def candidate_predicates(dataset: Dataset) -> List[Predicate]:
    """Enumerate every candidate predicate of the current training set.

    Real and boolean features yield threshold predicates at midpoints of
    adjacent distinct values (a non-constant boolean feature yields exactly
    ``x <= 0.5``); categorical features yield equality predicates for every
    observed value, provided the value does not cover the entire set.
    """
    predicates: List[Predicate] = []
    for feature, kind in enumerate(dataset.feature_kinds):
        if kind is FeatureKind.CATEGORICAL:
            values = dataset.feature_values(feature)
            if values.size <= 1:
                continue
            predicates.extend(EqualityPredicate(feature, float(v)) for v in values)
        else:
            table = feature_split_table(dataset.X, dataset.y, feature, dataset.n_classes)
            predicates.extend(
                ThresholdPredicate(feature, float(t)) for t in table.thresholds
            )
    return predicates


@dataclass(frozen=True)
class SplitChoice:
    """The outcome of ``bestSplit``: the chosen predicate and its statistics."""

    predicate: Predicate
    score: float
    left_size: int
    right_size: int
    left_class_counts: np.ndarray
    right_class_counts: np.ndarray

    def describe(self, feature_names: Sequence[str] = ()) -> str:
        return (
            f"{self.predicate.describe(feature_names)} "
            f"(score={self.score:.4f}, split {self.left_size}/{self.right_size})"
        )


def _score_table(table: FeatureSplitTable, impurity: str) -> np.ndarray:
    """Vectorized concrete scores for every candidate in a split table."""
    scores = np.empty(table.n_candidates)
    left_counts = table.left_class_counts
    right_counts = table.right_class_counts
    if impurity == "gini":
        # |L|*gini(L) = |L| - Σ c²/|L|; avoids Python-level loops.
        left_sizes = table.left_sizes.astype(np.float64)
        right_sizes = table.right_sizes.astype(np.float64)
        left_term = left_sizes - np.sum(left_counts**2, axis=1) / np.maximum(left_sizes, 1)
        right_term = right_sizes - np.sum(right_counts**2, axis=1) / np.maximum(
            right_sizes, 1
        )
        scores = left_term + right_term
    else:
        for i in range(table.n_candidates):
            scores[i] = split_score(left_counts[i], right_counts[i], impurity=impurity)
    return scores


def _score_table_reference(table: FeatureSplitTable, impurity: str) -> np.ndarray:
    """Scalar oracle for :func:`_score_table`: one ``split_score`` per candidate.

    Kept deliberately loop-per-candidate so the vectorized gini arithmetic
    above has an independently-derived mirror; the parity property test in
    ``tests/core/test_splitter_oracle.py`` holds them together (registered in
    the ``soundness-boundary`` kernel registry).
    """
    scores = np.empty(table.n_candidates)
    for i in range(table.n_candidates):
        scores[i] = split_score(
            table.left_class_counts[i], table.right_class_counts[i], impurity=impurity
        )
    return scores


def best_split(
    dataset: Dataset,
    *,
    impurity: str = "gini",
    predicate_pool: Optional[Sequence[Predicate]] = None,
) -> Optional[SplitChoice]:
    """Return the best non-trivial split of ``dataset`` or ``None`` (``⋄``).

    Ties are broken deterministically towards the lowest ``(feature,
    threshold)`` pair; the paper leaves tie-breaking nondeterministic, and the
    abstract learner accounts for *all* tied predicates, so any fixed concrete
    policy is compatible with the verification results.
    """
    if len(dataset) == 0:
        return None
    if predicate_pool is not None:
        return _best_split_from_pool(dataset, predicate_pool, impurity)

    best: Optional[SplitChoice] = None
    for feature, kind in enumerate(dataset.feature_kinds):
        if kind is FeatureKind.CATEGORICAL:
            candidate = _best_categorical_split(dataset, feature, impurity)
            if candidate is not None and (best is None or candidate.score < best.score):
                best = candidate
            continue
        table = feature_split_table(dataset.X, dataset.y, feature, dataset.n_classes)
        if table.n_candidates == 0:
            continue
        scores = _score_table(table, impurity)
        index = int(np.argmin(scores))
        candidate = SplitChoice(
            predicate=ThresholdPredicate(feature, float(table.thresholds[index])),
            score=float(scores[index]),
            left_size=int(table.left_sizes[index]),
            right_size=int(table.right_sizes[index]),
            left_class_counts=table.left_class_counts[index].copy(),
            right_class_counts=table.right_class_counts[index].copy(),
        )
        if best is None or candidate.score < best.score:
            best = candidate
    return best


def _best_categorical_split(
    dataset: Dataset, feature: int, impurity: str
) -> Optional[SplitChoice]:
    """Best equality split for one categorical feature (or ``None``)."""
    values = dataset.feature_values(feature)
    if values.size <= 1:
        return None
    best: Optional[SplitChoice] = None
    column = dataset.X[:, feature]
    for value in values:
        mask = column == value
        left = int(mask.sum())
        right = len(dataset) - left
        if left == 0 or right == 0:
            continue
        left_counts = np.bincount(dataset.y[mask], minlength=dataset.n_classes)
        right_counts = np.bincount(dataset.y[~mask], minlength=dataset.n_classes)
        score = split_score(left_counts, right_counts, impurity=impurity)
        candidate = SplitChoice(
            predicate=EqualityPredicate(feature, float(value)),
            score=score,
            left_size=left,
            right_size=right,
            left_class_counts=left_counts,
            right_class_counts=right_counts,
        )
        if best is None or candidate.score < best.score:
            best = candidate
    return best


def _best_split_from_pool(
    dataset: Dataset, pool: Sequence[Predicate], impurity: str
) -> Optional[SplitChoice]:
    """``bestSplit`` over an explicit, fixed predicate pool."""
    best: Optional[SplitChoice] = None
    for predicate in pool:
        mask = predicate.evaluate_matrix(dataset.X)
        left = int(mask.sum())
        right = len(dataset) - left
        if left == 0 or right == 0:
            continue
        left_counts = np.bincount(dataset.y[mask], minlength=dataset.n_classes)
        right_counts = np.bincount(dataset.y[~mask], minlength=dataset.n_classes)
        score = split_score(left_counts, right_counts, impurity=impurity)
        candidate = SplitChoice(
            predicate=predicate,
            score=score,
            left_size=left,
            right_size=right,
            left_class_counts=left_counts,
            right_class_counts=right_counts,
        )
        if best is None or candidate.score < best.score:
            best = candidate
    return best
