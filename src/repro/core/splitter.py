"""Candidate-predicate enumeration and the concrete ``bestSplit`` criterion.

This module implements the greedy split selection of §3.3:

``bestSplit(T) = argmin_{φ ∈ Φ'} |T↓φ|·ent(T↓φ) + |T↓¬φ|·ent(T↓¬φ)``

where ``Φ'`` contains only predicates that split ``T`` non-trivially.  For
real-valued features the candidate thresholds are the midpoints between
adjacent distinct observed values (§5.1), taken from the current subset of
the data at every node, exactly as ``DTraceR`` prescribes.

A node is an index array into a root dataset.  Its candidates are the rows of
the root's :class:`~repro.core.split_plan.SplitTablePlan` — the same node
tables the abstract ``bestSplit#`` of :mod:`repro.verify.transformers`
scores with interval arithmetic and a poisoning budget — so concrete and
abstract learning share one split-table path, and both memoize per node on
the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core import split_plan
from repro.core.dataset import Dataset
from repro.core.impurity import split_score
from repro.core.predicates import EqualityPredicate, Predicate, ThresholdPredicate


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


def _row_predicate(
    rows: split_plan.StackedCandidates, row: int, feature: int
) -> Predicate:
    """The concrete predicate of one candidate row.

    A real feature's row ``x <= [a, b)`` becomes the midpoint threshold
    ``x <= (a + b) / 2``; boolean rows already store their threshold.
    """
    kind = rows.kinds[feature]
    low = float(rows.low[row])
    if kind == split_plan.EQUALITY_ROW:
        return EqualityPredicate(feature, low)
    if kind == split_plan.SYMBOLIC_ROW:
        return ThresholdPredicate(feature, (low + float(rows.high[row])) / 2.0)
    return ThresholdPredicate(feature, low)


def candidate_predicates(dataset: Dataset) -> List[Predicate]:
    """Enumerate every candidate predicate of the current training set.

    Real and boolean features yield threshold predicates at midpoints of
    adjacent distinct values (a non-constant boolean feature yields exactly
    ``x <= 0.5``); categorical features yield equality predicates for every
    observed value, provided the value does not cover the entire set.
    """
    if len(dataset) == 0:
        return []
    rows = split_plan.plan_for(dataset).node_candidates(_root_indices(dataset))
    features = rows.features(np.arange(rows.low.size)).tolist()
    return [_row_predicate(rows, row, feature) for row, feature in enumerate(features)]


def _score_candidates_reference(
    left_counts: np.ndarray, right_counts: np.ndarray, impurity: str
) -> np.ndarray:
    """Scalar oracle for :func:`_score_candidates`: ``split_score`` per row.

    Kept deliberately loop-per-candidate so the vectorized gini arithmetic
    has an independently-derived mirror; the parity property test in
    ``tests/core/test_splitter_oracle.py`` holds them together (registered in
    the ``soundness-boundary`` kernel registry).
    """
    scores = np.empty(left_counts.shape[0])
    for i in range(scores.size):
        scores[i] = split_score(left_counts[i], right_counts[i], impurity=impurity)
    return scores


def _score_candidates(rows: split_plan.StackedCandidates, impurity: str) -> np.ndarray:
    """Concrete split scores of every row of a node's candidate table.

    Gini threshold rows use ``|S| - Σ c²/|S|`` per side in one vectorized
    pass.  Equality rows, and every row under entropy, take the scalar
    ``split_score``.  Scores of different features are compared against each
    other, so each kind of row keeps the exact float arithmetic it has
    always been scored with.
    """
    left_counts = rows.left_class_counts
    right_counts = rows.right_class_counts
    if impurity != "gini":
        return _score_candidates_reference(left_counts, right_counts, impurity)
    left_sizes = rows.left_sizes.astype(np.float64)
    right_sizes = rows.total_size - left_sizes
    scores = (
        left_sizes - np.sum(left_counts**2, axis=1) / np.maximum(left_sizes, 1)
    ) + (right_sizes - np.sum(right_counts**2, axis=1) / np.maximum(right_sizes, 1))
    for feature in np.flatnonzero(rows.kinds == split_plan.EQUALITY_ROW).tolist():
        part = slice(int(rows.offsets[feature]), int(rows.offsets[feature + 1]))
        scores[part] = _score_candidates_reference(
            left_counts[part], right_counts[part], impurity
        )
    return scores


def _root_indices(dataset: Dataset) -> np.ndarray:
    return np.arange(len(dataset), dtype=np.int64)


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
    return best_split_at(
        dataset, _root_indices(dataset), impurity=impurity, predicate_pool=predicate_pool
    )


def best_split_at(
    dataset: Dataset,
    indices: np.ndarray,
    *,
    impurity: str = "gini",
    predicate_pool: Optional[Sequence[Predicate]] = None,
) -> Optional[SplitChoice]:
    """``bestSplit`` of the node selecting the non-empty ``indices`` of ``dataset``.

    ``indices`` must be sorted, unique and int64.  Without a pool the
    candidates are the node's rows in the dataset's split plan, in
    (feature, threshold) order, so the first minimum is the lowest tied
    pair; the choice is memoized on the plan.
    """
    if predicate_pool is not None:
        return _best_split_from_pool(dataset, indices, predicate_pool, impurity)
    plan = split_plan.plan_for(dataset)
    key = (indices.tobytes(), impurity)
    choice = plan.cached_best_split(key)
    if choice is None:
        choice = _best_row(plan.node_candidates(indices), impurity)
        if choice is not None:
            plan.store_best_split(key, choice)
    return choice  # type: ignore[return-value]


def _best_row(
    rows: split_plan.StackedCandidates, impurity: str
) -> Optional[SplitChoice]:
    """The first lowest-scoring row of a node's table, or ``None`` without rows."""
    if rows.low.size == 0:
        return None
    scores = _score_candidates(rows, impurity)
    row = int(np.argmin(scores))
    feature = int(rows.features(np.asarray(row)))
    left_counts = rows.left_class_counts[row].copy()
    left_size = int(rows.left_sizes[row])
    return SplitChoice(
        predicate=_row_predicate(rows, row, feature),
        score=float(scores[row]),
        left_size=left_size,
        right_size=rows.total_size - left_size,
        left_class_counts=left_counts,
        right_class_counts=rows.total_class_counts - left_counts,
    )


def _best_split_from_pool(
    dataset: Dataset, indices: np.ndarray, pool: Sequence[Predicate], impurity: str
) -> Optional[SplitChoice]:
    """``bestSplit`` over an explicit, fixed predicate pool."""
    X, y = dataset.X[indices], dataset.y[indices]
    best: Optional[SplitChoice] = None
    for predicate in pool:
        mask = predicate.evaluate_matrix(X)
        left = int(mask.sum())
        right = len(y) - left
        if left == 0 or right == 0:
            continue
        left_counts = np.bincount(y[mask], minlength=dataset.n_classes)
        right_counts = np.bincount(y[~mask], minlength=dataset.n_classes)
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
