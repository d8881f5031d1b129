"""A CART-style decision-tree learner building full trees.

The paper's verification target is the *trace-based* learner ``DTrace``
(:mod:`repro.core.trace_learner`), but the conventional full-tree learner is
needed as a substrate for three reasons: it produces the accuracies of
Table 1, it provides the reference semantics the trace learner must agree
with (the equivalence is property-tested), and it is what a downstream user
would deploy after certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.dataset import Dataset
from repro.core.impurity import gini_impurity, shannon_entropy
from repro.core.predicates import Predicate
from repro.core.splitter import best_split_at
from repro.core.tree import DecisionTree, TreeNode
from repro.utils.validation import check_positive_int


@dataclass
class DecisionTreeLearner:
    """Greedy top-down decision-tree learning with Gini impurity.

    Parameters
    ----------
    max_depth:
        Maximum number of splits along any root-to-leaf path (the ``d`` of
        Figure 4); the paper evaluates depths 1 through 4.
    impurity:
        ``"gini"`` (paper default, the CART criterion) or ``"entropy"``.
    min_samples_split:
        Nodes with fewer elements become leaves; the paper's formulation uses
        2 (any non-trivial split is allowed).
    predicate_pool:
        Optional fixed predicate set Φ.  When omitted, candidate predicates
        are enumerated dynamically from the data at each node (``DTraceR``
        semantics for real features; the single ``x <= 0.5`` predicate for
        boolean features).
    """

    max_depth: int = 2
    impurity: str = "gini"
    min_samples_split: int = 2
    predicate_pool: Optional[Sequence[Predicate]] = None

    def __post_init__(self) -> None:
        self.max_depth = check_positive_int(self.max_depth, "max_depth", allow_zero=True)
        self.min_samples_split = check_positive_int(
            self.min_samples_split, "min_samples_split"
        )
        if self.impurity not in ("gini", "entropy"):
            raise ValueError(
                f"impurity must be 'gini' or 'entropy', got {self.impurity!r}"
            )

    # ------------------------------------------------------------------ fit
    def fit(self, dataset: Dataset) -> DecisionTree:
        """Learn a decision tree from ``dataset``."""
        if len(dataset) == 0:
            raise ValueError("cannot learn a decision tree from an empty dataset")
        root = self._build(dataset, np.arange(len(dataset), dtype=np.int64), depth=0)
        return DecisionTree(
            root=root,
            n_classes=dataset.n_classes,
            feature_names=dataset.feature_names,
            class_names=dataset.class_names,
        )

    def _impurity(self, counts: np.ndarray) -> float:
        if self.impurity == "gini":
            return gini_impurity(counts)
        return shannon_entropy(counts)

    def _build(self, dataset: Dataset, indices: np.ndarray, depth: int) -> TreeNode:
        """The subtree of the node selecting ``indices`` of ``dataset``."""
        counts = np.bincount(dataset.y[indices], minlength=dataset.n_classes).astype(
            np.int64
        )
        node = TreeNode(class_counts=counts)
        if (
            depth >= self.max_depth
            or indices.size < self.min_samples_split
            or self._impurity(counts) == 0.0
        ):
            return node
        choice = best_split_at(
            dataset,
            indices,
            impurity=self.impurity,
            predicate_pool=self.predicate_pool,
        )
        if choice is None:
            return node
        mask = choice.predicate.evaluate_matrix(dataset.X)[indices]
        node.predicate = choice.predicate
        node.left = self._build(dataset, indices[mask], depth + 1)
        node.right = self._build(dataset, indices[~mask], depth + 1)
        return node


def evaluate_accuracy(tree: DecisionTree, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of rows of ``X`` whose prediction matches ``y``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        return 0.0
    predictions = tree.predict_batch(X)
    return float(np.mean(predictions == y))
