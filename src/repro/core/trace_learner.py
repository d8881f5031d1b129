"""The trace-based decision-tree learner ``DTrace`` (Figure 4 of the paper).

``DTrace(T, x)`` builds only the root-to-leaf trace that the test input ``x``
traverses in the tree a conventional learner would construct on ``T``: at
each step it selects the best split of the *current* training subset, keeps
only the side of the split that ``x`` falls on (``filter``), and repeats up to
``d`` times.  The classification is the majority class of the final subset.

``DTrace`` is what Antidote abstractly interprets; this concrete version is
both the learner whose robustness we certify and the oracle against which the
abstract learner's soundness is property-tested.

The trace walks index arrays into ``T``: every node's ``bestSplit`` is read
from ``T``'s split plan (:mod:`repro.core.split_plan`) and memoized there, so
the traces of many test points over one training set share the root and every
node they have in common, and the abstract learner later finds the same node
tables already built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.dataset import Dataset
from repro.core.impurity import gini_impurity, shannon_entropy
from repro.core.predicates import Predicate
from repro.core.splitter import best_split_at
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class TraceResult:
    """The final state of a ``DTrace`` run.

    Attributes
    ----------
    prediction:
        The class returned by the learner (argmax of ``class_probabilities``,
        ties broken towards the lowest class index).
    class_counts / class_probabilities:
        Statistics of the final filtered training subset ``T_r``.
    decisions:
        The sequence ``σ`` of (predicate, branch) pairs along the trace.
    stopped_reason:
        Why the loop ended: ``"pure"`` (zero impurity), ``"no_split"``
        (``bestSplit`` returned ``⋄``), or ``"depth"`` (ran ``d`` iterations).
    """

    prediction: int
    class_counts: Tuple[int, ...]
    class_probabilities: Tuple[float, ...]
    decisions: Tuple[Tuple[Predicate, bool], ...]
    stopped_reason: str

    @property
    def depth(self) -> int:
        return len(self.decisions)


@dataclass
class TraceLearner:
    """Input-directed decision-tree learning (``DTrace`` / ``DTraceR``).

    The parameters mirror :class:`repro.core.learner.DecisionTreeLearner`;
    with the same parameters the trace learner's classification of ``x``
    coincides with the full tree's classification of ``x``.
    """

    max_depth: int = 2
    impurity: str = "gini"

    def __post_init__(self) -> None:
        self.max_depth = check_positive_int(self.max_depth, "max_depth", allow_zero=True)
        if self.impurity not in ("gini", "entropy"):
            raise ValueError(
                f"impurity must be 'gini' or 'entropy', got {self.impurity!r}"
            )

    def _impurity(self, counts: np.ndarray) -> float:
        if self.impurity == "gini":
            return gini_impurity(counts)
        return shannon_entropy(counts)

    def run(self, dataset: Dataset, x: Sequence[float]) -> TraceResult:
        """Run ``DTrace(T, x)`` and return the final trace state."""
        if len(dataset) == 0:
            raise ValueError("DTrace requires a non-empty training set")
        indices = np.arange(len(dataset), dtype=np.int64)
        decisions: List[Tuple[Predicate, bool]] = []
        stopped_reason = "depth"
        for _ in range(self.max_depth):
            counts = _node_counts(dataset, indices)
            if self._impurity(counts) == 0.0:
                stopped_reason = "pure"
                break
            choice = best_split_at(dataset, indices, impurity=self.impurity)
            if choice is None:
                stopped_reason = "no_split"
                break
            branch = bool(choice.predicate.evaluate(x))
            mask = choice.predicate.evaluate_matrix(dataset.X)[indices]
            indices = indices[mask if branch else ~mask]
            decisions.append((choice.predicate, branch))
        counts = _node_counts(dataset, indices)
        probabilities = counts / float(indices.size)
        return TraceResult(
            prediction=int(np.argmax(probabilities)),
            class_counts=tuple(int(c) for c in counts),
            class_probabilities=tuple(float(p) for p in probabilities),
            decisions=tuple(decisions),
            stopped_reason=stopped_reason,
        )

    def predict(self, dataset: Dataset, x: Sequence[float]) -> int:
        """Convenience wrapper returning only the predicted class."""
        return self.run(dataset, x).prediction


def _node_counts(dataset: Dataset, indices: np.ndarray) -> np.ndarray:
    return np.bincount(dataset.y[indices], minlength=dataset.n_classes).astype(np.int64)


def learn_trace(
    dataset: Dataset,
    x: Sequence[float],
    *,
    max_depth: int = 2,
    impurity: str = "gini",
) -> TraceResult:
    """Functional shorthand for ``TraceLearner(...).run(dataset, x)``."""
    return TraceLearner(max_depth=max_depth, impurity=impurity).run(dataset, x)
