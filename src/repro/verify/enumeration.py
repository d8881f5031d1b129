"""The naïve enumeration baseline (§2, "A Naïve Approach").

The baseline explicitly retrains ``DTrace`` on every training set in
``Δn(T)`` and checks whether all of them classify the test point the same
way.  It is exact — it decides robustness rather than approximating it — but
its cost is ``Σ_{i<=n} C(|T|, i)`` retrainings, which the paper shows is
hopeless beyond tiny instances (``~10^{432}`` datasets for the MNIST headline
experiment).

Besides serving as the evaluation baseline, the enumeration oracle is what
the test suite uses to validate the abstract learners: on small datasets,
whenever Antidote reports *robust*, enumeration must agree, and whenever
enumeration finds a counterexample, Antidote must not have certified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import Dataset
from repro.core.trace_learner import TraceLearner
from repro.utils.timing import TimeBudget
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class EnumerationResult:
    """Exact robustness verdict obtained by exhaustive retraining."""

    robust: bool
    baseline_prediction: int
    datasets_checked: int
    counterexample_removals: Optional[Tuple[int, ...]]
    counterexample_prediction: Optional[int]
    predictions_seen: Tuple[int, ...]

    @property
    def has_counterexample(self) -> bool:
        return self.counterexample_removals is not None


def enumerate_removal_sets(size: int, n: int):
    """Yield every index tuple of at most ``n`` rows to remove (including none)."""
    for removed in range(0, n + 1):
        yield from itertools.combinations(range(size), removed)


def count_poisoned_datasets(size: int, n: int) -> int:
    """``|Δn(T)|`` for a training set of the given size."""
    import math

    return sum(math.comb(size, i) for i in range(0, min(n, size) + 1))


def verify_by_enumeration(
    dataset: Dataset,
    x: Sequence[float],
    n: int,
    *,
    max_depth: int = 2,
    impurity: str = "gini",
    time_budget: Optional[TimeBudget] = None,
    stop_at_first_counterexample: bool = True,
) -> EnumerationResult:
    """Exactly decide whether ``x`` is robust to ``Δn``-poisoning of ``dataset``.

    Raises
    ------
    repro.utils.timing.TimeoutExceeded
        If a ``time_budget`` is provided and exhausted mid-enumeration.
    """
    n = check_positive_int(n, "n", allow_zero=True)
    budget = time_budget or TimeBudget.unlimited()
    learner = TraceLearner(max_depth=max_depth, impurity=impurity)
    baseline = learner.predict(dataset, x)

    all_indices = np.arange(len(dataset), dtype=np.int64)
    predictions = {baseline}
    checked = 0
    counterexample: Optional[Tuple[int, ...]] = None
    counterexample_prediction: Optional[int] = None

    for removals in enumerate_removal_sets(len(dataset), min(n, len(dataset) - 1)):
        budget.check()
        checked += 1
        if removals:
            kept = np.delete(all_indices, list(removals))
            poisoned = dataset.subset(kept)
        else:
            poisoned = dataset
        prediction = learner.predict(poisoned, x)
        predictions.add(prediction)
        if prediction != baseline and counterexample is None:
            counterexample = tuple(int(i) for i in removals)
            counterexample_prediction = int(prediction)
            if stop_at_first_counterexample:
                break

    return EnumerationResult(
        robust=counterexample is None,
        baseline_prediction=int(baseline),
        datasets_checked=checked,
        counterexample_removals=counterexample,
        counterexample_prediction=counterexample_prediction,
        predictions_seen=tuple(sorted(predictions)),
    )
