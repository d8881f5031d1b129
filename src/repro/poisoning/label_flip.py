"""Extension: certifying robustness against label-flipping (and mixed) poisoning.

The paper's related-work section points to a second widely studied poisoning
model in which the attacker does not *add* training elements but corrupts the
**labels** of existing ones (e.g. Xiao et al.'s adversarial label flips).
The combined threat model

``Δ_{r,f}(T) = { flip_{≤f}(T') : T' ⊆ T, |T \\ T'| ≤ r }``

lets the attacker contribute up to ``r`` whole elements *and* corrupt up to
``f`` labels of genuine elements.  Setting ``r = 0`` gives the pure
label-flip model; ``f = 0`` recovers the paper's ``Δn``.

Its abstraction is the one training-set domain
:class:`~repro.domains.trainingset.AbstractTrainingSet` ``⟨T, n, f⟩`` with
``n = r``, and the same transformers, Box learner and disjunctive learner
interpret it.  This module keeps the exact enumeration oracles for the flip
families, plus :class:`FlipAbstractTrainingSet`.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from repro.core.dataset import Dataset
from repro.core.trace_learner import TraceLearner
from repro.domains.trainingset import AbstractTrainingSet


class FlipAbstractTrainingSet(AbstractTrainingSet):
    """The initial ``⟨T, r, f⟩`` of a flip-family request; no behavior of its own.

    Every transformer lives on :class:`AbstractTrainingSet`.  This subclass
    exists so the root element of a label-flip or composite certification is
    identifiable by type name: the traced benchmark wraps
    ``FlipAbstractTrainingSet.full`` by name and reports the rung time spent
    on roots of this type as ``poisoning.label_flip.rung_s``.
    """

    @classmethod
    def full(cls, dataset: Dataset, removals: int, flips: int) -> "AbstractTrainingSet":
        return cls(dataset, np.arange(len(dataset), dtype=np.int64), removals, flips)


# ---------------------------------------------------------------------------
# Exact enumeration oracle for the flip model (small instances only)
# ---------------------------------------------------------------------------


def enumerate_label_flips(dataset: Dataset, flips: int) -> Iterator[Dataset]:
    """Yield every dataset obtained from ``dataset`` by flipping up to ``flips`` labels."""
    n_classes = dataset.n_classes
    size = len(dataset)
    for flipped in range(0, min(flips, size) + 1):
        for positions in itertools.combinations(range(size), flipped):
            if not positions:
                yield dataset
                continue
            alternatives = [
                [c for c in range(n_classes) if c != int(dataset.y[p])] for p in positions
            ]
            for choice in itertools.product(*alternatives):
                labels = dataset.y.copy()
                for position, new_label in zip(positions, choice):
                    labels[position] = new_label
                yield dataset.replace(y=labels)


def verify_flips_by_enumeration(
    dataset: Dataset, x: Sequence[float], flips: int, *, max_depth: int = 2
) -> bool:
    """Exactly decide label-flip robustness by exhaustive retraining."""
    learner = TraceLearner(max_depth=max_depth)
    baseline = learner.predict(dataset, x)
    for poisoned in enumerate_label_flips(dataset, flips):
        if learner.predict(poisoned, x) != baseline:
            return False
    return True


def enumerate_composite_poisonings(
    dataset: Dataset, removals: int, flips: int
) -> Iterator[Dataset]:
    """Yield every element of ``Δ_{r,f}(T)``: remove ≤ r rows, then flip ≤ f labels."""
    size = len(dataset)
    base = np.arange(size, dtype=np.int64)
    for removed in range(0, min(removals, size) + 1):
        for drop in itertools.combinations(range(size), removed):
            survivors = dataset.subset(np.delete(base, list(drop)))
            yield from enumerate_label_flips(survivors, flips)


def verify_composite_by_enumeration(
    dataset: Dataset,
    x: Sequence[float],
    removals: int,
    flips: int,
    *,
    max_depth: int = 2,
) -> bool:
    """Exactly decide combined removal+flip robustness by exhaustive retraining."""
    learner = TraceLearner(max_depth=max_depth)
    baseline = learner.predict(dataset, x)
    for poisoned in enumerate_composite_poisonings(dataset, removals, flips):
        if learner.predict(poisoned, x) != baseline:
            return False
    return True
