"""The Box learner's ``filter#``: the closed form, as one element.

Definition 4.1's join keeps ``|T1 ∪ T2| − n' = min(|T1| − n1, |T2| − n2)``,
and a split piece's ``|Ti| − ni`` is ``max(0, si − n)`` for its tight count
``si``, so ``filter#`` yields ``n' = |U| − max(0, s_min − n)`` for the union
``U`` of the non-empty pieces, and ``f' = min(f, largest piece size)``; see
:func:`repro.verify.transformers.filter_closed_form`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.domains.trainingset import AbstractTrainingSet
from repro.telemetry import profiling
from repro.verify.transformers import SplitCandidates, filter_closed_form


# Named for certbench/layers.py, which wraps it as the verify.transformers.filter layer.
def filter_abstract_traced(
    trainset: AbstractTrainingSet, candidates: SplitCandidates, x: Sequence[float]
) -> Optional[AbstractTrainingSet]:
    """``filter#`` over Ψ's candidate rows, as
    :func:`repro.verify.transformers.filter_abstract` computes it over the
    rows' predicates; ``None`` is bottom.
    """
    with profiling.phase("filter"):
        closed = filter_closed_form(trainset, candidates, x)
        if closed is None:
            return None
        rows, tight, largest = closed
        return AbstractTrainingSet._trusted(
            trainset.dataset,
            rows,
            int(rows.size) - max(0, tight - trainset.n),
            min(trainset.flips, largest),
        )
