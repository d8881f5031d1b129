"""Domain-ladder traces: warm-starting ``filter#`` across budget probes.

A budget search (the §6.1 doubling/binary search, or one staircase step of a
Pareto frontier) re-certifies the *same* test point against the *same*
dataset at a sequence of nearby budgets.  The abstract learner's per-step row
sets are budget-independent — ``split_down`` keeps indices that depend only
on the predicate path, and the filter join unions them — so when two probes
make the same abstract decisions (same node row set, same ``bestSplit#``
outcome), their filtered states differ **only in the budget component**.

That component is fixed by three sizes.  Definition 4.1's join keeps
``|T1 ∪ T2| − n' = min(|T1| − n1, |T2| − n2)``, and a split piece's
``|Ti| − ni`` is ``max(0, si − n)`` for its tight count ``si``, so
``filter#`` yields ``n' = |U| − max(0, s_min − n)`` for the union ``U`` of
the non-empty pieces, and ``f' = min(f, largest piece size)``; see
:func:`repro.verify.transformers.filter_closed_form`.

:func:`filter_abstract_traced` runs that closed form and records one
:class:`TraceStep` — the entry row set, the predicate set, ``U`` and a
:class:`FilterReplay` of the three sizes.  A later probe whose state matches
the step (:meth:`TraceStep.matches`) rebuilds the filtered element with
:meth:`TraceStep.apply`; the cold path builds its element through the same
method, so a warm-started probe is behavior-identical to a cold one by
construction (asserted against the sequential fold by the tests in
``tests/verify/test_vectorized_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.predicates import Predicate
from repro.domains.trainingset import AbstractTrainingSet
from repro.telemetry import profiling
from repro.verify.transformers import filter_closed_form


@dataclass(frozen=True)
class FilterReplay:
    """The sizes that fix one ``filter#`` application's budgets.

    ``size`` is ``|U|``, ``tight`` the smallest tight count over the
    non-empty pieces and ``largest`` the largest piece size.
    """

    size: int
    tight: int
    largest: int

    def replay(self, n: int, flips: int) -> Tuple[int, int]:
        """The filtered element's ``(n, f)`` for incoming budgets ``(n, f)``."""
        return self.size - max(0, self.tight - n), min(flips, self.largest)


@dataclass(frozen=True)
class TraceStep:
    """One learner iteration's filter, keyed by its abstract decisions.

    A step from a prior probe warm-starts the current one iff the entry row
    set and the chosen predicate set are identical (:meth:`matches`) — then
    the filtered row set is ``next_indices`` verbatim and only the budget is
    replayed.  ``next_indices is None`` records a bottom filter result.
    """

    indices_key: bytes
    predicates: Tuple[Predicate, ...]
    next_indices: Optional[np.ndarray]
    replay: Optional[FilterReplay]

    def matches(self, state, predicates: Tuple[Predicate, ...]) -> bool:
        return (
            state.indices.tobytes() == self.indices_key
            and self.predicates == predicates
        )

    def apply(self, state: AbstractTrainingSet) -> Optional[AbstractTrainingSet]:
        """The filtered element at ``state``'s budgets; ``None`` = bottom."""
        if self.next_indices is None:
            return None
        assert self.replay is not None
        n, flips = self.replay.replay(state.n, state.flips)
        return AbstractTrainingSet._trusted(
            state.dataset, self.next_indices, n, flips
        )


@dataclass(frozen=True)
class LadderTrace:
    """The per-(point, family) filter trace of one Box-domain learner run."""

    steps: Tuple[TraceStep, ...]

    def step_at(self, depth: int) -> Optional[TraceStep]:
        if depth < len(self.steps):
            return self.steps[depth]
        return None


def filter_abstract_traced(trainset, predicates, x: Sequence[float]):
    """``filter#`` as :func:`repro.verify.transformers.filter_abstract`
    computes it, additionally recording the :class:`TraceStep` that lets a
    later probe replay this application at a different budget.

    Returns ``(filtered_state_or_None, TraceStep)``.
    """
    with profiling.phase("filter"):
        closed = filter_closed_form(trainset, predicates, x)
        indices_key = trainset.indices.tobytes()
        if closed is None:
            return None, TraceStep(indices_key, predicates.predicates, None, None)
        rows, tight, largest = closed
        step = TraceStep(
            indices_key,
            predicates.predicates,
            rows,
            FilterReplay(int(rows.size), tight, largest),
        )
        return step.apply(trainset), step
