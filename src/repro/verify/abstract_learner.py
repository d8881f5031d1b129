"""The abstract learner ``DTrace#`` on the base (Box) abstract domain (§4.3–4.8).

The learner state is the pair ``(⟨T, n⟩, Ψ)``.  Each iteration abstractly
interprets one step of the concrete trace learner of Figure 4:

1. the ``ent(T) = 0`` conditional — the *then* branch exits with the state
   restricted to pure concretizations (§4.7), the *else* branch continues
   unrestricted;
2. ``bestSplit#`` — computes Ψ, the candidate splits that could be optimal
   for some concretization (possibly including ``⋄``), as the rows of a
   :class:`~repro.verify.transformers.SplitCandidates`;
3. the ``φ = ⋄`` conditional — the *then* branch exits with the current state;
4. ``filter#`` — keeps (a join of) the sides of Ψ's rows that the test
   point ``x`` traverses, read from the rows by the closed form
   :func:`~repro.verify.transformers.filter_closed_form`.

The classification of each exit state is the vector of ``cprob#`` intervals
of its abstract training set; the learner's overall result joins those
vectors componentwise.  Corollary 4.12 then certifies robustness when a
single class interval dominates all others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.domains.interval import Interval, dominating_component
from repro.domains.trainingset import AbstractTrainingSet
from repro.telemetry import profiling
from repro.utils.timing import TimeBudget
from repro.verify.trace import filter_abstract_traced
from repro.verify.transformers import best_split_abstract, exit_bounds, level_exits


@dataclass(frozen=True)
class AbstractRunResult:
    """The outcome of one abstract-learner run on a single test input.

    Attributes
    ----------
    class_intervals:
        Componentwise join of the ``cprob#`` vectors of all exit states — a
        sound overapproximation of the class-probability vector the concrete
        learner could produce on any poisoned training set.
    robust_class:
        The dominating class per Corollary 4.12, or ``None`` when no class
        dominates (verification inconclusive).
    exit_count:
        Number of exit states (or exit disjuncts) that were joined.
    iterations:
        Number of loop iterations actually interpreted.
    max_disjuncts:
        Peak number of simultaneously live disjuncts (1 for the Box domain).
    """

    class_intervals: Tuple[Interval, ...]
    exit_count: int
    iterations: int
    max_disjuncts: int = 1

    @property
    def robust_class(self) -> Optional[int]:
        return dominating_component(self.class_intervals)

    @property
    def is_conclusive(self) -> bool:
        return self.robust_class is not None


@dataclass
class BoxAbstractLearner:
    """``DTrace#`` over the non-disjunctive product domain.

    Parameters
    ----------
    max_depth:
        The ``d`` of Figure 4 (the learner loop bound).
    cprob_method:
        ``"optimal"`` (footnote 6, the default used in the paper's
        implementation) or ``"box"`` (the naïve transformer of §4.4).

    Candidates are derived from the data at each step: concrete ``x <= 0.5``
    predicates for boolean features and symbolic threshold predicates
    (Appendix B) for real-valued features.
    """

    max_depth: int = 2
    cprob_method: str = "optimal"

    def run(
        self,
        trainset: AbstractTrainingSet,
        x: Sequence[float],
        *,
        time_budget: Optional[TimeBudget] = None,
    ) -> AbstractRunResult:
        """Abstractly interpret ``DTrace(T', x)`` for every ``T' ∈ γ(⟨T, n⟩)``.

        Exits are collected as their ``cprob#`` bounds rather than as states:
        the classification of an exit is all the learner needs, and the pure
        exits of elements with label flips only exist as bounds (see
        :func:`~repro.verify.transformers.state_exits`).  Every step runs
        the disjunctive learner's kernels on one state.
        """
        budget = time_budget or TimeBudget.unlimited()
        method = self.cprob_method
        # Exit bounds, one (k,) lower/upper pair per exit.
        exits: List[Tuple[np.ndarray, np.ndarray]] = []
        state: Optional[AbstractTrainingSet] = trainset
        iterations = 0

        for _ in range(self.max_depth):
            if state is None:
                break
            budget.check()
            iterations += 1

            # --- conditional: ent(T) = 0 -------------------------------------
            found = level_exits([state], method)
            if found.pure[0]:
                exits.append((found.pure_lower[0], found.pure_upper[0]))
            if found.zero_entropy[0]:
                # The else branch is infeasible: every concretization is pure.
                state = None
                break

            # --- φ <- bestSplit#(T) ------------------------------------------
            candidates = best_split_abstract(state, method=method)

            # --- conditional: φ = ⋄ --------------------------------------------
            if candidates.includes_null:
                exits.append((found.cprob_lower[0], found.cprob_upper[0]))
            if not candidates.feature.size:
                state = None
                break

            # --- T <- filter#(T, Ψ, x) -----------------------------------------
            state = filter_abstract_traced(state, candidates, x)

        if state is not None:
            with profiling.phase("cprob_exit"):
                lower, upper = exit_bounds(
                    [state.size],
                    [state.class_counts()],
                    [state.n],
                    [state.flips],
                    method,
                )
            exits.append((lower[0], upper[0]))

        n_classes = trainset.dataset.n_classes
        if exits:
            joined = tuple(
                Interval(lo, hi)
                for lo, hi in zip(
                    np.min([lower for lower, _ in exits], axis=0).tolist(),
                    np.max([upper for _, upper in exits], axis=0).tolist(),
                )
            )
        else:
            # No feasible exit: should be unreachable, but returning the full
            # [0, 1] vector keeps the result sound.
            joined = tuple(Interval.unit() for _ in range(n_classes))
        return AbstractRunResult(
            class_intervals=joined,
            exit_count=len(exits),
            iterations=iterations,
            max_disjuncts=1,
        )
