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

from repro.domains.interval import Interval, dominating_component, join_interval_vectors
from repro.domains.trainingset import AbstractTrainingSet
from repro.telemetry import profiling
from repro.utils.timing import TimeBudget
from repro.verify.trace import filter_abstract_traced
from repro.verify.transformers import (
    best_split_abstract,
    cprob_intervals,
    entropy_is_definitely_zero,
    pure_exit_vector,
)


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

        Exits are collected as their ``cprob#`` vectors rather than as states:
        the classification of an exit is all the learner needs, and the pure
        exits of elements with label flips only exist as interval vectors
        (see :func:`~repro.verify.transformers.pure_exit_vector`).
        """
        budget = time_budget or TimeBudget.unlimited()
        exits: List[Tuple[Interval, ...]] = []
        state = trainset
        iterations = 0

        for _ in range(self.max_depth):
            if state is None:
                break
            budget.check()
            iterations += 1

            # --- conditional: ent(T) = 0 -------------------------------------
            pure = pure_exit_vector(state, self.cprob_method)
            if pure is not None:
                exits.append(pure)
            if entropy_is_definitely_zero(state, self.cprob_method):
                # The else branch is infeasible: every concretization is pure.
                state = None
                break

            # --- φ <- bestSplit#(T) ------------------------------------------
            candidates = best_split_abstract(state, method=self.cprob_method)

            # --- conditional: φ = ⋄ --------------------------------------------
            if candidates.includes_null:
                with profiling.phase("cprob_exit"):
                    exits.append(cprob_intervals(state, self.cprob_method))
            if not candidates.feature.size:
                state = None
                break

            # --- T <- filter#(T, Ψ, x) -----------------------------------------
            state = filter_abstract_traced(state, candidates, x)

        if state is not None:
            with profiling.phase("cprob_exit"):
                exits.append(cprob_intervals(state, self.cprob_method))

        intervals = self._join_exit_intervals(exits, trainset.dataset.n_classes)
        return AbstractRunResult(
            class_intervals=intervals,
            exit_count=len(exits),
            iterations=iterations,
            max_disjuncts=1,
        )

    def _join_exit_intervals(
        self, exits: List[Tuple[Interval, ...]], n_classes: int
    ) -> Tuple[Interval, ...]:
        if not exits:
            # No feasible exit: should be unreachable, but returning the full
            # [0, 1] vector keeps the result sound.
            return tuple(Interval.unit() for _ in range(n_classes))
        joined = exits[0]
        for vector in exits[1:]:
            joined = join_interval_vectors(joined, vector)
        return joined
