"""Abstract sets of split predicates (§4.2 and Appendix B).

The abstract learner must represent *all* the predicates a concrete run could
have chosen at a node — the set ``Ψ`` in the learner state — including the
special null predicate ``⋄`` ("no non-trivial split exists").  For
real-valued features the member predicates are symbolic
(:class:`~repro.core.predicates.SymbolicThresholdPredicate`), each standing
for an interval of concrete thresholds.

The learners carry ``Ψ`` as the candidate rows ``bestSplit#`` returns
(:class:`repro.verify.transformers.SplitCandidates`); this predicate form is
the input of the scalar ``filter#`` oracle
(:func:`repro.verify.transformers.filter_abstract`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

from repro.core.predicates import Predicate, point_satisfies


@dataclass(frozen=True)
class AbstractPredicateSet:
    """A finite set of (possibly symbolic) predicates, optionally with ``⋄``."""

    predicates: Tuple[Predicate, ...] = field(default_factory=tuple)
    includes_null: bool = False

    @classmethod
    def of(
        cls, predicates: Iterable[Predicate], includes_null: bool = False
    ) -> "AbstractPredicateSet":
        return cls(predicates=tuple(predicates), includes_null=includes_null)

    def partition_for_point(
        self, x: Sequence[float]
    ) -> Tuple[Tuple[Predicate, ...], Tuple[Predicate, ...]]:
        """Split predicates by how the test point evaluates them.

        Returns ``(Ψ_x, Ψ_¬x)``: the predicates that ``x`` possibly satisfies
        and the ones it possibly falsifies.  A symbolic predicate evaluating
        to *maybe* appears in **both** groups (the three-valued semantics of
        ``filter#_R`` in Appendix B); concrete predicates appear in exactly
        one.
        """
        satisfied = []
        falsified = []
        for predicate in self.predicates:
            verdict = point_satisfies(predicate, x)
            if verdict.possibly_true:
                satisfied.append(predicate)
            if verdict.possibly_false:
                falsified.append(predicate)
        return tuple(satisfied), tuple(falsified)
