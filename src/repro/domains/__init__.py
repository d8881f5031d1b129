"""Abstract domains used by the Antidote-style verifier.

* :mod:`repro.domains.interval` — the standard intervals domain used for
  entropy/score/probability computations (§4.2).
* :mod:`repro.domains.trainingset` — the paper's key novelty: the abstract
  element ``⟨T, n⟩`` whose concretization is the perturbed set ``Δn(T)``,
  extended to ``⟨T, n, f⟩`` with up to ``f`` label flips (``f = 0`` is the
  paper's element).
* :mod:`repro.domains.predicate_set` — abstract sets of split predicates,
  including the null predicate ``⋄`` and symbolic threshold predicates.
* :mod:`repro.domains.state` — product and disjunctive abstract states of the
  abstract learner ``DTrace#``.
"""

from repro.domains.interval import Interval
from repro.domains.predicate_set import AbstractPredicateSet
from repro.domains.state import AbstractState, DisjunctiveState
from repro.domains.trainingset import AbstractTrainingSet

__all__ = [
    "Interval",
    "AbstractPredicateSet",
    "AbstractState",
    "DisjunctiveState",
    "AbstractTrainingSet",
]
