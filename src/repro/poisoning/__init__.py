"""Poisoning threat models and concrete attack search.

* :mod:`repro.poisoning.models` — perturbation models, most importantly the
  paper's ``Δn`` removal model (§4.1) that the verifier certifies against.
* :mod:`repro.poisoning.attacks` — concrete attack search (greedy and random
  removal attacks).  Attacks are the *completeness* counterpart of the
  verifier: a successful attack is a proof of non-robustness, so no sound
  verifier may certify the same point at the same budget.
* :mod:`repro.poisoning.label_flip` — the exact enumeration oracles for the
  label-flipping poisoning model discussed in the paper's related-work
  section (its abstraction is the ``f`` of ``⟨T, n, f⟩``).
"""

from repro.poisoning.attacks import AttackResult, greedy_removal_attack, random_removal_attack
from repro.poisoning.label_flip import (
    FlipAbstractTrainingSet,
    verify_composite_by_enumeration,
    verify_flips_by_enumeration,
)
from repro.poisoning.models import (
    CompositePoisoningModel,
    FractionalRemovalModel,
    LabelFlipModel,
    PerturbationModel,
    RemovalPoisoningModel,
    resolve_model_classes,
)

__all__ = [
    "AttackResult",
    "greedy_removal_attack",
    "random_removal_attack",
    "FlipAbstractTrainingSet",
    "verify_composite_by_enumeration",
    "verify_flips_by_enumeration",
    "CompositePoisoningModel",
    "FractionalRemovalModel",
    "LabelFlipModel",
    "PerturbationModel",
    "RemovalPoisoningModel",
    "resolve_model_classes",
]
