"""Perturbation (threat) models for data poisoning.

The paper's verification target is the ``n``-poisoning model of §4.1:

``Δn(T) = { T' ⊆ T : |T \\ T'| ≤ n }``

i.e. the attacker may have *contributed* up to ``n`` of the elements of the
observed training set, so the "clean" set the defender should have trained on
is ``T`` with up to ``n`` elements removed.  The module also provides a
fractional convenience wrapper (the paper frequently reports ``n`` as a
percentage of ``|T|``) and the label-flipping model discussed in related work,
which the :mod:`repro.poisoning.label_flip` extension certifies against.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Tuple

from repro.utils.validation import ValidationError, check_fraction, check_positive_int


def _binomials(total: int, count: int) -> Iterator[int]:
    """``C(total, i)`` for ``i = 0 … count``, exactly.

    Each term comes from the one before by ``C(N, i + 1) = C(N, i) · (N − i)
    // (i + 1)``, whose division is exact; past ``i = N`` every term is 0.
    """
    term = 1
    for i in range(count + 1):
        yield term
        term = term * (total - i) // (i + 1)


def _weighted_binomial_sum(total: int, count: int, weight: int) -> int:
    """``Σ_{i ≤ count} C(total, i) · weight^i``."""
    result, power = 0, 1
    for term in _binomials(total, count):
        result += term * power
        power *= weight
    return result


def _log10_of_big_int(value: int) -> float:
    """``log10`` of a potentially huge Python integer without overflow."""
    if value <= 0:
        return float("-inf")
    digits = str(value)
    if len(digits) <= 15:
        return math.log10(value)
    return math.log10(int(digits[:15])) + (len(digits) - 15)


class PerturbationModel(abc.ABC):
    """A family of neighborhoods ``Δ(T)`` parameterized by the training-set size."""

    @abc.abstractmethod
    def resolve_budget(self, training_size: int) -> int:
        """The per-dataset integer budget (e.g. number of removable elements)."""

    @abc.abstractmethod
    def num_neighbors(self, training_size: int) -> int:
        """Exact ``|Δ(T)|`` for a training set of the given size."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable description of the threat model."""

    def nominal_amount(self, training_size: int) -> int:
        """The budget as results report it (may exceed the training size).

        Defaults to the resolved budget; models parameterized by an explicit
        count ``n`` override this to report ``n`` itself, matching how the
        paper quotes poisoning amounts.
        """
        return self.resolve_budget(training_size)

    def nominal_flip_amount(self, training_size: int) -> int:
        """The label-flip component of the budget as results report it.

        Zero for the pure-removal families; flip-family models override this
        so exported results carry the full ``(amount, flips)`` pair instead of
        silently dropping the flip budget.
        """
        del training_size
        return 0

    def log10_num_neighbors(self, training_size: int) -> float:
        """``log10 |Δ(T)|``; the scale a naïve enumeration would face."""
        return _log10_of_big_int(self.num_neighbors(training_size))

    # ------------------------------------------------------- budget rebinding
    def with_budget(self, n: int) -> "PerturbationModel":
        """A model of the same family with its scalar budget replaced by ``n``.

        This is the protocol the §6.1 search machinery
        (:func:`repro.verify.search.max_certified_poisoning` /
        :func:`~repro.verify.search.robustness_sweep`) sweeps a family with:
        the template model fixes everything *except* the budget, and the
        search rebinds the budget per probe.  One-dimensional families
        override this; families without a scalar budget (the composite
        removal+flip pair) raise and are swept with :meth:`with_budgets`
        through :func:`repro.verify.search.pareto_frontier` instead.
        """
        raise ValidationError(
            f"{type(self).__name__} has no scalar budget to search over; "
            "use with_budgets(n_remove, n_flip) / pareto_frontier for "
            "two-dimensional families"
        )

    def with_budgets(self, n_remove: int, n_flip: int) -> "PerturbationModel":
        """A model of the same family with its ``(r, f)`` budget pair replaced.

        Only meaningful for families parameterized by a removal *and* a flip
        budget (:class:`CompositePoisoningModel`); the Pareto-frontier search
        probes the pair lattice through this hook.
        """
        raise ValidationError(
            f"{type(self).__name__} is not parameterized by an "
            "(n_remove, n_flip) budget pair; use with_budget(n) for "
            "one-dimensional families"
        )


@dataclass(frozen=True)
class RemovalPoisoningModel(PerturbationModel):
    """The paper's ``Δn`` model: up to ``n`` potentially malicious elements."""

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_positive_int(self.n, "n", allow_zero=True))

    def resolve_budget(self, training_size: int) -> int:
        return min(self.n, training_size)

    def nominal_amount(self, training_size: int) -> int:
        return self.n

    def num_neighbors(self, training_size: int) -> int:
        return sum(_binomials(training_size, self.resolve_budget(training_size)))

    def with_budget(self, n: int) -> "RemovalPoisoningModel":
        return RemovalPoisoningModel(n)

    def describe(self) -> str:
        return f"removal of up to {self.n} training elements"


@dataclass(frozen=True)
class FractionalRemovalModel(PerturbationModel):
    """``Δn`` with ``n`` given as a fraction of the training-set size."""

    fraction: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fraction", check_fraction(self.fraction, "fraction")
        )

    def resolve_budget(self, training_size: int) -> int:
        return int(math.floor(self.fraction * training_size))

    def num_neighbors(self, training_size: int) -> int:
        budget = self.resolve_budget(training_size)
        return RemovalPoisoningModel(budget).num_neighbors(training_size)

    def with_budget(self, n: int) -> RemovalPoisoningModel:
        # A fractional model denotes the same ``Δn`` space as the removal
        # model once resolved (they share the cache family), so the scalar
        # search sweeps it over explicit element counts.
        return RemovalPoisoningModel(n)

    def describe(self) -> str:
        return f"removal of up to {self.fraction:.2%} of the training elements"


@dataclass(frozen=True)
class LabelFlipModel(PerturbationModel):
    """Up to ``n`` training labels flipped to arbitrary other classes.

    This is the alternative poisoning model of the related-work discussion
    (label contamination); the engine certifies against it through the flip
    abstract domain of :mod:`repro.poisoning.label_flip`.

    ``n_classes`` defaults to ``None`` ("resolve from the dataset"): the
    engine fills it in at plan time via :func:`resolve_model_classes`, so a
    default-constructed model on a 3-class dataset counts 2 label
    alternatives per flip, not the former hard-wired 1.  An explicitly
    declared ``n_classes`` that contradicts the dataset is rejected instead
    of silently fragmenting cache keys.
    """

    n: int
    n_classes: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_positive_int(self.n, "n", allow_zero=True))
        if self.n_classes is not None:
            object.__setattr__(
                self, "n_classes", check_positive_int(self.n_classes, "n_classes")
            )

    @property
    def resolved_classes(self) -> int:
        """``n_classes`` once resolved; raises while still unresolved."""
        if self.n_classes is None:
            raise ValidationError(
                "LabelFlipModel.n_classes is unresolved; certify through "
                "CertificationRequest/CertificationEngine (which resolve it from "
                "the dataset) or construct the model with n_classes=..."
            )
        return self.n_classes

    def resolve_budget(self, training_size: int) -> int:
        return min(self.n, training_size)

    def resolve_budgets(self, training_size: int) -> Tuple[int, int]:
        """The ``(removals, flips)`` pair seeding the flip abstraction."""
        return 0, self.resolve_budget(training_size)

    def nominal_amount(self, training_size: int) -> int:
        return self.n

    def nominal_flip_amount(self, training_size: int) -> int:
        del training_size
        return self.n

    def num_neighbors(self, training_size: int) -> int:
        alternatives = max(1, self.resolved_classes - 1)
        return _weighted_binomial_sum(
            training_size, self.resolve_budget(training_size), alternatives
        )

    def with_budget(self, n: int) -> "LabelFlipModel":
        # ``replace`` keeps an explicitly declared (or already resolved)
        # n_classes, so every probe of a sweep shares the cache family key.
        return replace(self, n=n)

    def describe(self) -> str:
        return f"flipping of up to {self.n} training labels"


@dataclass(frozen=True)
class CompositePoisoningModel(PerturbationModel):
    """The combined threat model ``Δ_{r,f}``: removals *then* label flips.

    ``Δ_{r,f}(T) = { flip_{≤f}(T') : T' ⊆ T, |T \\ T'| ≤ r }`` — the attacker
    may have contributed up to ``n_remove`` whole elements *and* corrupted up
    to ``n_flip`` labels of genuine elements.  ``n_remove = 0`` degenerates to
    :class:`LabelFlipModel`; ``n_flip = 0`` recovers the paper's ``Δn``.

    Like :class:`LabelFlipModel`, ``n_classes`` is resolved from the dataset
    at plan time when left as ``None``.
    """

    n_remove: int
    n_flip: int
    n_classes: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "n_remove", check_positive_int(self.n_remove, "n_remove", allow_zero=True)
        )
        object.__setattr__(
            self, "n_flip", check_positive_int(self.n_flip, "n_flip", allow_zero=True)
        )
        if self.n_classes is not None:
            object.__setattr__(
                self, "n_classes", check_positive_int(self.n_classes, "n_classes")
            )

    @property
    def resolved_classes(self) -> int:
        """``n_classes`` once resolved; raises while still unresolved."""
        if self.n_classes is None:
            raise ValidationError(
                "CompositePoisoningModel.n_classes is unresolved; certify through "
                "CertificationRequest/CertificationEngine (which resolve it from "
                "the dataset) or construct the model with n_classes=..."
            )
        return self.n_classes

    def resolve_budgets(self, training_size: int) -> Tuple[int, int]:
        """The ``(removals, flips)`` pair seeding the flip abstraction."""
        return min(self.n_remove, training_size), min(self.n_flip, training_size)

    def resolve_budget(self, training_size: int) -> int:
        """Total contamination budget (elements removed plus labels flipped)."""
        removals, flips = self.resolve_budgets(training_size)
        return removals + flips

    def nominal_amount(self, training_size: int) -> int:
        return self.n_remove + self.n_flip

    def nominal_flip_amount(self, training_size: int) -> int:
        del training_size
        return self.n_flip

    def with_budgets(self, n_remove: int, n_flip: int) -> "CompositePoisoningModel":
        # ``replace`` keeps an explicitly declared (or already resolved)
        # n_classes, so every probe of a frontier shares the cache family key.
        return replace(self, n_remove=n_remove, n_flip=n_flip)

    def num_neighbors(self, training_size: int) -> int:
        """Exact ``|Δ_{r,f}(T)|``: choose removals, then flips of survivors."""
        removals, flips = self.resolve_budgets(training_size)
        alternatives = max(1, self.resolved_classes - 1)
        return sum(
            ways
            * _weighted_binomial_sum(training_size - removed, flips, alternatives)
            for removed, ways in enumerate(_binomials(training_size, removals))
        )

    def describe(self) -> str:
        return (
            f"removal of up to {self.n_remove} training elements and "
            f"flipping of up to {self.n_flip} labels"
        )


def resolve_model_classes(
    model: PerturbationModel, n_classes: int
) -> PerturbationModel:
    """Resolve a class-count-dependent model against the dataset it certifies.

    Label-flip and composite models need the dataset's class count to size
    their perturbation space (``|Δ(T)|`` scales with the number of label
    alternatives) and their cache family key.  A model constructed with
    ``n_classes=None`` is completed from the dataset here; a model that
    *declares* a class count contradicting the dataset is rejected — silently
    trusting either side would report a wrong ``log10 |Δ(T)|`` and fragment
    cache keys for identical verdicts.  Models without a class-count knob
    pass through unchanged.
    """
    if not isinstance(model, (LabelFlipModel, CompositePoisoningModel)):
        return model
    if model.n_classes is None:
        return replace(model, n_classes=int(n_classes))
    if model.n_classes != n_classes:
        raise ValidationError(
            f"{type(model).__name__} declares n_classes={model.n_classes} but the "
            f"dataset has {n_classes} classes; drop the explicit n_classes to "
            "resolve it from the dataset"
        )
    return model
