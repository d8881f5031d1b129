"""The intervals abstract domain.

Antidote uses intervals to overapproximate every real-valued quantity the
learner computes: class probabilities, Gini impurities, and split scores
(§4.2 of the paper).  :class:`Interval` is the scalar element; the module
also provides vectorized bound helpers used by the abstract ``bestSplit``
transformer, which scores thousands of candidate predicates at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class Interval:
    """A closed real interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi + 1e-12:
            raise ValueError(f"invalid interval: lo={self.lo} > hi={self.hi}")
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(max(self.lo, self.hi)))

    # ------------------------------------------------------------- builders
    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(float(value), float(value))

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "Interval":
        values = list(values)
        if not values:
            raise ValueError("cannot build an interval from an empty collection")
        return cls(min(values), max(values))

    @classmethod
    def unit(cls) -> "Interval":
        return cls(0.0, 1.0)

    @classmethod
    def zero(cls) -> "Interval":
        return cls(0.0, 0.0)

    # ----------------------------------------------------------- predicates
    def contains(self, value: float) -> bool:
        return self.lo - 1e-12 <= value <= self.hi + 1e-12

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def is_subset_of(self, other: "Interval") -> bool:
        return other.lo - 1e-12 <= self.lo and self.hi <= other.hi + 1e-12

    def is_point(self) -> bool:
        return self.lo == self.hi

    def dominates(self, other: "Interval") -> bool:
        """Strict dominance: every value of ``self`` exceeds every value of ``other``."""
        return self.lo > other.hi

    def upper_at_most(self, bound: float) -> bool:
        """Whether *every* concretization is ``<= bound`` (sound "definitely")."""
        return self.hi <= bound

    def lower_at_least(self, bound: float) -> bool:
        """Whether *every* concretization is ``>= bound`` (sound "definitely")."""
        return self.lo >= bound

    # ------------------------------------------------------------ structure
    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def clamp(self, lo: float, hi: float) -> "Interval":
        """Intersect with ``[lo, hi]``, used to keep probabilities in ``[0, 1]``."""
        return Interval(min(max(self.lo, lo), hi), max(min(self.hi, hi), lo))

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def scale(self, factor: float) -> "Interval":
        if factor >= 0:
            return Interval(self.lo * factor, self.hi * factor)
        return Interval(self.hi * factor, self.lo * factor)

    def divide(self, other: "Interval") -> "Interval":
        """Interval division; the divisor must not contain zero."""
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError(f"divisor interval {other} contains zero")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(quotients), max(quotients))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo:g}, {self.hi:g}]"


def join_interval_vectors(
    first: Sequence[Interval], second: Sequence[Interval]
) -> Tuple[Interval, ...]:
    """Componentwise join of two equally long vectors of intervals."""
    if len(first) != len(second):
        raise ValueError("interval vectors must have the same length")
    return tuple(a.join(b) for a, b in zip(first, second))


def dominating_component(intervals: Sequence[Interval]) -> Optional[int]:
    """Return the index of the interval dominating all others, if any.

    Following Corollary 4.12, interval ``i`` dominates when its lower bound
    strictly exceeds the upper bound of every other interval.  Returns ``None``
    when no component dominates.
    """
    for i, candidate in enumerate(intervals):
        if all(candidate.lo > other.hi for j, other in enumerate(intervals) if j != i):
            return i
    return None


def dominating_components(
    lower: np.ndarray, upper: np.ndarray
) -> Tuple[Optional[int], ...]:
    """:func:`dominating_component` of every row of ``(E, k)`` bound arrays.

    A dominating component is the unique row maximum of the lower bounds
    (its lower bound exceeds every other upper bound, hence every other lower
    bound), so one ``argmax`` per row finds the only candidate.
    """
    rows = np.arange(lower.shape[0])
    best = lower.argmax(axis=1)
    others = upper.copy()
    others[rows, best] = -np.inf
    dominates = lower[rows, best] > others.max(axis=1)
    return tuple(
        int(label) if wins else None
        for label, wins in zip(best.tolist(), dominates.tolist())
    )


# --------------------------------------------------------------------------
# Vectorized bound arithmetic.  These helpers operate on parallel arrays of
# lower and upper bounds and implement the same sound rules as the scalar
# Interval operations; the abstract bestSplit transformer uses them to score
# every candidate predicate of a feature in one shot.
# --------------------------------------------------------------------------


def mul_bounds(
    lo1: np.ndarray, hi1: np.ndarray, lo2: np.ndarray, hi2: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise interval multiplication on bound arrays."""
    p1 = lo1 * lo2
    p2 = lo1 * hi2
    p3 = hi1 * lo2
    p4 = hi1 * hi2
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return lo, hi


def add_bounds(
    lo1: np.ndarray, hi1: np.ndarray, lo2: np.ndarray, hi2: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise interval addition on bound arrays."""
    return lo1 + lo2, hi1 + hi2


def complement_bounds(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Elementwise bounds of ``1 - ι`` for interval bound arrays."""
    return 1.0 - hi, 1.0 - lo
