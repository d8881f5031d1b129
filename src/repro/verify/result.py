"""Verification outcome types shared by the engine, the search protocols, and reports.

:class:`VerificationStatus` and :class:`VerificationResult` describe the
outcome of certifying a single test point against a poisoning threat model:
whether a single class interval dominates (the point is *certified robust*),
or whether the analysis was inconclusive, timed out, or exhausted its
disjunct/memory budget — the same failure modes reported in §6.1 of the
paper.  They live in their own module so that
:class:`repro.api.CertificationEngine` and :mod:`repro.verify.search` can
share them without an import cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.domains.interval import Interval

#: The abstract domains the verifier can use.  ``"either"`` mimics the paper's
#: headline experiment (Figure 6), which counts a point as verified when at
#: least one of the two domains succeeds.
DOMAINS = ("box", "disjuncts", "either")


class VerificationStatus(enum.Enum):
    """Outcome of a verification attempt."""

    ROBUST = "robust"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"
    RESOURCE_EXHAUSTED = "resource_exhausted"

    @property
    def is_certified(self) -> bool:
        return self is VerificationStatus.ROBUST


@dataclass(frozen=True)
class VerificationResult:
    """The result of certifying one test point against a poisoning model.

    Attributes
    ----------
    status:
        Whether robustness was proven (``ROBUST``) or why not.
    poisoning_amount:
        The nominal integer budget of the perturbation model that was
        checked (the ``n`` of ``Δn``, the flip budget for label flips, or
        the total contamination ``r + f`` for the composite model).
    poisoning_flips:
        The label-flip component of the budget: ``0`` for the pure-removal
        families, ``n`` for label flips, ``f`` for the composite ``Δ_{r,f}``
        model (whose removal component is ``poisoning_amount -
        poisoning_flips``).  Exported so composite results carry the full
        budget *pair*.
    predicted_class:
        The concrete prediction of ``DTrace`` on the unpoisoned training set.
    certified_class:
        The dominating class of the abstract result when ``status`` is
        ``ROBUST`` (always equal to ``predicted_class`` by soundness).
    class_intervals:
        The abstract class-probability intervals of the (joined) exit states.
    domain:
        Which abstract domain produced the reported result: ``"box"`` /
        ``"disjuncts"`` for removal-family models, ``"flip-box"`` /
        ``"flip-disjuncts"`` for the label-flip and composite removal+flip
        models.
    elapsed_seconds / peak_memory_bytes:
        Wall-clock time and peak Python-heap allocation of the attempt.
        Peak memory is measured only while ``tracemalloc`` is tracing (the
        caller ran ``tracemalloc.start()`` or ``python -X tracemalloc``);
        otherwise it is 0, meaning "not measured".
    log10_num_datasets:
        ``log10 |Δ(T)|`` — the size of the space a naïve enumeration baseline
        would need to explore.
    """

    status: VerificationStatus
    poisoning_amount: int
    predicted_class: int
    certified_class: Optional[int]
    class_intervals: Tuple[Interval, ...]
    domain: str
    elapsed_seconds: float
    peak_memory_bytes: int
    exit_count: int
    max_disjuncts: int
    log10_num_datasets: float
    poisoning_flips: int = 0
    message: str = ""

    @property
    def is_certified(self) -> bool:
        return self.status.is_certified

    def to_dict(self) -> dict:
        """Return a JSON-serializable summary (for logs, CSV export, dashboards)."""
        return {
            "status": self.status.value,
            "poisoning_amount": self.poisoning_amount,
            "poisoning_flips": self.poisoning_flips,
            "predicted_class": self.predicted_class,
            "certified_class": self.certified_class,
            "class_intervals": [[interval.lo, interval.hi] for interval in self.class_intervals],
            "domain": self.domain,
            "elapsed_seconds": self.elapsed_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
            "exit_count": self.exit_count,
            "max_disjuncts": self.max_disjuncts,
            "log10_num_datasets": self.log10_num_datasets,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "VerificationResult":
        """Reconstruct a result from :meth:`to_dict` output (JSON round-trip)."""
        certified = payload["certified_class"]
        return cls(
            status=VerificationStatus(payload["status"]),
            poisoning_amount=int(payload["poisoning_amount"]),
            predicted_class=int(payload["predicted_class"]),
            certified_class=None if certified is None else int(certified),
            class_intervals=tuple(
                Interval(float(lo), float(hi)) for lo, hi in payload["class_intervals"]
            ),
            domain=str(payload["domain"]),
            elapsed_seconds=float(payload["elapsed_seconds"]),
            peak_memory_bytes=int(payload["peak_memory_bytes"]),
            exit_count=int(payload["exit_count"]),
            max_disjuncts=int(payload["max_disjuncts"]),
            log10_num_datasets=float(payload["log10_num_datasets"]),
            # Pre-pair payloads (older caches / exports) default to no flips.
            poisoning_flips=int(payload.get("poisoning_flips", 0)),
            message=str(payload.get("message", "")),
        )

    def describe(self) -> str:
        intervals = ", ".join(str(interval) for interval in self.class_intervals)
        budget = f"n={self.poisoning_amount}"
        if self.poisoning_flips and self.poisoning_flips != self.poisoning_amount:
            # A genuine composite budget; pure-removal and pure-flip results
            # keep the familiar scalar rendering.
            budget = (
                f"(r, f)=({self.poisoning_amount - self.poisoning_flips}, "
                f"{self.poisoning_flips})"
            )
        return (
            f"{self.status.value} ({budget}, domain={self.domain}, "
            f"prediction={self.predicted_class}, intervals=[{intervals}], "
            f"time={self.elapsed_seconds:.3f}s)"
        )
