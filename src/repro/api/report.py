"""Aggregate certification reports: counts, timings, and export formats.

A :class:`CertificationReport` is what :class:`repro.api.CertificationEngine`
returns for a batch request.  It replaces the ad-hoc result-list handling the
CLI and the experiment harness used to do by hand, and it distinguishes the
two situations the legacy ``certified_fraction`` conflated: *nothing was
certified* (fraction ``0.0``) versus *there was nothing to certify* (fraction
``None``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from repro.utils.tables import TextTable
from repro.verify.result import VerificationResult, VerificationStatus

#: Version of the report wire/JSON schema.  Version 1 is the unversioned
#: payload shape of PR 1–4 (no ``schema_version`` key); version 2 added the
#: key itself and is what the ``repro.service`` protocol speaks.  Decoders
#: accept every version up to this one and reject newer payloads instead of
#: silently misreading fields from the future.
SCHEMA_VERSION = 2

#: Column order of :meth:`CertificationReport.to_csv` (one row per result).
#: ``poisoning_flips`` carries the flip component of the budget, so composite
#: ``Δ_{r,f}`` rows export the full pair (``n_remove`` is ``poisoning_amount -
#: poisoning_flips``) instead of silently dropping the flip budget.
CSV_FIELDS = (
    "index",
    "status",
    "poisoning_amount",
    "poisoning_flips",
    "predicted_class",
    "certified_class",
    "domain",
    "elapsed_seconds",
    "peak_memory_bytes",
    "exit_count",
    "max_disjuncts",
    "log10_num_datasets",
    "class_intervals",
    "message",
)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence."""
    if not sorted_values:
        return float("nan")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = (len(sorted_values) - 1) * q
    lower = math.floor(position)
    upper = math.ceil(position)
    weight = position - lower
    return float(sorted_values[lower] * (1.0 - weight) + sorted_values[upper] * weight)


@dataclass
class CertificationReport:
    """Per-point results of one certification batch plus aggregate views.

    Attributes
    ----------
    results:
        One :class:`VerificationResult` per requested test point, in request
        order.
    model_description:
        Human-readable description of the threat model that was certified
        against (``PerturbationModel.describe()``).
    dataset_name / total_seconds:
        Provenance: which dataset the batch ran on and the wall-clock time of
        the whole batch (including any process-pool overhead).
    runtime_stats:
        Optional counters from the :class:`~repro.runtime.CertificationRuntime`
        that served the batch (cache hits/misses, monotone derivations,
        journal restores, in-batch duplicates, learner invocations; the
        cache counters stay 0 on a cache-less runtime); ``None`` when no
        point of the batch reached a runtime, e.g. every point was leased
        from another in-flight batch.
    frontiers:
        Optional per-point Pareto-frontier rows produced by a composite
        ``(r, f)`` sweep: one dict per point (in request order) with the
        point's maximal certified ``(n_remove, n_flip)`` pairs under
        componentwise dominance (see
        :class:`repro.verify.search.ParetoFrontierResult.to_dict`); ``None``
        for plain certification batches.
    """

    results: List[VerificationResult] = field(default_factory=list)
    model_description: str = ""
    dataset_name: str = ""
    total_seconds: float = 0.0
    runtime_stats: Optional[Dict] = None
    frontiers: Optional[List[Dict]] = None

    # -------------------------------------------------------------- counting
    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[VerificationResult]:
        return iter(self.results)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def certified_count(self) -> int:
        return sum(result.is_certified for result in self.results)

    @property
    def certified_fraction(self) -> Optional[float]:
        """Fraction of points proven robust, or ``None`` for an empty batch.

        Returning ``None`` (instead of the legacy ``0.0``) keeps "nothing to
        certify" distinguishable from "nothing certified".
        """
        if not self.results:
            return None
        return self.certified_count / len(self.results)

    @property
    def status_counts(self) -> Dict[str, int]:
        """Per-status counts; every status is present, including zero counts."""
        counts = {status.value: 0 for status in VerificationStatus}
        for result in self.results:
            counts[result.status.value] += 1
        return counts

    # ---------------------------------------------------------------- timing
    @property
    def mean_seconds(self) -> float:
        if not self.results:
            return 0.0
        return sum(result.elapsed_seconds for result in self.results) / len(self.results)

    @property
    def mean_peak_memory_bytes(self) -> float:
        if not self.results:
            return 0.0
        return sum(result.peak_memory_bytes for result in self.results) / len(self.results)

    def elapsed_percentile(self, q: float) -> float:
        """Per-point elapsed-seconds percentile, ``q`` in ``[0, 1]``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], got {q}")
        return _percentile(sorted(result.elapsed_seconds for result in self.results), q)

    @property
    def timing_summary(self) -> Dict[str, float]:
        """Mean / p50 / p90 / max of the per-point wall-clock times."""
        elapsed = sorted(result.elapsed_seconds for result in self.results)
        return {
            "mean_seconds": self.mean_seconds,
            "p50_seconds": _percentile(elapsed, 0.50),
            "p90_seconds": _percentile(elapsed, 0.90),
            "max_seconds": elapsed[-1] if elapsed else float("nan"),
        }

    # ---------------------------------------------------------------- export
    def to_dict(self) -> dict:
        """JSON-serializable summary + per-point payloads (schema-versioned)."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "dataset_name": self.dataset_name,
            "model_description": self.model_description,
            "total_seconds": self.total_seconds,
            "total": self.total,
            "certified_count": self.certified_count,
            "certified_fraction": self.certified_fraction,
            "status_counts": self.status_counts,
            "results": [result.to_dict() for result in self.results],
        }
        if self.runtime_stats is not None:
            payload["runtime_stats"] = dict(self.runtime_stats)
        if self.frontiers is not None:
            payload["frontiers"] = [dict(entry) for entry in self.frontiers]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CertificationReport":
        """Reconstruct a report from :meth:`to_dict` output (JSON round-trip).

        Accepts every schema version up to :data:`SCHEMA_VERSION`; payloads
        from before the version field default to version 1 (their shape is a
        strict subset of the current one, so they decode unchanged).
        """
        version = int(payload.get("schema_version", 1))
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"report payload has schema_version={version}, but this "
                f"decoder only understands versions <= {SCHEMA_VERSION}; "
                "upgrade the reader"
            )
        runtime_stats = payload.get("runtime_stats")
        frontiers = payload.get("frontiers")
        return cls(
            results=[VerificationResult.from_dict(entry) for entry in payload["results"]],
            model_description=str(payload.get("model_description", "")),
            dataset_name=str(payload.get("dataset_name", "")),
            total_seconds=float(payload.get("total_seconds", 0.0)),
            runtime_stats=None if runtime_stats is None else dict(runtime_stats),
            frontiers=None if frontiers is None else [dict(entry) for entry in frontiers],
        )

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CertificationReport":
        return cls.from_dict(json.loads(text))

    def to_csv(self) -> str:
        """One CSV row per result (intervals serialized as a JSON cell)."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(CSV_FIELDS))
        writer.writeheader()
        for index, result in enumerate(self.results):
            row = result.to_dict()
            row["index"] = index
            row["class_intervals"] = json.dumps(row["class_intervals"])
            writer.writerow(row)
        return buffer.getvalue()

    def frontier_csv(self) -> str:
        """One CSV row per maximal certified ``(n_remove, n_flip)`` pair.

        Only meaningful for reports produced by a composite Pareto sweep
        (``frontiers`` is set); a point whose frontier is empty — not even
        ``(0, 0)`` was certified — contributes a single row with blank budget
        columns so the export still covers every requested point.
        """
        if self.frontiers is None:
            raise ValueError(
                "this report has no Pareto frontiers; frontier_csv() only "
                "applies to composite (r, f) sweep reports"
            )
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["index", "n_remove", "n_flip", "probes"])
        for index, entry in enumerate(self.frontiers):
            pairs = entry.get("frontier", [])
            probes = entry.get("probes", "")
            if not pairs:
                writer.writerow([index, "", "", probes])
                continue
            for n_remove, n_flip in pairs:
                writer.writerow([index, n_remove, n_flip, probes])
        return buffer.getvalue()

    # --------------------------------------------------------------- display
    def render(self) -> str:
        """Human-readable summary table (for the CLI and saved artifacts)."""
        counts = self.status_counts
        timing = self.timing_summary
        fraction = self.certified_fraction
        table = TextTable(["metric", "value"])
        table.add_row(["dataset", self.dataset_name or "-"])
        table.add_row(["threat model", self.model_description or "-"])
        table.add_row(["points", self.total])
        table.add_row(["certified", self.certified_count])
        table.add_row(
            ["certified fraction", "n/a (empty)" if fraction is None else f"{fraction:.1%}"]
        )
        for status in VerificationStatus:
            table.add_row([f"status: {status.value}", counts[status.value]])
        if self.results:
            table.add_row(["mean time (s)", f"{timing['mean_seconds']:.3f}"])
            table.add_row(["p50 time (s)", f"{timing['p50_seconds']:.3f}"])
            table.add_row(["p90 time (s)", f"{timing['p90_seconds']:.3f}"])
            table.add_row(["max time (s)", f"{timing['max_seconds']:.3f}"])
        table.add_row(["batch wall-clock (s)", f"{self.total_seconds:.3f}"])
        stats = self.runtime_stats
        if stats is not None:
            hits = int(stats.get("cache_hits", 0)) + int(
                stats.get("cache_monotone_hits", 0)
            )
            misses = int(stats.get("cache_misses", 0))
            restored = int(stats.get("journal_restored", 0))
            hit_rate = stats.get("hit_rate")
            if hits or misses or restored:
                table.add_row(
                    [
                        "cache",
                        f"{hits} hit(s), {misses} miss(es), "
                        f"{restored} journal-restored"
                        + ("" if hit_rate is None else f" ({hit_rate:.1%} served)"),
                    ]
                )
            table.add_row(
                ["learner invocations", int(stats.get("learner_invocations", 0))]
            )
        return table.render()

    def describe(self) -> str:
        fraction = self.certified_fraction
        if fraction is None:
            return "no test points were requested"
        return (
            f"certified {self.certified_count}/{self.total} point(s) "
            f"({fraction:.1%}) against {self.model_description} "
            f"in {self.total_seconds:.2f}s"
        )
