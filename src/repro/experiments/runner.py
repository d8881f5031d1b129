"""Shared execution helpers for the experiment harnesses.

The harnesses all follow the same pattern: load a benchmark dataset at the
configured scale, pick a deterministic subset of test points, and run the
certification engine over a grid of (depth, domain, poisoning amount)
combinations while collecting per-instance timing and memory measurements.
This module factors that plumbing out of the per-figure modules.

Since the unified-API redesign the grid cells run on
:class:`repro.api.CertificationEngine` (one engine per (depth, domain) cell,
reused across every point, optionally parallel via ``config.n_jobs``) and
aggregate through :class:`repro.api.CertificationReport`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import CertificationEngine, CertificationReport
from repro.datasets.registry import load_dataset
from repro.datasets.splits import DatasetSplit
from repro.experiments.config import ExperimentConfig
from repro.poisoning.models import RemovalPoisoningModel
from repro.runtime import CertificationRuntime
from repro.utils.memory import MemoryTracker
from repro.utils.rng import derive_seed, make_rng
from repro.verify.result import VerificationResult
from repro.verify.robustness import PoisoningVerifier


def load_experiment_split(dataset_name: str, config: ExperimentConfig) -> DatasetSplit:
    """Load one benchmark dataset at the configured scale and seed."""
    return load_dataset(
        dataset_name, scale=config.scale_for(dataset_name), seed=config.seed
    )


def select_test_points(
    split: DatasetSplit, config: ExperimentConfig, dataset_name: str
) -> np.ndarray:
    """Pick the deterministic subset of test points robustness is attempted on.

    Mirrors the paper's protocol of fixing a random subset of the test set
    (footnote 9) — here sized by ``config.n_test_points``.
    """
    count = min(config.n_test_points, len(split.test))
    if count == 0:
        return np.empty((0, split.train.n_features))
    rng = make_rng(derive_seed(config.seed, "test-points", dataset_name))
    chosen = rng.choice(len(split.test), size=count, replace=False)
    return split.test.X[np.sort(chosen)]


#: One runtime (one sqlite connection, one stats accumulator) per cache
#: directory, shared by every grid cell of every experiment in the process.
_RUNTIMES: Dict[str, CertificationRuntime] = {}


def make_runtime(config: ExperimentConfig) -> Optional[CertificationRuntime]:
    """The certification runtime an experiment's engines share.

    Returns ``None`` when the config names no cache directory (engines then
    fall back to the default shared-memory-only behavior for parallel
    batches).
    """
    if config.cache_dir is None:
        return None
    key = str(Path(config.cache_dir).expanduser().resolve())
    runtime = _RUNTIMES.get(key)
    if runtime is None:
        runtime = _RUNTIMES[key] = CertificationRuntime(config.cache_dir)
    return runtime


def make_engine(
    depth: int, domain: str, config: ExperimentConfig
) -> CertificationEngine:
    """Build a certification engine for one grid cell of the experiment."""
    return CertificationEngine(
        max_depth=depth,
        domain=domain,
        cprob_method=config.cprob_method,
        timeout_seconds=config.timeout_seconds,
        max_disjuncts=config.max_disjuncts,
        runtime=make_runtime(config),
    )


def make_verifier(
    depth: int, domain: str, config: ExperimentConfig
) -> PoisoningVerifier:
    """Deprecated: build a legacy verifier for one grid cell.

    Kept for backwards compatibility; new code should use :func:`make_engine`.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return PoisoningVerifier(
            max_depth=depth,
            domain=domain,
            cprob_method=config.cprob_method,
            timeout_seconds=config.timeout_seconds,
            max_disjuncts=config.max_disjuncts,
        )


@dataclass(frozen=True)
class GridCellResult:
    """Aggregated verification results for one (depth, domain, n) grid cell."""

    dataset: str
    domain: str
    depth: int
    poisoning_amount: int
    attempted: int
    verified: int
    timeouts: int
    resource_exhausted: int
    average_seconds: float
    average_peak_memory_bytes: float

    @property
    def fraction_verified(self) -> float:
        return self.verified / self.attempted if self.attempted else 0.0

    @classmethod
    def from_report(
        cls,
        dataset_name: str,
        domain: str,
        depth: int,
        poisoning_amount: int,
        report: CertificationReport,
    ) -> "GridCellResult":
        """Project an engine report onto one grid-cell record."""
        counts = report.status_counts
        return cls(
            dataset=dataset_name,
            domain=domain,
            depth=depth,
            poisoning_amount=poisoning_amount,
            attempted=report.total,
            verified=report.certified_count,
            timeouts=counts["timeout"],
            resource_exhausted=counts["resource_exhausted"],
            average_seconds=report.mean_seconds,
            average_peak_memory_bytes=report.mean_peak_memory_bytes,
        )


def run_grid_cell(
    dataset_name: str,
    split: DatasetSplit,
    test_points: np.ndarray,
    depth: int,
    domain: str,
    poisoning_amount: int,
    config: ExperimentConfig,
) -> Tuple[GridCellResult, List[VerificationResult]]:
    """Verify every selected test point for one (depth, domain, n) cell.

    The batch runs under a :class:`MemoryTracker`, so the engine (and, under
    fork, its pool workers) measures each point's peak memory for the
    figures' memory columns.
    """
    engine = make_engine(depth, domain, config)
    with MemoryTracker():
        report = engine.certify_batch(
            split.train,
            test_points,
            RemovalPoisoningModel(poisoning_amount),
            n_jobs=config.n_jobs,
        )
    cell = GridCellResult.from_report(
        dataset_name, domain, depth, poisoning_amount, report
    )
    return cell, list(report.results)


def summarize_results(
    dataset_name: str,
    domain: str,
    depth: int,
    poisoning_amount: int,
    results: Sequence[VerificationResult],
) -> GridCellResult:
    """Aggregate a list of per-point results into one grid-cell record."""
    report = CertificationReport(results=list(results), dataset_name=dataset_name)
    return GridCellResult.from_report(
        dataset_name, domain, depth, poisoning_amount, report
    )


def incremental_point_filter(
    results_by_point: Dict[int, VerificationResult]
) -> List[int]:
    """Indices of points still certified (the paper's incremental protocol)."""
    return [index for index, result in results_by_point.items() if result.is_certified]
