"""Experiment configuration shared by the table/figure harnesses.

The paper's evaluation (§6.1) fixes: tree depths 1–4, a doubling protocol over
the poisoning amount ``n``, a one-hour timeout per instance, and 100 test
points for the MNIST variants (the full test set for the UCI datasets).  The
:class:`ExperimentConfig` defaults are deliberately much smaller so that the
benchmark suite completes in minutes on a laptop; :func:`paper_scale_config`
returns a configuration that mirrors the paper's parameters for users who
want to spend the compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

#: Poisoning amounts forming the x-axes of the paper's figures (Figure 6–11).
DEFAULT_POISONING_AMOUNTS: Dict[str, Tuple[int, ...]] = {
    "iris": (1, 2, 4, 8),
    "mammography": (1, 2, 4, 8, 16, 32, 64),
    "wdbc": (1, 2, 4, 8, 16, 32, 64),
    "mnist17-binary": (1, 8, 64, 512),
    "mnist17-real": (1, 8, 64, 512),
}

#: The tree depths evaluated throughout the paper.
PAPER_DEPTHS: Tuple[int, ...] = (1, 2, 3, 4)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters controlling the experiment harnesses.

    Attributes
    ----------
    seed:
        Master seed for dataset generation and test-point subsampling.
    depths:
        Decision-tree depths to evaluate (the paper uses 1–4).
    n_test_points:
        Number of test points per dataset on which robustness is attempted
        (the paper uses the full UCI test sets and 100 MNIST digits).
    domains:
        Abstract domains to run; the headline Figure 6 counts a point as
        verified if *either* domain succeeds.
    poisoning_amounts:
        Per-dataset grid of ``n`` values; defaults to the paper's axes.
    dataset_scales:
        Per-dataset generation scale overrides (``None`` entries fall back to
        the registry defaults; the value 1.0 is paper size).
    timeout_seconds:
        Per-instance wall-clock budget (the paper uses 3600 s).
    max_disjuncts:
        Resource limit of the disjunctive learner (stands in for the paper's
        memory limit).
    cprob_method:
        ``"optimal"`` (paper implementation) or ``"box"``.
    n_jobs:
        Worker processes per grid-cell batch (1 = serial); forwarded to
        :meth:`repro.api.CertificationEngine.certify_batch`.
    cache_dir:
        Optional persistent certification-cache directory.  When set, every
        grid cell runs through a :class:`~repro.runtime.CertificationRuntime`
        against it, so re-running an experiment (or running a different
        experiment that overlaps it) answers repeated queries from disk
        instead of re-running the learners.
    """

    seed: int = 0
    depths: Tuple[int, ...] = (1, 2)
    n_test_points: int = 8
    domains: Tuple[str, ...] = ("box", "disjuncts")
    poisoning_amounts: Mapping[str, Tuple[int, ...]] = field(
        default_factory=lambda: dict(DEFAULT_POISONING_AMOUNTS)
    )
    dataset_scales: Mapping[str, Optional[float]] = field(default_factory=dict)
    timeout_seconds: Optional[float] = 30.0
    max_disjuncts: int = 4096
    cprob_method: str = "optimal"
    n_jobs: int = 1
    cache_dir: Optional[str] = None

    def amounts_for(self, dataset_name: str) -> Tuple[int, ...]:
        """Poisoning grid for one dataset (falls back to a generic grid)."""
        return tuple(self.poisoning_amounts.get(dataset_name, (1, 2, 4, 8)))

    def scale_for(self, dataset_name: str) -> Optional[float]:
        """Dataset generation scale (``None`` means the registry default)."""
        return self.dataset_scales.get(dataset_name)

    def with_overrides(self, **changes: object) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


def quick_config(seed: int = 0) -> ExperimentConfig:
    """A configuration sized for the benchmark suite (minutes, not hours)."""
    return ExperimentConfig(
        seed=seed,
        depths=(1, 2),
        n_test_points=6,
        poisoning_amounts={
            "iris": (1, 2, 4),
            "mammography": (1, 4, 16),
            "wdbc": (1, 4, 16),
            "mnist17-binary": (1, 8, 64),
            "mnist17-real": (1, 8, 64),
        },
        dataset_scales={
            "iris": 0.6,
            "mammography": 0.3,
            "wdbc": 0.3,
            "mnist17-binary": 0.05,
            "mnist17-real": 0.02,
        },
        timeout_seconds=20.0,
        max_disjuncts=2048,
    )


def paper_scale_config(seed: int = 0) -> ExperimentConfig:
    """A configuration mirroring the paper's evaluation parameters.

    Warning: with the pure-Python learners this takes many hours; it exists to
    document exactly which knobs must be turned to reproduce §6 at full scale.
    """
    return ExperimentConfig(
        seed=seed,
        depths=PAPER_DEPTHS,
        n_test_points=100,
        poisoning_amounts=dict(DEFAULT_POISONING_AMOUNTS),
        dataset_scales={
            "iris": 1.0,
            "mammography": 1.0,
            "wdbc": 1.0,
            "mnist17-binary": 1.0,
            "mnist17-real": 1.0,
        },
        timeout_seconds=3600.0,
        max_disjuncts=1_000_000,
    )
