"""Shared configuration for the benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure of the paper's
evaluation (§6; the README's Development section shows how to run one) at a
scale small enough to run often, and writes the rendered artifact under
``benchmarks/results/`` so the numbers can be re-derived at any time.  The
speed of the reproduction is measured by ``certbench/``, not here.

Scale note: dataset sizes, depths, and poisoning grids here are deliberately
reduced relative to §6 of the paper (this is a pure-Python reproduction).
``repro.experiments.config.paper_scale_config`` documents the full-scale
parameters for users willing to spend the compute.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig


def bench_config(**overrides) -> ExperimentConfig:
    """The shared reduced-scale configuration used by the benchmark modules."""
    config = ExperimentConfig(
        seed=0,
        depths=(1, 2),
        n_test_points=5,
        domains=("box", "disjuncts"),
        poisoning_amounts={
            "iris": (1, 2, 4, 8),
            "mammography": (1, 4, 16, 64),
            "wdbc": (1, 4, 16, 64),
            "mnist17-binary": (1, 8, 64),
            "mnist17-real": (1, 8),
        },
        dataset_scales={
            "iris": 1.0,
            "mammography": 1.0,
            "wdbc": 0.6,
            "mnist17-binary": 0.05,
            "mnist17-real": 0.02,
        },
        timeout_seconds=15.0,
        max_disjuncts=2048,
    )
    return config.with_overrides(**overrides) if overrides else config


@pytest.fixture(scope="session")
def experiment_config() -> ExperimentConfig:
    return bench_config()
