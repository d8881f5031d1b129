"""Tests for the Figures 7-11 performance harness."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.perf_figures import (
    FIGURE_FOR_DATASET,
    compute_performance_figure,
    render_performance_figure,
)


def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        seed=3,
        depths=(1,),
        n_test_points=2,
        domains=("box", "disjuncts"),
        poisoning_amounts={"mnist17-binary": (1, 4)},
        dataset_scales={"mnist17-binary": 0.02},
        timeout_seconds=20.0,
    )


class TestComputePerformanceFigure:
    def test_every_dataset_has_a_figure_number(self):
        from repro.datasets.registry import list_datasets

        assert set(FIGURE_FOR_DATASET) == set(list_datasets())

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_grid_structure(self, n_jobs):
        config = tiny_config().with_overrides(n_jobs=n_jobs)
        points = compute_performance_figure("mnist17-binary", config)
        domains = {point.domain for point in points}
        assert domains == {"box", "disjuncts"}
        for point in points:
            assert point.dataset == "mnist17-binary"
            assert point.depth == 1
            assert point.attempted == 2
            assert 0 <= point.verified <= point.attempted
            assert point.average_seconds >= 0.0
            # The memory column is measured serially and on the pool alike.
            assert point.average_peak_memory_mb > 0.0

    def test_incremental_truncation(self):
        config = tiny_config().with_overrides(
            poisoning_amounts={"mnist17-binary": (1, 2, 4)}
        )
        full = compute_performance_figure(
            "mnist17-binary", config, incremental=False
        )
        truncated = compute_performance_figure(
            "mnist17-binary", config, incremental=True
        )
        assert len(truncated) <= len(full)

    def test_render(self):
        points = compute_performance_figure("mnist17-binary", tiny_config())
        text = render_performance_figure(points)
        assert "Figure 7" in text
        assert "avg time (s)" in text

    def test_render_empty(self):
        assert "performance figure" in render_performance_figure([])
