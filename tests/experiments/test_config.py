"""Tests for the experiment configuration."""

from repro.experiments.config import (
    DEFAULT_POISONING_AMOUNTS,
    ExperimentConfig,
    paper_scale_config,
    quick_config,
)


class TestExperimentConfig:
    def test_amounts_fall_back_to_paper_axes(self):
        config = ExperimentConfig()
        assert config.amounts_for("iris") == DEFAULT_POISONING_AMOUNTS["iris"]
        assert config.amounts_for("unknown-dataset") == (1, 2, 4, 8)

    def test_scale_default_is_registry(self):
        assert ExperimentConfig().scale_for("iris") is None

    def test_with_overrides(self):
        config = ExperimentConfig().with_overrides(depths=(3,), n_test_points=2)
        assert config.depths == (3,)
        assert config.n_test_points == 2

    def test_quick_config_is_small(self):
        config = quick_config()
        assert config.n_test_points <= 10
        assert all(scale <= 1.0 for scale in config.dataset_scales.values())
        assert config.timeout_seconds is not None

    def test_paper_scale_config_matches_paper_parameters(self):
        config = paper_scale_config()
        assert config.depths == (1, 2, 3, 4)
        assert config.n_test_points == 100
        assert config.timeout_seconds == 3600.0
        assert config.dataset_scales["mnist17-binary"] == 1.0
        assert config.amounts_for("mnist17-binary")[-1] == 512

    def test_default_amounts_cover_all_benchmarks(self):
        from repro.datasets.registry import list_datasets

        assert set(DEFAULT_POISONING_AMOUNTS) == set(list_datasets())
