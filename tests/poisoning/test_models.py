"""Tests for the poisoning threat models."""

import math

import pytest

from repro.poisoning.models import (
    CompositePoisoningModel,
    FractionalRemovalModel,
    LabelFlipModel,
    RemovalPoisoningModel,
    resolve_model_classes,
)


class TestRemovalPoisoningModel:
    def test_neighborhood_count_matches_paper_formula(self):
        # §2: 92 datasets for |T| = 13 and n = 2.
        model = RemovalPoisoningModel(2)
        assert model.num_neighbors(13) == 92

    def test_budget_clamped_to_training_size(self):
        assert RemovalPoisoningModel(10).resolve_budget(4) == 4

    def test_log10_matches_paper_magnitudes(self):
        # §4.1: for MNIST-1-7 (|T| = 13007) and n = 50, |Δn(T)| ≈ 10^141.
        model = RemovalPoisoningModel(50)
        assert model.log10_num_neighbors(13007) == pytest.approx(141, abs=1.5)

    def test_headline_example_magnitude(self):
        # §2 / §6.2: n = 192 gives ~10^432 and n = 64 gives ~10^174 datasets.
        assert RemovalPoisoningModel(192).log10_num_neighbors(13007) == pytest.approx(
            432, abs=3
        )
        assert RemovalPoisoningModel(64).log10_num_neighbors(13007) == pytest.approx(
            174, abs=2
        )

    def test_zero_budget(self):
        model = RemovalPoisoningModel(0)
        assert model.num_neighbors(100) == 1
        assert model.log10_num_neighbors(100) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(Exception):
            RemovalPoisoningModel(-1)

    def test_describe(self):
        assert "up to 5" in RemovalPoisoningModel(5).describe()


class TestFractionalRemovalModel:
    def test_budget_resolution(self):
        model = FractionalRemovalModel(0.01)
        assert model.resolve_budget(13007) == 130

    def test_counts_match_equivalent_removal_model(self):
        fractional = FractionalRemovalModel(0.1)
        fixed = RemovalPoisoningModel(fractional.resolve_budget(50))
        assert fractional.num_neighbors(50) == fixed.num_neighbors(50)

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(Exception):
            FractionalRemovalModel(1.5)

    def test_describe_mentions_percentage(self):
        assert "%" in FractionalRemovalModel(0.05).describe()


class TestLabelFlipModel:
    def test_binary_counts(self):
        model = LabelFlipModel(2, n_classes=2)
        expected = 1 + math.comb(5, 1) + math.comb(5, 2)
        assert model.num_neighbors(5) == expected

    def test_multiclass_counts_scale_with_alternatives(self):
        binary = LabelFlipModel(1, n_classes=2)
        ternary = LabelFlipModel(1, n_classes=3)
        assert ternary.num_neighbors(5) > binary.num_neighbors(5)

    def test_describe(self):
        assert "flip" in LabelFlipModel(3).describe()

    def test_unresolved_classes_refuse_to_count(self):
        """A default-constructed model must not silently assume binary labels."""
        with pytest.raises(ValueError, match="n_classes"):
            LabelFlipModel(2).num_neighbors(5)
        with pytest.raises(ValueError, match="n_classes"):
            LabelFlipModel(2).resolved_classes


class TestCompositePoisoningModel:
    def test_pure_removal_degenerates_to_removal_counts(self):
        composite = CompositePoisoningModel(2, 0, n_classes=3)
        assert composite.num_neighbors(6) == RemovalPoisoningModel(2).num_neighbors(6)

    def test_pure_flip_degenerates_to_flip_counts(self):
        composite = CompositePoisoningModel(0, 2, n_classes=3)
        assert composite.num_neighbors(6) == LabelFlipModel(
            2, n_classes=3
        ).num_neighbors(6)

    def test_mixed_counts_match_enumeration(self):
        import numpy as np

        from repro.core.dataset import Dataset
        from repro.poisoning.label_flip import enumerate_composite_poisonings

        dataset = Dataset(
            X=np.arange(4, dtype=float).reshape(-1, 1),
            y=np.array([0, 1, 2, 0]),
            n_classes=3,
        )
        model = CompositePoisoningModel(1, 1, n_classes=3)
        enumerated = sum(1 for _ in enumerate_composite_poisonings(dataset, 1, 1))
        assert model.num_neighbors(len(dataset)) == enumerated

    def test_budgets_resolve_against_training_size(self):
        model = CompositePoisoningModel(10, 7, n_classes=2)
        assert model.resolve_budgets(4) == (4, 4)
        assert model.nominal_amount(4) == 17

    def test_nominal_amount_is_total_contamination(self):
        assert CompositePoisoningModel(2, 3).nominal_amount(100) == 5

    def test_describe_mentions_both_budgets(self):
        description = CompositePoisoningModel(2, 3).describe()
        assert "2" in description and "3" in description
        assert "remov" in description and "flip" in description

    def test_rejects_negative_budgets(self):
        with pytest.raises(Exception):
            CompositePoisoningModel(-1, 0)
        with pytest.raises(Exception):
            CompositePoisoningModel(0, -1)

    def test_unresolved_classes_refuse_to_count(self):
        with pytest.raises(ValueError, match="n_classes"):
            CompositePoisoningModel(1, 1).num_neighbors(5)


class TestModelClassResolution:
    def test_fills_unset_classes_from_dataset(self):
        resolved = resolve_model_classes(LabelFlipModel(2), 3)
        assert resolved.n_classes == 3
        resolved = resolve_model_classes(CompositePoisoningModel(1, 1), 4)
        assert resolved.n_classes == 4

    def test_matching_declaration_passes_through(self):
        model = LabelFlipModel(2, n_classes=3)
        assert resolve_model_classes(model, 3) is model

    def test_contradicting_declaration_rejected(self):
        with pytest.raises(ValueError, match="n_classes=2 .* 3 classes"):
            resolve_model_classes(LabelFlipModel(2, n_classes=2), 3)
        with pytest.raises(ValueError, match="n_classes=4 .* 2 classes"):
            resolve_model_classes(CompositePoisoningModel(1, 1, n_classes=4), 2)

    def test_class_free_models_untouched(self):
        model = RemovalPoisoningModel(5)
        assert resolve_model_classes(model, 7) is model


def _comb_sum(size, budget, alternatives=1):
    """``Σ_{i ≤ budget} C(size, i) · alternatives^i`` with a ``math.comb`` per term."""
    return sum(math.comb(size, i) * alternatives**i for i in range(budget + 1))


#: (|T|, budget) pairs: a zero budget, budgets below, at and past |T|, and
#: Table 1's size.
_SIZES_AND_BUDGETS = [(0, 0), (1, 3), (5, 0), (5, 2), (5, 5), (5, 9), (40, 17), (13007, 64)]


class TestNeighborCountsMatchComb:
    """The exact counts equal the ``math.comb`` sums they are built from."""

    @pytest.mark.parametrize("size, budget", _SIZES_AND_BUDGETS)
    def test_removal(self, size, budget):
        assert RemovalPoisoningModel(budget).num_neighbors(size) == _comb_sum(
            size, min(budget, size)
        )

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("size, budget", _SIZES_AND_BUDGETS)
    def test_flip(self, size, budget, k):
        model = LabelFlipModel(budget, n_classes=k)
        assert model.num_neighbors(size) == _comb_sum(size, min(budget, size), k - 1)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize(
        "size, removals, flips",
        [(0, 0, 0), (4, 0, 3), (4, 2, 0), (6, 2, 3), (6, 6, 6), (6, 9, 1), (300, 4, 3)],
    )
    def test_composite(self, size, removals, flips, k):
        model = CompositePoisoningModel(removals, flips, n_classes=k)
        removals, flips = min(removals, size), min(flips, size)
        expected = sum(
            math.comb(size, removed)
            * _comb_sum(size - removed, min(flips, size - removed), k - 1)
            for removed in range(removals + 1)
        )
        assert model.num_neighbors(size) == expected
