"""Tests for the Dataset container."""

import dataclasses

import numpy as np
import pytest

from repro.core import dataset as dataset_module
from repro.core.dataset import Dataset, FeatureKind
from repro.utils.validation import ValidationError


def small_dataset() -> Dataset:
    X = np.array([[0.0, 1.0], [1.0, 3.0], [0.0, 5.0], [1.0, 7.0]])
    y = np.array([0, 1, 0, 1])
    return Dataset(X=X, y=y)


class TestConstruction:
    def test_basic_properties(self):
        dataset = small_dataset()
        assert len(dataset) == 4
        assert dataset.n_features == 2
        assert dataset.n_classes == 2
        assert not dataset.is_empty

    def test_defaults_names_and_kinds(self):
        dataset = small_dataset()
        assert dataset.feature_names == ("x0", "x1")
        assert dataset.class_names == ("class_0", "class_1")
        assert all(kind is FeatureKind.REAL for kind in dataset.feature_kinds)

    def test_arrays_are_read_only(self):
        dataset = small_dataset()
        with pytest.raises(ValueError):
            dataset.X[0, 0] = 99.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            Dataset(X=np.zeros((3, 2)), y=np.zeros(4, dtype=int))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValidationError):
            Dataset(X=np.zeros((2, 1)), y=np.array([0, 5]), n_classes=2)

    def test_rejects_1d_features(self):
        with pytest.raises(ValidationError):
            Dataset(X=np.zeros(3), y=np.zeros(3, dtype=int))

    def test_rejects_wrong_kind_count(self):
        with pytest.raises(ValidationError):
            Dataset(
                X=np.zeros((2, 2)),
                y=np.array([0, 1]),
                feature_kinds=(FeatureKind.REAL,),
            )

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
    def test_rejects_non_boolean_value_in_boolean_column(self, value):
        X = np.array([[0.0, 0.5], [1.0, 2.0], [value, 3.0]])
        with pytest.raises(ValidationError, match="boolean feature 0"):
            Dataset(
                X=X,
                y=np.array([0, 1, 0]),
                feature_kinds=(FeatureKind.BOOLEAN, FeatureKind.REAL),
            )

    def test_boolean_column_accepts_negative_zero(self):
        X = np.array([[-0.0, 0.5], [1.0, 2.0], [0.0, 3.0]])
        dataset = Dataset(
            X=X, y=np.array([0, 1, 0]), feature_kinds=(FeatureKind.BOOLEAN, FeatureKind.REAL)
        )
        assert dataset.feature_kinds[0] is FeatureKind.BOOLEAN

    def test_copy_of_a_checked_dataset_does_not_rescan(self, monkeypatch):
        X = np.array([[0.0, 0.5], [1.0, 2.0], [-0.0, 3.0]])
        kinds = (FeatureKind.BOOLEAN, FeatureKind.REAL)
        dataset = Dataset(X=X, y=np.array([0, 1, 0]), feature_kinds=kinds)

        def scan(*args):
            raise AssertionError("a checked read-only matrix was scanned again")

        monkeypatch.setattr(dataset_module, "_scan_boolean_columns", scan)
        assert dataclasses.replace(dataset, name="copy").X is dataset.X
        assert dataset.replace(class_names=("a", "b")).X is dataset.X
        # Other boolean columns are another check.
        with pytest.raises(AssertionError, match="scanned again"):
            dataset.replace(feature_kinds=(FeatureKind.BOOLEAN, FeatureKind.BOOLEAN))

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
    def test_fresh_matrix_is_checked_after_a_checked_copy(self, value):
        X = np.array([[0.0, 0.5], [1.0, 2.0], [0.0, 3.0]])
        kinds = (FeatureKind.BOOLEAN, FeatureKind.REAL)
        dataset = Dataset(X=X, y=np.array([0, 1, 0]), feature_kinds=kinds)
        dataset.replace(name="copy")
        bad = dataset.X.copy()
        bad[2, 0] = value
        with pytest.raises(ValidationError, match="boolean feature 0"):
            dataset.replace(X=bad)
        # The real column of a checked matrix does not pass as boolean.
        with pytest.raises(ValidationError, match="boolean feature 1"):
            dataset.replace(feature_kinds=(FeatureKind.BOOLEAN, FeatureKind.BOOLEAN))

    def test_real_column_may_hold_any_value(self):
        # Only the boolean columns are checked.
        X = np.array([[0.0, 0.5], [1.0, 2.0]])
        Dataset(
            X=X, y=np.array([0, 1]), feature_kinds=(FeatureKind.BOOLEAN, FeatureKind.REAL)
        )


class TestStatistics:
    def test_class_counts(self):
        dataset = small_dataset()
        assert dataset.class_counts().tolist() == [2, 2]

    def test_class_probabilities(self):
        dataset = small_dataset()
        assert np.allclose(dataset.class_probabilities(), [0.5, 0.5])

    def test_majority_class_tie_breaks_low(self):
        dataset = small_dataset()
        assert dataset.majority_class() == 0

    def test_feature_values_sorted_unique(self):
        dataset = small_dataset()
        assert dataset.feature_values(0).tolist() == [0.0, 1.0]
        assert dataset.feature_values(1).tolist() == [1.0, 3.0, 5.0, 7.0]

    def test_empty_probabilities_uniform(self):
        dataset = small_dataset().subset([])
        assert np.allclose(dataset.class_probabilities(), [0.5, 0.5])


class TestSubsetting:
    def test_subset_by_indices(self):
        subset = small_dataset().subset([0, 2])
        assert len(subset) == 2
        assert subset.y.tolist() == [0, 0]

    def test_subset_mask(self):
        dataset = small_dataset()
        subset = dataset.subset_mask(dataset.X[:, 0] == 1.0)
        assert subset.y.tolist() == [1, 1]

    def test_subset_mask_wrong_shape(self):
        with pytest.raises(ValidationError):
            small_dataset().subset_mask(np.ones(3, dtype=bool))

    def test_remove(self):
        reduced = small_dataset().remove([1, 3])
        assert reduced.y.tolist() == [0, 0]

    def test_append(self):
        extended = small_dataset().append(np.array([0.5, 0.5]), np.array([1]))
        assert len(extended) == 5
        assert extended.y[-1] == 1

    def test_append_wrong_width(self):
        with pytest.raises(ValidationError):
            small_dataset().append(np.zeros((1, 3)), np.array([0]))


class TestFactoriesAndReplace:
    def test_from_arrays_infers_boolean(self):
        X = np.array([[0.0, 2.5], [1.0, 3.5]])
        dataset = Dataset.from_arrays(X, [0, 1])
        assert dataset.feature_kinds[0] is FeatureKind.BOOLEAN
        assert dataset.feature_kinds[1] is FeatureKind.REAL

    def test_replace_name(self):
        dataset = small_dataset().replace(name="renamed")
        assert dataset.name == "renamed"

    def test_summary_mentions_size(self):
        assert "4 samples" in small_dataset().summary()
