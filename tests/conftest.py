"""Shared fixtures and helpers for the test suite.

The most important helper is :func:`random_small_dataset`, the generator of
tiny labelled datasets used by the soundness property tests: they are small
enough that the naïve enumeration oracle can exhaustively check every
concretization of ``⟨T, n⟩``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from repro.core.dataset import Dataset, FeatureKind
from repro.datasets.toy import figure2_dataset, tiny_boolean_dataset


def pytest_configure(config: pytest.Config) -> None:
    # Any DeprecationWarning fails the suite, so no deprecated path comes back.
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")


@pytest.fixture
def figure2() -> Dataset:
    """The 13-element black/white dataset of Figure 2 of the paper."""
    return figure2_dataset()


@pytest.fixture
def tiny_boolean() -> Dataset:
    """An 8-element two-feature boolean dataset."""
    return tiny_boolean_dataset()


def random_small_dataset(
    rng: np.random.Generator,
    *,
    n_samples: Optional[int] = None,
    n_features: Optional[int] = None,
    n_classes: int = 2,
    boolean: Optional[bool] = None,
) -> Dataset:
    """Generate a small random dataset suitable for exhaustive enumeration."""
    if n_samples is None:
        n_samples = int(rng.integers(6, 12))
    if n_features is None:
        n_features = int(rng.integers(1, 4))
    if boolean is None:
        boolean = bool(rng.integers(0, 2))
    if boolean:
        X = rng.integers(0, 2, size=(n_samples, n_features)).astype(float)
        kinds = tuple(FeatureKind.BOOLEAN for _ in range(n_features))
    else:
        X = np.round(rng.normal(0.0, 2.0, size=(n_samples, n_features)), 1)
        kinds = tuple(FeatureKind.REAL for _ in range(n_features))
    y = rng.integers(0, n_classes, size=n_samples).astype(np.int64)
    # Guarantee at least two classes are present so splits are meaningful.
    if np.unique(y).size < 2 and n_samples >= 2:
        y[0], y[1] = 0, 1
    return Dataset(X=X, y=y, n_classes=n_classes, feature_kinds=kinds, name="random-small")


def well_separated_dataset(per_class: int = 20) -> Dataset:
    """A 1-D two-cluster dataset with a wide margin between the classes.

    Class 0 occupies values around 0, class 1 values around 10.  The large
    margin makes robustness certification succeed even for non-trivial
    poisoning budgets, which the positive certification tests rely on.
    """
    low = np.linspace(0.0, 1.9, per_class)
    high = np.linspace(10.0, 11.9, per_class)
    X = np.concatenate([low, high]).reshape(-1, 1)
    y = np.concatenate([np.zeros(per_class), np.ones(per_class)]).astype(np.int64)
    return Dataset(X=X, y=y, n_classes=2, name="well-separated")


def random_test_point(rng: np.random.Generator, dataset: Dataset) -> np.ndarray:
    """Sample a test point compatible with the dataset's feature kinds."""
    point = np.empty(dataset.n_features)
    for j, kind in enumerate(dataset.feature_kinds):
        if kind is FeatureKind.BOOLEAN:
            point[j] = float(rng.integers(0, 2))
        else:
            point[j] = float(np.round(rng.normal(0.0, 2.0), 1))
    return point
