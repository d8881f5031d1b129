"""Shared fixtures and helpers for the test suite.

The most important helper is :func:`random_small_dataset`, the generator of
tiny labelled datasets used by the soundness property tests: they are small
enough that the naïve enumeration oracle can exhaustively check every
concretization of ``⟨T, n⟩``.
"""

from __future__ import annotations

import contextlib
import warnings
from typing import Iterator, Optional, Tuple

import numpy as np
import pytest

from repro.core import split_plan
from repro.core.dataset import Dataset, FeatureKind
from repro.core.predicates import (
    EqualityPredicate,
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.datasets.toy import figure2_dataset, tiny_boolean_dataset


pytest_plugins = ("pytester",)


def pytest_configure(config: pytest.Config) -> None:
    # Any DeprecationWarning fails the suite, so no deprecated path comes back.
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")
    # Except one third-party import: Hypothesis's report of a falsifying
    # example imports its patching helpers, whose dependency libcst uses a
    # deprecated TypedDict.  Imported then, under that error filter, it would
    # crash the session instead of reporting the example.  Hypothesis skips
    # the helpers when libcst is not installed.
    with warnings.catch_warnings(), contextlib.suppress(ImportError):
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401


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


def mixed_dataset(rng: np.random.Generator) -> Dataset:
    """A small dataset mixing REAL, BOOLEAN and CATEGORICAL columns."""
    n_samples = int(rng.integers(6, 13))
    kinds = tuple(
        rng.choice([FeatureKind.REAL, FeatureKind.BOOLEAN, FeatureKind.CATEGORICAL])
        for _ in range(int(rng.integers(1, 4)))
    )
    columns = []
    for kind in kinds:
        if kind is FeatureKind.BOOLEAN:
            columns.append(rng.integers(0, 2, size=n_samples))
        elif kind is FeatureKind.CATEGORICAL:
            columns.append(rng.integers(0, 3, size=n_samples))
        else:
            columns.append(rng.integers(0, 5, size=n_samples) * 0.5)
    n_classes = int(rng.integers(2, 4))
    y = rng.integers(0, n_classes, size=n_samples)
    y[0], y[1] = 0, 1
    return Dataset(
        X=np.column_stack(columns).astype(float),
        y=y,
        n_classes=n_classes,
        feature_kinds=kinds,
    )


def mixed_test_point(rng: np.random.Generator, dataset: Dataset) -> list:
    """A point for :func:`mixed_dataset`; real values fall between the
    observed ones too, so symbolic splits are *maybe*."""
    point = []
    for kind in dataset.feature_kinds:
        if kind is FeatureKind.REAL:
            point.append(float(rng.integers(0, 9)) * 0.25)
        else:
            values = 3 if kind is FeatureKind.CATEGORICAL else 2
            point.append(float(rng.integers(0, values)))
    return point


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


def row_predicates(candidates) -> Tuple[Predicate, ...]:
    """The rows of a ``bestSplit#`` result as predicate objects, in row order.

    The inverse of :func:`repro.core.split_plan.predicate_row`, for checks
    against the concrete learner and the predicate-level oracles.
    """
    predicates = []
    for feature, low, high, kind in zip(
        candidates.feature.tolist(),
        candidates.low.tolist(),
        candidates.high.tolist(),
        candidates.kind.tolist(),
    ):
        if kind == split_plan.SYMBOLIC_ROW:
            predicates.append(SymbolicThresholdPredicate(feature, low, high))
        elif kind == split_plan.THRESHOLD_ROW:
            predicates.append(ThresholdPredicate(feature, low))
        else:
            predicates.append(EqualityPredicate(feature, low))
    return tuple(predicates)


#: Block sizes that cut the small test tables into several row blocks.
SMALL_BLOCKS = (1, 3, 7)


@contextlib.contextmanager
def block_rows(rows: int) -> Iterator[None]:
    """Run the node-table kernels with ``rows`` rows per block, build plans
    and tables in feature blocks of ``32 * rows`` cells, score the rows of a
    feature block in sub-blocks of ``8 * rows`` rows, and screen the
    ``bestSplit#`` tables of more than ``rows // 4`` rows (the defaults'
    ratio)."""
    from repro.verify import transformers

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(split_plan, "_BLOCK_ROWS", rows)
        patch.setattr(split_plan, "_FEATURE_BLOCK_CELLS", 32 * rows)
        patch.setattr(split_plan, "_SCORE_ROWS", 8 * rows)
        patch.setattr(transformers, "_SCREEN_ROWS", rows // 4)
        yield


def force_pool(monkeypatch: pytest.MonkeyPatch, head: int = 0) -> None:
    """Make the engine start its pool once the parent has certified ``head``
    rows, whatever they cost (the real gate declines tiny test batches)."""
    import repro.api.engine as engine_module

    monkeypatch.setattr(
        engine_module,
        "_pool_pays",
        lambda walls, remaining, n_jobs, startup=0.0: (
            remaining > 0 and len(walls) >= head
        ),
    )
