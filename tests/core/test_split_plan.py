"""The split plan: node candidates against per-feature tables, lifetime, sharing."""

import gc
import weakref

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import split_plan
from repro.core.dataset import Dataset, FeatureKind
from repro.core.trace_learner import TraceLearner
from repro.domains.trainingset import AbstractTrainingSet
from repro.verify.transformers import best_split_abstract
from tests.argsort_splitter import feature_split_table


def _reference_rows(dataset, indices):
    """Each feature's candidates, one feature at a time.

    Real and boolean features take the per-feature-argsort split table
    (boolean thresholds stored as ``[τ, τ⁺)``); categorical features get
    one equality row per distinct node value, counted directly.
    """
    X, y = dataset.X[indices], dataset.y[indices]
    k = dataset.n_classes
    rows = []
    for feature, kind in enumerate(dataset.feature_kinds):
        if kind is FeatureKind.CATEGORICAL:
            values = np.unique(X[:, feature])
            if values.size < 2:
                continue
            for value in values:
                mask = X[:, feature] == value
                rows.append(
                    (feature, value, value, mask.sum(), np.bincount(y[mask], minlength=k))
                )
            continue
        table = feature_split_table(X, y, feature, k)
        for i in range(table.n_candidates):
            if kind is FeatureKind.REAL:
                low, high = table.lower_values[i], table.upper_values[i]
            else:
                low = table.thresholds[i]
                high = np.nextafter(low, np.inf)
            rows.append(
                (feature, low, high, table.left_sizes[i], table.left_class_counts[i])
            )
    return rows


@st.composite
def nodes(draw):
    n_rows = draw(st.integers(min_value=1, max_value=14))
    kinds = draw(
        st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=4)
    )
    columns = []
    for kind in kinds:
        high = {FeatureKind.BOOLEAN: 1, FeatureKind.CATEGORICAL: 3}.get(kind, 6)
        columns.append(
            draw(st.lists(st.integers(0, high), min_size=n_rows, max_size=n_rows))
        )
    k = draw(st.integers(min_value=1, max_value=3))
    y = draw(st.lists(st.integers(0, k - 1), min_size=n_rows, max_size=n_rows))
    dataset = Dataset(
        X=np.array(columns, dtype=float).T * 0.5,
        y=np.array(y),
        n_classes=k,
        feature_kinds=tuple(kinds),
    )
    chosen = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    return dataset, np.flatnonzero(chosen)


class TestNodeCandidates:
    @settings(max_examples=150, deadline=None)
    @given(nodes())
    def test_match_per_feature_tables(self, node):
        dataset, indices = node
        rows = split_plan.SplitTablePlan(dataset).node_candidates(indices)
        expected = _reference_rows(dataset, indices)
        features = rows.features(np.arange(rows.low.size))
        assert rows.low.size == len(expected)
        for i, (feature, low, high, size, counts) in enumerate(expected):
            assert features[i] == feature
            assert rows.kinds[feature] == split_plan._ROW_KIND[dataset.feature_kinds[feature]]
            assert rows.low[i] == low and rows.high[i] == high
            assert rows.left_sizes[i] == size
            np.testing.assert_array_equal(rows.left_class_counts[i], counts)
        assert rows.total_size == indices.size
        np.testing.assert_array_equal(
            rows.total_class_counts,
            np.bincount(dataset.y[indices], minlength=dataset.n_classes),
        )


def _two_feature_dataset():
    rng = np.random.default_rng(7)
    X = np.round(rng.normal(size=(40, 2)), 1)
    y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(np.int64)
    return Dataset(X=X, y=y)


def _misses():
    return split_plan._SPLIT_TABLE_CACHE.value(result="miss")


class TestPlanLifetime:
    def test_planned_dataset_dies_with_its_last_reference(self):
        # The plan keeps no reference to its dataset, so no reference cycle
        # holds the pair: plain reference counting frees both.
        dataset = _two_feature_dataset()
        TraceLearner(max_depth=2).run(dataset, dataset.X[0])
        assert dataset.__dict__.get("_split_plan") is not None
        ref = weakref.ref(dataset)
        gc.disable()
        try:
            del dataset
            assert ref() is None
        finally:
            gc.enable()


class TestSharedNodes:
    def test_second_trace_builds_no_node_table(self):
        dataset = _two_feature_dataset()
        learner = TraceLearner(max_depth=3)
        first = learner.run(dataset, dataset.X[3])
        misses = _misses()
        assert learner.run(dataset, dataset.X[3]) == first
        assert _misses() == misses

    def test_box_root_best_split_hits_the_predict_table(self):
        dataset = _two_feature_dataset()
        TraceLearner(max_depth=2).predict(dataset, dataset.X[0])
        misses = _misses()
        hits = split_plan._SPLIT_TABLE_CACHE.value(result="hit")
        best_split_abstract(AbstractTrainingSet.full(dataset, 2))
        assert _misses() == misses
        assert split_plan._SPLIT_TABLE_CACHE.value(result="hit") == hits + 1
