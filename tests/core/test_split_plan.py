"""The split plan's stacked node candidates against per-feature tables."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import split_plan
from repro.core.dataset import Dataset, FeatureKind
from repro.core.splitter import feature_split_table


def _reference_rows(dataset, indices):
    """Each feature's candidates, one feature at a time.

    Real and boolean features take the concrete learner's split table
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
