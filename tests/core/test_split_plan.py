"""The split plan: node candidates against per-feature tables, candidate rows
and their sides, lifetime, sharing."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import split_plan
from repro.core.dataset import Dataset, FeatureKind
from repro.core.predicates import (
    EqualityPredicate,
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.core.splitter import best_split
from repro.core.trace_learner import TraceLearner
from repro.datasets.registry import load_dataset
from repro.domains.trainingset import AbstractTrainingSet
from repro.verify.transformers import best_split_abstract
from tests.argsort_splitter import feature_split_table
from tests.conftest import SMALL_BLOCKS, block_rows


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
        if kind is FeatureKind.BOOLEAN:
            values = st.sampled_from([0.0, -0.0, 1.0])
        else:
            high = 3 if kind is FeatureKind.CATEGORICAL else 6
            values = st.integers(0, high).map(lambda value: value * 0.5)
        columns.append(draw(st.lists(values, min_size=n_rows, max_size=n_rows)))
    k = draw(st.integers(min_value=1, max_value=3))
    y = draw(st.lists(st.integers(0, k - 1), min_size=n_rows, max_size=n_rows))
    dataset = Dataset(
        X=np.array(columns, dtype=float).T,
        y=np.array(y),
        n_classes=k,
        feature_kinds=tuple(kinds),
    )
    chosen = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    return dataset, np.flatnonzero(chosen)


@st.composite
def mixed_nodes(draw):
    """A node of a mixed dataset: REAL columns of few levels mixing ``-0.0``
    and ``+0.0``, BOOLEAN columns holding ``-0.0``, CATEGORICAL codes,
    repeated rows, k = 2–5, and a node of any size from empty to all rows."""
    k = draw(st.integers(min_value=2, max_value=5))
    kinds = draw(st.lists(st.sampled_from(list(FeatureKind)), min_size=1, max_size=5))
    levels = {
        FeatureKind.REAL: st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 2.0]),
        FeatureKind.BOOLEAN: st.sampled_from([0.0, -0.0, 1.0]),
        FeatureKind.CATEGORICAL: st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    }
    row = st.tuples(*(levels[kind] for kind in kinds), st.integers(0, k - 1))
    distinct = draw(st.lists(row, min_size=1, max_size=8))
    # Every row is one of a few distinct ones: duplicate rows and ties.
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=20))
    rows = [distinct[i] for i in picks]
    dataset = Dataset(
        X=np.array([r[:-1] for r in rows], dtype=float),
        y=np.array([r[-1] for r in rows]),
        n_classes=k,
        feature_kinds=tuple(kinds),
    )
    size = draw(st.sampled_from(["empty", "one", "subset", "all"]))
    if size == "empty":
        indices = np.empty(0, dtype=np.int64)
    elif size == "one":
        indices = np.array([draw(st.integers(0, len(rows) - 1))], dtype=np.int64)
    elif size == "subset":
        chosen = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        indices = np.flatnonzero(chosen)
    else:
        indices = np.arange(len(rows), dtype=np.int64)
    return dataset, indices


@st.composite
def tied_nodes(draw):
    """A node of a dataset whose columns come twice: drawn columns (REAL
    alone, or REAL, BOOLEAN and CATEGORICAL; some constant), then the same
    columns again, so every least score of the node's table ties between a
    feature and its copy.  Also how many features a feature block holds, at
    most the drawn ones: a feature and its copy fall in two blocks."""
    k = draw(st.integers(min_value=2, max_value=4))
    n_rows = draw(st.integers(min_value=2, max_value=30))
    kinds_of = draw(st.sampled_from([[FeatureKind.REAL], list(FeatureKind)]))
    kinds = draw(st.lists(st.sampled_from(kinds_of), min_size=1, max_size=3))
    highest = {FeatureKind.REAL: 6, FeatureKind.BOOLEAN: 1, FeatureKind.CATEGORICAL: 3}
    columns = []
    for kind in kinds:
        values = st.integers(0, highest[kind])
        if draw(st.booleans()):  # constant: no boundary row, maybe an empty block
            columns.append([draw(values)] * n_rows)
        else:
            columns.append(draw(st.lists(values, min_size=n_rows, max_size=n_rows)))
    y = draw(st.lists(st.integers(0, k - 1), min_size=n_rows, max_size=n_rows))
    dataset = Dataset(
        X=np.array(columns * 2, dtype=float).T,
        y=np.array(y),
        n_classes=k,
        feature_kinds=tuple(kinds) * 2,
    )
    chosen = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    per_block = draw(st.integers(min_value=1, max_value=len(kinds)))
    return dataset, np.flatnonzero(chosen), per_block


def _assert_matches_reference(dataset, indices, rows):
    expected = _reference_rows(dataset, indices)
    assert rows.low.size == len(expected)
    np.testing.assert_array_equal(
        rows.kinds,
        [split_plan._ROW_KIND[kind] for kind in dataset.feature_kinds],
    )
    if expected:
        features, low, high, sizes, counts = (np.array(c) for c in zip(*expected))
        np.testing.assert_array_equal(rows.features(np.arange(rows.low.size)), features)
        np.testing.assert_array_equal(rows.low, low)
        np.testing.assert_array_equal(rows.high, high)
        np.testing.assert_array_equal(rows.left_sizes, sizes)
        np.testing.assert_array_equal(rows.left_class_counts, counts)
    assert rows.total_size == indices.size
    np.testing.assert_array_equal(
        rows.total_class_counts,
        np.bincount(dataset.y[indices], minlength=dataset.n_classes),
    )


def _assert_blocks_agree(dataset, indices, rows):
    """Building in feature blocks of 32, 96 or 224 cells builds the same table."""
    for block in SMALL_BLOCKS:
        with block_rows(block):
            blocked = split_plan.SplitTablePlan(dataset).node_candidates(indices)
        _assert_same_table(blocked, rows)


def _tie_heavy_dataset():
    """3,000 rows, 3 classes: few-level real columns (one mixing -0.0 and
    +0.0), a boolean, a categorical and a ~500-value real column."""
    rng = np.random.default_rng(20)
    n = 3000
    signed_zero = rng.integers(-1, 2, n) * 0.5
    signed_zero[(signed_zero == 0) & (rng.random(n) < 0.9)] = -0.0
    X = np.column_stack(
        (
            rng.integers(0, 4, n) * 0.25,
            signed_zero,
            rng.integers(0, 2, n),
            rng.integers(0, 4, n),
            rng.integers(0, 500, n) / 8.0,
        )
    )
    kinds = (
        FeatureKind.REAL,
        FeatureKind.REAL,
        FeatureKind.BOOLEAN,
        FeatureKind.CATEGORICAL,
        FeatureKind.REAL,
    )
    return Dataset(X=X, y=rng.integers(0, 3, n), n_classes=3, feature_kinds=kinds)


def _tie_heavy_real_dataset():
    """The real columns of :func:`_tie_heavy_dataset`."""
    dataset = _tie_heavy_dataset()
    return Dataset(X=dataset.X[:, [0, 1, 4]], y=dataset.y, n_classes=3)


class TestNodeCandidates:
    @settings(max_examples=150, deadline=None)
    @given(nodes())
    def test_match_per_feature_tables(self, node):
        dataset, indices = node
        rows = split_plan.SplitTablePlan(dataset).node_candidates(indices)
        _assert_matches_reference(dataset, indices, rows)
        _assert_blocks_agree(dataset, indices, rows)

    @settings(max_examples=200, deadline=None)
    @given(mixed_nodes())
    def test_compress_build_matches_argsort_tables(self, node):
        dataset, indices = node
        plan = split_plan.SplitTablePlan(dataset)
        rows = plan.node_candidates(indices)
        _assert_matches_reference(dataset, indices, rows)
        # No bound carries the sign of a -0.0 in the data.
        for bound in (rows.low, rows.high):
            assert not np.signbit(bound[bound == 0]).any()

    @settings(max_examples=60, deadline=None)
    @given(mixed_nodes())
    def test_stored_scores_are_the_gini_scores(self, node):
        dataset, indices = node
        expected = split_plan.SplitTablePlan(dataset).node_candidates(indices)
        reference = split_plan.gini_scores(
            expected.left_sizes,
            expected.left_class_counts,
            expected.total_size,
            expected.total_class_counts,
        )
        for block in (*SMALL_BLOCKS, split_plan._BLOCK_ROWS):
            with block_rows(block):
                rows = split_plan.SplitTablePlan(dataset).node_candidates(indices)
                scores = rows.gini
            assert rows.gini is scores
            assert not scores.flags.writeable
            assert scores.dtype == np.float64
            np.testing.assert_array_equal(scores, reference)

    def test_reordered_ties_at_size(self):
        dataset = _tie_heavy_dataset()
        plan = split_plan.SplitTablePlan(dataset)
        # The plan's sort puts some tie in another order than a stable sort.
        # Boolean columns are counted, not sorted.
        presorted = [kind is not FeatureKind.BOOLEAN for kind in dataset.feature_kinds]
        stable = np.argsort(dataset.X.T[presorted], axis=1, kind="stable")
        assert (plan._orders != stable).any()
        rng = np.random.default_rng(3)
        n = len(dataset)
        for indices in (
            np.arange(n),
            np.sort(rng.choice(n, n // 2, replace=False)),
            np.sort(rng.choice(n, n // 10, replace=False)),
        ):
            rows = plan.node_candidates(indices)
            _assert_matches_reference(dataset, indices, rows)
            _assert_blocks_agree(dataset, indices, rows)
            for bound in (rows.low, rows.high):
                assert not np.signbit(bound[bound == 0]).any()

    @pytest.mark.parametrize(
        "rows",
        [[], [4], [0, 2, 5, 7], [1, 3, 4, 6], list(range(8))],
        ids=["empty", "single-row", "boolean-constant", "boolean-varies", "all"],
    )
    def test_mixed_edge_nodes(self, rows):
        # Two boolean columns (one holding -0.0) between a real and a
        # categorical column: rows 0, 2, 5 and 7 hold 1 in both boolean
        # columns, rows 1, 3, 4 and 6 hold both values.
        X = np.array(
            [
                [0.5, 1.0, 2.0, 1.0, 1.0],
                [1.5, 0.0, 1.0, -0.0, 0.0],
                [2.5, 1.0, 0.0, 1.0, 2.0],
                [0.5, 1.0, 1.0, -0.0, 1.0],
                [1.0, 0.0, 3.0, 1.0, 0.0],
                [2.0, 1.0, 2.0, 1.0, 1.0],
                [3.0, -0.0, 0.0, 1.0, 2.0],
                [0.0, 1.0, 1.0, 1.0, 0.0],
            ]
        )
        kinds = (
            FeatureKind.REAL,
            FeatureKind.BOOLEAN,
            FeatureKind.REAL,
            FeatureKind.BOOLEAN,
            FeatureKind.CATEGORICAL,
        )
        dataset = Dataset(
            X=X, y=np.array([0, 1, 2, 0, 1, 2, 0, 1]), n_classes=3, feature_kinds=kinds
        )
        indices = np.array(rows, dtype=np.int64)
        node = split_plan.SplitTablePlan(dataset).node_candidates(indices)
        _assert_matches_reference(dataset, indices, node)
        _assert_blocks_agree(dataset, indices, node)

    def test_boolean_dataset_is_counted_not_sorted(self, monkeypatch):
        dataset = load_dataset("mnist17-binary", 0.05).train

        def argsort(*args, **kwargs):
            raise AssertionError("an all-boolean plan sorts nothing")

        monkeypatch.setattr(np, "argsort", argsort)
        plan = split_plan.SplitTablePlan(dataset)
        assert plan._orders is None
        assert plan._sorted_values is None and plan._sorted_labels is None
        assert plan._bits.dtype == np.uint8
        assert plan._bits.shape == dataset.X.shape
        root = np.arange(len(dataset))
        rows = plan.node_candidates(root)
        monkeypatch.undo()
        _assert_matches_reference(dataset, root, rows)

    def test_narrow_layout(self):
        # Orders as int32, labels in the narrowest unsigned type, and no
        # float64 copy of the matrix beyond the sorted values: the plan
        # reads the dataset's own X.
        dataset = _tie_heavy_dataset()
        plan = split_plan.SplitTablePlan(dataset)
        n_presorted = sum(kind is not FeatureKind.BOOLEAN for kind in dataset.feature_kinds)
        assert plan._orders.dtype == np.int32
        assert plan._orders.shape == (n_presorted, len(dataset))
        assert plan._sorted_labels.dtype == np.uint8
        assert plan._X is dataset.X
        assert not hasattr(plan, "_columns")
        kept = [
            name
            for name in split_plan.SplitTablePlan.__slots__
            if isinstance(getattr(plan, name, None), np.ndarray)
            and getattr(plan, name).dtype == np.float64
            and getattr(plan, name).size >= len(dataset)
        ]
        assert sorted(kept) == ["_X", "_sorted_values"]
        many = Dataset(X=dataset.X[:300, :1], y=np.arange(300), n_classes=300)
        assert split_plan.SplitTablePlan(many)._sorted_labels.dtype == np.uint16
        # Table sizes and class counts are int32 (the node's totals int64),
        # built in one feature block or several, through every row kind.
        subset = np.arange(0, len(dataset), 3)
        for cells in (split_plan._FEATURE_BLOCK_CELLS, len(dataset)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(split_plan, "_FEATURE_BLOCK_CELLS", cells)
                for indices in (np.arange(len(dataset)), subset):
                    rows = split_plan.SplitTablePlan(dataset).node_candidates(indices)
                    assert rows.left_sizes.dtype == np.int32
                    assert rows.left_class_counts.dtype == np.int32
                    assert rows.total_class_counts.dtype == np.int64

    def test_choices_and_selections_count_in_int64(self):
        # The int32 columns stay inside the table: a concrete choice and
        # every bestSplit# side array count in int64, screened or not.
        dataset = _tie_heavy_dataset()
        choice = best_split(dataset)
        assert choice.left_class_counts.dtype == np.int64
        assert choice.right_class_counts.dtype == np.int64
        for block in (split_plan._BLOCK_ROWS, 3):  # 3: the screen runs
            with block_rows(block):
                selected = best_split_abstract(
                    AbstractTrainingSet.full(dataset, 2), method="optimal"
                )
            for side in ("sizes", "class_counts", "removals", "flips"):
                assert getattr(selected, side).dtype == np.int64, side
            assert selected.sizes.shape[0] > 0

    def test_boolean_plan_keeps_no_float_matrix(self):
        dataset = load_dataset("mnist17-binary", 0.05).train
        plan = split_plan.SplitTablePlan(dataset)
        arrays = [getattr(plan, name, None) for name in split_plan.SplitTablePlan.__slots__]
        floats = [a for a in arrays if isinstance(a, np.ndarray) and a.dtype == np.float64]
        assert len(floats) == 1 and floats[0] is dataset.X

    @pytest.mark.parametrize("name", ["mnist17-real", "mnist17-binary"])
    def test_real_pixels(self, name):
        dataset = load_dataset(name, 0.05).train
        root = np.arange(len(dataset))
        goes_left = best_split(dataset).predicate.evaluate_matrix(dataset.X)
        plan = split_plan.SplitTablePlan(dataset)
        for indices in (root, root[goes_left], root[~goes_left]):
            _assert_matches_reference(dataset, indices, plan.node_candidates(indices))


def _assert_same_table(rows, expected):
    """Every column and score of ``rows`` equals ``expected``'s, bit for bit."""
    for name in (
        "offsets",
        "kinds",
        "low",
        "high",
        "left_sizes",
        "left_class_counts",
        "total_class_counts",
        "gini",
    ):
        column, reference = getattr(rows, name), getattr(expected, name)
        assert column.dtype == reference.dtype, name
        assert column.shape == reference.shape, name
        assert column.tobytes() == reference.tobytes(), name
    assert rows.total_size == expected.total_size
    if rows.low.size:
        assert rows.gini_argmin == expected.gini_argmin


class TestFeatureBlocks:
    """Plans and node tables built a feature block at a time, over threads."""

    @settings(max_examples=150, deadline=None)
    @given(
        mixed_nodes(),
        st.integers(min_value=1, max_value=24),
        st.sampled_from([1, 3]),
    )
    def test_blocked_build_is_the_one_block_build(self, node, cells, cpus):
        # A few cells per block: every drawn plan and table of more than one
        # feature spans several blocks, mapped inline (1 CPU) or over threads.
        dataset, indices = node
        root = np.arange(len(dataset), dtype=np.int64)
        one_block = split_plan.SplitTablePlan(dataset)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(split_plan, "_FEATURE_BLOCK_CELLS", cells)
            patch.setattr(split_plan, "_usable_cpus", lambda: cpus)
            plan = split_plan.SplitTablePlan(dataset)
            tables = [plan.node_candidates(nodes) for nodes in (root, indices)]
        for name in ("_orders", "_sorted_values", "_sorted_labels"):
            layout, reference = getattr(plan, name), getattr(one_block, name)
            if reference is None:
                assert layout is None
            else:
                assert layout.tobytes() == reference.tobytes(), name
        for nodes, rows in zip((root, indices), tables):
            _assert_same_table(rows, one_block.node_candidates(nodes))
            _assert_matches_reference(dataset, nodes, rows)

    @settings(max_examples=150, deadline=None)
    @given(tied_nodes(), st.sampled_from([1, 3]))
    def test_build_threads_score_their_rows(self, node, cpus):
        # The scores and first minimum of a table of several feature blocks
        # come from its build (threads at 3 CPUs), in sub-blocks of 2 rows;
        # a least score tied across two blocks is found at the earlier row.
        dataset, indices, per_block = node
        size = indices.size
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(split_plan, "_FEATURE_BLOCK_CELLS", per_block * size)
            patch.setattr(split_plan, "_SCORE_ROWS", 2)
            patch.setattr(split_plan, "_usable_cpus", lambda: cpus)
            rows = split_plan.SplitTablePlan(dataset).node_candidates(indices)
        scored = (
            all(kind is FeatureKind.REAL for kind in dataset.feature_kinds)
            and size > 0
            and rows.low.size > 0
        )
        assert (rows._scored is not None) == scored
        expected = split_plan.gini_scores(
            rows.left_sizes,
            rows.left_class_counts,
            rows.total_size,
            rows.total_class_counts,
        )
        assert not rows.gini.flags.writeable
        assert rows.gini.tobytes() == expected.tobytes()
        if rows.low.size:
            assert rows.gini_argmin == int(np.argmin(rows.gini))
            least = rows.features(np.flatnonzero(rows.gini == rows.gini.min()))
            half = len(dataset.feature_kinds) // 2
            assert least.min() < half <= least.max()

    def test_which_tables_score_as_they_build(self):
        dataset, real = _tie_heavy_dataset(), _tie_heavy_real_dataset()
        indices = np.arange(0, len(dataset), 2)

        def refuse(*args):
            raise AssertionError("scored")

        # One feature block: the build scores nothing; the first read does.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(split_plan, "gini_scores", refuse)
            rows = split_plan.SplitTablePlan(real).node_candidates(indices)
            with pytest.raises(AssertionError, match="scored"):
                rows.gini
        # Several feature blocks: the build threads score real columns, and
        # no read scores again.  Boolean or categorical columns defer scoring
        # to the first read, also when built in several feature blocks.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(split_plan, "_FEATURE_BLOCK_CELLS", 1000)
            patch.setattr(split_plan, "_usable_cpus", lambda: 2)
            rows = split_plan.SplitTablePlan(real).node_candidates(indices)
            patch.setattr(split_plan, "gini_scores", refuse)
            mixed = split_plan.SplitTablePlan(dataset).node_candidates(indices)
            scores, least = rows.gini, rows.gini_argmin
            with pytest.raises(AssertionError, match="scored"):
                mixed.gini
        expected = split_plan.SplitTablePlan(real).node_candidates(indices)
        assert expected._scored is None
        assert scores.tobytes() == expected.gini.tobytes()
        assert least == expected.gini_argmin

    def test_blocks_cover_the_features(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(split_plan, "_FEATURE_BLOCK_CELLS", 100)
            assert split_plan._feature_blocks(7, 30) == [
                slice(0, 3),
                slice(3, 6),
                slice(6, 9),
            ]
            # A block holds one feature at least, however large the node.
            assert split_plan._feature_blocks(2, 1000) == [slice(0, 1), slice(1, 2)]
            assert split_plan._feature_blocks(5, 0) == [slice(0, 100)]

    def test_threads_only_for_several_blocks_and_cpus(self, monkeypatch):
        dataset = _tie_heavy_dataset()
        indices = np.arange(0, len(dataset), 2)
        expected = split_plan.SplitTablePlan(dataset).node_candidates(indices)
        pools = []

        class Refused:
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                raise AssertionError("a build started threads")

        monkeypatch.setattr(split_plan, "ThreadPoolExecutor", Refused)
        # One block: inline, however many CPUs.
        monkeypatch.setattr(split_plan, "_usable_cpus", lambda: 4)
        rows = split_plan.SplitTablePlan(dataset).node_candidates(indices)
        _assert_same_table(rows, expected)
        # Many blocks on one usable CPU: inline too.
        monkeypatch.setattr(split_plan, "_FEATURE_BLOCK_CELLS", 1000)
        monkeypatch.setattr(split_plan, "_usable_cpus", lambda: 1)
        rows = split_plan.SplitTablePlan(dataset).node_candidates(indices)
        _assert_same_table(rows, expected)
        assert not pools
        # Many blocks and CPUs: one thread per usable CPU.
        monkeypatch.setattr(split_plan, "_usable_cpus", lambda: 2)
        with pytest.raises(AssertionError, match="started threads"):
            split_plan.SplitTablePlan(dataset)
        assert pools == [{"max_workers": 2}]

    def test_many_threads_switching_often_build_the_same_tables(self, monkeypatch):
        # More threads than cores, switching every microsecond: blocks write
        # and score disjoint rows, so no interleaving changes a table, its
        # scores (the real columns' tables are scored by the build threads)
        # or its first minimum.
        rng = np.random.default_rng(5)
        nodes = [np.arange(3000)] + [
            np.sort(rng.choice(3000, size, replace=False)) for size in (1500, 300, 40)
        ]
        monkeypatch.setattr(split_plan, "_usable_cpus", lambda: 8)
        for dataset in (_tie_heavy_dataset(), _tie_heavy_real_dataset()):
            one_block = split_plan.SplitTablePlan(dataset)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(split_plan, "_FEATURE_BLOCK_CELLS", 50)
                patch.setattr(split_plan, "_SCORE_ROWS", 64)
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    plan = split_plan.SplitTablePlan(dataset)
                    tables = [plan.node_candidates(indices) for indices in nodes]
                finally:
                    sys.setswitchinterval(interval)
            assert plan._orders.tobytes() == one_block._orders.tobytes()
            for indices, rows in zip(nodes, tables):
                _assert_same_table(rows, one_block.node_candidates(indices))

    def test_no_thread_outlives_a_build(self, monkeypatch):
        dataset = _tie_heavy_dataset()
        monkeypatch.setattr(split_plan, "_FEATURE_BLOCK_CELLS", 1000)
        monkeypatch.setattr(split_plan, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        plan = split_plan.SplitTablePlan(dataset)
        plan.node_candidates(np.arange(0, len(dataset), 2))
        assert threading.active_count() == before

    def test_usable_cpus_fall_back_to_the_cpu_count(self, monkeypatch):
        assert split_plan._usable_cpus() >= 1
        monkeypatch.delattr(split_plan.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(split_plan.os, "cpu_count", lambda: 3)
        assert split_plan._usable_cpus.__wrapped__() == 3


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


class TestPredicateRow:
    def test_threshold_is_the_row_up_to_the_next_float(self):
        row = split_plan.predicate_row(ThresholdPredicate(1, 0.5))
        assert row == (1, 0.5, np.nextafter(0.5, np.inf), split_plan.THRESHOLD_ROW)

    def test_symbolic_keeps_its_bounds(self):
        row = split_plan.predicate_row(SymbolicThresholdPredicate(0, 1.0, 2.5))
        assert row == (0, 1.0, 2.5, split_plan.SYMBOLIC_ROW)

    def test_equality_is_a_point_row(self):
        row = split_plan.predicate_row(EqualityPredicate(2, 3.0))
        assert row == (2, 3.0, 3.0, split_plan.EQUALITY_ROW)

    def test_unknown_predicate_rejected(self):
        class Odd(Predicate):
            feature = 0

            def evaluate(self, x):
                return True

            def evaluate_matrix(self, X):
                return np.ones(len(X), dtype=bool)

            def describe(self, feature_names=()):
                return "odd"

        with pytest.raises(TypeError):
            split_plan.predicate_row(Odd())


def _mixed_dataset():
    rng = np.random.default_rng(11)
    X = np.column_stack(
        (
            np.round(rng.normal(size=30), 1),
            rng.integers(0, 2, size=30),
            rng.integers(0, 4, size=30),
        )
    ).astype(float)
    return Dataset(
        X=X,
        y=rng.integers(0, 2, size=30),
        feature_kinds=(FeatureKind.REAL, FeatureKind.BOOLEAN, FeatureKind.CATEGORICAL),
    )


_ROW_PREDICATES = [
    ThresholdPredicate(1, 0.5),
    SymbolicThresholdPredicate(0, -0.2, 0.3),
    EqualityPredicate(2, 1.0),
]


class TestSymbolicSplitByKind:
    @pytest.mark.parametrize("branch", [True, False])
    @pytest.mark.parametrize(
        "predicate", _ROW_PREDICATES, ids=["threshold", "symbolic", "equality"]
    )
    def test_sides_match_the_predicate(self, predicate, branch):
        dataset = _mixed_dataset()
        indices = np.arange(0, len(dataset), 2, dtype=np.int64)
        kept, tight, loose = split_plan.SplitTablePlan(dataset).symbolic_split(
            indices, *split_plan.predicate_row(predicate), branch
        )
        values = dataset.X[indices, predicate.feature]
        if isinstance(predicate, SymbolicThresholdPredicate):
            # Loose side: some threshold of [low, high) puts the row there;
            # tight side: every threshold does.
            if branch:
                expect_loose, expect_tight = values < predicate.high, values <= predicate.low
            else:
                expect_loose, expect_tight = values > predicate.low, values >= predicate.high
        else:
            expect_loose = predicate.evaluate_matrix(dataset.X[indices]) == branch
            expect_tight = expect_loose
        np.testing.assert_array_equal(kept, indices[expect_loose])
        assert loose == int(expect_loose.sum())
        assert tight == int(expect_tight.sum())

    @pytest.mark.parametrize("branch", [True, False])
    @pytest.mark.parametrize(
        "predicate",
        [
            SymbolicThresholdPredicate(0, 0.0, 0.5),
            SymbolicThresholdPredicate(0, -0.0, 0.5),
            SymbolicThresholdPredicate(0, -0.5, -0.0),
            SymbolicThresholdPredicate(0, -0.5, 0.0),
            ThresholdPredicate(0, -0.0),
            ThresholdPredicate(0, 0.0),
            EqualityPredicate(1, -0.0),
            EqualityPredicate(1, 0.0),
        ],
        ids=str,
    )
    def test_signed_zeros_fall_on_the_same_side(self, predicate, branch):
        # The plan compares the dataset's own values, -0.0 and +0.0 alike:
        # both zeros are one value to every row kind.
        X = np.array(
            [[-0.0, -0.0], [0.0, 0.0], [-0.5, 1.0], [0.5, -0.0], [0.0, 2.0], [-0.0, 0.0]]
        )
        dataset = Dataset(
            X=X,
            y=np.array([0, 1, 0, 1, 0, 1]),
            feature_kinds=(FeatureKind.REAL, FeatureKind.CATEGORICAL),
        )
        indices = np.arange(len(dataset), dtype=np.int64)
        kept, tight, loose = split_plan.SplitTablePlan(dataset).symbolic_split(
            indices, *split_plan.predicate_row(predicate), branch
        )
        values = X[:, predicate.feature]
        zeros = values == 0
        assert np.signbit(values[zeros]).any() and not np.signbit(values[zeros]).all()
        # Both zeros on one side.
        assert np.unique(np.isin(indices[zeros], kept)).size == 1
        _, low, high, _ = split_plan.predicate_row(predicate)
        # The same sides with every zero written +0.0 and +0.0 bounds.
        values, low, high = values + 0.0, low + 0.0, high + 0.0
        if isinstance(predicate, EqualityPredicate):
            expect = expect_tight = (values == low) == branch
        elif branch:
            expect, expect_tight = values < high, values <= low
        else:
            expect, expect_tight = values > low, values >= high
        np.testing.assert_array_equal(kept, indices[expect])
        assert (tight, loose) == (int(expect_tight.sum()), int(expect.sum()))

    def test_results_are_cached_and_read_only(self):
        dataset = _mixed_dataset()
        plan = split_plan.SplitTablePlan(dataset)
        indices = np.arange(len(dataset), dtype=np.int64)
        row = split_plan.predicate_row(EqualityPredicate(2, 1.0))
        first = plan.symbolic_split(indices, *row, True)
        assert plan.symbolic_split(indices, *row, True) is first
        assert not first[0].flags.writeable
        assert plan.symbolic_split(indices, *row, False) is not first
