"""Property tests pinning the vectorized kernels to their scalar references.

The ``bestSplit#`` score kernel of the cold-path core (`_split_score_bounds`
in :mod:`repro.verify.transformers`) keeps two oracles: without flips, the
candidate-at-a-time `_side_score_bounds_reference` in plain
:class:`~repro.domains.interval.Interval` arithmetic; with flips, the
allocation-at-a-time `_flip_split_score_bounds_reference`.  These tests
drive the kernel and both oracles through Hypothesis-generated candidate
tables, so any future vectorization change that drifts from the defined
transformer semantics fails here before it can weaken a soundness bound.
The disjunctive learner's leaf kernels are held to their scalar forms
exactly: `exit_bounds` row by row to `cprob_optimal` / `cprob_box` of
``⟨T, n, f⟩``, and `dominating_components` to `dominating_component`.
The screened selection (`_screened_selection`, which bounds only the rows
whose concrete Gini score can reach the lub) is pinned to the full-kernel
`_selection` on random node tables split into tiny row blocks, and end to
end: a cold mnist17-real batch makes the same selections and verdict rows
with the screen as without it.  The many-table selection
(`_table_selections`, one kernel call per flip budget at per-row removal
budgets) is pinned to those two one-table oracles, and `best_splits` to
per-element candidate rows, bit for bit.  The count-based exits
(`state_exits`) are pinned to `cprob_intervals`,
`entropy_is_definitely_zero` and `pure_exit_vector` element by element.

The closed-form ``filter#`` (`filter_closed_form`, over candidate rows) is
pinned to the sequential fold of split pieces it replaces (`filter_abstract`,
over the rows' predicates): same rows, same budgets, on random nodes and
predicate sets and on every filter step of Box runs over the UCI-like
datasets.  The disjunctive learner's children, built from a row and a side,
are pinned to ``split_down`` of the row's predicate.  The closed form's
sizes, found at one budget, must give ``filter#`` at every other budget, and
a Box ladder over one dataset's filled split plan must equal runs on a fresh
copy.  One engine reused along a budget ladder must report verdicts identical
to a fresh engine per budget.
"""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CertificationEngine, CertificationRequest
from repro.core import split_plan
from repro.core.dataset import Dataset, FeatureKind
from repro.core.predicates import (
    EqualityPredicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.datasets.registry import load_dataset
from repro.domains.interval import Interval, dominating_component, dominating_components
from repro.domains.predicate_set import AbstractPredicateSet
from repro.domains.trainingset import AbstractTrainingSet
from repro.poisoning.label_flip import FlipAbstractTrainingSet
from repro.poisoning.models import (
    CompositePoisoningModel,
    LabelFlipModel,
    RemovalPoisoningModel,
)
from repro.verify import abstract_learner, transformers
from repro.verify.abstract_learner import BoxAbstractLearner
from repro.verify.trace import filter_abstract_traced
from repro.verify.transformers import (
    ROW_COLUMNS,
    SplitCandidates,
    _RowComplement,
    _flip_split_score_bounds_reference,
    _screened_selection,
    _selection,
    _side_score_bounds_reference,
    _split_score_bounds,
    _table_candidates,
    _table_selections,
    best_split_abstract,
    best_splits,
    cprob_box,
    cprob_intervals,
    cprob_optimal,
    entropy_is_definitely_zero,
    exit_bounds,
    filter_abstract,
    filter_closed_form,
    level_exits,
    pure_exit_vector,
    state_exits,
)
from tests.conftest import (
    SMALL_BLOCKS,
    block_rows,
    mixed_dataset,
    random_small_dataset,
    random_test_point,
    row_predicates,
)

TOL = 1e-9


@st.composite
def candidate_tables(draw, max_candidates: int = 6, max_classes: int = 3):
    """Random per-candidate (sizes, class_counts) arrays with counts ≤ size."""
    n_candidates = draw(st.integers(min_value=1, max_value=max_candidates))
    n_classes = draw(st.integers(min_value=2, max_value=max_classes))
    sizes = []
    counts = []
    for _ in range(n_candidates):
        row = [
            draw(st.integers(min_value=0, max_value=5)) for _ in range(n_classes)
        ]
        counts.append(row)
        sizes.append(sum(row))
    return np.asarray(sizes, dtype=np.int64), np.asarray(counts, dtype=np.int64)


def _split(left, right):
    """The two sides of one candidate table: trim both draws to a common shape."""
    left_sizes, left_counts = left
    right_sizes, right_counts = right
    n = min(left_sizes.shape[0], right_sizes.shape[0])
    k = min(left_counts.shape[1], right_counts.shape[1])
    left_counts, right_counts = left_counts[:n, :k], right_counts[:n, :k]
    return left_counts.sum(axis=1), left_counts, right_counts.sum(axis=1), right_counts


class TestSplitScoreBounds:
    """The one ``bestSplit#`` score kernel against both of its oracles."""

    @settings(max_examples=150, deadline=None)
    @given(
        # Up to 7 classes: the kernel's class sums match numpy's order.
        candidate_tables(max_classes=7),
        candidate_tables(max_classes=7),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_oracles(self, left, right, removals, flips):
        sides = _split(left, right)
        left_sizes, left_counts, right_sizes, right_counts = sides
        # f = 0: the paper's score#, side by side, under both cprob# methods.
        for method in ("optimal", "box"):
            lower, upper = _split_score_bounds(*sides, removals, 0, method)
            left_lower, left_upper = _side_score_bounds_reference(
                left_sizes, left_counts, removals, method
            )
            right_lower, right_upper = _side_score_bounds_reference(
                right_sizes, right_counts, removals, method
            )
            np.testing.assert_allclose(lower, left_lower + right_lower, atol=TOL)
            np.testing.assert_allclose(upper, left_upper + right_upper, atol=TOL)
        # f > 0 under optimal: the allocation-at-a-time oracle, bit for bit.
        lower, upper = _split_score_bounds(*sides, removals, flips, "optimal")
        ref_lower, ref_upper = _flip_split_score_bounds_reference(
            *sides, removals, flips
        )
        np.testing.assert_array_equal(lower, ref_lower)
        np.testing.assert_array_equal(upper, ref_upper)
        # f > 0 under box: the naïve cprob# only widens the optimal bounds.
        box_lower, box_upper = _split_score_bounds(*sides, removals, flips, "box")
        assert np.all(box_lower <= lower + TOL)
        assert np.all(box_upper >= upper - TOL)

    @settings(max_examples=40, deadline=None)
    @given(
        candidate_tables(max_candidates=20),
        candidate_tables(max_candidates=20),
        st.integers(min_value=0, max_value=6),
    )
    def test_row_blocks_leave_the_bits(self, left, right, removals):
        # Blocks of 1, 3 and 7 rows give the default block's bits, for every
        # f and both methods.
        sides = _split(left, right)
        for flips in (0, 1, 2):
            for method in ("optimal", "box"):
                expected = _split_score_bounds(*sides, removals, flips, method)
                for rows in SMALL_BLOCKS:
                    with block_rows(rows):
                        lower, upper = _split_score_bounds(
                            *sides, removals, flips, method
                        )
                    np.testing.assert_array_equal(lower, expected[0])
                    np.testing.assert_array_equal(upper, expected[1])

    @settings(max_examples=40, deadline=None)
    @given(candidate_tables(max_candidates=20), st.integers(0, 6), st.integers(0, 2))
    def test_row_complement_is_the_right_side(self, table, removals, flips):
        # A node table passes its right side as totals minus left counts.
        sizes, counts = table
        totals = counts.max(axis=0)
        right_counts = totals - counts
        budgets = (removals, flips, "optimal")
        with block_rows(3):
            expected = _split_score_bounds(
                sizes, counts, right_counts.sum(axis=1), right_counts, *budgets
            )
            lower, upper = _split_score_bounds(
                sizes,
                counts,
                right_counts.sum(axis=1),
                _RowComplement(totals, counts),
                *budgets,
            )
        np.testing.assert_array_equal(lower, expected[0])
        np.testing.assert_array_equal(upper, expected[1])

    @settings(max_examples=60, deadline=None)
    @given(
        candidate_tables(max_candidates=20),
        candidate_tables(max_candidates=20),
        st.lists(st.integers(min_value=0, max_value=6), min_size=20, max_size=20),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["optimal", "box"]),
        st.sampled_from([*SMALL_BLOCKS, None]),
    )
    def test_per_row_removals_match_one_call_per_budget(
        self, left, right, removals, flips, method, rows
    ):
        # Rows of several nodes share one call at their own removal budgets.
        sides = _split(left, right)
        budgets = np.asarray(removals[: sides[0].size])
        with block_rows(rows) if rows else contextlib.nullcontext():
            lower, upper = _split_score_bounds(*sides, budgets, flips, method)
        for budget in set(budgets.tolist()):
            expected = _split_score_bounds(*sides, budget, flips, method)
            mine = budgets == budget
            np.testing.assert_array_equal(lower[mine], expected[0][mine])
            np.testing.assert_array_equal(upper[mine], expected[1][mine])

    @settings(max_examples=60, deadline=None)
    @given(
        candidate_tables(),
        candidate_tables(),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=4),
        st.sampled_from(["optimal", "box"]),
    )
    def test_bounds_are_ordered(self, left, right, removals, flips, method):
        sides = _split(left, right)
        lower, upper = _split_score_bounds(*sides, removals, flips, method)
        assert np.all(lower <= upper + TOL)


@st.composite
def node_tables(draw):
    """A node's candidate table: per-row left class counts within the totals.

    Rows of empty left sides lead some tables (a first block without a
    universal row), and some tables repeat their rows (ties at the lub).
    """
    k = draw(st.integers(min_value=2, max_value=5))
    totals = np.asarray(draw(st.lists(st.integers(0, 10), min_size=k, max_size=k)))
    n_rows = draw(st.integers(min_value=1, max_value=40))
    left = [[draw(st.integers(0, int(t))) for t in totals] for _ in range(n_rows)]
    left = np.asarray(left, dtype=np.int64).reshape(n_rows, k)
    lead = draw(st.integers(min_value=0, max_value=3))
    left = np.vstack((np.zeros((lead, k), dtype=np.int64), left))
    if draw(st.booleans()):
        left = np.vstack((left, left[::-1]))
    return left.sum(axis=1), left, int(totals.sum()), totals.astype(np.int64)


def _full_selection(
    left_sizes, left_counts, total, totals, scores, best, removals, flips
):
    """The full-kernel ``_selection`` of a node table under ``optimal``; the
    concrete ``scores`` and their first minimum ``best``, which the screen
    reads, go unused."""
    return _selection(
        left_sizes,
        left_counts,
        total - left_sizes,
        totals - left_counts,
        removals,
        flips,
        "optimal",
    )


class TestScreenedSelection:
    """The screened ``bestSplit#`` selection is the full kernel's, row for row."""

    @settings(max_examples=300, deadline=None)
    @given(
        node_tables(),
        # Mostly small n, where the screen drops rows; up to past the node
        # size, where no row is universal (every row and ⋄).
        st.one_of(st.integers(0, 3), st.integers(0, 45)),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(SMALL_BLOCKS),
    )
    def test_matches_full_selection(self, table, removals, flips, rows):
        scores = split_plan.gini_scores(*table)
        table = (*table, scores, int(scores.argmin()))
        expected, expected_null = _full_selection(*table, removals, flips)
        with block_rows(rows):
            keep, includes_null = _screened_selection(*table, removals, flips)
        np.testing.assert_array_equal(keep, expected)
        assert includes_null == expected_null

    @settings(max_examples=200, deadline=None)
    @given(
        node_tables(),
        st.integers(min_value=0, max_value=45),
        st.integers(min_value=0, max_value=3),
    )
    def test_margin_bounds_the_gap(self, table, removals, flips):
        # Per row: concrete Gini − score# lower ≤ k·(n'_L + n'_R + f), and the
        # concrete Gini is at most the score# upper bound.
        left_sizes, left_counts, total, totals = table
        right_sizes, right_counts = total - left_sizes, totals - left_counts
        lower, upper = _split_score_bounds(
            left_sizes, left_counts, right_sizes, right_counts, removals, flips, "optimal"
        )
        concrete = split_plan.gini_scores(left_sizes, left_counts, total, totals)
        # Σ c (s − c) / s per side, 0 for an empty side.
        expected = sum(
            (counts * (sizes[:, None] - counts)).sum(axis=1) / np.maximum(sizes, 1)
            for sizes, counts in ((left_sizes, left_counts), (right_sizes, right_counts))
        )
        np.testing.assert_allclose(concrete, expected, atol=TOL)
        n_left = np.minimum(removals, left_sizes)
        n_right = np.minimum(removals, right_sizes)
        margin = totals.size * (n_left + n_right + flips)
        assert np.all(concrete - lower <= margin + TOL)
        assert np.all(concrete <= upper + TOL)

    def test_drops_rows_on_a_real_root(self, monkeypatch):
        # mnist17-real at scale 0.05: the root table spans many blocks, and
        # the kernel bounds only the rows that survive the screen.
        dataset = load_dataset("mnist17-real", scale=0.05, seed=0).train
        rows = split_plan.plan_for(dataset).node_candidates(
            np.arange(dataset.y.size, dtype=np.int64)
        )
        table = (
            rows.left_sizes,
            rows.left_class_counts,
            rows.total_size,
            rows.total_class_counts,
            rows.gini,
            rows.gini_argmin,
        )
        assert rows.left_sizes.size > 10 * split_plan._BLOCK_ROWS
        bounded = []

        def spy(left_sizes, *args):
            bounded.append(left_sizes.shape[0])
            return _selection(left_sizes, *args)

        monkeypatch.setattr(transformers, "_selection", spy)
        for removals, flips in ((0, 0), (1, 0), (8, 0), (1, 1), (8, 1)):
            bounded.clear()
            keep, includes_null = _screened_selection(*table, removals, flips)
            expected, expected_null = _full_selection(*table, removals, flips)
            np.testing.assert_array_equal(keep, expected)
            assert includes_null == expected_null
            assert bounded and bounded[0] < rows.left_sizes.size // 100


def _selections(monkeypatch):
    """Record every ``bestSplit#`` table selection: its rows and ``⋄``."""
    recorded = []
    table_candidates = transformers._table_candidates

    def record(*args):
        result = table_candidates(*args)
        recorded.append((result.key, result.includes_null))
        return result

    monkeypatch.setattr(transformers, "_table_candidates", record)
    return recorded


def _mnist_rows(model, **options):
    """Verdict rows, timings zeroed, of a cold mnist17-real batch."""
    split = load_dataset("mnist17-real", scale=0.05, seed=0)
    split_plan.clear_plans()
    results = CertificationEngine(**options).certify_stream(
        CertificationRequest(split.train, split.test.X[:4], model)
    )
    return [
        dataclasses.replace(r, elapsed_seconds=0.0, peak_memory_bytes=0)
        for r in results
    ]


class TestScreenedVerdictIdentity:
    """End to end, the screen changes no verdict row and no selection."""

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize(
        "model",
        [RemovalPoisoningModel(1), RemovalPoisoningModel(8), LabelFlipModel(1)],
        ids=["n1", "n8", "flip1"],
    )
    def test_rows_equal_the_unscreened_run(self, monkeypatch, model, depth):
        screen = transformers._screen_rows
        calls = []

        def counted(*args):
            calls.append(args)
            return screen(*args)

        with monkeypatch.context() as patch:
            patch.setattr(transformers, "_screen_rows", counted)
            screened = _selections(patch)
            rows = _mnist_rows(model, max_depth=depth)
        with monkeypatch.context() as patch:
            patch.setattr(transformers, "_SCREEN_ROWS", np.inf)
            unscreened = _selections(patch)
            expected = _mnist_rows(model, max_depth=depth)
        assert calls
        assert rows == expected
        assert screened == unscreened

    def test_box_never_screens(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("box cprob# must not be screened")

        bounds = transformers._split_score_bounds
        table_rows = []

        def full(left_sizes, *args):
            table_rows.append(left_sizes.shape[0])
            return bounds(left_sizes, *args)

        monkeypatch.setattr(transformers, "_screen_rows", refuse)
        monkeypatch.setattr(transformers, "_split_score_bounds", full)
        rows = _mnist_rows(RemovalPoisoningModel(1), max_depth=1, cprob_method="box")
        assert len(rows) == 4
        # The full kernel scored a table of many blocks.
        assert max(table_rows) > 10 * split_plan._BLOCK_ROWS


@st.composite
def exit_rows(draw, max_rows: int = 5):
    """Random exits: per-row class counts, removal and flip budgets ≤ size."""
    n_classes = draw(st.integers(min_value=1, max_value=3))
    counts, removals, flips = [], [], []
    for _ in range(draw(st.integers(min_value=1, max_value=max_rows))):
        row = [draw(st.integers(min_value=0, max_value=5)) for _ in range(n_classes)]
        size = sum(row)
        counts.append(row)
        removals.append(draw(st.integers(min_value=0, max_value=size)))
        flips.append(draw(st.integers(min_value=0, max_value=size)))
    counts = np.asarray(counts, dtype=np.int64)
    return counts, np.asarray(removals), np.asarray(flips)


def _element_with_counts(counts, removals, flips):
    """An abstract element whose rows have exactly ``counts`` per class."""
    labels = np.repeat(np.arange(counts.size), counts)
    # One extra row outside the element keeps the dataset non-empty.
    dataset = Dataset(
        X=np.zeros((labels.size + 1, 1)),
        y=np.append(labels, 0),
        n_classes=int(counts.size),
    )
    indices = np.arange(labels.size, dtype=np.int64)
    if flips is None:
        return AbstractTrainingSet(dataset, indices, int(removals))
    return FlipAbstractTrainingSet(dataset, indices, int(removals), int(flips))


class TestExitBounds:
    """The leaf-exit kernel equals the scalar ``cprob#`` of every row."""

    @settings(max_examples=120, deadline=None)
    @given(exit_rows(), st.sampled_from(["optimal", "box"]), st.booleans())
    def test_matches_scalar_cprob(self, rows, method, flipping):
        counts, removals, flips = rows
        if not flipping:
            flips = np.zeros_like(flips)
        lower, upper = exit_bounds(counts.sum(axis=1), counts, removals, flips, method)
        for i in range(counts.shape[0]):
            if flipping:
                element = _element_with_counts(counts[i], removals[i], flips[i])
                expected = cprob_intervals(element, method)
            else:
                element = _element_with_counts(counts[i], removals[i], None)
                oracle = cprob_optimal if method == "optimal" else cprob_box
                expected = oracle(element)
                # f = 0 is the removal formula in the flip domain too.
                flip_element = _element_with_counts(counts[i], removals[i], 0)
                assert cprob_intervals(flip_element, method) == expected
            assert tuple(Interval(lo, hi) for lo, hi in zip(lower[i], upper[i])) == expected


def _elements(rng, dataset, family):
    """Random elements over ``dataset``: row subsets (some empty) with removal
    and flip budgets of ``family``; some budgets reach the size (m = 0)."""
    elements = []
    for _ in range(int(rng.integers(1, 7))):
        size = int(rng.integers(0, len(dataset) + 1))
        indices = np.sort(rng.choice(len(dataset), size, replace=False))
        removals = 0 if family == "flip" else int(rng.integers(0, size + 2))
        flips = 0 if family == "removal" else int(rng.integers(0, 3))
        elements.append(AbstractTrainingSet(dataset, indices, removals, flips))
    return elements


def _vector(lower, upper):
    return tuple(Interval(lo, hi) for lo, hi in zip(lower.tolist(), upper.tolist()))


class TestStateExits:
    """Every element's exits from its class counts equal the scalar
    transformers: ``cprob#``, the ``ent(T) = 0`` test and the pure exit."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["removal", "flip", "composite"]),
        st.sampled_from(["optimal", "box"]),
    )
    def test_matches_scalar_transformers(self, seed, family, method):
        rng = np.random.default_rng(seed)
        dataset = mixed_dataset(rng)
        elements = _elements(rng, dataset, family)
        exits = level_exits(elements, method)
        direct = state_exits(
            [element.size for element in elements],
            [element.class_counts() for element in elements],
            [element.n for element in elements],
            [element.flips for element in elements],
            method,
        )
        for got, expected in zip(exits, direct):
            np.testing.assert_array_equal(got, expected)
        for i, element in enumerate(elements):
            assert _vector(exits.cprob_lower[i], exits.cprob_upper[i]) == (
                cprob_intervals(element, method)
            )
            assert bool(exits.zero_entropy[i]) == entropy_is_definitely_zero(
                element, method
            )
            pure = pure_exit_vector(element, method)
            assert bool(exits.pure[i]) == (pure is not None)
            if pure is not None:
                assert _vector(exits.pure_lower[i], exits.pure_upper[i]) == pure

    def test_covers_every_case(self):
        # Elements with no remaining row, with only pure concretizations,
        # with flips, and with no pure exit at all.
        dataset = Dataset(
            X=np.zeros((6, 1)), y=np.array([0, 0, 0, 0, 1, 2]), n_classes=3
        )
        rows = np.arange(6, dtype=np.int64)
        elements = [
            AbstractTrainingSet(dataset, rows, 6),
            AbstractTrainingSet(dataset, rows[:4], 1),
            AbstractTrainingSet(dataset, rows, 2, 1),
            AbstractTrainingSet(dataset, rows, 0),
        ]
        exits = level_exits(elements)
        assert exits.zero_entropy.tolist() == [False, True, False, False]
        assert exits.pure.tolist() == [True, True, True, False]
        for i, element in enumerate(elements):
            assert bool(exits.zero_entropy[i]) == entropy_is_definitely_zero(element)
            assert (pure_exit_vector(element) is not None) == bool(exits.pure[i])


def _one_by_one(table, removals, flips, method):
    """The selection of one node table by its one-table oracle."""
    if method == "optimal" and table.left_sizes.size > transformers._SCREEN_ROWS:
        return _screened_selection(
            table.left_sizes,
            table.left_class_counts,
            table.total_size,
            table.total_class_counts,
            table.gini,
            table.gini_argmin,
            removals,
            flips,
        )
    return _selection(
        table.left_sizes,
        table.left_class_counts,
        table.right_sizes,
        table.right_class_counts,
        removals,
        flips,
        method,
    )


class TestTableSelections:
    """Many tables selected at once, at mixed budgets, equal each table's
    own selection bit for bit, screened or not."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["removal", "flip", "composite"]),
        st.sampled_from(["optimal", "box"]),
        st.sampled_from([*SMALL_BLOCKS, None]),
    )
    def test_matches_one_table_at_a_time(self, seed, family, method, rows):
        rng = np.random.default_rng(seed)
        dataset = mixed_dataset(rng)
        elements = [e for e in _elements(rng, dataset, family) if e.size]
        with block_rows(rows) if rows else contextlib.nullcontext():
            plan = split_plan.SplitTablePlan(dataset)
            tables = [plan.node_candidates(e.indices) for e in elements]
            budgets = ([e.n for e in elements], [e.flips for e in elements])
            selections = _table_selections(tables, *budgets, method)
            expected = [
                _one_by_one(table, e.n, e.flips, method)
                for table, e in zip(tables, elements)
            ]
        for (keep, null), (expected_keep, expected_null) in zip(selections, expected):
            np.testing.assert_array_equal(keep, expected_keep)
            assert keep.dtype == expected_keep.dtype
            assert null == expected_null

        # best_splits answers each element with the rows of its own selection.
        split_plan.clear_plans()
        with block_rows(rows) if rows else contextlib.nullcontext():
            results = best_splits(elements, method)
        for result, table, e, (keep, null) in zip(results, tables, elements, expected):
            reference = _table_candidates(table, keep, null, e.n, e.flips)
            for column in ROW_COLUMNS:
                got, want = getattr(result, column), getattr(reference, column)
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
            assert result.includes_null == reference.includes_null
            assert result.key == best_split_abstract(e, method=method).key

    def test_screens_tables_past_the_screen_size(self, monkeypatch):
        # wdbc nodes of a few thousand rows: tables past _SCREEN_ROWS are
        # screened, smaller ones are not, and both select as one at a time.
        dataset = load_dataset("wdbc", seed=1).train
        plan = split_plan.plan_for(dataset)
        rng = np.random.default_rng(0)
        tables = [
            plan.node_candidates(np.sort(rng.choice(len(dataset), size, replace=False)))
            for size in (40, 100, 200, 250)
        ]
        sizes = [table.left_sizes.size for table in tables]
        assert min(sizes) <= transformers._SCREEN_ROWS < max(sizes)
        assert max(sizes) <= split_plan._BLOCK_ROWS
        screened = []
        screen = transformers._screen_rows

        def spy(left_sizes, *args):
            screened.append(left_sizes.size)
            return screen(left_sizes, *args)

        monkeypatch.setattr(transformers, "_screen_rows", spy)
        for removals, flips in ((1, 0), (2, 0), (1, 1)):
            screened.clear()
            selections = _table_selections(
                tables, [removals] * 4, [flips] * 4, "optimal"
            )
            assert screened == [s for s in sizes if s > transformers._SCREEN_ROWS]
            for table, (keep, null) in zip(tables, selections):
                expected, expected_null = _one_by_one(table, removals, flips, "optimal")
                np.testing.assert_array_equal(keep, expected)
                assert null == expected_null
                full, _ = _selection(
                    table.left_sizes,
                    table.left_class_counts,
                    table.right_sizes,
                    table.right_class_counts,
                    removals,
                    flips,
                    "optimal",
                )
                np.testing.assert_array_equal(keep, full)


#: Bounds the dominance cases draw from: few values, so ties are common.
_GRID_BOUNDS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


class TestDominatingComponents:
    """Row-wise dominance equals :func:`dominating_component` per row."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.tuples(_GRID_BOUNDS, _GRID_BOUNDS), min_size=k, max_size=k
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_matches_scalar(self, rows):
        vectors = [
            tuple(Interval(min(a, b), max(a, b)) for a, b in row) for row in rows
        ]
        lower = np.array([[iv.lo for iv in v] for v in vectors])
        upper = np.array([[iv.hi for iv in v] for v in vectors])
        assert dominating_components(lower, upper) == tuple(
            dominating_component(v) for v in vectors
        )


#: Grid the random filter cases draw feature values and predicate bounds
#: from: coarse enough for ties, with bounds between and on the values.
_GRID = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def _draw_predicate(draw, feature, kind, row=None, any_boolean_row=False):
    """A random predicate on ``feature`` of column ``kind``; ``row`` (one of
    ``"symbolic"``, ``"threshold"``, ``"equality"``) fixes its row kind.  A
    boolean column gets ``x <= 0.5`` unless ``any_boolean_row`` is set."""
    if kind is FeatureKind.BOOLEAN and any_boolean_row and draw(st.booleans()):
        return EqualityPredicate(feature, draw(st.sampled_from([0.0, 0.5, 1.0])))
    if kind is FeatureKind.BOOLEAN and not any_boolean_row:
        return ThresholdPredicate(feature, 0.5)
    if kind is FeatureKind.CATEGORICAL:
        return EqualityPredicate(feature, draw(st.sampled_from([0.0, 1.0, 2.0])))
    if row == "threshold" or (row is None and draw(st.booleans())):
        return ThresholdPredicate(feature, draw(_GRID))
    bounds = draw(st.lists(_GRID, min_size=2, max_size=2, unique=True))
    low, high = sorted(bounds)
    return SymbolicThresholdPredicate(feature, low, high)


@st.composite
def filter_cases(draw, single_row=None, any_boolean_row=False):
    """A node ``⟨T, ·⟩``, a test point and a random Ψ over its features.

    Columns are real, boolean or categorical; Ψ mixes concrete thresholds,
    symbolic thresholds (which the point may evaluate to *maybe*) and
    equality predicates, so pieces can be empty, nested or overlapping.
    With ``single_row`` set to a row kind, feature 0 has exactly one row in
    Ψ, of that kind, and the other features draw theirs as usual.  With
    ``any_boolean_row``, boolean columns also hold ``-0.0`` and take rows of
    every kind and bound.
    """
    kinds = draw(
        st.lists(
            st.sampled_from(
                [FeatureKind.REAL, FeatureKind.BOOLEAN, FeatureKind.CATEGORICAL]
            ),
            min_size=1,
            max_size=3,
        )
    )
    if single_row == "symbolic":
        kinds[0] = FeatureKind.REAL
    elif single_row == "threshold":
        kinds[0] = draw(st.sampled_from([FeatureKind.REAL, FeatureKind.BOOLEAN]))
    elif single_row == "equality":
        kinds[0] = FeatureKind.CATEGORICAL
    n_rows = draw(st.integers(min_value=1, max_value=10))
    columns = []
    point = []
    for kind in kinds:
        if kind is FeatureKind.REAL:
            values = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
            point.append(draw(_GRID))
        elif kind is FeatureKind.BOOLEAN:
            values = st.sampled_from([0.0, -0.0, 1.0] if any_boolean_row else [0.0, 1.0])
            point.append(draw(values))
        else:
            values = st.sampled_from([0.0, 1.0, 2.0])
            point.append(draw(values))
        columns.append(draw(st.lists(values, min_size=n_rows, max_size=n_rows)))
    labels = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    dataset = Dataset(
        X=np.asarray(columns, dtype=np.float64).T,
        y=np.asarray(labels, dtype=np.int64),
        n_classes=2,
        feature_kinds=tuple(kinds),
    )
    keep = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    indices = np.flatnonzero(keep)

    predicates = []
    first = 0
    if single_row is not None:
        predicates.append(_draw_predicate(draw, 0, kinds[0], single_row))
        first = 1
    if first < len(kinds):
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            feature = draw(st.integers(first, len(kinds) - 1))
            predicates.append(
                _draw_predicate(draw, feature, kinds[feature], None, any_boolean_row)
            )

    family = draw(st.sampled_from(["removal", "flip", "composite"]))
    if family == "removal":
        state = AbstractTrainingSet(dataset, indices, draw(st.integers(0, 4)))
    else:
        removals = 0 if family == "flip" else draw(st.integers(0, 3))
        flips = draw(st.integers(0, 3))
        state = FlipAbstractTrainingSet(dataset, indices, removals, flips)
    return state, predicates, np.asarray(point)


def _budgets(state):
    return (state.n, state.flips)


def _fold(state, predicates, x):
    """``filter#`` by the sequential fold: ``(rows, budgets)`` or ``None``."""
    result = filter_abstract(state, AbstractPredicateSet.of(predicates), x)
    return None if result is None else (tuple(result.indices), _budgets(result))


def _rows(predicates):
    """Predicates as candidate rows; ``filter#`` reads no side array."""
    table = np.array(
        [split_plan.predicate_row(predicate) for predicate in predicates],
        dtype=np.float64,
    ).reshape(-1, 4)
    sides = np.zeros((len(table), 2), dtype=np.int64)
    return SplitCandidates(
        feature=table[:, 0].astype(np.int64),
        low=table[:, 1],
        high=table[:, 2],
        kind=table[:, 3].astype(np.int8),
        sizes=sides,
        class_counts=np.zeros((len(table), 2, 2), dtype=np.int64),
        removals=sides,
        flips=sides,
        includes_null=False,
    )


def _closed(state, predicates, x):
    """``filter#`` by the closed form: ``(rows, budgets)`` or ``None``."""
    result = filter_abstract_traced(state, _rows(predicates), x)
    return None if result is None else (tuple(result.indices), _budgets(result))


class TestClosedFormFilter:
    """``filter_closed_form`` against the sequential fold it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(filter_cases())
    def test_matches_fold(self, case):
        state, predicates, x = case
        assert _closed(state, predicates, x) == _fold(state, predicates, x)

    @pytest.mark.parametrize("row", ["symbolic", "threshold", "equality"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_single_row_feature_matches_fold(self, row, data):
        # A feature with one row in Ψ: counted when boolean, else sorted.
        state, predicates, x = data.draw(filter_cases(single_row=row))
        assert _closed(state, predicates, x) == _fold(state, predicates, x)

    @settings(max_examples=200, deadline=None)
    @given(filter_cases(any_boolean_row=True))
    def test_boolean_rows_of_any_kind_match_fold(self, case):
        # Boolean features are counted from the node's bits, whatever the
        # rows on them: thresholds anywhere, symbolic bounds, equalities.
        state, predicates, x = case
        assert _closed(state, predicates, x) == _fold(state, predicates, x)

    @settings(max_examples=150, deadline=None)
    @given(filter_cases(), st.randoms(use_true_random=False))
    def test_fold_is_order_independent(self, case, random):
        # The identity the closed form rests on: Definition 4.1's join keeps
        # |T1 ∪ T2| − n' = min(|T1| − n1, |T2| − n2), so any fold order agrees.
        state, predicates, x = case
        shuffled = list(predicates)
        random.shuffle(shuffled)
        assert _fold(state, shuffled, x) == _fold(state, predicates, x)

    @pytest.mark.parametrize("family", ["removal", "flip", "composite"])
    def test_all_pieces_empty_is_bottom(self, family):
        # The point takes only the empty side of every predicate: bottom,
        # although Ψ has concrete choices.
        dataset = Dataset(
            X=np.array([[1.0], [2.0], [3.0]]), y=np.array([0, 1, 0]), n_classes=2
        )
        if family == "removal":
            state = AbstractTrainingSet.full(dataset, 1)
        else:
            state = FlipAbstractTrainingSet.full(dataset, int(family == "composite"), 1)
        predicates = [
            ThresholdPredicate(0, 0.5),
            SymbolicThresholdPredicate(0, 0.0, 0.5),
        ]
        x = np.array([0.0])
        assert _fold(state, predicates, x) is None
        assert filter_closed_form(state, _rows(predicates), x) is None
        assert _closed(state, predicates, x) is None

    @pytest.mark.parametrize(
        "name, points", [("iris", 10), ("mammography", 6), ("wdbc", 2)]
    )
    def test_box_runs_match_fold(self, monkeypatch, name, points):
        split = load_dataset(name)
        checked = []

        def traced(state, candidates, x):
            result = filter_abstract_traced(state, candidates, x)
            expected = filter_abstract(
                state, AbstractPredicateSet.of(row_predicates(candidates)), x
            )
            got = None if result is None else (tuple(result.indices), _budgets(result))
            want = None if expected is None else (
                tuple(expected.indices), _budgets(expected)
            )
            checked.append(got == want)
            return result

        monkeypatch.setattr(abstract_learner, "filter_abstract_traced", traced)
        learner = BoxAbstractLearner(max_depth=2)
        for x in split.test.X[:points]:
            for state in (
                AbstractTrainingSet.full(split.train, 1),
                AbstractTrainingSet.full(split.train, 2),
                FlipAbstractTrainingSet.full(split.train, 0, 1),
                FlipAbstractTrainingSet.full(split.train, 1, 1),
            ):
                learner.run(state, x)
        assert checked and all(checked)


def _removal_state(dataset, budget):
    return AbstractTrainingSet.from_indices(
        dataset, np.arange(len(dataset)), budget
    )


def _flip_state(dataset, removals, flips):
    return FlipAbstractTrainingSet(
        dataset, np.arange(len(dataset)), removals, flips
    )


def _replayed(closed, state):
    """``filter#`` at ``state``'s budgets from closed-form sizes found at another."""
    if closed is None:
        return None
    rows, tight, largest = closed
    budgets = (int(rows.size) - max(0, tight - state.n), min(state.flips, largest))
    return tuple(rows), budgets


def _filter_both_ways(state, candidates, x):
    """``filter#`` by :func:`filter_abstract_traced` and by the fold, as pairs."""
    traced = filter_abstract_traced(state, candidates, x)
    fold = filter_abstract(
        state, AbstractPredicateSet.of(row_predicates(candidates)), x
    )
    return tuple(
        None if result is None else (tuple(result.indices), _budgets(result))
        for result in (traced, fold)
    )


class TestTraceReplayMatchesFilter:
    """The closed form's sizes, found at one budget, give ``filter#`` at all.

    ``filter_closed_form``'s rows ``U``, tight count ``s_min`` and largest
    piece do not depend on the budgets, so ``n' = |U| − max(0, s_min − n)``
    and ``f' = min(f, largest)`` replayed from one budget's sizes must equal
    :func:`filter_abstract_traced` and the ``filter_abstract`` fold at every
    other budget, here over ``bestSplit#``'s own candidate rows.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_removal_replay_all_budgets(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        state = _removal_state(dataset, int(rng.integers(0, 4)))
        candidates = best_split_abstract(state, method="optimal")
        if not candidates.feature.size:
            pytest.skip("bestSplit# returned only ⋄ for this draw")
        closed = filter_closed_form(state, candidates, x)
        for budget in range(0, 7):
            probe = _removal_state(dataset, budget)
            traced, fold = _filter_both_ways(probe, candidates, x)
            assert traced == fold, f"budget={budget}"
            assert _replayed(closed, probe) == traced, f"budget={budget}"

    @pytest.mark.parametrize("seed", range(12, 24))
    def test_flip_replay_all_budget_pairs(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        state = _flip_state(dataset, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        candidates = best_split_abstract(state, method="optimal")
        if not candidates.feature.size:
            pytest.skip("bestSplit# returned only ⋄ for this draw")
        closed = filter_closed_form(state, candidates, x)
        for removals in range(0, 4):
            for flips in range(0, 4):
                probe = _flip_state(dataset, removals, flips)
                traced, fold = _filter_both_ways(probe, candidates, x)
                assert traced == fold, f"(r,f)=({removals},{flips})"
                assert _replayed(closed, probe) == traced, f"(r,f)=({removals},{flips})"

    @pytest.mark.parametrize("name, points", [("iris", 6), ("mammography", 4)])
    def test_box_ladder_reused_plan_equals_fresh(self, name, points):
        # One dataset walks the ladder n = 0..4 twice, so its split plan's
        # bestSplit# memo answers the second walk; each run must equal a run
        # on a fresh copy of the dataset, whose plan starts empty.
        split = load_dataset(name)
        learner = BoxAbstractLearner(max_depth=2)
        for x in split.test.X[:points]:
            for budget in range(5):
                fresh = learner.run(
                    AbstractTrainingSet.full(dataclasses.replace(split.train), budget), x
                )
                for _ in range(2):
                    reused = learner.run(AbstractTrainingSet.full(split.train, budget), x)
                    assert reused.class_intervals == fresh.class_intervals
                    assert reused.exit_count == fresh.exit_count
        assert split_plan.plan_for(split.train)._best_split_cache


@st.composite
def row_cases(draw):
    """A node over mixed columns, with budgets ``n ≤ 3`` and ``f ∈ {0, 1}``."""
    state, _, _ = draw(filter_cases())
    budgets = (draw(st.integers(0, 3)), draw(st.sampled_from([0, 1])))
    return AbstractTrainingSet(state.dataset, state.indices, *budgets)


class TestRowChildren:
    """A child built from a row and a side is ``split_down`` of its predicate."""

    @settings(max_examples=200, deadline=None)
    @given(row_cases())
    def test_children_match_split_down(self, state):
        # Node-table rows, as both learners see them.
        candidates = best_split_abstract(state)
        for row, predicate in enumerate(row_predicates(candidates)):
            for side in (0, 1):
                child = candidates.child(state, row, side)
                expected = state.split_down(predicate, side == 0)
                np.testing.assert_array_equal(child.indices, expected.indices)
                assert child.indices.dtype == expected.indices.dtype
                size = child.size
                assert child.n == min(expected.n, size)
                assert child.flips == min(expected.flips, size)


def _verdict(result):
    return (
        result.status,
        result.certified_class,
        tuple((i.lo, i.hi) for i in result.class_intervals),
    )


class TestReusedEngineVerdictIdentity:
    """An engine reused along a budget ladder reports a fresh engine's verdicts.

    One engine walks the whole ladder and keeps its request plans from probe
    to probe; the oracle certifies each budget on a fresh engine.  Both read
    the dataset's split plan, whose ``bestSplit#`` memo the ladder fills.
    Status, certified class, and the class intervals must agree exactly:
    what an engine keeps across budgets never changes a verdict.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_removal_budget_ladder(self, seed):
        rng = np.random.default_rng(100 + seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        ladder_engine = CertificationEngine(max_depth=2, domain="either")
        for budget in range(0, 6):
            model = RemovalPoisoningModel(budget)
            reused = ladder_engine.certify_point(dataset, x, model)
            fresh = CertificationEngine(max_depth=2, domain="either").certify_point(
                dataset, x, model
            )
            assert _verdict(reused) == _verdict(fresh), f"budget={budget}"

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_staircase(self, seed):
        rng = np.random.default_rng(200 + seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        ladder_engine = CertificationEngine(max_depth=2, domain="either")
        for removals in range(0, 3):
            for flips in range(0, 3):
                model = CompositePoisoningModel(removals, flips)
                reused = ladder_engine.certify_point(dataset, x, model)
                fresh = CertificationEngine(
                    max_depth=2, domain="either"
                ).certify_point(dataset, x, model)
                assert _verdict(reused) == _verdict(fresh), f"(r,f)=({removals},{flips})"
