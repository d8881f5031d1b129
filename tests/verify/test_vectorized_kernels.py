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

The closed-form ``filter#`` (`filter_closed_form`) is pinned to the
sequential fold of split pieces it replaces (`filter_abstract`): same rows,
same budgets, on random nodes and predicate sets and on every filter step of
Box runs over the UCI-like datasets.  The warm-start layer gets the same
treatment: a replayed :class:`~repro.verify.trace.TraceStep` must reproduce
``filter#`` exactly at *every* budget (the replay is pure budget arithmetic
over three recorded sizes), and an engine that warm-starts across a budget
ladder must report verdicts identical to fresh cold runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CertificationEngine
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
from repro.poisoning.models import CompositePoisoningModel, RemovalPoisoningModel
from repro.verify import abstract_learner
from repro.verify.abstract_learner import BoxAbstractLearner
from repro.verify.trace import FilterReplay, filter_abstract_traced
from repro.verify.transformers import (
    _flip_split_score_bounds_reference,
    _side_score_bounds_reference,
    _split_score_bounds,
    best_split_abstract,
    cprob_box,
    cprob_intervals,
    cprob_optimal,
    exit_bounds,
    filter_abstract,
    filter_closed_form,
)
from tests.conftest import random_small_dataset, random_test_point

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
        candidate_tables(),
        candidate_tables(),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_oracles(self, left, right, removals, flips):
        sides = _split(left, right)
        left_sizes, left_counts, right_sizes, right_counts = sides
        # f = 0: the paper's score#, side by side, under both cprob# methods.
        for method in ("optimal", "box"):
            lower, upper = _split_score_bounds(*sides, removals, removals, 0, method)
            left_lower, left_upper = _side_score_bounds_reference(
                left_sizes, left_counts, removals, method
            )
            right_lower, right_upper = _side_score_bounds_reference(
                right_sizes, right_counts, removals, method
            )
            np.testing.assert_allclose(lower, left_lower + right_lower, atol=TOL)
            np.testing.assert_allclose(upper, left_upper + right_upper, atol=TOL)
        # f > 0 under optimal: the allocation-at-a-time oracle, bit for bit.
        lower, upper = _split_score_bounds(
            *sides, removals, removals, flips, "optimal"
        )
        ref_lower, ref_upper = _flip_split_score_bounds_reference(
            *sides, removals, flips
        )
        np.testing.assert_array_equal(lower, ref_lower)
        np.testing.assert_array_equal(upper, ref_upper)
        # f > 0 under box: the naïve cprob# only widens the optimal bounds.
        box_lower, box_upper = _split_score_bounds(
            *sides, removals, removals, flips, "box"
        )
        assert np.all(box_lower <= lower + TOL)
        assert np.all(box_upper >= upper - TOL)

    @settings(max_examples=60, deadline=None)
    @given(candidate_tables(), st.data(), st.sampled_from(["optimal", "box"]))
    def test_per_candidate_budgets_match_reference(self, table, data, method):
        # Pool predicates carry their own split_down budget per side.
        sizes, counts = table
        budgets = [
            [data.draw(st.integers(min_value=0, max_value=6)) for _ in sizes]
            for _ in range(2)
        ]
        left_budgets, right_budgets = np.array(budgets)
        lower, upper = _split_score_bounds(
            sizes, counts, sizes, counts, left_budgets, right_budgets, 0, method
        )
        for i in range(sizes.shape[0]):
            expected = [
                _side_score_bounds_reference(
                    sizes[i : i + 1], counts[i : i + 1], side_budgets[i], method
                )
                for side_budgets in budgets
            ]
            np.testing.assert_allclose(
                lower[i], expected[0][0][0] + expected[1][0][0], atol=TOL
            )
            np.testing.assert_allclose(
                upper[i], expected[0][1][0] + expected[1][1][0], atol=TOL
            )

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
        lower, upper = _split_score_bounds(*sides, removals, removals, flips, method)
        assert np.all(lower <= upper + TOL)


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


@st.composite
def filter_cases(draw):
    """A node ``⟨T, ·⟩``, a test point and a random Ψ over its features.

    Columns are real, boolean or categorical; Ψ mixes concrete thresholds,
    symbolic thresholds (which the point may evaluate to *maybe*) and
    equality predicates, so pieces can be empty, nested or overlapping.
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
    n_rows = draw(st.integers(min_value=1, max_value=10))
    columns = []
    point = []
    for kind in kinds:
        if kind is FeatureKind.REAL:
            values = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
            point.append(draw(_GRID))
        elif kind is FeatureKind.BOOLEAN:
            values = st.sampled_from([0.0, 1.0])
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
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        feature = draw(st.integers(0, len(kinds) - 1))
        kind = kinds[feature]
        if kind is FeatureKind.BOOLEAN:
            predicates.append(ThresholdPredicate(feature, 0.5))
        elif kind is FeatureKind.CATEGORICAL:
            value = draw(st.sampled_from([0.0, 1.0, 2.0]))
            predicates.append(EqualityPredicate(feature, value))
        elif draw(st.booleans()):
            predicates.append(ThresholdPredicate(feature, draw(_GRID)))
        else:
            bounds = draw(st.lists(_GRID, min_size=2, max_size=2, unique=True))
            low, high = sorted(bounds)
            predicates.append(SymbolicThresholdPredicate(feature, low, high))

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


def _closed(state, predicates, x):
    """``filter#`` by the closed form: ``(rows, budgets)`` or ``None``."""
    closed = filter_closed_form(state, AbstractPredicateSet.of(predicates), x)
    if closed is None:
        return None
    rows, tight, largest = closed
    replay = FilterReplay(int(rows.size), tight, largest)
    return tuple(rows), replay.replay(state.n, state.flips)


class TestClosedFormFilter:
    """``filter_closed_form`` against the sequential fold it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(filter_cases())
    def test_matches_fold(self, case):
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
        assert _closed(state, predicates, x) is None

    @pytest.mark.parametrize(
        "name, points", [("iris", 10), ("mammography", 6), ("wdbc", 2)]
    )
    def test_box_runs_match_fold(self, monkeypatch, name, points):
        split = load_dataset(name)
        checked = []

        def traced(state, predicates, x):
            result, step = filter_abstract_traced(state, predicates, x)
            expected = filter_abstract(state, predicates, x)
            got = None if result is None else (tuple(result.indices), _budgets(result))
            want = None if expected is None else (
                tuple(expected.indices), _budgets(expected)
            )
            checked.append(got == want)
            return result, step

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


class TestTraceReplayMatchesFilter:
    """A recorded TraceStep replays ``filter#`` exactly at every other budget.

    The replay never re-runs ``filter#`` — it is pure budget arithmetic over
    three recorded sizes — so agreement here is the soundness argument for
    warm-started probes.
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_removal_replay_all_budgets(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        state = _removal_state(dataset, int(rng.integers(0, 4)))
        predicates = best_split_abstract(state, method="optimal")
        predicates = predicates.without_null()
        if not predicates.has_concrete_choices:
            pytest.skip("bestSplit# returned only ⋄ for this draw")
        _, step = filter_abstract_traced(state, predicates, x)
        for budget in range(0, 7):
            probe = _removal_state(dataset, budget)
            assert step.matches(probe, predicates.predicates)
            replayed = step.apply(probe)
            expected, _ = filter_abstract_traced(probe, predicates, x)
            if expected is None:
                assert replayed is None
            else:
                assert replayed is not None
                np.testing.assert_array_equal(replayed.indices, expected.indices)
                assert replayed.n == expected.n

    @pytest.mark.parametrize("seed", range(12, 24))
    def test_flip_replay_all_budget_pairs(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        state = _flip_state(dataset, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        predicates = best_split_abstract(state, method="optimal")
        predicates = predicates.without_null()
        if not predicates.has_concrete_choices:
            pytest.skip("bestSplit# returned only ⋄ for this draw")
        _, step = filter_abstract_traced(state, predicates, x)
        for removals in range(0, 4):
            for flips in range(0, 4):
                probe = _flip_state(dataset, removals, flips)
                assert step.matches(probe, predicates.predicates)
                replayed = step.apply(probe)
                expected, _ = filter_abstract_traced(probe, predicates, x)
                if expected is None:
                    assert replayed is None
                else:
                    assert replayed is not None
                    np.testing.assert_array_equal(
                        replayed.indices, expected.indices
                    )
                    assert replayed.n == expected.n
                    assert replayed.flips == expected.flips


def _verdict(result):
    return (
        result.status,
        result.certified_class,
        tuple((i.lo, i.hi) for i in result.class_intervals),
    )


class TestWarmStartVerdictIdentity:
    """Warm-started staircase probes report identical verdicts to cold runs.

    One engine walks the whole ladder (its trace cache warm-starts every probe
    after the first); the oracle certifies each budget on a fresh engine with
    an empty trace cache.  Status, certified class, and the class intervals
    must agree exactly — warm-starting is an optimization, never a semantic
    change.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_removal_budget_ladder(self, seed):
        rng = np.random.default_rng(100 + seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        warm_engine = CertificationEngine(max_depth=2, domain="either")
        for budget in range(0, 6):
            model = RemovalPoisoningModel(budget)
            warm = warm_engine.certify_point(dataset, x, model)
            cold = CertificationEngine(max_depth=2, domain="either").certify_point(
                dataset, x, model
            )
            assert _verdict(warm) == _verdict(cold), f"budget={budget}"

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_staircase(self, seed):
        rng = np.random.default_rng(200 + seed)
        dataset = random_small_dataset(rng)
        x = random_test_point(rng, dataset)
        warm_engine = CertificationEngine(max_depth=2, domain="either")
        for removals in range(0, 3):
            for flips in range(0, 3):
                model = CompositePoisoningModel(removals, flips)
                warm = warm_engine.certify_point(dataset, x, model)
                cold = CertificationEngine(
                    max_depth=2, domain="either"
                ).certify_point(dataset, x, model)
                assert _verdict(warm) == _verdict(cold), f"(r,f)=({removals},{flips})"
