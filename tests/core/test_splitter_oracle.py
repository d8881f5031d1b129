"""The split-plan ``bestSplit`` against the per-feature-argsort oracle.

`_score_candidates` scores every row of a node's stacked candidate table with
vectorized gini arithmetic; `_score_candidates_reference` is the
loop-per-candidate mirror built directly on
:func:`repro.core.impurity.split_score`.  Both are registered in the
soundness-boundary kernel registry (:mod:`repro.analysis.rules.soundness`),
which requires this module to exercise the pair.

The learners are held to the oracle of ``tests/argsort_splitter.py``, which
re-argsorts every column of every ``subset_mask`` copy: the same predicate
(type and float threshold), score, counts, decisions, branches and
``stopped_reason``.  Duplicated columns and repeated values make ties across
and within features common, so the lowest-(feature, threshold) tie-break is
exercised too.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import split_plan
from repro.core.dataset import Dataset, FeatureKind
from repro.core.learner import DecisionTreeLearner
from repro.core.splitter import (
    _score_candidates,
    _score_candidates_reference,
    best_split,
)
from repro.core.trace_learner import TraceLearner
from tests import argsort_splitter as oracle
from tests.conftest import SMALL_BLOCKS, block_rows

TOL = 1e-9
_HIGHEST = {FeatureKind.BOOLEAN: 1, FeatureKind.CATEGORICAL: 3, FeatureKind.REAL: 5}


def _values(kind, codes):
    """Column values for integer codes: reals are spread and shifted."""
    codes = np.asarray(codes, dtype=float)
    return codes * 0.75 - 1.0 if kind is FeatureKind.REAL else codes


@st.composite
def datasets(draw, max_rows: int = 14, kinds_of=st.sampled_from(list(FeatureKind))):
    """Datasets of columns of the kinds ``kinds_of`` draws (mixed by default),
    some duplicated (a non-boolean one possibly as another non-boolean kind)."""
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    kinds, codes = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(kinds_of)
        kinds.append(kind)
        values = st.integers(0, _HIGHEST[kind])
        codes.append(draw(st.lists(values, min_size=n_rows, max_size=n_rows)))
    for source in draw(st.lists(st.integers(0, len(kinds) - 1), max_size=2)):
        kind = kinds[source]
        if kind is not FeatureKind.BOOLEAN:
            kind = draw(kinds_of.filter(lambda kind: kind is not FeatureKind.BOOLEAN))
        kinds.append(kind)
        codes.append(codes[source])
    k = draw(st.integers(min_value=2, max_value=3))
    y = draw(st.lists(st.integers(0, k - 1), min_size=n_rows, max_size=n_rows))
    dataset = Dataset(
        X=np.column_stack([_values(kind, c) for kind, c in zip(kinds, codes)]),
        y=np.array(y),
        n_classes=k,
        feature_kinds=tuple(kinds),
    )
    points = draw(
        st.lists(
            st.tuples(*(st.integers(0, _HIGHEST[kind]) for kind in kinds)),
            min_size=1,
            max_size=4,
        )
    )
    return dataset, [
        np.array([_values(kind, [c])[0] for kind, c in zip(kinds, point)])
        for point in points
    ]


impurities = st.sampled_from(["gini", "entropy"])


def _assert_same_choice(choice, expected):
    if expected is None:
        assert choice is None
        return
    assert type(choice.predicate) is type(expected.predicate)
    assert choice.predicate == expected.predicate
    assert choice.score == expected.score
    assert (choice.left_size, choice.right_size) == (
        expected.left_size,
        expected.right_size,
    )
    np.testing.assert_array_equal(choice.left_class_counts, expected.left_class_counts)
    np.testing.assert_array_equal(choice.right_class_counts, expected.right_class_counts)


def _assert_same_tree(node, expected):
    np.testing.assert_array_equal(node.class_counts, expected.class_counts)
    assert node.predicate == expected.predicate
    assert type(node.predicate) is type(expected.predicate)
    if expected.predicate is not None:
        _assert_same_tree(node.left, expected.left)
        _assert_same_tree(node.right, expected.right)


@settings(max_examples=150, deadline=None)
@given(datasets(), impurities)
def test_best_split_matches_argsort_oracle(case, impurity):
    dataset, _ = case
    _assert_same_choice(
        best_split(dataset, impurity=impurity), oracle.best_split(dataset, impurity)
    )


@settings(max_examples=150, deadline=None)
@given(datasets(), impurities, st.integers(min_value=1, max_value=3))
def test_trace_learner_matches_argsort_oracle(case, impurity, depth):
    dataset, points = case
    learner = TraceLearner(max_depth=depth, impurity=impurity)
    for x in points:
        assert learner.run(dataset, x) == oracle.run_trace(dataset, x, depth, impurity)


@settings(max_examples=100, deadline=None)
@given(datasets(), impurities, st.integers(min_value=1, max_value=3))
def test_tree_learner_matches_argsort_oracle(case, impurity, depth):
    dataset, _ = case
    tree = DecisionTreeLearner(max_depth=depth, impurity=impurity).fit(dataset)
    _assert_same_tree(tree.root, oracle.fit_tree(dataset, depth, impurity).root)


@settings(max_examples=120, deadline=None)
@given(
    # Real columns alone, at up to 40 rows, make tables of several feature
    # blocks that their build threads score.
    st.one_of(datasets(), datasets(40, st.just(FeatureKind.REAL))),
    impurities,
    st.data(),
)
def test_score_candidates_matches_scalar_oracle(case, impurity, data):
    dataset, _ = case
    chosen = data.draw(
        st.lists(st.booleans(), min_size=len(dataset), max_size=len(dataset))
    )
    indices = np.flatnonzero(chosen)
    rows = split_plan.SplitTablePlan(dataset).node_candidates(indices)
    vectorized = _score_candidates(rows, impurity)
    reference = _score_candidates_reference(
        rows.left_class_counts, rows.right_class_counts, impurity
    )
    assert vectorized.shape == reference.shape == rows.low.shape
    np.testing.assert_allclose(vectorized, reference, atol=TOL, rtol=0.0)
    # A table built and scored in blocks of 1, 3 or 7 rows (feature blocks
    # of 32, 96 or 224 cells, which its build threads may score) gives the
    # same bits.
    for block in SMALL_BLOCKS:
        with block_rows(block):
            blocked = split_plan.SplitTablePlan(dataset).node_candidates(indices)
            scores = _score_candidates(blocked, impurity)
        assert scores.tobytes() == vectorized.tobytes()
        if impurity == "gini" and scores.size:
            assert blocked.gini_argmin == rows.gini_argmin


def test_constant_node_scores_empty():
    dataset = Dataset(X=np.zeros((3, 1)), y=np.asarray([0, 1, 0]))
    rows = split_plan.SplitTablePlan(dataset).node_candidates(np.arange(3))
    assert _score_candidates(rows, "gini").shape == (0,)
    assert _score_candidates_reference(
        rows.left_class_counts, rows.right_class_counts, "gini"
    ).shape == (0,)
    assert best_split(dataset) is None
