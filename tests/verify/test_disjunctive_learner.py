"""Tests for the disjunctive-domain abstract learner (§5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.predicates import point_satisfies
from repro.core.trace_learner import TraceLearner
from repro.datasets.toy import figure2_dataset, tiny_boolean_dataset
from repro.domains.interval import dominating_component, join_interval_vectors
from repro.domains.trainingset import AbstractTrainingSet
from repro.poisoning.label_flip import FlipAbstractTrainingSet
from repro.utils.timing import TimeBudget, TimeoutExceeded
from repro.verify.abstract_learner import BoxAbstractLearner
from repro.verify import disjunctive_learner
from repro.verify.disjunctive_learner import (
    DisjunctBudgetExceeded,
    DisjunctiveAbstractLearner,
)
from repro.verify.transformers import (
    best_split_abstract,
    cprob_intervals,
    entropy_is_definitely_zero,
    pure_exit_vector,
)
from tests.conftest import mixed_dataset, mixed_test_point, row_predicates


class TestBasicBehaviour:
    def test_zero_poisoning_matches_concrete(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 0)
        run = DisjunctiveAbstractLearner(max_depth=2).run(trainset, [12.0])
        concrete = TraceLearner(max_depth=2).run(dataset, [12.0])
        assert run.robust_class == concrete.prediction

    def test_certifies_well_separated_data_with_poisoning(self):
        from tests.conftest import well_separated_dataset

        dataset = well_separated_dataset()
        trainset = AbstractTrainingSet.full(dataset, 2)
        for x, expected in (([0.5], 0), ([11.0], 1)):
            run = DisjunctiveAbstractLearner(max_depth=1).run(trainset, x)
            assert run.robust_class == expected

    def test_requires_agreement_across_exits(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 6)
        run = DisjunctiveAbstractLearner(max_depth=1).run(trainset, [5.0])
        assert run.robust_class is None

    def test_tracks_peak_disjuncts(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 2)
        run = DisjunctiveAbstractLearner(max_depth=2).run(trainset, [5.0])
        assert run.max_disjuncts >= 2
        assert run.exit_count >= 1

    def test_boolean_dataset(self):
        dataset = tiny_boolean_dataset()
        trainset = AbstractTrainingSet.full(dataset, 1)
        run = DisjunctiveAbstractLearner(max_depth=2).run(trainset, [0.0, 1.0])
        assert run.robust_class == 0


class TestPrecisionRelativeToBox:
    @pytest.mark.parametrize("x", [[1.5], [9.0], [13.0]])
    @pytest.mark.parametrize("n", [1, 2])
    def test_disjuncts_at_least_as_precise_as_box(self, x, n):
        """Any point the Box domain certifies, the disjunctive domain certifies."""
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, n)
        for depth in (1, 2):
            box = BoxAbstractLearner(max_depth=depth).run(trainset, x)
            disjuncts = DisjunctiveAbstractLearner(max_depth=depth).run(trainset, x)
            if box.robust_class is not None:
                assert disjuncts.robust_class == box.robust_class

    def test_disjunctive_intervals_no_wider_than_box_at_depth_one(self):
        # At depth 1 each exit disjunct is one of the pieces whose join forms
        # the Box exit state, so the joined disjunctive intervals are
        # contained in the Box intervals.
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 1)
        box = BoxAbstractLearner(max_depth=1).run(trainset, [8.0])
        disjuncts = DisjunctiveAbstractLearner(max_depth=1).run(trainset, [8.0])
        for tight, loose in zip(disjuncts.class_intervals, box.class_intervals):
            assert tight.lo >= loose.lo - 1e-9
            assert tight.hi <= loose.hi + 1e-9


class TestResourceLimits:
    def test_disjunct_budget_enforced(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 3)
        learner = DisjunctiveAbstractLearner(max_depth=3, max_disjuncts=2)
        with pytest.raises(DisjunctBudgetExceeded):
            learner.run(trainset, [5.0])

    def test_timeout_enforced(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 2)
        with pytest.raises(TimeoutExceeded):
            DisjunctiveAbstractLearner(max_depth=3).run(
                trainset, [5.0], time_budget=TimeBudget(1e-9)
            )


class TestSoundnessSmall:
    @pytest.mark.parametrize("n", [1, 2])
    def test_concrete_predictions_never_escape_certification(self, n):
        """If the disjunctive learner certifies, every concretization agrees."""
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.from_indices(dataset, range(10), n)
        learner = DisjunctiveAbstractLearner(max_depth=2)
        concrete_learner = TraceLearner(max_depth=2)
        for x in ([0.5], [3.0], [9.5]):
            run = learner.run(trainset, x)
            if run.robust_class is None:
                continue
            for concrete in trainset.concretizations():
                subset = dataset.subset(concrete)
                if len(subset) == 0:
                    continue
                assert concrete_learner.predict(subset, x) == run.robust_class


# ---------------------------------------------------------------------------
# Parity of the array-shaped last level with a state-per-leaf loop
# ---------------------------------------------------------------------------


def _state_path_run(learner, trainset, x):
    """The disjunctive learner with every leaf built as a state.

    Each child is ``split_down`` from its parent and classified with
    ``cprob#``; exits are joined one vector at a time.  Returns the fields of
    :class:`DisjunctiveRunResult`, or raises :class:`DisjunctBudgetExceeded`
    where the learner must.
    """
    method = learner.cprob_method
    live = [trainset]
    exits = []
    iterations = 0
    peak = 1
    for _ in range(learner.max_depth):
        if not live:
            break
        iterations += 1
        next_live = []
        for state in live:
            pure = pure_exit_vector(state, method)
            if pure is not None:
                exits.append(pure)
            if entropy_is_definitely_zero(state, method):
                continue
            candidates = best_split_abstract(state, method=method)
            if candidates.includes_null:
                exits.append(cprob_intervals(state, method))
            for predicate in row_predicates(candidates):
                verdict = point_satisfies(predicate, x)
                for branch, possible in (
                    (True, verdict.possibly_true),
                    (False, verdict.possibly_false),
                ):
                    if possible:
                        child = state.split_down(predicate, branch)
                        if child.size:
                            next_live.append(child)
            learner._check_budget(len(next_live) + len(exits))
        live = next_live
        peak = max(peak, len(live) + len(exits))
    exits.extend(cprob_intervals(state, method) for state in live)
    learner._check_budget(len(exits))
    joined = exits[0]
    for vector in exits[1:]:
        joined = join_interval_vectors(joined, vector)
    return {
        "class_intervals": joined,
        "exit_count": len(exits),
        "max_disjuncts": peak,
        "iterations": iterations,
        "exit_robust_classes": tuple(dominating_component(v) for v in exits),
    }


class TestArrayLastLevelParity:
    """The level-at-once learner equals a state-by-state walk with every
    leaf built as a state: every result field, and where the cap is crossed,
    the count in the exception, whatever the chunk sizes."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        family=st.sampled_from(["removal", "flip", "composite"]),
        method=st.sampled_from(["optimal", "box"]),
        depth=st.integers(min_value=1, max_value=3),
        chunk=st.sampled_from([1, 2, 16]),
        cap_share=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_matches_state_path(self, seed, family, method, depth, chunk, cap_share):
        rng = np.random.default_rng(seed)
        dataset = mixed_dataset(rng)
        x = mixed_test_point(rng, dataset)
        if family == "flip":
            trainset = FlipAbstractTrainingSet.full(dataset, 0, int(rng.integers(0, 3)))
        elif family == "composite":
            trainset = FlipAbstractTrainingSet.full(
                dataset, int(rng.integers(0, 3)), int(rng.integers(0, 3))
            )
        else:
            trainset = AbstractTrainingSet.full(dataset, int(rng.integers(0, 4)))
        learner = DisjunctiveAbstractLearner(
            max_depth=depth, cprob_method=method, max_disjuncts=10**9
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(disjunctive_learner, "_FIRST_CHUNK", chunk)
            patch.setattr(disjunctive_learner, "_CHUNK_STATES", 2 * chunk)
            expected = _state_path_run(learner, trainset, x)
            assert _batched_run(learner, trainset, x) == expected
            peak = expected["max_disjuncts"]
            for cap in {peak, peak - 1, int(cap_share * (peak - 1))}:
                learner.max_disjuncts = cap
                walked = _outcome(_state_path_run, learner, trainset, x)
                assert _outcome(_batched_run, learner, trainset, x) == walked
            learner.max_disjuncts = peak - 1
            with pytest.raises(DisjunctBudgetExceeded):
                learner.run(trainset, x)


def _batched_run(learner, trainset, x):
    """The learner's result as :func:`_state_path_run`'s fields."""
    run = learner.run(trainset, x)
    return {
        "class_intervals": run.class_intervals,
        "exit_count": run.exit_count,
        "max_disjuncts": run.max_disjuncts,
        "iterations": run.iterations,
        "exit_robust_classes": run.exit_robust_classes,
    }


def _outcome(run, learner, trainset, x):
    """A run's fields, or the message of the cap it exceeded."""
    try:
        return run(learner, trainset, x)
    except DisjunctBudgetExceeded as error:
        return str(error)
