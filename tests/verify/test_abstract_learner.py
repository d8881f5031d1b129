"""Tests for the Box-domain abstract learner DTrace#."""

import pytest

from repro.core.trace_learner import TraceLearner
from repro.datasets.toy import figure2_dataset, tiny_boolean_dataset
from repro.domains.trainingset import AbstractTrainingSet
from repro.utils.timing import TimeBudget, TimeoutExceeded
from repro.verify.abstract_learner import BoxAbstractLearner


class TestZeroPoisoning:
    """With n = 0 the abstraction is exact, so results collapse to DTrace."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("x", [[2.0], [5.0], [12.0], [18.0]])
    def test_intervals_contain_concrete_probabilities(self, depth, x):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 0)
        learner = BoxAbstractLearner(max_depth=depth)
        run = learner.run(trainset, x)
        concrete = TraceLearner(max_depth=depth).run(dataset, x)
        for interval, probability in zip(run.class_intervals, concrete.class_probabilities):
            assert interval.lo - 1e-9 <= probability <= interval.hi + 1e-9

    def test_zero_poisoning_certifies(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 0)
        run = BoxAbstractLearner(max_depth=1).run(trainset, [18.0])
        assert run.robust_class == 1
        assert run.is_conclusive


class TestBoxBehaviour:
    def test_well_separated_data_certified_under_poisoning(self):
        from tests.conftest import well_separated_dataset

        dataset = well_separated_dataset()
        trainset = AbstractTrainingSet.full(dataset, 2)
        run = BoxAbstractLearner(max_depth=1).run(trainset, [0.5])
        assert run.robust_class == 0

    def test_boolean_dataset_certified(self):
        dataset = tiny_boolean_dataset()
        trainset = AbstractTrainingSet.full(dataset, 1)
        run = BoxAbstractLearner(max_depth=1).run(trainset, [1.0, 0.0])
        assert run.robust_class == 1

    def test_excessive_poisoning_is_inconclusive(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 8)
        run = BoxAbstractLearner(max_depth=2).run(trainset, [5.0])
        assert run.robust_class is None
        assert not run.is_conclusive

    def test_exit_count_and_iterations_reported(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 1)
        run = BoxAbstractLearner(max_depth=3).run(trainset, [18.0])
        assert run.exit_count >= 1
        assert 1 <= run.iterations <= 3
        assert run.max_disjuncts == 1

    def test_depth_zero_returns_root_statistics(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 0)
        run = BoxAbstractLearner(max_depth=0).run(trainset, [5.0])
        assert run.iterations == 0
        probabilities = dataset.class_probabilities()
        assert run.class_intervals[0].lo == pytest.approx(probabilities[0])

    def test_box_cprob_method_also_sound(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 1)
        optimal = BoxAbstractLearner(max_depth=1, cprob_method="optimal").run(trainset, [18.0])
        box = BoxAbstractLearner(max_depth=1, cprob_method="box").run(trainset, [18.0])
        for tight, loose in zip(optimal.class_intervals, box.class_intervals):
            assert loose.lo <= tight.lo + 1e-9
            assert loose.hi >= tight.hi - 1e-9

    def test_timeout_propagates(self):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.full(dataset, 2)
        budget = TimeBudget(1e-9)
        with pytest.raises(TimeoutExceeded):
            BoxAbstractLearner(max_depth=3).run(trainset, [5.0], time_budget=budget)


class TestSoundnessSmall:
    """Theorem 4.11 checked by enumeration on small instances."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_concrete_runs_inside_abstract_intervals(self, n, depth):
        dataset = figure2_dataset()
        trainset = AbstractTrainingSet.from_indices(dataset, range(10), n)
        learner = BoxAbstractLearner(max_depth=depth)
        concrete_learner = TraceLearner(max_depth=depth)
        for x in ([1.0], [4.0], [8.0], [11.0]):
            run = learner.run(trainset, x)
            for concrete in trainset.concretizations():
                subset = dataset.subset(concrete)
                if len(subset) == 0:
                    continue
                result = concrete_learner.run(subset, x)
                for interval, probability in zip(
                    run.class_intervals, result.class_probabilities
                ):
                    assert interval.lo - 1e-9 <= probability <= interval.hi + 1e-9
