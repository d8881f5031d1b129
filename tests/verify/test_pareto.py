"""Tests for the composite (r, f) Pareto-frontier search.

The acceptance bar: staircase descent must return exactly the maximal
certified pairs that brute-force grid certification finds, while probing only
O(frontier · log grid) cells — and, through a runtime, re-deriving the whole
frontier from the verdict cache without any learner invocation.
"""

import itertools

import numpy as np
import pytest

from repro.api import CertificationEngine
from repro.datasets.registry import load_dataset
from repro.poisoning.models import CompositePoisoningModel, LabelFlipModel
from repro.runtime import CertificationRuntime
from repro.utils.validation import ValidationError
from repro.verify.search import (
    ParetoFrontierResult,
    pareto_frontier,
    pareto_sweep,
)
from tests.conftest import well_separated_dataset


def brute_force_frontier(engine, dataset, x, max_remove, max_flip):
    """Maximal certified pairs by certifying every cell of the budget grid."""
    region = {
        (r, f)
        for r, f in itertools.product(range(max_remove + 1), range(max_flip + 1))
        if engine.certify_point(
            dataset, x, CompositePoisoningModel(r, f)
        ).is_certified
    }
    return sorted(
        pair
        for pair in region
        if not any(
            other != pair and other[0] >= pair[0] and other[1] >= pair[1]
            for other in region
        )
    )


@pytest.fixture(scope="module")
def box_engine():
    return CertificationEngine(max_depth=1, domain="box")


class TestFrontierMatchesBruteForce:
    def test_well_separated_grid(self, box_engine):
        dataset = well_separated_dataset()
        for x in ([0.5], [11.0]):
            expected = brute_force_frontier(box_engine, dataset, x, 8, 8)
            outcome = box_engine.pareto_frontier(
                dataset, x, max_remove=8, max_flip=8
            )
            assert sorted(outcome.frontier) == expected
            # The staircase must beat the 81-cell grid by a wide margin.
            assert outcome.probes < 81

    def test_small_iris_grid(self, box_engine):
        split = load_dataset("iris", scale=0.3, seed=0)
        for index in range(3):
            x = split.test.X[index]
            expected = brute_force_frontier(box_engine, split.train, x, 2, 2)
            outcome = box_engine.pareto_frontier(
                split.train, x, max_remove=2, max_flip=2
            )
            assert sorted(outcome.frontier) == expected, index

    def test_uncertifiable_point_yields_empty_frontier(self, box_engine):
        # A contradictory one-row-per-class dataset at (0, 0) still certifies
        # trivially, so force emptiness with an impossible fake: a point the
        # Box domain cannot decide even unpoisoned.  The simplest such case
        # is a dataset whose two classes are interleaved at the same value.
        from repro.core.dataset import Dataset

        dataset = Dataset(
            X=np.array([[0.0], [0.0], [0.0], [0.0]]),
            y=np.array([0, 1, 0, 1]),
            n_classes=2,
        )
        outcome = box_engine.pareto_frontier(dataset, [0.0], max_remove=2, max_flip=2)
        assert outcome.frontier == ()
        assert not outcome.ever_certified


class TestFrontierShape:
    def test_pairs_are_mutually_non_dominating(self, box_engine):
        dataset = well_separated_dataset()
        outcome = box_engine.pareto_frontier(dataset, [0.5], max_remove=8, max_flip=8)
        for a, b in itertools.combinations(outcome.frontier, 2):
            assert not (a[0] >= b[0] and a[1] >= b[1])
            assert not (b[0] >= a[0] and b[1] >= a[1])

    def test_staircase_order(self, box_engine):
        dataset = well_separated_dataset()
        outcome = box_engine.pareto_frontier(dataset, [0.5], max_remove=8, max_flip=8)
        removals = [r for r, _ in outcome.frontier]
        flips = [f for _, f in outcome.frontier]
        assert removals == sorted(removals)
        assert flips == sorted(flips, reverse=True)

    def test_dominates_covers_exactly_the_certified_region(self, box_engine):
        dataset = well_separated_dataset()
        outcome = box_engine.pareto_frontier(dataset, [0.5], max_remove=8, max_flip=8)
        expected_region = {
            (r, f)
            for r, f in itertools.product(range(9), range(9))
            if box_engine.certify_point(
                dataset, [0.5], CompositePoisoningModel(r, f)
            ).is_certified
        }
        for r, f in itertools.product(range(9), range(9)):
            assert outcome.dominates(r, f) == ((r, f) in expected_region), (r, f)

    def test_to_dict_round_trip_shape(self, box_engine):
        dataset = well_separated_dataset()
        outcome = box_engine.pareto_frontier(dataset, [0.5], max_remove=4, max_flip=4)
        payload = outcome.to_dict()
        assert payload["frontier"] == [[r, f] for r, f in outcome.frontier]
        assert payload["probes"] == outcome.probes
        assert payload["attempted_pairs"] == len(outcome.attempts)

    def test_negative_caps_rejected(self, box_engine):
        dataset = well_separated_dataset()
        with pytest.raises(ValidationError, match="non-negative"):
            pareto_frontier(box_engine, dataset, [0.5], max_remove=-1)

    def test_scalar_template_rejected_for_pair_search(self, box_engine):
        dataset = well_separated_dataset()
        with pytest.raises(ValidationError, match="budget pair"):
            pareto_frontier(box_engine, dataset, [0.5], model=LabelFlipModel(1))


class TestLocalDominanceMemo:
    def test_derived_attempts_do_not_probe(self, box_engine):
        dataset = well_separated_dataset()
        outcome = box_engine.pareto_frontier(dataset, [0.5], max_remove=8, max_flip=8)
        # Re-query every decided pair plus its dominated/dominating
        # neighbours through the recorded results: the memo logic must agree
        # with monotonicity everywhere.
        for (r, f), certified in outcome.attempts.items():
            if certified:
                assert outcome.dominates(r, f)

    def test_probes_never_exceed_attempts(self, box_engine):
        dataset = well_separated_dataset()
        outcome = box_engine.pareto_frontier(dataset, [0.5], max_remove=8, max_flip=8)
        assert outcome.probes <= len(outcome.attempts)
        assert len(outcome.results) == outcome.probes


class TestParetoSweep:
    def test_serial_sweep_matches_per_point_frontiers(self, box_engine):
        dataset = well_separated_dataset()
        points = np.array([[0.5], [11.0], [3.0]])
        outcomes = pareto_sweep(
            box_engine, dataset, points, max_remove=4, max_flip=4
        )
        assert len(outcomes) == 3
        for row, outcome in zip(points, outcomes):
            solo = pareto_frontier(
                box_engine, dataset, row, max_remove=4, max_flip=4
            )
            assert outcome.frontier == solo.frontier

    def test_parallel_sweep_matches_serial(self, box_engine):
        dataset = well_separated_dataset()
        points = np.array([[0.5], [11.0], [3.0], [7.0]])
        serial = pareto_sweep(box_engine, dataset, points, max_remove=4, max_flip=4)
        import warnings

        with warnings.catch_warnings():
            # Pool-less hosts fall back to serial with a RuntimeWarning; the
            # results must be identical either way.
            warnings.simplefilter("ignore", RuntimeWarning)
            parallel = pareto_sweep(
                box_engine, dataset, points, max_remove=4, max_flip=4, n_jobs=2
            )
        assert [o.frontier for o in parallel] == [o.frontier for o in serial]
        assert all(isinstance(o, ParetoFrontierResult) for o in parallel)

    def test_empty_points(self, box_engine):
        dataset = well_separated_dataset()
        assert pareto_sweep(box_engine, dataset, np.empty((0, 1))) == []


class TestRuntimeParetoFrontier:
    def test_warm_rerun_answers_from_pair_dominance_cache(self, tmp_path):
        dataset = well_separated_dataset()
        runtime = CertificationRuntime(tmp_path / "cache")
        engine = CertificationEngine(max_depth=1, domain="box", runtime=runtime)
        points = np.array([[0.5], [11.0]])
        cold = engine.pareto_sweep(dataset, points, max_remove=6, max_flip=6)
        assert sum(o.learner_invocations for o in cold) > 0
        warm = engine.pareto_sweep(dataset, points, max_remove=6, max_flip=6)
        assert [o.frontier for o in warm] == [o.frontier for o in cold]
        assert sum(o.learner_invocations for o in warm) == 0

    def test_scalar_sweep_seeds_the_frontier(self, tmp_path):
        # Max-certified removal and flip searches populate the 1-D axes of
        # the pair lattice... but under *different* cache families, so the
        # composite frontier may only reuse verdicts of its own family.  The
        # important invariant: mixing searches never corrupts the frontier.
        dataset = well_separated_dataset()
        runtime = CertificationRuntime(tmp_path / "cache")
        engine = CertificationEngine(max_depth=1, domain="box", runtime=runtime)
        runtime.max_certified(engine, dataset, [0.5], max_budget=6)
        runtime.max_certified(
            engine, dataset, [0.5], max_budget=6, model=LabelFlipModel(0)
        )
        outcome = runtime.pareto_frontier(
            engine, dataset, [0.5], max_remove=6, max_flip=6
        )
        plain = CertificationEngine(max_depth=1, domain="box").pareto_frontier(
            dataset, [0.5], max_remove=6, max_flip=6
        )
        assert outcome.frontier == plain.frontier

    def test_flip_family_budget_search_through_cache(self, tmp_path):
        dataset = well_separated_dataset()
        runtime = CertificationRuntime(tmp_path / "cache")
        engine = CertificationEngine(max_depth=1, domain="box", runtime=runtime)
        first = runtime.max_certified(
            engine, dataset, [0.5], max_budget=8, model=LabelFlipModel(0)
        )
        assert first.learner_invocations > 0
        again = runtime.max_certified(
            engine, dataset, [0.5], max_budget=8, model=LabelFlipModel(0)
        )
        assert again.max_certified_n == first.max_certified_n
        assert again.learner_invocations == 0

    def test_engine_entry_point_routes_through_runtime(self, tmp_path):
        dataset = well_separated_dataset()
        runtime = CertificationRuntime(tmp_path / "cache")
        engine = CertificationEngine(max_depth=1, domain="box", runtime=runtime)
        outcome = engine.pareto_frontier(dataset, [0.5], max_remove=4, max_flip=4)
        # Every probe flowed through the runtime's cache layer.
        assert runtime.stats.learner_invocations >= outcome.probes
        again = engine.pareto_frontier(dataset, [0.5], max_remove=4, max_flip=4)
        assert again.frontier == outcome.frontier
