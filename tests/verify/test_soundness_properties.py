"""End-to-end soundness property tests: Antidote versus exhaustive enumeration.

These are the most important tests in the suite.  On randomly generated small
datasets (where ``Δn(T)`` can be enumerated exhaustively) they check the
headline guarantee of the paper: whenever the abstract verifier reports
*robust*, retraining on every poisoned training set really does preserve the
classification (Theorem 4.11 / Corollary 4.12) — for both abstract domains,
both ``cprob#`` transformers, boolean and real features, and several depths.
"""

import numpy as np
import pytest

from repro.api import CertificationEngine
from repro.core.trace_learner import TraceLearner
from repro.domains.trainingset import AbstractTrainingSet
from repro.poisoning.attacks import greedy_removal_attack, random_removal_attack
from repro.verify.abstract_learner import BoxAbstractLearner
from repro.verify.disjunctive_learner import DisjunctiveAbstractLearner
from repro.verify.enumeration import verify_by_enumeration
from tests.conftest import random_small_dataset, random_test_point


def _scenario(seed: int):
    rng = np.random.default_rng(seed)
    dataset = random_small_dataset(rng)
    x = random_test_point(rng, dataset)
    n = int(rng.integers(1, 3))
    depth = int(rng.integers(1, 4))
    return rng, dataset, x, n, depth


class TestCertificationImpliesRobustness:
    @pytest.mark.parametrize("seed", range(25))
    def test_either_domain_never_certifies_a_non_robust_point(self, seed):
        _, dataset, x, n, depth = _scenario(seed)
        engine = CertificationEngine(max_depth=depth, domain="either")
        result = engine.certify_point(dataset, x, n)
        if result.is_certified:
            oracle = verify_by_enumeration(dataset, x, n, max_depth=depth)
            assert oracle.robust, (
                f"seed={seed}: certified but enumeration found counterexample "
                f"{oracle.counterexample_removals}"
            )
            assert result.certified_class == oracle.baseline_prediction

    @pytest.mark.parametrize("seed", range(25, 40))
    @pytest.mark.parametrize("cprob_method", ["optimal", "box"])
    def test_box_learner_intervals_contain_all_concrete_runs(self, seed, cprob_method):
        """Theorem 4.11: every concretization's final probabilities are covered."""
        _, dataset, x, n, depth = _scenario(seed)
        trainset = AbstractTrainingSet.full(dataset, n)
        learner = BoxAbstractLearner(max_depth=depth, cprob_method=cprob_method)
        run = learner.run(trainset, x)
        concrete_learner = TraceLearner(max_depth=depth)
        for concrete in trainset.concretizations():
            subset = dataset.subset(concrete)
            if len(subset) == 0:
                continue
            result = concrete_learner.run(subset, x)
            for interval, probability in zip(
                run.class_intervals, result.class_probabilities
            ):
                assert interval.lo - 1e-9 <= probability <= interval.hi + 1e-9

    @pytest.mark.parametrize("seed", range(40, 55))
    def test_disjunctive_certification_matches_every_concrete_prediction(self, seed):
        _, dataset, x, n, depth = _scenario(seed)
        trainset = AbstractTrainingSet.full(dataset, n)
        learner = DisjunctiveAbstractLearner(max_depth=depth, max_disjuncts=50_000)
        run = learner.run(trainset, x)
        if run.robust_class is None:
            return
        concrete_learner = TraceLearner(max_depth=depth)
        for concrete in trainset.concretizations():
            subset = dataset.subset(concrete)
            if len(subset) == 0:
                continue
            assert concrete_learner.predict(subset, x) == run.robust_class


class TestAttackVerifierConsistency:
    @pytest.mark.parametrize("seed", range(55, 70))
    def test_successful_attack_refutes_certification(self, seed):
        """A concrete attack is a proof of non-robustness; soundness forbids
        the verifier from certifying the same configuration."""
        rng, dataset, x, n, depth = _scenario(seed)
        attack = greedy_removal_attack(dataset, x, n, max_depth=depth, rng=rng)
        if not attack.success:
            attack = random_removal_attack(
                dataset, x, n, trials=30, max_depth=depth, rng=rng
            )
        if not attack.success:
            return
        engine = CertificationEngine(max_depth=depth, domain="either")
        result = engine.certify_point(dataset, x, n)
        assert not result.is_certified

    @pytest.mark.parametrize("seed", range(70, 80))
    def test_attack_result_is_replayable(self, seed):
        rng, dataset, x, n, depth = _scenario(seed)
        attack = greedy_removal_attack(dataset, x, n, max_depth=depth, rng=rng)
        if not attack.success:
            return
        learner = TraceLearner(max_depth=depth)
        poisoned = dataset.remove(attack.removed_indices)
        assert learner.predict(poisoned, x) == attack.final_prediction
        assert attack.final_prediction != attack.original_prediction
        assert len(attack.removed_indices) <= n
