"""Tests for the label-flip / combined poisoning extension ``⟨T, n, f⟩``."""

import numpy as np
import pytest

from repro.api import CertificationEngine
from repro.core.dataset import Dataset
from repro.core.predicates import ThresholdPredicate
from repro.datasets.toy import figure2_dataset, tiny_boolean_dataset
from repro.domains.interval import Interval, dominating_component
from repro.domains.predicate_set import AbstractPredicateSet
from repro.poisoning.label_flip import (
    FlipAbstractTrainingSet,
    enumerate_composite_poisonings,
    enumerate_label_flips,
    verify_composite_by_enumeration,
    verify_flips_by_enumeration,
)
from repro.poisoning.models import CompositePoisoningModel, LabelFlipModel
from repro.domains.trainingset import AbstractTrainingSet
from repro.verify.abstract_learner import BoxAbstractLearner
from repro.verify.disjunctive_learner import DisjunctiveAbstractLearner
from repro.verify.transformers import (
    _split_score_bounds,
    best_split_abstract,
    cprob_intervals,
    entropy_is_definitely_zero,
    filter_abstract,
    pure_exit_vector,
)
from tests.conftest import random_small_dataset, random_test_point, well_separated_dataset


def _certify_flips(dataset, x, flips, removals=0, max_depth=1):
    """Box-domain certification of ``x`` against ``Δ_{removals,flips}``."""
    model = (
        CompositePoisoningModel(removals, flips) if removals else LabelFlipModel(flips)
    )
    engine = CertificationEngine(max_depth=max_depth, domain="box")
    return engine.certify_point(dataset, x, model)


class TestFlipAbstractTrainingSet:
    def test_budgets_clamped(self):
        dataset = figure2_dataset()
        trainset = FlipAbstractTrainingSet(dataset, np.array([0, 1]), 5, 7)
        assert trainset.n == 2 and trainset.flips == 2

    def test_split_down_keeps_budgets(self):
        dataset = figure2_dataset()
        trainset = FlipAbstractTrainingSet.full(dataset, 1, 2)
        left = trainset.split_down(ThresholdPredicate(0, 10.5), True)
        assert left.size == 9
        assert left.n == 1 and left.flips == 2

    def test_join_combines_budgets(self):
        dataset = figure2_dataset()
        a = FlipAbstractTrainingSet(dataset, np.array([0, 1, 2]), 1, 1)
        b = FlipAbstractTrainingSet(dataset, np.array([1, 2, 3]), 0, 2)
        joined = a.join(b)
        assert joined.size == 4
        assert joined.n >= 1
        assert joined.flips == 2

    def test_probability_intervals_pure_flip(self):
        # 4 black elements, one flip allowed: black probability in [3/4, 1].
        dataset = figure2_dataset()
        right = FlipAbstractTrainingSet(dataset, np.array([9, 10, 11, 12]), 0, 1)
        intervals = cprob_intervals(right)
        assert intervals[1].lo == pytest.approx(0.75)
        assert intervals[1].hi == pytest.approx(1.0)

    def test_probability_intervals_sound_against_enumeration(self):
        rng = np.random.default_rng(0)
        dataset = random_small_dataset(rng, n_samples=7)
        trainset = FlipAbstractTrainingSet.full(dataset, 0, 2)
        intervals = cprob_intervals(trainset)
        for poisoned in enumerate_label_flips(dataset, 2):
            probabilities = poisoned.class_probabilities()
            for interval, probability in zip(intervals, probabilities):
                assert interval.lo - 1e-9 <= probability <= interval.hi + 1e-9

    def test_pure_feasibility(self):
        dataset = figure2_dataset()
        trainset = FlipAbstractTrainingSet.full(dataset, 0, 2)
        assert pure_exit_vector(trainset) is None
        # Rows 0-2 are one black and two white: one flip makes them all white.
        small = FlipAbstractTrainingSet(dataset, np.array([0, 1, 2]), 0, 1)
        assert pure_exit_vector(small) is not None
        assert pure_exit_vector(small) == (Interval.point(1.0), Interval.zero())

    def test_entropy_definitely_zero(self):
        dataset = figure2_dataset()
        pure = FlipAbstractTrainingSet(dataset, np.array([11, 12]), 0, 0)
        assert entropy_is_definitely_zero(pure)
        noisy = FlipAbstractTrainingSet(dataset, np.array([11, 12]), 0, 1)
        assert not entropy_is_definitely_zero(noisy)


class TestFlipTransformers:
    def test_best_split_zero_budget_matches_concrete(self):
        dataset = figure2_dataset()
        trainset = FlipAbstractTrainingSet.full(dataset, 0, 0)
        candidates = best_split_abstract(trainset)
        assert not candidates.includes_null
        assert ((candidates.low == 10.0) & (candidates.high == 11.0)).any()

    def test_best_split_null_when_constant(self):
        dataset = figure2_dataset()
        trainset = FlipAbstractTrainingSet(dataset, np.array([3]), 0, 1)
        candidates = best_split_abstract(trainset)
        assert candidates.includes_null and not candidates.feature.size

    def test_filter_returns_side_containing_point(self):
        dataset = figure2_dataset()
        trainset = FlipAbstractTrainingSet.full(dataset, 0, 1)
        predicates = AbstractPredicateSet.of([ThresholdPredicate(0, 10.5)])
        filtered = filter_abstract(trainset, predicates, [4.0])
        assert filtered is not None
        assert filtered.size == 9

    def test_filter_bottom_without_predicates(self):
        dataset = figure2_dataset()
        trainset = FlipAbstractTrainingSet.full(dataset, 0, 1)
        assert filter_abstract(trainset, AbstractPredicateSet.of(()), [4.0]) is None


class TestFlipCertification:
    def test_zero_budget_certifies(self):
        result = _certify_flips(figure2_dataset(), [18.0], 0)
        assert result.is_certified
        assert result.certified_class == result.predicted_class == 1

    def test_well_separated_data_certified_against_flips(self):
        result = _certify_flips(well_separated_dataset(50), [0.5], 2)
        assert result.is_certified
        assert result.certified_class == 0

    def test_combined_budget_certified(self):
        result = _certify_flips(well_separated_dataset(50), [11.0], 1, removals=1)
        assert result.is_certified
        assert result.certified_class == 1

    def test_excessive_flips_not_certified(self):
        result = _certify_flips(tiny_boolean_dataset(), [1.0, 0.0], 4)
        assert not result.is_certified

    @pytest.mark.parametrize("seed", range(10))
    def test_soundness_against_flip_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_small_dataset(rng, n_samples=int(rng.integers(6, 9)))
        x = random_test_point(rng, dataset)
        flips = int(rng.integers(1, 3))
        depth = int(rng.integers(1, 3))
        result = _certify_flips(dataset, x, flips, max_depth=depth)
        if result.is_certified:
            assert verify_flips_by_enumeration(dataset, x, flips, max_depth=depth)


class TestFlipTransformerFunctions:
    """The transformers the generic learners run, on ``f > 0`` elements."""

    @pytest.mark.parametrize("removals", [0, 1, 3])
    def test_best_split_without_flips_matches_removal(self, removals):
        # ⟨T, r, 0⟩ and ⟨T, r⟩ share the candidates and the selection.
        dataset = figure2_dataset()
        flip = best_split_abstract(FlipAbstractTrainingSet.full(dataset, removals, 0))
        removal = best_split_abstract(AbstractTrainingSet.full(dataset, removals))
        assert flip.key == removal.key
        assert flip.includes_null == removal.includes_null
        np.testing.assert_array_equal(flip.removals, removal.removals)
        assert not flip.flips.any()

    def test_box_cprob_contains_optimal(self):
        trainset = FlipAbstractTrainingSet.full(figure2_dataset(), 1, 2)
        optimal = cprob_intervals(trainset, "optimal")
        box = cprob_intervals(trainset, "box")
        for tight, loose in zip(optimal, box):
            assert loose.lo <= tight.lo + 1e-9
            assert loose.hi >= tight.hi - 1e-9

    def test_box_cprob_sound_against_enumeration(self):
        rng = np.random.default_rng(1)
        dataset = random_small_dataset(rng, n_samples=6)
        trainset = FlipAbstractTrainingSet.full(dataset, 1, 1)
        intervals = cprob_intervals(trainset, "box")
        for poisoned in enumerate_composite_poisonings(dataset, 1, 1):
            if len(poisoned) == 0:
                continue
            for interval, probability in zip(intervals, poisoned.class_probabilities()):
                assert interval.lo - 1e-9 <= probability <= interval.hi + 1e-9

    def test_unknown_cprob_method_rejected(self):
        trainset = FlipAbstractTrainingSet.full(figure2_dataset(), 0, 1)
        with pytest.raises(ValueError, match="cprob"):
            cprob_intervals(trainset, "magic")


class TestDisjunctiveFlipSoundness:
    """The disjunctive learner on ⟨T, r, f⟩ must stay sound w.r.t. enumeration."""

    @pytest.mark.parametrize("seed", range(8))
    def test_flip_certificates_hold_under_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_small_dataset(rng, n_samples=int(rng.integers(6, 9)))
        x = random_test_point(rng, dataset)
        flips = int(rng.integers(1, 3))
        depth = int(rng.integers(1, 3))
        learner = DisjunctiveAbstractLearner(max_depth=depth, max_disjuncts=100_000)
        run = learner.run(FlipAbstractTrainingSet.full(dataset, 0, flips), x)
        if run.robust_class is not None:
            assert verify_flips_by_enumeration(dataset, x, flips, max_depth=depth)

    @pytest.mark.parametrize("seed", range(6))
    def test_composite_certificates_hold_under_enumeration(self, seed):
        rng = np.random.default_rng(100 + seed)
        dataset = random_small_dataset(rng, n_samples=int(rng.integers(5, 8)))
        x = random_test_point(rng, dataset)
        depth = int(rng.integers(1, 3))
        learner = DisjunctiveAbstractLearner(max_depth=depth, max_disjuncts=100_000)
        run = learner.run(FlipAbstractTrainingSet.full(dataset, 1, 1), x)
        if run.robust_class is not None:
            assert verify_composite_by_enumeration(dataset, x, 1, 1, max_depth=depth)

    def test_disjuncts_no_less_precise_than_box_on_flips(self):
        """Box and disjuncts agree on the old motivating-gap instance.

        Before the allocation-aware ``bestSplit#`` flip bound, Box was
        inconclusive here (the per-side bound granted the full flip budget to
        both sides of every split, double-counting each flip) and only the
        disjunctive domain certified the point.  The tightened bound closes
        that gap: Box now certifies it outright, and the disjunctive domain
        can only be at least as precise.
        """
        dataset = well_separated_dataset()
        box = BoxAbstractLearner(max_depth=1).run(
            FlipAbstractTrainingSet.full(dataset, 0, 2), [0.5]
        )
        disjunctive = DisjunctiveAbstractLearner(max_depth=1).run(
            FlipAbstractTrainingSet.full(dataset, 0, 2), [0.5]
        )
        assert dominating_component(box.class_intervals) == 0
        assert disjunctive.robust_class == 0
        # The certificates are genuine, not artifacts: two flips really
        # cannot move this point (margin is 20+ elements wide).
        assert verify_flips_by_enumeration(dataset, [0.5], 2, max_depth=1)


class TestCompositeEnumeration:
    def test_counts_match_model_formula(self):
        dataset = Dataset(
            X=np.zeros((3, 1)), y=np.array([0, 1, 2]), n_classes=3
        )
        enumerated = sum(1 for _ in enumerate_composite_poisonings(dataset, 1, 1))
        model = CompositePoisoningModel(1, 1, n_classes=3)
        assert enumerated == model.num_neighbors(3)

    def test_degenerate_budgets_recover_the_pure_oracles(self):
        dataset = tiny_boolean_dataset()
        flips_only = [d.y.tolist() for d in enumerate_composite_poisonings(dataset, 0, 1)]
        plain = [d.y.tolist() for d in enumerate_label_flips(dataset, 1)]
        assert flips_only == plain

    def test_oracle_detects_composite_fragility(self):
        # One removal plus one flip is strictly stronger than either alone.
        dataset = figure2_dataset()
        assert verify_composite_by_enumeration(dataset, [18.0], 0, 0, max_depth=1)
        assert not verify_composite_by_enumeration(dataset, [5.0], 2, 2, max_depth=1)


class TestFlipEnumeration:
    def test_enumeration_counts_binary(self):
        dataset = tiny_boolean_dataset()
        flipped = list(enumerate_label_flips(dataset, 1))
        # 1 unchanged + 8 single flips (binary labels -> one alternative each).
        assert len(flipped) == 9

    def test_enumeration_multiclass(self):
        X = np.zeros((3, 1))
        dataset = Dataset(X=X, y=np.array([0, 1, 2]), n_classes=3)
        flipped = list(enumerate_label_flips(dataset, 1))
        assert len(flipped) == 1 + 3 * 2

    def test_enumeration_oracle_detects_fragile_point(self):
        # Flipping both black points of the left branch of Figure 2 cannot be
        # necessary: a single flip near the decision boundary already changes
        # some prediction when enough flips are allowed.
        dataset = figure2_dataset()
        assert verify_flips_by_enumeration(dataset, [18.0], 0, max_depth=1)
        assert not verify_flips_by_enumeration(dataset, [5.0], 4, max_depth=1)


class TestAllocationAwareSplitBounds:
    """Property tests for the flip-allocation fix of ``bestSplit#``.

    The old per-side bound granted the full flip budget to both sides of a
    split at once, double-counting every flip; the fix bounds over the
    allocations ``f_l + f_r ≤ f``.  The new bound must (a) never be looser
    than the old one and (b) still contain every concrete split score of
    ``Δ_{r,f}(T)`` — and certificates built on it must survive the
    enumeration oracle.
    """

    @staticmethod
    def _split_tables(dataset):
        from tests.argsort_splitter import feature_split_table

        for feature in range(dataset.n_features):
            table = feature_split_table(
                dataset.X, dataset.y, feature, dataset.n_classes
            )
            if table.n_candidates:
                yield feature, table

    @staticmethod
    def _split_bounds(table, removals, flips):
        return _split_score_bounds(
            table.left_sizes,
            table.left_class_counts,
            table.right_sizes,
            table.right_class_counts,
            removals,
            flips,
            "optimal",
        )

    @staticmethod
    def _side_bounds(sizes, class_counts, removals, flips):
        """One side's bound with the *whole* flip budget (the old bound).

        An empty partner side contributes ``[0, 0]`` at every allocation and
        the side bound widens with its flips, so the envelope is the side
        bound at ``f``.
        """
        return _split_score_bounds(
            sizes,
            class_counts,
            np.zeros_like(sizes),
            np.zeros_like(class_counts),
            removals,
            flips,
            "optimal",
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_never_looser_than_the_old_per_side_bound(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_small_dataset(rng, n_samples=int(rng.integers(6, 12)))
        removals = int(rng.integers(0, 3))
        flips = int(rng.integers(0, 4))
        for _, table in self._split_tables(dataset):
            new_lower, new_upper = self._split_bounds(table, removals, flips)
            old_left = self._side_bounds(
                table.left_sizes, table.left_class_counts, removals, flips
            )
            old_right = self._side_bounds(
                table.right_sizes, table.right_class_counts, removals, flips
            )
            assert np.all(new_lower >= old_left[0] + old_right[0] - 1e-12)
            assert np.all(new_upper <= old_left[1] + old_right[1] + 1e-12)

    def test_strictly_tighter_somewhere(self):
        # The fix must actually bite: on the motivating instance the upper
        # bound shrinks strictly once flips cannot be double-counted.
        dataset = well_separated_dataset()
        improved = False
        for _, table in self._split_tables(dataset):
            new_lower, new_upper = self._split_bounds(table, 0, 2)
            old_left = self._side_bounds(
                table.left_sizes, table.left_class_counts, 0, 2
            )
            old_right = self._side_bounds(
                table.right_sizes, table.right_class_counts, 0, 2
            )
            if np.any(new_upper < old_left[1] + old_right[1] - 1e-12) or np.any(
                new_lower > old_left[0] + old_right[0] + 1e-12
            ):
                improved = True
        assert improved

    @staticmethod
    def _concrete_split_score(poisoned, feature, threshold):
        values = poisoned.X[:, feature]
        score = 0.0
        for labels in (
            poisoned.y[values <= threshold],
            poisoned.y[values > threshold],
        ):
            if labels.size == 0:
                continue
            counts = np.bincount(labels, minlength=poisoned.n_classes)
            probabilities = counts / labels.size
            score += labels.size * (1.0 - float(np.sum(probabilities**2)))
        return score

    @pytest.mark.parametrize("seed", range(8))
    def test_bounds_contain_every_concrete_split_score(self, seed):
        # Boolean features keep candidate thresholds stable under poisoning
        # (X never changes), so every Δ_{r,f} variant's score at a candidate
        # must land inside the abstract bound for that candidate.
        rng = np.random.default_rng(50 + seed)
        dataset = random_small_dataset(
            rng, n_samples=int(rng.integers(5, 8)), boolean=True
        )
        removals, flips = 1, 1
        poisonings = list(enumerate_composite_poisonings(dataset, removals, flips))
        for feature, table in self._split_tables(dataset):
            lower, upper = self._split_bounds(table, removals, flips)
            for position in range(table.n_candidates):
                threshold = float(table.thresholds[position])
                for poisoned in poisonings:
                    score = self._concrete_split_score(poisoned, feature, threshold)
                    assert lower[position] - 1e-9 <= score <= upper[position] + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_box_composite_certificates_hold_under_enumeration(self, seed):
        # End-to-end soundness of the tightened bestSplit# through the Box
        # learner: anything it certifies against Δ_{1,1} must survive
        # exhaustive retraining.
        rng = np.random.default_rng(200 + seed)
        dataset = random_small_dataset(rng, n_samples=int(rng.integers(5, 8)))
        x = random_test_point(rng, dataset)
        depth = int(rng.integers(1, 3))
        learner = BoxAbstractLearner(max_depth=depth)
        run = learner.run(FlipAbstractTrainingSet.full(dataset, 1, 1), x)
        if run.robust_class is not None:
            assert verify_composite_by_enumeration(dataset, x, 1, 1, max_depth=depth)
