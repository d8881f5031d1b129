"""Tests for the unified CertificationEngine: dispatch, reuse, and budgets."""

import tracemalloc

import numpy as np
import pytest

from repro.api import CertificationEngine, CertificationRequest, as_perturbation_model
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import make_gaussian_classes
from repro.datasets.toy import figure2_dataset
from repro.poisoning.models import (
    CompositePoisoningModel,
    FractionalRemovalModel,
    LabelFlipModel,
    RemovalPoisoningModel,
)
from repro.utils.memory import MemoryTracker
from repro.verify.result import VerificationResult, VerificationStatus
from tests.conftest import well_separated_dataset


def three_class_dataset():
    """A well-separated 3-class dataset (2-D gaussian blobs)."""
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 8.0]])
    return make_gaussian_classes(90, centers, 0.5, rng=0)


def iris_batch(model, n_jobs=1, points=3):
    """Certify a few iris points at depth 2 with a fresh ``either`` engine."""
    split = load_dataset("iris", scale=0.5, seed=0)
    engine = CertificationEngine(max_depth=2, domain="either")
    return engine.certify_batch(
        split.train, split.test.X[:points], model, n_jobs=n_jobs
    ).results


#: Every result field that must not depend on whether memory was measured.
VERDICT_FIELDS = (
    "status",
    "certified_class",
    "class_intervals",
    "domain",
    "exit_count",
    "max_disjuncts",
)


class TestConfiguration:
    def test_rejects_unknown_domain(self):
        with pytest.raises(ValueError):
            CertificationEngine(domain="magic")

    def test_rejects_negative_budget(self):
        engine = CertificationEngine(max_depth=1)
        with pytest.raises(ValueError):
            engine.certify_point(figure2_dataset(), [5.0], -1)

    def test_rejects_non_model_threat(self):
        with pytest.raises(ValueError):
            as_perturbation_model("three")
        with pytest.raises(ValueError):
            as_perturbation_model(True)

    def test_learners_constructed_once(self):
        engine = CertificationEngine(max_depth=1, domain="either")
        box_before = engine._box_learner
        disjunctive_before = engine._disjunctive_learner
        engine.certify_point(figure2_dataset(), [5.0], 1)
        engine.certify_point(figure2_dataset(), [5.0], 2)
        assert engine._box_learner is box_before
        assert engine._disjunctive_learner is disjunctive_before


class TestRequest:
    def test_single_point_normalized_to_matrix(self):
        request = CertificationRequest.single(figure2_dataset(), [5.0], 2)
        assert request.points.shape == (1, 1)
        assert request.n_points == 1
        assert isinstance(request.model, RemovalPoisoningModel)

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CertificationRequest(figure2_dataset(), np.zeros((2, 3)), 1)

    def test_budget_resolves_against_training_size(self):
        dataset = figure2_dataset()
        request = CertificationRequest(dataset, [[5.0]], FractionalRemovalModel(0.25))
        assert request.budget == int(0.25 * len(dataset))

    def test_caller_array_not_frozen(self):
        """The request copies its points; the caller's array stays writable."""
        X = np.array([[5.0], [6.0]])
        request = CertificationRequest(figure2_dataset(), X, 1)
        X[0, 0] = 99.0  # must not raise, and must not leak into the request
        assert request.points[0, 0] == 5.0


class TestThreatModelDispatch:
    """All three threat models certify through the single verify(request) call."""

    def test_removal_model(self):
        engine = CertificationEngine(max_depth=1, domain="box")
        report = engine.verify(
            CertificationRequest(well_separated_dataset(), [[0.5]], RemovalPoisoningModel(2))
        )
        (result,) = report.results
        assert result.status is VerificationStatus.ROBUST
        assert result.domain == "box"
        assert result.poisoning_amount == 2

    def test_fractional_model_resolves_budget(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        fraction = FractionalRemovalModel(0.05)
        report = engine.verify(CertificationRequest(dataset, [[0.5]], fraction))
        (result,) = report.results
        assert result.poisoning_amount == fraction.resolve_budget(len(dataset))
        assert result.status is VerificationStatus.ROBUST

    def test_fractional_matches_equivalent_removal(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="either")
        x = [[0.5]]
        fractional = engine.verify(
            CertificationRequest(dataset, x, FractionalRemovalModel(0.1))
        ).results[0]
        explicit = engine.verify(
            CertificationRequest(dataset, x, RemovalPoisoningModel(len(dataset) // 10))
        ).results[0]
        assert fractional.status == explicit.status
        assert fractional.class_intervals == explicit.class_intervals

    def test_label_flip_model(self):
        engine = CertificationEngine(max_depth=1, domain="box")
        report = engine.verify(
            CertificationRequest(well_separated_dataset(), [[0.5]], LabelFlipModel(2))
        )
        (result,) = report.results
        assert result.domain == "flip-box"
        assert result.status in (VerificationStatus.ROBUST, VerificationStatus.UNKNOWN)
        assert result.poisoning_amount == 2

    def test_label_flip_either_walks_the_domain_ladder(self):
        """domain="either" escalates flips to the disjunctive domain too."""
        engine = CertificationEngine(max_depth=1, domain="either")
        result = engine.certify_point(well_separated_dataset(), [0.5], LabelFlipModel(2))
        assert result.domain in ("flip-box", "flip-disjuncts")
        if result.domain == "flip-disjuncts":
            # The ladder only reaches the second rung when Box was
            # inconclusive, so a disjunctive domain label on a certified
            # result is itself evidence of the precision gap.
            box_only = CertificationEngine(max_depth=1, domain="box").certify_point(
                well_separated_dataset(), [0.5], LabelFlipModel(2)
            )
            assert not box_only.is_certified

    def test_label_flip_matches_extension_verifier(self):
        from repro.poisoning.label_flip import LabelFlipVerifier

        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=2, domain="box")
        unified = engine.certify_point(dataset, [0.5], LabelFlipModel(3))
        extension = LabelFlipVerifier(max_depth=2).verify(dataset, [0.5], flips=3)
        assert unified.is_certified == extension.robust
        assert unified.certified_class == extension.certified_class
        assert unified.class_intervals == extension.class_intervals

    def test_oversized_budget_reports_requested_amount(self):
        """Legacy parity: n > |T| is clamped for the abstraction but reported as given."""
        dataset = figure2_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        result = engine.certify_point(dataset, [5.0], 10_000)
        assert result.poisoning_amount == 10_000

    def test_int_budget_coerces_to_removal_model(self):
        engine = CertificationEngine(max_depth=1, domain="box")
        by_int = engine.certify_point(well_separated_dataset(), [0.5], 2)
        by_model = engine.certify_point(
            well_separated_dataset(), [0.5], RemovalPoisoningModel(2)
        )
        assert by_int.status == by_model.status
        assert by_int.class_intervals == by_model.class_intervals


class TestCompositeDispatch:
    """The combined removal+flip model through the single verify() entry point."""

    def test_composite_end_to_end_on_three_classes(self):
        dataset = three_class_dataset()
        points = np.array([[0.1, 0.1], [8.1, 0.1], [4.1, 8.1]])
        engine = CertificationEngine(max_depth=2, domain="either")
        report = engine.verify(
            CertificationRequest(dataset, points, CompositePoisoningModel(0, 1))
        )
        assert report.total == 3
        assert report.certified_count >= 1
        for result in report.results:
            assert result.domain in ("flip-box", "flip-disjuncts")
            assert result.poisoning_amount == 1
            assert len(result.class_intervals) == 3

    def test_composite_disjuncts_strictly_beat_box(self):
        """The acceptance bar: flip certification gains from the disjunctive domain."""
        dataset = three_class_dataset()
        points = np.array([[0.1, 0.1], [8.1, 0.1], [4.1, 8.1]])
        model = CompositePoisoningModel(1, 1)
        box = CertificationEngine(max_depth=2, domain="box").verify(
            CertificationRequest(dataset, points, model)
        )
        ladder = CertificationEngine(max_depth=2, domain="either").verify(
            CertificationRequest(dataset, points, model)
        )
        assert ladder.certified_count > box.certified_count

    def test_composite_amount_is_total_contamination(self):
        engine = CertificationEngine(max_depth=1, domain="box")
        result = engine.certify_point(
            well_separated_dataset(), [0.5], CompositePoisoningModel(2, 1)
        )
        assert result.poisoning_amount == 3

    def test_composite_zero_flip_matches_removal_semantics(self):
        """Δ_{r,0} = Δr: the flip path must not certify more than removal."""
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="either")
        for budget in (1, 3):
            removal = engine.certify_point(dataset, [0.5], RemovalPoisoningModel(budget))
            composite = engine.certify_point(
                dataset, [0.5], CompositePoisoningModel(budget, 0)
            )
            assert removal.is_certified == composite.is_certified

    def test_predicate_pool_rejected_for_flip_families(self):
        from repro.core.predicates import ThresholdPredicate

        engine = CertificationEngine(
            max_depth=1, predicate_pool=[ThresholdPredicate(0, 5.0)]
        )
        with pytest.raises(ValueError, match="predicate pools"):
            engine.certify_point(
                well_separated_dataset(), [0.5], CompositePoisoningModel(1, 1)
            )


class TestClassCountResolution:
    """Satellite bugfix: n_classes comes from the dataset, not a silent default."""

    def test_default_flip_model_counts_dataset_alternatives(self):
        dataset = three_class_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        result = engine.certify_point(dataset, [0.1, 0.1], LabelFlipModel(2))
        explicit = LabelFlipModel(2, n_classes=3)
        assert result.log10_num_datasets == pytest.approx(
            explicit.log10_num_neighbors(len(dataset))
        )
        # The former behavior (hard-wired k=2) undercounted the space.
        binary = LabelFlipModel(2, n_classes=2)
        assert result.log10_num_datasets > binary.log10_num_neighbors(len(dataset))

    def test_request_rejects_contradicting_declaration(self):
        dataset = three_class_dataset()
        with pytest.raises(ValueError, match="n_classes"):
            CertificationRequest(dataset, [[0.1, 0.1]], LabelFlipModel(1, n_classes=2))
        with pytest.raises(ValueError, match="n_classes"):
            CertificationRequest(
                dataset, [[0.1, 0.1]], CompositePoisoningModel(1, 1, n_classes=2)
            )

    def test_matching_declaration_accepted(self):
        dataset = three_class_dataset()
        request = CertificationRequest(
            dataset, [[0.1, 0.1]], LabelFlipModel(1, n_classes=3)
        )
        assert request.model.n_classes == 3


class TestFlipResultShape:
    """Satellite bugfix: flip rows are shape-identical to removal rows."""

    def test_flip_timeout_matches_removal_timeout_shape(self):
        engine = CertificationEngine(max_depth=2, domain="box", timeout_seconds=1e-9)
        flip = engine.certify_point(well_separated_dataset(), [0.5], LabelFlipModel(2))
        removal = engine.certify_point(
            well_separated_dataset(), [0.5], RemovalPoisoningModel(2)
        )
        assert flip.status is VerificationStatus.TIMEOUT
        assert removal.status is VerificationStatus.TIMEOUT
        assert (flip.exit_count, flip.max_disjuncts) == (
            removal.exit_count,
            removal.max_disjuncts,
        ) == (0, 0)
        assert flip.class_intervals == ()

    def test_successful_flip_reports_real_exit_counters(self):
        engine = CertificationEngine(max_depth=1, domain="box")
        result = engine.certify_point(
            well_separated_dataset(), [0.5], LabelFlipModel(1)
        )
        assert result.exit_count >= 1
        assert result.max_disjuncts >= 1


class TestPlanCacheLRU:
    """Satellite bugfix: the plan cache is LRU, not FIFO."""

    def test_hot_plan_survives_interleaved_traffic(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        hot_model = RemovalPoisoningModel(1)
        hot_plan = engine._plan_for(dataset, hot_model)
        # Fill the cache to one below capacity with other models...
        for n in range(2, 9):
            engine._plan_for(dataset, RemovalPoisoningModel(n))
        assert len(engine._plan_cache) == 8
        # ...touch the hot plan (a hit must refresh recency)...
        assert engine._plan_for(dataset, hot_model) is hot_plan
        # ...and overflow: the evictee must be the stalest entry (n=2), not
        # the hot one the old FIFO would have dropped.
        engine._plan_for(dataset, RemovalPoisoningModel(9))
        assert engine._plan_for(dataset, hot_model) is hot_plan
        cached_models = {model for _, model in engine._plan_cache}
        assert RemovalPoisoningModel(2) not in cached_models


class TestParityWithLegacyVerifier:
    def test_matches_poisoning_verifier_on_figure2(self):
        from repro.verify.robustness import PoisoningVerifier

        dataset = figure2_dataset()
        engine = CertificationEngine(max_depth=2, domain="either")
        with pytest.deprecated_call():
            verifier = PoisoningVerifier(max_depth=2, domain="either")
        for n in (0, 1, 2, 8):
            modern = engine.certify_point(dataset, [5.0], n)
            legacy = verifier.verify(dataset, [5.0], n)
            assert modern.status == legacy.status
            assert modern.certified_class == legacy.certified_class
            assert modern.class_intervals == legacy.class_intervals


class TestResourceHandling:
    def test_timeout_reported(self):
        engine = CertificationEngine(
            max_depth=4, domain="disjuncts", timeout_seconds=1e-9
        )
        result = engine.certify_point(figure2_dataset(), [5.0], 2)
        assert result.status is VerificationStatus.TIMEOUT

    def test_resource_exhaustion_reported(self):
        engine = CertificationEngine(max_depth=3, domain="disjuncts", max_disjuncts=2)
        result = engine.certify_point(figure2_dataset(), [5.0], 3)
        assert result.status is VerificationStatus.RESOURCE_EXHAUSTED

    def test_memory_and_time_measured(self):
        engine = CertificationEngine(max_depth=1, domain="box")
        result = engine.certify_point(figure2_dataset(), [5.0], 2)
        assert result.elapsed_seconds >= 0.0
        assert result.peak_memory_bytes >= 0
        assert isinstance(result, VerificationResult)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "caller-traced"])
    def test_peak_memory_measured_only_under_caller_tracing(self, traced, monkeypatch):
        assert not tracemalloc.is_tracing()
        if traced:
            with MemoryTracker():
                results = iris_batch(RemovalPoisoningModel(2))
                assert tracemalloc.is_tracing()
            assert all(result.peak_memory_bytes > 0 for result in results)
        else:

            def refuse() -> None:
                raise AssertionError("the engine started tracemalloc")

            monkeypatch.setattr(tracemalloc, "start", refuse)
            results = iris_batch(RemovalPoisoningModel(2))
            assert [result.peak_memory_bytes for result in results] == [0, 0, 0]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize(
        "model",
        [RemovalPoisoningModel(2), CompositePoisoningModel(1, 1)],
        ids=["removal", "composite"],
    )
    def test_tracing_changes_no_verdict_field(self, model, n_jobs):
        untraced = iris_batch(model, n_jobs=n_jobs)
        with MemoryTracker():
            traced = iris_batch(model, n_jobs=n_jobs)
        assert all(result.peak_memory_bytes > 0 for result in traced)
        for field_name in VERDICT_FIELDS:
            assert [getattr(r, field_name) for r in traced] == [
                getattr(r, field_name) for r in untraced
            ], field_name


class TestEmptyBatch:
    def test_empty_request_yields_empty_report_with_none_fraction(self):
        """Regression: empty batches must not read as 'nothing certified'."""
        engine = CertificationEngine(max_depth=1)
        report = engine.certify_batch(figure2_dataset(), np.empty((0, 1)), 1)
        assert report.total == 0
        assert report.certified_count == 0
        assert report.certified_fraction is None
        assert report.status_counts["robust"] == 0
