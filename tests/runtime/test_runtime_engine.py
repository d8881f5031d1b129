"""Integration tests: CertificationEngine driving the runtime layer."""

import numpy as np
import pytest

import repro.api.engine as engine_module
from repro.api import CertificationEngine, CertificationRequest
from repro.poisoning.models import (
    CompositePoisoningModel,
    LabelFlipModel,
    RemovalPoisoningModel,
)
from repro.runtime import CertificationRuntime
from repro.verify.search import max_certified_poisoning
from tests.conftest import well_separated_dataset

POINTS = np.array([[0.5], [11.0], [0.8], [10.2], [1.2], [11.5]])


def _engine(tmp_path, **runtime_kwargs):
    return CertificationEngine(
        max_depth=1,
        domain="box",
        runtime=CertificationRuntime(tmp_path / "cache", **runtime_kwargs),
    )


def _request(n=2):
    return CertificationRequest(
        well_separated_dataset(), POINTS, RemovalPoisoningModel(n)
    )


def _forbid_compute(monkeypatch):
    def boom(self, *args, **kwargs):
        raise AssertionError("learner was invoked on a fully cached batch")

    monkeypatch.setattr(engine_module.CertificationEngine, "_compute_stream", boom)
    monkeypatch.setattr(engine_module.CertificationEngine, "_certify_one", boom)


class TestWarmCache:
    def test_second_identical_batch_runs_zero_learners(self, tmp_path, monkeypatch):
        engine = _engine(tmp_path)
        cold = engine.verify(_request())
        assert cold.runtime_stats["learner_invocations"] == len(POINTS)
        _forbid_compute(monkeypatch)
        warm = engine.verify(_request())
        stats = warm.runtime_stats
        assert stats["learner_invocations"] == 0
        assert stats["cache_misses"] == 0
        assert stats["journal_restored"] + stats["cache_hits"] == len(POINTS)
        assert stats["hit_rate"] == 1.0
        assert [r.status for r in warm.results] == [r.status for r in cold.results]
        assert [r.class_intervals for r in warm.results] == [
            r.class_intervals for r in cold.results
        ]

    def test_warm_cache_survives_process_boundary_simulation(self, tmp_path, monkeypatch):
        # A fresh engine + fresh runtime over the same cache dir mimics a new
        # process: only the on-disk state may answer.
        _engine(tmp_path).verify(_request())
        fresh = _engine(tmp_path, resume=False)
        _forbid_compute(monkeypatch)
        warm = fresh.verify(_request())
        assert warm.runtime_stats["learner_invocations"] == 0
        assert warm.runtime_stats["cache_hits"] == len(POINTS)

    def test_results_match_runtime_free_engine(self, tmp_path):
        plain = CertificationEngine(max_depth=1, domain="box")
        baseline = plain.verify(_request())
        routed = _engine(tmp_path).verify(_request())
        assert [r.status for r in routed.results] == [
            r.status for r in baseline.results
        ]
        assert [r.predicted_class for r in routed.results] == [
            r.predicted_class for r in baseline.results
        ]


class TestMonotoneReuse:
    def _big_request(self, n):
        # per_class=40 keeps every probe point certifiable up to budget 4.
        return CertificationRequest(
            well_separated_dataset(40), POINTS, RemovalPoisoningModel(n)
        )

    def test_smaller_budget_served_from_larger_proof(self, tmp_path, monkeypatch):
        engine = _engine(tmp_path)
        at_four = engine.verify(self._big_request(4))
        assert all(r.is_certified for r in at_four.results)
        _forbid_compute(monkeypatch)
        at_two = engine.verify(self._big_request(2))
        stats = at_two.runtime_stats
        assert stats["learner_invocations"] == 0
        assert stats["cache_monotone_hits"] == len(POINTS)
        assert all(r.is_certified for r in at_two.results)
        # Derived results are re-anchored to the requested budget.
        assert all(r.poisoning_amount == 2 for r in at_two.results)
        assert all("budget 4" in r.message for r in at_two.results)

    def test_unknown_derivation_drops_unsound_intervals(self, tmp_path, monkeypatch):
        # Intervals stored for unknown-at-2 under-approximate the reachable
        # set at budget 8, so the derived verdict must not carry them; the
        # robust-direction derivation keeps its (over-approximating) ones.
        engine = _engine(tmp_path)
        small = engine.verify(_request(8))
        unknown_at_8 = [i for i, r in enumerate(small.results) if not r.is_certified]
        assert unknown_at_8, "expected at least one unknown point at budget 8"
        _forbid_compute(monkeypatch)
        derived = engine.verify(
            CertificationRequest(
                well_separated_dataset(), POINTS, RemovalPoisoningModel(12)
            )
        )
        for index in unknown_at_8:
            result = derived.results[index]
            assert not result.is_certified
            assert result.class_intervals == ()
            assert "budget 8" in result.message

    def test_label_flip_budgets_are_monotone_too(self, tmp_path, monkeypatch):
        dataset = well_separated_dataset(40)
        engine = _engine(tmp_path)
        flipped = engine.verify(
            CertificationRequest(dataset, POINTS[:2], LabelFlipModel(2))
        )
        assert all(r.is_certified for r in flipped.results)
        _forbid_compute(monkeypatch)
        derived = engine.verify(
            CertificationRequest(dataset, POINTS[:2], LabelFlipModel(1))
        )
        assert derived.runtime_stats["cache_monotone_hits"] == 2

    def test_composite_pairs_derive_along_dominance(self, tmp_path, monkeypatch):
        dataset = well_separated_dataset(40)
        engine = CertificationEngine(
            max_depth=1,
            domain="either",
            runtime=CertificationRuntime(tmp_path / "cache"),
        )
        proved = engine.verify(
            CertificationRequest(dataset, POINTS[:2], CompositePoisoningModel(1, 1))
        )
        assert all(r.is_certified for r in proved.results)
        _forbid_compute(monkeypatch)
        # Both dominated pairs resolve from the (1, 1) proof without learners.
        for pair in ((0, 1), (1, 0)):
            derived = engine.verify(
                CertificationRequest(dataset, POINTS[:2], CompositePoisoningModel(*pair))
            )
            assert derived.runtime_stats["learner_invocations"] == 0, pair
            assert derived.runtime_stats["cache_monotone_hits"] == 2, pair
            assert all(r.is_certified for r in derived.results)

    def test_composite_non_nested_pair_misses_the_cache(self, tmp_path):
        dataset = well_separated_dataset(40)
        engine = CertificationEngine(
            max_depth=1,
            domain="either",
            runtime=CertificationRuntime(tmp_path / "cache"),
        )
        engine.verify(
            CertificationRequest(dataset, POINTS[:2], CompositePoisoningModel(2, 1))
        )
        # (1, 2) is incomparable with (2, 1): the robust proof must not leak.
        sideways = engine.verify(
            CertificationRequest(dataset, POINTS[:2], CompositePoisoningModel(1, 2))
        )
        assert sideways.runtime_stats["cache_monotone_hits"] == 0
        assert sideways.runtime_stats["learner_invocations"] == 2

    def test_nominal_amount_rewritten_on_shared_resolved_budget(self, tmp_path):
        # n=1000 and n=2000 both resolve to |T| removals: one proof, two
        # reports, each stating its own nominal amount.
        dataset = well_separated_dataset()
        engine = _engine(tmp_path)
        first = engine.verify(
            CertificationRequest(dataset, POINTS[:1], RemovalPoisoningModel(1000))
        )
        second = engine.verify(
            CertificationRequest(dataset, POINTS[:1], RemovalPoisoningModel(2000))
        )
        assert second.runtime_stats["learner_invocations"] == 0
        assert first.results[0].poisoning_amount == 1000
        assert second.results[0].poisoning_amount == 2000


class TestEnvironmentalOutcomes:
    def test_timeouts_neither_cached_nor_journaled(self, tmp_path, monkeypatch):
        from repro.verify.result import VerificationResult, VerificationStatus

        timeout = VerificationResult(
            status=VerificationStatus.TIMEOUT,
            poisoning_amount=2,
            predicted_class=0,
            certified_class=None,
            class_intervals=(),
            domain="box",
            elapsed_seconds=1.0,
            peak_memory_bytes=0,
            exit_count=0,
            max_disjuncts=0,
            log10_num_datasets=3.0,
            message="timed out",
        )

        def compute_timeouts(self, dataset, rows, model, *, n_jobs=1):
            yield from (timeout for _ in rows)

        engine = _engine(tmp_path)
        monkeypatch.setattr(
            engine_module.CertificationEngine, "_compute_stream", compute_timeouts
        )
        first = engine.verify(_request())
        assert all(r.status is VerificationStatus.TIMEOUT for r in first.results)
        # A second (resumed) run must re-attempt every point: timeouts are
        # machine-dependent and may not repeat with more time or CPU.
        second = engine.verify(_request())
        stats = second.runtime_stats
        assert stats["journal_restored"] == 0
        assert stats["cache_hits"] == 0
        assert stats["learner_invocations"] == len(POINTS)


class TestResume:
    def test_interrupted_batch_resumes_where_it_stopped(self, tmp_path):
        limited = _engine(tmp_path, max_new_points=2)
        partial = list(limited.certify_stream(_request()))
        assert len(partial) == 2
        stats = limited.runtime.last_batch_stats
        assert stats.truncated_at == 2
        # Truncated stats describe only what was actually served.
        assert stats.points == 2
        assert stats.learner_invocations == 2
        assert stats.hit_rate == 0.0
        resumed = _engine(tmp_path, resume=True)
        full = resumed.verify(_request())
        stats = full.runtime_stats
        assert len(full.results) == len(POINTS)
        assert stats["journal_restored"] == 2
        assert stats["learner_invocations"] == len(POINTS) - 2
        baseline = CertificationEngine(max_depth=1, domain="box").verify(_request())
        assert [r.status for r in full.results] == [
            r.status for r in baseline.results
        ]

    def test_resume_false_discards_prior_progress(self, tmp_path):
        _engine(tmp_path, max_new_points=2).verify(_request())
        fresh = _engine(tmp_path, resume=False)
        report = fresh.verify(_request())
        # Journal dropped, but the verdict cache still answers the two
        # already-computed points.
        assert report.runtime_stats["journal_restored"] == 0
        assert report.runtime_stats["cache_hits"] == 2
        assert report.runtime_stats["learner_invocations"] == len(POINTS) - 2


def _max_certified_rows(engine, dataset):
    return [
        engine.runtime.max_certified(engine, dataset, row, max_budget=16)
        for row in POINTS
    ]


class TestBudgetSweep:
    def test_matches_uncached_search(self, tmp_path):
        dataset = well_separated_dataset()
        engine = _engine(tmp_path)
        plain = CertificationEngine(max_depth=1, domain="box")
        outcomes = _max_certified_rows(engine, dataset)
        for row, outcome in zip(POINTS, outcomes):
            expected = max_certified_poisoning(plain, dataset, row, max_n=16)
            assert outcome.max_certified_n == expected.max_certified_n

    def test_repeat_sweep_is_free(self, tmp_path):
        dataset = well_separated_dataset()
        engine = _engine(tmp_path)
        first = _max_certified_rows(engine, dataset)
        assert sum(o.learner_invocations for o in first) > 0
        again = _max_certified_rows(engine, dataset)
        assert sum(o.learner_invocations for o in again) == 0
        assert [o.max_certified_n for o in again] == [
            o.max_certified_n for o in first
        ]

    def test_certify_point_routes_through_cache(self, tmp_path, monkeypatch):
        dataset = well_separated_dataset()
        engine = _engine(tmp_path)
        first = engine.certify_point(dataset, [0.5], 2)
        _forbid_compute(monkeypatch)
        second = engine.certify_point(dataset, [0.5], 2)
        assert second.status == first.status


class TestDeduplication:
    def test_duplicate_rows_certified_once(self, tmp_path):
        tiled = np.tile(POINTS[:2], (3, 1))  # each point appears three times
        engine = _engine(tmp_path)
        report = engine.verify(
            CertificationRequest(
                well_separated_dataset(), tiled, RemovalPoisoningModel(2)
            )
        )
        stats = report.runtime_stats
        assert stats["learner_invocations"] == 2
        assert stats["deduplicated"] == 4
        # Every occurrence gets the same verdict as its first computation.
        assert [r.status for r in report.results[:2]] * 3 == [
            r.status for r in report.results
        ]

    def test_runtime_requires_cache_dir_for_max_new_points(self):
        with pytest.raises(ValueError, match="cache_dir"):
            CertificationRuntime(max_new_points=2)


class TestParallelRuntime:
    def test_parallel_batch_parity_with_runtime(self, tmp_path):
        # Exercises the pool when the gate starts one and the parent
        # otherwise; parity must hold either way.
        engine = _engine(tmp_path)
        serial = CertificationEngine(max_depth=1, domain="box").verify(_request())
        parallel = engine.verify(_request(), n_jobs=2)
        assert [r.status for r in parallel.results] == [
            r.status for r in serial.results
        ]
        assert [r.predicted_class for r in parallel.results] == [
            r.predicted_class for r in serial.results
        ]

    def test_engine_pickles_without_runtime_state(self, tmp_path):
        import pickle

        engine = _engine(tmp_path)
        engine.verify(_request())
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.runtime.cache is None and clone.runtime is not engine.runtime
        assert clone._plan_cache == {}
