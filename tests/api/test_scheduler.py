"""Tests for the async submission API and cross-batch in-flight coalescing."""

import threading

import numpy as np
import pytest

from repro.api import BatchSubmission, CertificationEngine, CertificationRequest
from repro.poisoning.models import RemovalPoisoningModel
from repro.runtime import CertificationRuntime
from repro.verify.result import VerificationResult
from tests.conftest import well_separated_dataset

POINTS = np.array([[0.5], [11.0], [5.0]])


def _engine(tmp_path=None) -> CertificationEngine:
    runtime = None
    if tmp_path is not None:
        runtime = CertificationRuntime(tmp_path / "cache")
    return CertificationEngine(max_depth=1, domain="box", runtime=runtime)


class TestSubmit:
    def test_submit_returns_futures_and_gather_matches_verify(self):
        engine = _engine()
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        submission = engine.submit(request)
        assert isinstance(submission, BatchSubmission)
        assert len(submission.futures) == 3
        results = submission.gather(timeout=60)
        assert all(isinstance(r, VerificationResult) for r in results)
        reference = engine.verify(request)
        assert [r.status for r in results] == [r.status for r in reference.results]

    def test_submission_report_matches_synchronous_report(self):
        engine = _engine()
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        report = engine.submit(request).report(timeout=60)
        reference = engine.verify(request)
        assert report.total == reference.total
        assert report.certified_count == reference.certified_count
        assert report.model_description == reference.model_description
        assert report.dataset_name == reference.dataset_name

    def test_gather_of_multiple_submissions(self):
        engine = _engine()
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        submissions = [engine.submit(request) for _ in range(3)]
        batches = engine.scheduler.gather(submissions, timeout=60)
        assert len(batches) == 3
        statuses = [[r.status for r in batch] for batch in batches]
        assert statuses[0] == statuses[1] == statuses[2]

    def test_submission_report_carries_runtime_stats(self, tmp_path):
        engine = _engine(tmp_path)
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        cold = engine.submit(request).report(timeout=60)
        assert cold.runtime_stats is not None
        assert cold.runtime_stats["learner_invocations"] == 3
        warm = engine.submit(request).report(timeout=60)
        assert warm.runtime_stats["learner_invocations"] == 0

    def test_truncated_submission_resolves_every_future(self, tmp_path):
        from repro.api.scheduler import InflightAbandoned

        runtime = CertificationRuntime(tmp_path / "cache", max_new_points=2)
        engine = CertificationEngine(max_depth=1, domain="box", runtime=runtime)
        dataset = well_separated_dataset()
        request = CertificationRequest(
            dataset,
            np.array([[0.5], [11.0], [5.0], [0.8], [10.4]]),
            RemovalPoisoningModel(1),
        )
        submission = engine.submit(request)
        # The first two points resolve; the truncated remainder must fail
        # promptly instead of stranding gather() forever.
        assert submission.futures[0].result(timeout=60) is not None
        assert submission.futures[1].result(timeout=60) is not None
        for future in submission.futures[2:]:
            with pytest.raises(InflightAbandoned, match="truncation"):
                future.result(timeout=60)

    def test_submission_failure_resolves_every_future(self):
        engine = _engine()
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        engine.runtime.stream = explode
        submission = engine.submit(request)
        for future in submission.futures:
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=60)


class TestCrossBatchDedup:
    """Satellite: overlapping batches from threads cost one learner
    invocation per *distinct* point."""

    def test_concurrent_overlapping_batches_share_learner_work(self, tmp_path):
        engine = _engine(tmp_path)
        dataset = well_separated_dataset()
        batch_a = CertificationRequest(
            dataset, np.array([[0.5], [11.0], [5.0], [0.8]]), RemovalPoisoningModel(1)
        )
        batch_b = CertificationRequest(
            dataset, np.array([[5.0], [0.8], [10.4], [0.5]]), RemovalPoisoningModel(1)
        )
        distinct = len({tuple(row) for row in np.vstack([batch_a.points, batch_b.points])})
        results = {}
        errors = []

        def run(name, request):
            try:
                results[name] = list(engine.certify_stream(request))
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=("a", batch_a)),
            threading.Thread(target=run, args=("b", batch_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results["a"]) == 4 and len(results["b"]) == 4
        # Whether the batches overlapped in flight (coalesced) or in time
        # (cache hits), each distinct point ran the learner exactly once.
        assert engine.runtime.stats.learner_invocations == distinct
        # The shared points agree across the two batches.
        by_point_a = dict(zip(map(tuple, batch_a.points), results["a"]))
        by_point_b = dict(zip(map(tuple, batch_b.points), results["b"]))
        for point in set(by_point_a) & set(by_point_b):
            assert by_point_a[point].status == by_point_b[point].status

    def test_inflight_lease_observed_deterministically(self):
        """Force genuine in-flight overlap with a gated learner."""
        engine = _engine()
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        scheduler = engine.scheduler

        release = threading.Event()
        started = threading.Event()
        original = CertificationEngine._certify_one
        calls = []

        def gated(self, x, model, plan):
            calls.append(tuple(np.asarray(x)))
            started.set()
            assert release.wait(timeout=60), "gate never released"
            return original(self, x, model, plan)

        engine._certify_one = gated.__get__(engine)
        first = scheduler.submit(request)
        assert started.wait(timeout=60)
        # The first batch is mid-computation: every one of its keys is
        # registered, so a second identical submission must lease all three.
        coalesced_before = scheduler.stats.coalesced
        second = scheduler.submit(request)
        # Wait until the second submission has registered its (leased) keys.
        deadline = threading.Event()
        for _ in range(600):
            if scheduler.stats.coalesced >= coalesced_before + 3:
                break
            deadline.wait(0.05)
        assert scheduler.stats.coalesced == coalesced_before + 3
        release.set()
        results_first = first.gather(timeout=120)
        results_second = second.gather(timeout=120)
        assert [r.status for r in results_first] == [r.status for r in results_second]
        # Exactly one learner invocation per distinct point, despite two
        # identical in-flight batches.
        assert len(calls) == 3
        assert scheduler.inflight_count == 0

    def test_fully_leased_batch_does_not_inherit_previous_stats(self, tmp_path):
        """A batch whose points are all leased must not report the thread's
        previous batch counters as its own runtime_stats."""
        engine = _engine(tmp_path)
        dataset = well_separated_dataset()
        cold_request = CertificationRequest(
            dataset, np.array([[0.9], [10.7]]), RemovalPoisoningModel(1)
        )
        # Seed this thread's last_batch_stats with a cold batch.
        cold = engine.verify(cold_request)
        assert cold.runtime_stats["learner_invocations"] == 2

        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        release = threading.Event()
        started = threading.Event()
        original = CertificationEngine._certify_one

        def gated(self, x, model, plan):
            started.set()
            assert release.wait(timeout=60)
            return original(self, x, model, plan)

        engine._certify_one = gated.__get__(engine)
        owner = engine.submit(request)
        assert started.wait(timeout=60)
        # This thread's verify leases every point from the gated submission;
        # a timer opens the gate shortly after the wait begins.
        timer = threading.Timer(0.2, release.set)
        timer.start()
        report = engine.verify(request)
        timer.join()
        assert [r.status for r in report.results] == [
            r.status for r in owner.gather(timeout=120)
        ]
        # Fully leased: no runtime_stats rather than the cold batch's.
        assert report.runtime_stats is None

    def test_lease_survives_owner_failure(self):
        engine = _engine()
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        scheduler = engine.scheduler

        release = threading.Event()
        started = threading.Event()

        def exploding_stream(*args, **kwargs):
            started.set()
            assert release.wait(timeout=60)
            raise RuntimeError("owner died")
            yield  # pragma: no cover - makes this a generator

        engine.runtime.stream = exploding_stream
        doomed = scheduler.submit(request)
        assert started.wait(timeout=60)
        follower = scheduler.submit(request)
        release.set()
        with pytest.raises(RuntimeError, match="owner died"):
            doomed.gather(timeout=120)
        # Restore the real compute path; leased failures fall back locally.
        del engine.runtime.stream
        results = follower.gather(timeout=120)
        assert len(results) == 3
        assert all(isinstance(r, VerificationResult) for r in results)


class TestSchedulerTelemetry:
    """Satellite: coalescing and lease fallbacks move the telemetry counters."""

    def test_coalesced_lease_increments_counters(self):
        from repro.telemetry import metrics
        from repro.telemetry.metrics import series_value

        engine = _engine()
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        scheduler = engine.scheduler

        release = threading.Event()
        started = threading.Event()
        original = CertificationEngine._certify_one

        def gated(self, x, model, plan):
            started.set()
            assert release.wait(timeout=60)
            return original(self, x, model, plan)

        engine._certify_one = gated.__get__(engine)
        before = metrics.get_registry().snapshot()
        first = scheduler.submit(request)
        assert started.wait(timeout=60)
        second = scheduler.submit(request)
        for _ in range(600):
            if scheduler.stats.coalesced >= 3:
                break
            threading.Event().wait(0.05)
        release.set()
        first.gather(timeout=120)
        second.gather(timeout=120)
        after = metrics.get_registry().snapshot()

        def delta(name, **labels):
            return series_value(after, name, **labels) - series_value(
                before, name, **labels
            )

        assert delta("scheduler_batches_total") == 2
        assert delta("scheduler_submitted_total") == 6
        assert delta("scheduler_coalesced_total") == 3
        # The three leases were satisfied by the owner: waits were recorded,
        # no fallback was needed.
        assert delta("scheduler_lease_wait_seconds") == 3
        assert delta("scheduler_lease_fallback_total") == 0

    def test_owner_failure_fallback_counts_and_stamps_a_span(self):
        from repro.telemetry import metrics, tracing
        from repro.telemetry.metrics import series_value

        engine = _engine()
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        scheduler = engine.scheduler

        release = threading.Event()
        started = threading.Event()

        def exploding_stream(*args, **kwargs):
            started.set()
            assert release.wait(timeout=60)
            raise RuntimeError("owner died")
            yield  # pragma: no cover - makes this a generator

        engine.runtime.stream = exploding_stream
        tracing.clear_completed()
        tracing.enable_spans(True)
        before = metrics.get_registry().snapshot()
        try:
            doomed = scheduler.submit(request)
            assert started.wait(timeout=60)
            follower = scheduler.submit(request)
            release.set()
            with pytest.raises(RuntimeError, match="owner died"):
                doomed.gather(timeout=120)
            del engine.runtime.stream
            results = follower.gather(timeout=120)
        finally:
            tracing.enable_spans(False)
        after = metrics.get_registry().snapshot()
        assert len(results) == 3

        def delta(name, **labels):
            return series_value(after, name, **labels) - series_value(
                before, name, **labels
            )

        # Every leased point fell back to a local certification.
        assert delta("scheduler_lease_fallback_total") == 3
        assert delta("scheduler_lease_wait_seconds") == 3
        # The fallbacks ran on scheduler threads; their spans are observable
        # through the completed-roots ring.
        assert tracing.find_span("scheduler.lease_fallback") is not None


class TestSchedulerBookkeeping:
    def test_inflight_table_empties_after_stream(self):
        engine = _engine()
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        list(engine.certify_stream(request))
        assert engine.scheduler.inflight_count == 0
        stats = engine.scheduler.stats.snapshot()
        assert stats["batches"] == 1
        assert stats["submitted"] == 3
        assert stats["coalesced"] == 0

    def test_coalesced_counts_into_runtime_deduplicated(self, tmp_path):
        engine = _engine(tmp_path)
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        scheduler = engine.scheduler

        release = threading.Event()
        started = threading.Event()
        original = CertificationEngine._certify_one

        def gated(self, x, model, plan):
            started.set()
            assert release.wait(timeout=60)
            return original(self, x, model, plan)

        engine._certify_one = gated.__get__(engine)
        first = scheduler.submit(request)
        assert started.wait(timeout=60)
        second = scheduler.submit(request)
        for _ in range(600):
            if scheduler.stats.coalesced >= 3:
                break
            threading.Event().wait(0.05)
        release.set()
        first.gather(timeout=120)
        second.gather(timeout=120)
        assert engine.runtime.stats.deduplicated >= 3

    def test_engine_pickles_without_scheduler_state(self):
        import pickle

        engine = _engine()
        _ = engine.scheduler  # materialize threads/locks
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._scheduler is None
        # The clone is fully functional (fresh locks, fresh plan cache).
        dataset = well_separated_dataset()
        result = clone.certify_point(dataset, [0.5], RemovalPoisoningModel(1))
        assert isinstance(result, VerificationResult)

    def test_close_is_idempotent(self):
        engine = _engine()
        scheduler = engine.scheduler
        dataset = well_separated_dataset()
        request = CertificationRequest(dataset, POINTS, RemovalPoisoningModel(1))
        scheduler.submit(request).gather(timeout=60)
        scheduler.close()
        scheduler.close()
