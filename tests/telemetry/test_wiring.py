"""Integration tests: the engine/runtime/service actually move the metrics."""

import numpy as np
import pytest

from repro.api import CertificationEngine, CertificationRequest
from repro.datasets.toy import figure2_dataset
from repro.runtime import CertificationRuntime
from repro.telemetry import metrics, tracing
from repro.telemetry.metrics import series_value


@pytest.fixture
def registry():
    return metrics.get_registry()


def _delta(before, after, name, **labels):
    return series_value(after, name, **labels) - series_value(before, name, **labels)


class TestEngineWiring:
    def test_cold_certify_counts_invocations_and_durations(self, registry):
        engine = CertificationEngine(max_depth=1, domain="box")
        before = registry.snapshot()
        report = engine.verify(
            CertificationRequest(figure2_dataset(), [[5.0], [9.0]], 1)
        )
        after = registry.snapshot()
        assert report.total == 2
        assert _delta(before, after, "learner_invocations_total") == 2
        outcome = report.results[0].status.value
        assert (
            _delta(
                before,
                after,
                "certify_seconds",
                family="removal",
                domain="box",
                outcome=outcome,
            )
            >= 1
        )

    def test_traced_verify_attaches_trace_tree(self, registry):
        engine = CertificationEngine(max_depth=1, domain="box")
        tracing.enable_spans(True)
        try:
            report = engine.verify(
                CertificationRequest(figure2_dataset(), [[5.0]], 1)
            )
        finally:
            tracing.enable_spans(False)
        trace = (report.runtime_stats or {}).get("trace")
        assert trace is not None
        assert trace["name"] == "engine.verify"
        names = set()

        def collect(node):
            names.add(node["name"])
            for child in node["children"]:
                collect(child)

        collect(trace)
        assert "engine.certify_one" in names
        assert "ladder.box" in names

    def test_untraced_verify_attaches_no_trace(self):
        engine = CertificationEngine(max_depth=1, domain="box")
        report = engine.verify(CertificationRequest(figure2_dataset(), [[5.0]], 1))
        assert "trace" not in (report.runtime_stats or {})

    def test_cold_run_records_transformer_phases(self, registry):
        engine = CertificationEngine(max_depth=1, domain="box")
        before = registry.snapshot()
        engine.certify_point(figure2_dataset(), [5.0], 1)
        after = registry.snapshot()
        for phase in ("pure_exit", "best_split", "filter", "split_table"):
            assert (
                _delta(
                    before, after, "learner_phase_seconds", stage="box", phase=phase
                )
                >= 1
            ), phase


class TestRuntimeWiring:
    def test_warm_run_counts_cache_hits(self, registry, tmp_path):
        dataset = figure2_dataset()
        request = CertificationRequest(dataset, [[5.0], [9.0]], 1)

        cold_runtime = CertificationRuntime(tmp_path, shared_memory=False)
        cold_engine = CertificationEngine(
            max_depth=1, domain="box", runtime=cold_runtime
        )
        before_cold = registry.snapshot()
        cold_engine.verify(request)
        after_cold = registry.snapshot()
        assert _delta(before_cold, after_cold, "cache_lookups_total", result="miss") == 2
        assert _delta(before_cold, after_cold, "learner_invocations_total") == 2

        warm_runtime = CertificationRuntime(tmp_path, shared_memory=False)
        warm_engine = CertificationEngine(
            max_depth=1, domain="box", runtime=warm_runtime
        )
        before_warm = registry.snapshot()
        warm_engine.verify(request)
        after_warm = registry.snapshot()
        assert _delta(before_warm, after_warm, "cache_lookups_total", result="hit") == 2
        assert _delta(before_warm, after_warm, "learner_invocations_total") == 0
        # The sqlite histogram saw at least the lookups and the stores.
        assert _delta(before_cold, after_warm, "cache_sqlite_seconds", op="lookup") >= 4
        assert _delta(before_cold, after_cold, "cache_sqlite_seconds", op="store") >= 2


def _pooled_verify(engine, dataset, points):
    report = engine.verify(CertificationRequest(dataset, points, 1), n_jobs=2)
    assert report.total == len(points)
    return report.total


def _pooled_sweep(engine, dataset, points):
    outcomes = engine.pareto_sweep(
        dataset, np.asarray(points), max_remove=2, max_flip=2, n_jobs=2
    )
    assert len(outcomes) == len(points)
    return sum(outcome.probes for outcome in outcomes)


@pytest.mark.parametrize(
    "pooled_run", [_pooled_verify, _pooled_sweep], ids=["verify", "pareto_sweep"]
)
class TestWorkerShipping:
    """Pool workers ship metric deltas home; the parent merges them."""

    def _pooled_report(self, registry, pooled_run):
        """Run one pooled job; returns the registry around it and the
        number of learner invocations it made."""
        from tests.conftest import well_separated_dataset

        engine = CertificationEngine(max_depth=1, domain="box")
        dataset = well_separated_dataset()
        points = [[0.5], [11.0], [5.0], [1.2]]
        before = registry.snapshot()
        invocations = pooled_run(engine, dataset, points)
        return before, registry.snapshot(), invocations

    def test_pooled_verify_merges_worker_series(self, registry, pooled_run):
        before, after, invocations = self._pooled_report(registry, pooled_run)
        # learner_phase_seconds is recorded inside the workers; seeing it
        # move in the parent proves the delta shipping + merge round trip.
        phase_moved = sum(
            series["count"]
            for series in after.get("learner_phase_seconds", {}).get("series", [])
        ) - sum(
            series["count"]
            for series in before.get("learner_phase_seconds", {}).get("series", [])
        )
        assert phase_moved > 0
        assert _delta(before, after, "learner_invocations_total") == invocations

    def test_pooled_verify_records_dispatch_and_task_series(self, registry, pooled_run):
        before, after, _ = self._pooled_report(registry, pooled_run)
        dispatch = after.get("dispatch_overhead_seconds", {}).get("series", [])
        assert dispatch and dispatch[0]["count"] >= 4
        workers = after.get("worker_task_seconds", {}).get("series", [])
        assert sum(series["count"] for series in workers) >= 4
        utilization = after.get("worker_utilization", {}).get("series", [])
        assert utilization
        assert all(0.0 <= series["value"] <= 1.0 for series in utilization)

    def test_worker_task_events_carry_the_bound_request_id(
        self, registry, tmp_path, pooled_run
    ):
        from repro.telemetry import events

        log = tmp_path / "events.jsonl"
        events._reset_for_tests()
        events.configure(str(log))
        try:
            with events.bind_request("cafe0123cafe0123"):
                self._pooled_report(registry, pooled_run)
        finally:
            events.configure(None)
            events._reset_for_tests()
        import json as json_module

        records = [
            json_module.loads(line) for line in log.read_text().splitlines()
        ]
        tasks = [r for r in records if r["event"] == "worker.task"]
        assert len(tasks) >= 4
        assert {r["rid"] for r in tasks} == {"cafe0123cafe0123"}
        assert {r["pid"] for r in tasks} - {records[0]["pid"]}, (
            "worker.task events must come from pool worker processes"
        )
