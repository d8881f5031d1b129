"""Tests for the opt-in span tracer."""

import threading
import time

import numpy as np
import pytest

from repro.api import CertificationEngine, CertificationRequest
from repro.core.dataset import Dataset
from repro.poisoning.models import RemovalPoisoningModel
from repro.telemetry import tracing

#: Root wall time a traced cold batch may leave outside its child spans.
MAX_UNATTRIBUTED_SECONDS = 0.003


def _two_cluster_dataset() -> Dataset:
    rng = np.random.default_rng(23)
    half = 256
    X = np.concatenate([rng.normal(0.0, 1.0, half), rng.normal(10.0, 1.0, half)])
    y = np.repeat([0, 1], half)
    return Dataset(X=X.reshape(-1, 1), y=y, n_classes=2, name="two-cluster")


@pytest.fixture
def spans():
    """Enable tracing for one test, restoring the disabled default after."""
    tracing.clear_completed()
    tracing.enable_spans(True)
    yield
    tracing.enable_spans(False)
    tracing.clear_completed()


class TestDisabled:
    def test_span_yields_none(self):
        assert not tracing.spans_enabled()
        with tracing.span("anything") as node:
            assert node is None

    def test_no_roots_recorded(self):
        tracing.clear_completed()
        with tracing.span("anything"):
            pass
        assert tracing.completed_roots() == []


class TestTree:
    def test_nesting_builds_a_tree(self, spans):
        with tracing.span("root") as root:
            with tracing.span("child-a") as a:
                with tracing.span("grandchild"):
                    pass
            with tracing.span("child-b"):
                pass
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in a.children] == ["grandchild"]
        assert root.duration >= a.duration >= 0.0

    def test_root_lands_in_completed_ring(self, spans):
        with tracing.span("the-root"):
            with tracing.span("inner"):
                pass
        roots = tracing.completed_roots()
        assert [r.name for r in roots] == ["the-root"]
        assert tracing.find_span("inner") is not None
        assert tracing.find_span("absent") is None

    def test_to_dict_is_json_safe(self, spans):
        with tracing.span("root") as root:
            with tracing.span("child"):
                pass
        payload = root.to_dict()
        assert payload["name"] == "root"
        assert payload["duration_seconds"] == root.duration
        assert payload["children"][0]["name"] == "child"
        assert payload["children"][0]["children"] == []

    def test_render_mentions_every_span(self, spans):
        with tracing.span("root") as root:
            with tracing.span("child"):
                pass
        text = root.render()
        assert "root" in text and "child" in text and "ms" in text

    def test_attributed_fraction(self, spans):
        with tracing.span("root") as root:
            with tracing.span("covered"):
                time.sleep(0.02)
        assert 0.5 < root.attributed_fraction() <= 1.0

    def test_cold_verify_leaves_little_wall_time_outside_spans(self, spans):
        # 64 points on a 512-row, one-feature dataset at depth 1 (Box), each
        # run on a fresh engine and a fresh dataset, so plans are cold.  The
        # root's time outside its child spans (scheduler bookkeeping) is
        # bounded in milliseconds rather than as a share of the root: a
        # faster batch must not loosen the bound.  A run preempted by the
        # host adds whole scheduler quanta (~4 ms) to the gap, so up to ten
        # runs are tried and the first one under the bound passes.
        gaps = []
        for _ in range(10):
            report = CertificationEngine(max_depth=1, domain="box").verify(
                CertificationRequest(
                    _two_cluster_dataset(),
                    np.linspace(-1.0, 12.0, 64).reshape(-1, 1),
                    RemovalPoisoningModel(2),
                )
            )
            trace = report.runtime_stats["trace"]
            points = [c for c in trace["children"] if c["name"] == "scheduler.point"]
            assert len(points) == 64
            assert all(point["children"] for point in points)
            gaps.append(
                trace["duration_seconds"]
                - sum(child["duration_seconds"] for child in trace["children"])
            )
            if gaps[-1] < MAX_UNATTRIBUTED_SECONDS:
                break
        assert min(gaps) < MAX_UNATTRIBUTED_SECONDS, gaps

    def test_threads_get_independent_stacks(self, spans):
        def worker():
            with tracing.span("thread-root"):
                with tracing.span("thread-child"):
                    pass

        with tracing.span("main-root") as main_root:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The worker's root must not have been adopted by the main root.
        assert [c.name for c in main_root.children] == []
        names = {r.name for r in tracing.completed_roots()}
        assert names == {"main-root", "thread-root"}
