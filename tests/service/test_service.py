"""End-to-end tests for the certification daemon and its client.

Each test runs a real :class:`CertificationServer` on a Unix-domain socket in
a temp directory and talks to it through :class:`CertificationClient` — the
same path the CLI's ``--connect`` and the CI daemon smoke take.
"""

import os
import socket as socket_module
import threading

import numpy as np
import pytest

from repro.api import SCHEMA_VERSION, CertificationEngine
from repro.fleet import CertificationRouter
from repro.poisoning.models import CompositePoisoningModel, RemovalPoisoningModel
from repro.service import (
    PROTOCOL_VERSION,
    CertificationClient,
    CertificationServer,
    RemoteError,
    wait_for_server,
)
from repro.verify.result import VerificationResult
from tests.conftest import well_separated_dataset

pytestmark = pytest.mark.skipif(
    not hasattr(socket_module, "AF_UNIX"), reason="requires Unix-domain sockets"
)

POINTS = np.array([[0.5], [11.0], [5.0]])


def _router(path):
    # Binding needs no live backend; the router only dials one per request.
    return CertificationRouter(["127.0.0.1:9"], socket_path=path)


#: Both processes that bind a Unix socket through the shared serving code.
LISTENERS = pytest.mark.parametrize(
    "listen", [CertificationServer, _router], ids=["server", "router"]
)


@pytest.fixture
def server(tmp_path):
    # Keep the socket path short: AF_UNIX paths are limited to ~104 bytes.
    server = CertificationServer(tmp_path / "s", cache_dir=tmp_path / "cache")
    with server:
        wait_for_server(server.socket_path, timeout=30)
        yield server


@pytest.fixture
def client(server):
    with CertificationClient(server.socket_path, max_depth=1, domain="box") as client:
        yield client


class TestHandshake:
    def test_hello_reports_versions(self, client):
        assert client.server_info["protocol"] == PROTOCOL_VERSION
        assert client.server_info["schema_version"] == SCHEMA_VERSION

    def test_ping(self, client):
        pong = client.ping()
        assert pong["pong"] is True
        assert pong["uptime_seconds"] >= 0

    def test_protocol_mismatch_rejected(self, server):
        with pytest.raises(RemoteError, match="protocol"):
            # Re-run the handshake with a bogus version through a raw client.
            with CertificationClient(server.socket_path) as raw:
                raw._call("hello", {"protocol": 999})

    def test_unknown_op_is_reported_not_fatal(self, client):
        with pytest.raises(RemoteError, match="unknown operation"):
            client._call("frobnicate")
        # The connection survives the error.
        assert client.ping()["pong"] is True


class TestCertification:
    def test_warm_rerun_reports_zero_learner_invocations(self, client):
        """Acceptance: a second identical batch costs zero learner work."""
        dataset = well_separated_dataset()
        cold = client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        assert cold.total == 3
        assert cold.runtime_stats["learner_invocations"] == 3
        warm = client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        assert warm.runtime_stats["learner_invocations"] == 0
        assert [r.status for r in warm.results] == [r.status for r in cold.results]

    def test_registry_reference_batches_share_the_warm_cache(self, client):
        ref = {"name": "iris", "scale": 0.3, "seed": 0}
        points = np.asarray(
            [[5.0, 3.4, 1.5, 0.2], [6.1, 2.8, 4.7, 1.2]], dtype=float
        )
        cold = client.certify_batch(ref, points, 2)
        warm = client.certify_batch(ref, points, 2)
        assert warm.runtime_stats["learner_invocations"] == 0
        assert warm.total == cold.total == 2

    def test_certify_stream_yields_in_order(self, client):
        dataset = well_separated_dataset()
        streamed = list(
            client.certify_stream(dataset, POINTS, RemovalPoisoningModel(1))
        )
        assert len(streamed) == 3
        assert all(isinstance(r, VerificationResult) for r in streamed)
        batch = client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        assert [r.status for r in streamed] == [r.status for r in batch.results]

    def test_wire_n_jobs_is_bounded_by_the_daemons_cpus(self, client, monkeypatch):
        # One frame must not make the daemon fork a worker per requested job.
        # The recorded engine calls run serially, so nothing is forked here.
        received = []

        def recording(method):
            def run(self, request, *, n_jobs=1):
                received.append(n_jobs)
                return method(self, request, n_jobs=1)

            return run

        for name in ("verify", "certify_stream"):
            monkeypatch.setattr(
                CertificationEngine, name, recording(getattr(CertificationEngine, name))
            )
        dataset = well_separated_dataset()
        model = RemovalPoisoningModel(1)
        client.certify_batch(dataset, POINTS, model, n_jobs=10**6)
        list(client.certify_stream(dataset, POINTS, model, n_jobs=10**6))
        assert len(received) >= 2
        assert all(1 <= n_jobs <= (os.cpu_count() or 1) for n_jobs in received)

    def test_certify_point_and_composite_model(self, client):
        dataset = well_separated_dataset()
        result = client.certify_point(dataset, [0.5], CompositePoisoningModel(1, 1))
        assert result.domain.startswith("flip-")
        assert result.poisoning_amount == 2

    def test_validation_errors_cross_the_wire(self, client):
        dataset = well_separated_dataset()
        with pytest.raises(RemoteError, match="n_classes"):
            client.certify_batch(
                dataset, POINTS, CompositePoisoningModel(1, 1, n_classes=7)
            )
        assert client.ping()["pong"] is True

    def test_concurrent_clients_one_invocation_per_distinct_point(self, server):
        """Acceptance: two clients submitting the same points concurrently
        trigger exactly one learner invocation per distinct point."""
        dataset = well_separated_dataset()
        results = {}
        errors = []

        def run(name):
            try:
                with CertificationClient(
                    server.socket_path, max_depth=1, domain="box"
                ) as client:
                    results[name] = client.certify_batch(
                        dataset, POINTS, RemovalPoisoningModel(1)
                    )
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=run, args=(name,)) for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert results["a"].total == results["b"].total == 3
        assert [r.status for r in results["a"].results] == [
            r.status for r in results["b"].results
        ]
        # Whether the two batches coalesced in flight or the later one hit
        # the cache, the server ran the learner exactly once per point.
        assert server.runtime.stats.learner_invocations == 3


class TestSweepOps:
    def test_max_certified_probes_through_the_server_cache(self, client):
        dataset = well_separated_dataset()
        first = client.max_certified(dataset, [0.5], max_budget=4)
        again = client.max_certified(dataset, [0.5], max_budget=4)
        assert again.max_certified_n == first.max_certified_n
        assert again.learner_invocations == 0  # all probes derived from cache

    def test_pareto_frontier_and_sweep(self, client):
        dataset = well_separated_dataset()
        outcome = client.pareto_frontier(dataset, [0.5], max_remove=2, max_flip=2)
        assert isinstance(outcome.frontier, tuple)
        swept = client.pareto_sweep(
            dataset, np.array([[0.5], [11.0]]), max_remove=2, max_flip=2
        )
        assert len(swept) == 2
        assert swept[0].frontier == outcome.frontier
        # The warm sweep re-derives every frontier without the learner.
        assert swept[0].learner_invocations == 0


class TestManagement:
    def test_cache_stats_and_gc(self, client):
        dataset = well_separated_dataset()
        client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        stats = client.cache_stats()
        assert stats["cache"]["verdicts"] == 3
        assert stats["runtime"]["learner_invocations"] == 3
        summary = client.cache_gc(max_entries=1)
        assert summary["evicted"] == 2
        assert summary["remaining"] == 1
        assert client.cache_stats()["cache"]["verdicts"] == 1

    def test_server_stats_report_engines_and_scheduler(self, client):
        dataset = well_separated_dataset()
        client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        stats = client.server_stats()
        assert stats["requests_served"] >= 2  # hello + certify
        assert stats["datasets_resident"] == 1
        assert len(stats["engines"]) == 1
        assert stats["engines"][0]["scheduler"]["submitted"] == 3

    def test_engine_configs_are_isolated(self, server):
        dataset = well_separated_dataset()
        with CertificationClient(server.socket_path, max_depth=1, domain="box") as shallow:
            with CertificationClient(server.socket_path, max_depth=2, domain="box") as deep:
                shallow.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
                deep.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        stats = server.runtime.stats
        # Different depths are different proof problems: no cross-engine
        # cache sharing, 6 invocations in total.
        assert stats.learner_invocations == 6


class TestMetricsOp:
    """The versioned ``metrics`` op and per-op telemetry on the daemon."""

    def test_json_snapshot_counts_server_requests(self, client):
        from repro.service.protocol import METRICS_VERSION
        from repro.telemetry.metrics import series_value

        client.ping()
        payload = client.metrics()
        assert payload["metrics_version"] == METRICS_VERSION
        assert payload["format"] == "json"
        snapshot = payload["metrics"]
        # The server and client share this process's registry in-test, but
        # the `op`-labeled families are only incremented by the dispatcher.
        assert series_value(snapshot, "server_requests_total", op="ping") >= 1
        assert series_value(snapshot, "server_requests_total", op="metrics") >= 1
        assert series_value(snapshot, "server_op_seconds", op="ping") >= 1

    def test_prometheus_format(self, client):
        payload = client.metrics(format="prometheus")
        text = payload["prometheus"]
        assert "# TYPE server_requests_total counter" in text
        assert 'server_requests_total{op="hello"}' in text

    def test_unknown_format_rejected(self, client):
        with pytest.raises(RemoteError, match="format"):
            client.metrics(format="xml")

    def test_server_stats_surface_the_registry(self, client):
        from repro.telemetry.metrics import series_value

        dataset = well_separated_dataset()
        client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        stats = client.server_stats()
        assert "metrics" in stats
        assert (
            series_value(stats["metrics"], "server_requests_total", op="certify_stream")
            >= 1
        )

    def test_uptime_is_monotonic_and_nonnegative(self, client):
        first = client.ping()["uptime_seconds"]
        second = client.ping()["uptime_seconds"]
        assert 0 <= first <= second


class TestLifecycle:
    def test_shutdown_op_stops_the_server(self, tmp_path):
        server = CertificationServer(tmp_path / "s2")
        server.start()
        wait_for_server(server.socket_path, timeout=30)
        with CertificationClient(server.socket_path) as client:
            assert client.shutdown()["stopping"] is True
        server.close()
        assert not server.socket_path.exists()

    @LISTENERS
    def test_stale_socket_file_is_reclaimed(self, tmp_path, listen):
        path = tmp_path / "s3"
        path.touch()  # a dead socket (nothing listening)
        with listen(path):
            wait_for_server(path, timeout=30)

    @LISTENERS
    def test_live_socket_is_not_stolen(self, tmp_path, listen):
        first = listen(tmp_path / "s4")
        with first:
            wait_for_server(first.socket_path, timeout=30)
            with pytest.raises(RuntimeError, match="already listening"):
                listen(tmp_path / "s4").start()
            # The refused second listener left the path to the first.
            with CertificationClient(first.socket_path) as client:
                assert client.server_info["backend_id"].endswith(str(first.socket_path))

    def test_wait_for_server_times_out(self, tmp_path):
        with pytest.raises(TimeoutError, match="no certification server"):
            wait_for_server(tmp_path / "nothing", timeout=0.3, interval=0.05)


class TestRequestCorrelation:
    """Protocol minor 1: the rid frame field and the trace op."""

    def test_hello_reports_the_protocol_minor(self, client):
        from repro.service.protocol import PROTOCOL_MINOR

        assert client.server_info["protocol_minor"] == PROTOCOL_MINOR

    def test_bound_request_id_travels_in_frames(self, client, tmp_path):
        import json as json_module

        from repro.telemetry import events

        log = tmp_path / "events.jsonl"
        events._reset_for_tests()
        events.configure(str(log))
        try:
            with events.bind_request("0123456789abcdef"):
                client.ping()
        finally:
            events.configure(None)
            events._reset_for_tests()
        records = [
            json_module.loads(line) for line in log.read_text().splitlines()
        ]
        by_event = {record["event"]: record for record in records}
        # Client-side timing event and server-side dispatch event both carry
        # the id the client minted — the cross-process correlation contract.
        assert by_event["client.request"]["rid"] == "0123456789abcdef"
        assert by_event["server.dispatch"]["rid"] == "0123456789abcdef"
        assert by_event["server.dispatch"]["op"] == "ping"
        assert by_event["server.dispatch"]["outcome"] == "ok"

    def test_unbound_requests_carry_no_rid(self, client, tmp_path):
        import json as json_module

        from repro.telemetry import events

        log = tmp_path / "events.jsonl"
        events._reset_for_tests()
        events.configure(str(log))
        try:
            client.ping()
        finally:
            events.configure(None)
            events._reset_for_tests()
        records = [
            json_module.loads(line) for line in log.read_text().splitlines()
        ]
        assert records
        assert all("rid" not in record for record in records)

    def test_trace_op_fetches_the_span_tree_by_request_id(self, client):
        from repro.telemetry import events, tracing

        tracing.enable_spans(True)
        try:
            with events.bind_request("feedfacefeedface"):
                client.certify_batch(
                    well_separated_dataset(), POINTS, RemovalPoisoningModel(1)
                )
            payload = client.trace("feedfacefeedface")
        finally:
            tracing.enable_spans(False)
        assert payload["request_id"] == "feedfacefeedface"
        tree = payload["trace"]
        assert tree["request_id"] == "feedfacefeedface"
        assert tree["duration_seconds"] >= 0
        names = set()

        def collect(node):
            names.add(node["name"])
            for child in node.get("children", ()):
                collect(child)

        collect(tree)
        assert "server.certify" in names

    def test_trace_without_tracing_enabled_reports_a_hint(self, client):
        with pytest.raises(RemoteError, match="--trace"):
            client.trace("0000000000000000")

    def test_trace_requires_a_request_id(self, client):
        with pytest.raises(RemoteError, match="request_id"):
            client.trace("")
