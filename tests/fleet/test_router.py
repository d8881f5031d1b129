"""Router tests: shard locality, failover, fan-out, error relay.

These run real :class:`CertificationServer` backends over loopback TCP plus a
:class:`CertificationRouter`, the exact topology of the CI fleet smoke — and
one deliberately unfaithful backend (:class:`FlakyBackend`) that speaks just
enough protocol to die mid-stream on cue, making failover deterministic.
"""

import socket
import threading

import numpy as np
import pytest

from repro.api import SCHEMA_VERSION
from repro.fleet import CertificationRouter, HashRing, shard_key
from repro.fleet.router import _FAILOVERS
from repro.poisoning.models import RemovalPoisoningModel
from repro.service import (
    PROTOCOL_MINOR,
    PROTOCOL_VERSION,
    CertificationClient,
    CertificationServer,
    ProtocolError,
    RemoteError,
    wait_for_server,
)
from repro.service.protocol import dataset_to_wire, encode_frame, read_frame
from repro.telemetry import metrics
from repro.telemetry.metrics import series_value
from tests.conftest import well_separated_dataset

POINTS = np.array([[0.5], [11.0]])


def _failover_count() -> float:
    series = _FAILOVERS.snapshot().get("series", [])
    return sum(row["value"] for row in series)


@pytest.fixture
def fleet(tmp_path):
    """Two real TCP backends behind a router, all in-process."""
    s1 = CertificationServer(tcp="127.0.0.1:0", cache_dir=tmp_path / "c1")
    s2 = CertificationServer(tcp="127.0.0.1:0", cache_dir=tmp_path / "c2")
    s1.start()
    s2.start()
    router = CertificationRouter(
        [s1.address, s2.address], tcp="127.0.0.1:0", request_timeout=120.0
    )
    router.start()
    wait_for_server(router.address, timeout=30)
    try:
        yield router, s1, s2
    finally:
        router.close()
        s1.close()
        s2.close()


class TestRouting:
    def test_hello_identifies_router(self, fleet):
        router, s1, s2 = fleet
        with CertificationClient(router.address) as client:
            info = client.server_info
            assert info["role"] == "router"
            assert info["protocol"] == PROTOCOL_VERSION
            assert sorted(info["backends"]) == sorted([s1.address, s2.address])

    def test_warm_rerun_hits_the_same_shard(self, fleet):
        """Acceptance: repeated requests for a dataset land on one backend."""
        router, s1, s2 = fleet
        dataset = well_separated_dataset()
        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            cold = client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
            assert cold.runtime_stats["learner_invocations"] > 0
            warm = client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
            # Zero learner work is only possible if the second request
            # reached the same backend's warm verdict cache.
            assert warm.runtime_stats["learner_invocations"] == 0
            assert [r.status for r in warm.results] == [r.status for r in cold.results]

    def test_shard_owner_matches_ring_prediction(self, fleet):
        router, s1, s2 = fleet
        dataset = well_separated_dataset()
        ring = HashRing([s1.address, s2.address])
        owner = ring.primary(shard_key(dataset_to_wire(dataset)))
        sibling = s2 if owner == s1.address else s1
        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        # The predicted owner's cache holds the verdicts; the sibling's is
        # empty (the router forwards each request to one backend only).
        owner_server = s1 if owner == s1.address else s2
        assert owner_server.runtime.cache.stats()["verdicts"] == len(POINTS)
        assert sibling.runtime.cache.stats()["verdicts"] == 0

    def test_certify_is_forwarded_once(self, fleet):
        """One routed certify costs the backends one certify and nothing else."""
        router, _, _ = fleet
        dataset = well_separated_dataset()
        registry = metrics.get_registry()

        def served(snapshot):
            return {
                op: series_value(snapshot, "server_requests_total", op=op)
                for op in ("certify", "cache_probe")
            }

        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            before = served(registry.snapshot())
            client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
            after = served(registry.snapshot())
        assert after["certify"] - before["certify"] == 1
        assert after["cache_probe"] == before["cache_probe"]

    def test_stream_through_router(self, fleet):
        router, _, _ = fleet
        dataset = well_separated_dataset()
        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            results = list(
                client.certify_stream(dataset, POINTS, RemovalPoisoningModel(1))
            )
        assert [r.status.value for r in results] == ["robust", "robust"]

    def test_remote_error_relayed_without_failover(self, fleet):
        router, _, _ = fleet
        before = _failover_count()
        with CertificationClient(router.address, max_depth=1, domain="box") as client:
            with pytest.raises(RemoteError):
                client.call(
                    "certify",
                    {
                        "dataset": {"name": "no-such-dataset"},
                        "points": [[0.0]],
                        "model": {"family": "removal", "n": 1},
                        "engine": {},
                    },
                )
            # An application error is the backend *answering*, not dying:
            # the router must relay it, not burn through the ring.
            assert _failover_count() == before
            assert client.ping()["pong"] is True

    def test_fan_out_reaches_every_backend(self, fleet):
        router, s1, s2 = fleet
        with CertificationClient(router.address) as client:
            result = client.call("cache_stats", {})
        assert sorted(result["backends"]) == sorted([s1.address, s2.address])
        assert result["errors"] == {}

    def test_router_stats_lists_backends(self, fleet):
        router, s1, s2 = fleet
        with CertificationClient(router.address) as client:
            stats = client.call("stats", {})
        assert stats["backends"] == {s1.address: True, s2.address: True}


class FlakyBackend:
    """A protocol imposter that dies partway through a certify stream.

    Answers ``hello`` and ``ping`` faithfully, then serves ``die_after``
    pre-baked result frames of any ``certify_stream`` and drops the
    connection without an end frame — the deterministic stand-in for a
    backend crashing mid-request.
    """

    def __init__(self, results_wire, *, die_after: int = 1):
        self.results_wire = list(results_wire)
        self.die_after = die_after
        self.streams_served = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        host, port = self._listener.getsockname()
        self.address = f"{host}:{port}"
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def close(self):
        self._listener.close()

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn):
        reader = conn.makefile("rb")
        writer = conn.makefile("wb")

        def send(payload):
            writer.write(encode_frame(payload))
            writer.flush()

        try:
            while True:
                frame = read_frame(reader)
                if frame is None:
                    return
                op, fid = frame.get("op"), frame.get("id")
                if op == "hello":
                    send({"id": fid, "ok": True, "result": {
                        "protocol": PROTOCOL_VERSION,
                        "protocol_minor": PROTOCOL_MINOR,
                        "schema_version": SCHEMA_VERSION,
                        "server_version": "flaky",
                        "pid": 0,
                        "backend_id": self.address,
                    }})
                elif op == "ping":
                    send({"id": fid, "ok": True,
                          "result": {"pong": True, "uptime_seconds": 0.0}})
                elif op == "certify_stream":
                    self.streams_served += 1
                    for index in range(self.die_after):
                        send({"id": fid, "event": "result", "index": index,
                              "result": self.results_wire[index]})
                    conn.shutdown(socket.SHUT_RDWR)
                    return
                else:
                    send({"id": fid, "ok": False, "error": {
                        "type": "ProtocolError",
                        "message": f"flaky backend: unknown op {op!r}",
                    }})
        except (OSError, ProtocolError, ValueError):
            return
        finally:
            conn.close()


class TestFailover:
    def _fleet_with_flaky_primary(self, tmp_path, dataset, results_wire):
        """A (flaky, real) pair where the *flaky* node owns the dataset.

        The flaky backend's ephemeral port changes the ring layout; re-bind
        until the ring puts the dataset's shard on the flaky node (p=1/2
        per attempt, so a handful of tries suffice deterministically).
        """
        real = CertificationServer(tcp="127.0.0.1:0", cache_dir=tmp_path / "real")
        real.start()
        key = shard_key(dataset_to_wire(dataset))
        for _ in range(64):
            flaky = FlakyBackend(results_wire, die_after=1)
            ring = HashRing([flaky.address, real.address])
            if ring.primary(key) == flaky.address:
                return flaky, real
            flaky.close()
        real.close()
        raise AssertionError("could not place the flaky backend as shard owner")

    def test_mid_stream_death_fails_over_with_renumbered_indices(self, tmp_path):
        """Acceptance: a backend dying mid-batch still yields a full report."""
        dataset = well_separated_dataset()
        # Bake wire results for the flaky node to serve before dying: the
        # real verdicts for the same points, straight off a real server.
        seed = CertificationServer(tcp="127.0.0.1:0", cache_dir=tmp_path / "seed")
        seed.start()
        with CertificationClient(seed.address, max_depth=1, domain="box") as c:
            baked = [
                r.to_dict()
                for r in c.certify_stream(dataset, POINTS, RemovalPoisoningModel(1))
            ]
        seed.close()
        flaky, real = self._fleet_with_flaky_primary(tmp_path, dataset, baked)
        router = CertificationRouter(
            [flaky.address, real.address],
            tcp="127.0.0.1:0",
            request_timeout=120.0,
        )
        router.start()
        wait_for_server(router.address, timeout=30)
        before = _failover_count()
        try:
            with CertificationClient(
                router.address, max_depth=1, domain="box"
            ) as client:
                results = list(
                    client.certify_stream(dataset, POINTS, RemovalPoisoningModel(1))
                )
            # The flaky owner served point 0 then died; the real backend
            # finished point 1.  The client saw one gapless, in-order
            # stream with every verdict present and correct.
            assert flaky.streams_served == 1
            assert [r.status.value for r in results] == ["robust", "robust"]
            assert len(results) == len(POINTS)
            assert _failover_count() == before + 1
            # Only the unserved tail was re-certified on the survivor.
            assert real.runtime.cache.stats()["verdicts"] == 1
        finally:
            router.close()
            flaky.close()
            real.close()

    def test_dead_backend_skipped_after_first_failure(self, tmp_path):
        """After one observed death the router stops trying the corpse."""
        real = CertificationServer(tcp="127.0.0.1:0", cache_dir=tmp_path / "real")
        real.start()
        dataset = well_separated_dataset()
        key = shard_key(dataset_to_wire(dataset))
        # A port with nothing behind it: every connect is refused.  Re-bind
        # until the dead port *owns* the dataset's shard, so the first
        # request deterministically hits the corpse and fails over (the
        # alternative layout would leave liveness to the health-probe race).
        for _ in range(64):
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.bind(("127.0.0.1", 0))
            dead_address = "127.0.0.1:%d" % probe.getsockname()[1]
            probe.close()
            if HashRing([dead_address, real.address]).primary(key) == dead_address:
                break
        else:
            real.close()
            raise AssertionError("could not place the dead port as shard owner")
        router = CertificationRouter(
            [dead_address, real.address],
            tcp="127.0.0.1:0",
            request_timeout=120.0,
        )
        router.start()
        wait_for_server(router.address, timeout=30)
        try:
            with CertificationClient(
                router.address, max_depth=1, domain="box"
            ) as client:
                report = client.certify_batch(
                    dataset, POINTS, RemovalPoisoningModel(1)
                )
                assert len(report.results) == len(POINTS)
                # The first request hit the dead owner, failed over once;
                # afterwards the dead node is marked down and skipped.
                stats = client.call("stats", {})
                assert stats["backends"][dead_address] is False
                assert stats["backends"][real.address] is True
        finally:
            router.close()
            real.close()
