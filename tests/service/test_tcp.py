"""TCP transport tests: addressing, negotiation, timeouts, connect retry.

Protocol minor 2 lets the certification daemon bind a TCP listener next to
the Unix-domain socket.  These tests run a real :class:`CertificationServer`
on a loopback TCP port and exercise the paths the Unix-socket suite cannot:
address parsing, keepalive sockets, half-open servers (accepts but never
answers), and connect retry against a late-binding listener.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.api import SCHEMA_VERSION, CertificationEngine
from repro.poisoning.models import RemovalPoisoningModel
from repro.service import (
    PROTOCOL_MINOR,
    PROTOCOL_VERSION,
    CertificationClient,
    CertificationServer,
    ProtocolError,
    RemoteError,
    RequestTimeoutError,
    format_address,
    parse_address,
    wait_for_server,
)
from repro.service.protocol import encode_frame, read_frame
from tests.conftest import well_separated_dataset

POINTS = np.array([[0.5], [11.0]])


class TestAddressing:
    def test_host_port_parses_as_tcp(self):
        assert parse_address("127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))
        assert parse_address("tcp://example.com:7300") == (
            "tcp",
            ("example.com", 7300),
        )

    def test_ipv6_brackets(self):
        assert parse_address("[::1]:9000") == ("tcp", ("::1", 9000))
        assert format_address(("::1", 9000)) == "[::1]:9000"

    def test_paths_parse_as_unix(self):
        family, target = parse_address("/tmp/repro.sock")
        assert family == "unix"
        assert str(target) == "/tmp/repro.sock"
        # A relative path with a colon-digit suffix is still a path: the
        # slash disambiguates.
        assert parse_address("run/sock:1")[0] == "unix"

    def test_round_trip_through_format(self):
        for address in ("127.0.0.1:9000", "[::1]:7300", "/tmp/x.sock"):
            assert format_address(address) == address

    def test_malformed_tcp_url_rejected(self):
        with pytest.raises(ProtocolError):
            parse_address("tcp://no-port")


@pytest.fixture
def tcp_server(tmp_path):
    server = CertificationServer(tcp="127.0.0.1:0", cache_dir=tmp_path / "cache")
    with server:
        wait_for_server(server.address, timeout=30)
        yield server


@pytest.fixture
def tcp_client(tcp_server):
    with CertificationClient(
        tcp_server.address, max_depth=1, domain="box"
    ) as client:
        yield client


class TestTCPHandshake:
    def test_hello_reports_versions_and_backend_id(self, tcp_server, tcp_client):
        info = tcp_client.server_info
        assert info["protocol"] == PROTOCOL_VERSION
        assert info["protocol_minor"] == PROTOCOL_MINOR
        assert info["protocol_minor"] >= 2
        assert info["schema_version"] == SCHEMA_VERSION
        assert info["backend_id"] == tcp_server.address

    def test_older_minor_still_served(self, tcp_client):
        # Minor versions are additive: a hello that only pins the major
        # version (what every pre-minor-2 client sends) must still succeed.
        result = tcp_client.call("hello", {"protocol": PROTOCOL_VERSION})
        assert result["protocol"] == PROTOCOL_VERSION

    def test_protocol_mismatch_rejected(self, tcp_server):
        with pytest.raises(RemoteError, match="protocol"):
            with CertificationClient(tcp_server.address) as raw:
                raw._call("hello", {"protocol": 999})

    def test_certify_round_trip_over_tcp(self, tcp_client):
        dataset = well_separated_dataset()
        report = tcp_client.certify_batch(dataset, POINTS, RemovalPoisoningModel(1))
        assert [r.status.value for r in report.results] == ["robust", "robust"]

    def test_stream_over_tcp(self, tcp_client):
        dataset = well_separated_dataset()
        statuses = [
            r.status.value
            for r in tcp_client.certify_stream(
                dataset, POINTS, RemovalPoisoningModel(1)
            )
        ]
        assert statuses == ["robust", "robust"]


class TestMalformedFrames:
    def _raw_connection(self, server):
        family, target = parse_address(server.address)
        assert family == "tcp"
        sock = socket.create_connection(target, timeout=10)
        return sock

    def test_garbage_line_answered_with_error_frame(self, tcp_server):
        with self._raw_connection(tcp_server) as sock:
            sock.sendall(b"this is not json\n")
            reader = sock.makefile("rb")
            frame = read_frame(reader)
            assert frame["ok"] is False
            assert frame["error"]["type"] == "ProtocolError"
            # The server closes the connection after a framing error: the
            # stream cannot be resynchronized.
            assert reader.readline() == b""

    def test_oversized_frame_rejected(self, tcp_server):
        with self._raw_connection(tcp_server) as sock:
            sock.sendall(b"[" + b"1," * (33 * 1024 * 1024) + b"1]\n")
            frame = read_frame(sock.makefile("rb"))
            assert frame["ok"] is False
            assert frame["error"]["type"] == "ProtocolError"

    # ``cache_probe`` was a replication op until protocol minor 3 removed it.
    @pytest.mark.parametrize("op", ["frobnicate", "cache_probe"])
    def test_error_frame_keeps_connection_for_bad_op(self, tcp_server, op):
        # Frame-level errors (valid JSON, bad op) are recoverable: the
        # connection survives and serves the next request.
        with self._raw_connection(tcp_server) as sock:
            reader = sock.makefile("rb")
            sock.sendall(encode_frame({"id": 1, "op": "hello",
                                       "params": {"protocol": PROTOCOL_VERSION}}))
            assert read_frame(reader)["ok"] is True
            sock.sendall(encode_frame({"id": 2, "op": op}))
            frame = read_frame(reader)
            assert frame["ok"] is False
            assert f"unknown operation {op!r}" in frame["error"]["message"]
            sock.sendall(encode_frame({"id": 3, "op": "ping"}))
            assert read_frame(reader)["result"]["pong"] is True


class TestRequestTimeout:
    def test_half_open_server_raises_timeout(self):
        # A listener that accepts but never answers: the pathological
        # network state request_timeout exists for.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        accepted = []
        thread = threading.Thread(
            target=lambda: accepted.append(listener.accept()), daemon=True
        )
        thread.start()
        address = format_address(listener.getsockname())
        try:
            with pytest.raises(RequestTimeoutError, match="no response"):
                CertificationClient(
                    address,
                    connect_timeout=0.5,
                    request_timeout=0.5,
                    connect_retries=0,
                )
        finally:
            listener.close()
            for sock, _ in accepted:
                sock.close()

    def test_timeout_marks_client_broken(self, tcp_server, monkeypatch):
        # After a timeout the buffered reader may hold a half-read frame;
        # the client must refuse further use instead of desynchronizing.
        certify_one = CertificationEngine._certify_one

        def slow_certify_one(self, *args, **kwargs):
            time.sleep(0.05)
            return certify_one(self, *args, **kwargs)

        # The in-process server's learner sleeps 50 ms per point, so the
        # 10 ms deadline fires however fast certification itself is.
        monkeypatch.setattr(CertificationEngine, "_certify_one", slow_certify_one)
        with CertificationClient(
            tcp_server.address, request_timeout=30.0
        ) as client:
            assert client.broken is False
            client._sock.settimeout(0.01)
            client._request_timeout = 0.01
            with pytest.raises(RequestTimeoutError):
                client.certify_batch(
                    well_separated_dataset(), POINTS, RemovalPoisoningModel(1)
                )
            assert client.broken is True


class TestConnectRetry:
    def test_refused_without_retries_raises_immediately(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        with pytest.raises(ConnectionRefusedError):
            CertificationClient(f"127.0.0.1:{port}", connect_retries=0)

    def test_retry_with_backoff_reaches_late_server(self, tmp_path):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        server = CertificationServer(
            tcp=f"127.0.0.1:{port}", cache_dir=tmp_path / "cache"
        )

        def bind_late():
            time.sleep(0.2)
            server.start()

        thread = threading.Thread(target=bind_late, daemon=True)
        thread.start()
        try:
            # Backoff doubles from 50ms; 8 retries cover several seconds,
            # far past the 200ms bind delay.
            with CertificationClient(
                f"127.0.0.1:{port}", connect_retries=8
            ) as client:
                assert client.ping()["pong"] is True
        finally:
            thread.join()
            server.close()
