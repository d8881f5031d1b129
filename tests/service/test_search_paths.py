"""One budget search, four execution paths, identical result rows.

The scalar §6.1 search and the composite (r, f) frontier run through

* the plain engine,
* an engine with a runtime attached (probes answered through its cache),
* ``CertificationRuntime.max_certified`` / ``pareto_frontier`` bound to a
  runtime-less engine, and
* :class:`CertificationClient` over a Unix-socket daemon,

each on a fresh cache.  Every path must return the same
:class:`PoisoningSearchResult` / :class:`ParetoFrontierResult` rows,
learner invocations and trace counts included.
"""

import socket as socket_module

import pytest

from repro.api import CertificationEngine
from repro.datasets.registry import load_dataset
from repro.runtime import CertificationRuntime
from repro.service import CertificationClient, CertificationServer, wait_for_server
from repro.service.protocol import dataset_to_wire
from repro.verify.search import ParetoFrontierResult, PoisoningSearchResult

pytestmark = pytest.mark.skipif(
    not hasattr(socket_module, "AF_UNIX"), reason="requires Unix-domain sockets"
)

SPLIT = load_dataset("iris", scale=1.0, seed=0)
POINTS = SPLIT.test.X[:6]
MAX_BUDGET = 16
FRONTIER_DEPTH = 2
FRONTIER_GRID = {"max_remove": 4, "max_flip": 2}


def _searches(searcher, dataset, depth):
    """The scalar search of every point, then (at one depth) the frontiers."""
    rows = [
        searcher.max_certified(dataset, x, max_budget=MAX_BUDGET).to_dict()
        for x in POINTS
    ]
    if depth == FRONTIER_DEPTH:
        rows += [
            searcher.pareto_frontier(dataset, x, **FRONTIER_GRID).to_dict()
            for x in POINTS
        ]
    return rows


class _RuntimeBound:
    """``runtime.max_certified(engine, ...)`` in the engine's call shape."""

    def __init__(self, runtime, engine):
        self._runtime = runtime
        self._engine = engine

    def max_certified(self, dataset, x, **kwargs):
        return self._runtime.max_certified(self._engine, dataset, x, **kwargs)

    def pareto_frontier(self, dataset, x, **kwargs):
        return self._runtime.pareto_frontier(self._engine, dataset, x, **kwargs)


@pytest.fixture
def daemon(tmp_path):
    # Keep the socket path short: AF_UNIX paths are limited to ~104 bytes.
    server = CertificationServer(tmp_path / "s", cache_dir=tmp_path / "cache")
    with server:
        wait_for_server(server.socket_path, timeout=30)
        yield server


@pytest.mark.parametrize("depth", [1, 2])
def test_every_path_returns_identical_search_rows(tmp_path, daemon, depth):
    dataset = SPLIT.train
    plain = _searches(CertificationEngine(max_depth=depth), dataset, depth)

    attached = CertificationEngine(
        max_depth=depth, runtime=CertificationRuntime(tmp_path / "attached")
    )
    bound = _RuntimeBound(
        CertificationRuntime(tmp_path / "bound"), CertificationEngine(max_depth=depth)
    )
    with CertificationClient(daemon.socket_path, max_depth=depth) as client:
        served = _searches(client, dataset, depth)
    paths = {
        "engine+runtime": _searches(attached, dataset, depth),
        "runtime.max_certified": _searches(bound, dataset, depth),
        "client": served,
    }
    for name, rows in paths.items():
        assert rows == plain, name
    # On a fresh cache every probe ran the learner.
    for row in plain:
        probes = row.get("probes", row.get("attempts"))
        assert row["learner_invocations"] == probes > 0


def test_wire_form_round_trips():
    engine = CertificationEngine(max_depth=1)
    scalar = engine.max_certified(SPLIT.train, POINTS[0], max_budget=MAX_BUDGET)
    frontier = engine.pareto_frontier(SPLIT.train, POINTS[0], **FRONTIER_GRID)
    decoded = PoisoningSearchResult.from_dict(scalar.to_dict())
    assert decoded.to_dict() == scalar.to_dict()
    assert scalar.attempts == len(scalar.results) > 0
    assert decoded.results == {}
    decoded_frontier = ParetoFrontierResult.from_dict(frontier.to_dict())
    assert decoded_frontier.to_dict() == frontier.to_dict()
    assert decoded_frontier.attempts == frontier.attempts
    assert decoded_frontier.results == {}


def test_daemon_replies_keep_their_keys(daemon):
    """Replies carry every key an older client decodes."""
    x = POINTS[0].tolist()
    with CertificationClient(daemon.socket_path, max_depth=1) as client:
        common = {"engine": {"max_depth": 1}, "dataset": dataset_to_wire(SPLIT.train)}
        scalar = client._call(
            "max_certified", {**common, "point": x, "max_budget": 4}
        )
        frontier = client._call(
            "pareto_frontier", {**common, "point": x, "max_remove": 1, "max_flip": 1}
        )
        sweep = client._call(
            "pareto_sweep", {**common, "points": [x], "max_remove": 1, "max_flip": 1}
        )
    assert {"max_certified_n", "attempts", "learner_invocations"} <= set(scalar)
    frontier_keys = {"frontier", "probes", "attempted_pairs", "learner_invocations"}
    assert frontier_keys <= set(frontier)
    assert frontier_keys <= set(sweep["outcomes"][0])
