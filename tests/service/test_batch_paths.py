"""One certification batch, three execution paths, identical verdict rows.

A batch with in-batch duplicate rows runs through

* an engine built without a runtime (its own cache-less one),
* an engine with a cached runtime attached, and
* :class:`CertificationClient` over a Unix-socket daemon,

and every path must return the same verdict rows.  Each path runs the
learner once per distinct row; the duplicates copy that row's verdict.
"""

import socket as socket_module

import numpy as np
import pytest

from repro.api import CertificationEngine
from repro.datasets.registry import load_dataset
from repro.poisoning.models import RemovalPoisoningModel
from repro.runtime import CertificationRuntime
from repro.service import CertificationClient, CertificationServer, wait_for_server

pytestmark = pytest.mark.skipif(
    not hasattr(socket_module, "AF_UNIX"), reason="requires Unix-domain sockets"
)

SPLIT = load_dataset("iris", scale=1.0, seed=0)
A, B = SPLIT.test.X[0], SPLIT.test.X[1]
POINTS = np.array([A, B, A, A])
MODEL = RemovalPoisoningModel(2)


def _verdicts(results):
    return [
        (r.status, r.certified_class, r.class_intervals, r.domain) for r in results
    ]


def test_cacheless_batch_runs_each_distinct_row_once():
    engine = CertificationEngine(max_depth=1)
    assert engine.runtime.cache is None
    before = engine.tally()
    report = engine.certify_batch(SPLIT.train, POINTS, MODEL)
    assert engine.tally() - before == 2
    stats = report.runtime_stats
    assert stats["learner_invocations"] == 2
    assert stats["deduplicated"] == 2
    assert stats["cache_hits"] == stats["cache_misses"] == 0
    verdicts = _verdicts(report.results)
    assert verdicts[0] == verdicts[2] == verdicts[3]
    assert "learner invocations" in report.render()


def test_every_path_returns_identical_verdict_rows(tmp_path):
    cacheless = CertificationEngine(max_depth=1).certify_batch(
        SPLIT.train, POINTS, MODEL
    )
    cached = CertificationEngine(
        max_depth=1, runtime=CertificationRuntime(tmp_path / "cache")
    ).certify_batch(SPLIT.train, POINTS, MODEL)
    assert cached.runtime_stats["learner_invocations"] == 2
    # Keep the socket path short: AF_UNIX paths are limited to ~104 bytes.
    server = CertificationServer(tmp_path / "s", cache_dir=tmp_path / "served")
    with server:
        wait_for_server(server.socket_path, timeout=30)
        with CertificationClient(server.socket_path, max_depth=1) as client:
            served = client.certify_batch(SPLIT.train, POINTS, MODEL)
    assert served.runtime_stats["learner_invocations"] == 2
    assert _verdicts(cached.results) == _verdicts(cacheless.results)
    assert _verdicts(served.results) == _verdicts(cacheless.results)
