"""Tests for the serial-fallback path when the process pool is unusable.

Sandboxed hosts can forbid fork/spawn entirely (the pool constructor raises
``OSError``) or kill workers mid-batch (``map`` raises ``BrokenExecutor``
after yielding some results).  Either way ``certify_stream`` must warn,
fall back to in-process certification, and still deliver every result in
input order.  Pooled ``pareto_sweep`` runs on the same pool and shares that
fallback.
"""

from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

import repro.api.engine as engine_module
from repro.api import CertificationEngine, CertificationRequest
from repro.poisoning.models import RemovalPoisoningModel
from repro.verify.search import pareto_sweep
from tests.conftest import well_separated_dataset

POINTS = np.array([[0.5], [11.0], [0.8], [10.2]])
EXPECTED_CLASSES = [0, 1, 0, 1]


def _request():
    return CertificationRequest(
        well_separated_dataset(), POINTS, RemovalPoisoningModel(1)
    )


class _UnspawnablePool:
    """A pool whose workers cannot be created at all."""

    def __init__(self, *args, **kwargs):
        raise OSError("fork forbidden by sandbox")


class _MidwayBrokenPool:
    """A pool that certifies one row and then loses its workers.

    The initializer runs in-process (exactly what a fork-started worker
    would execute), so the single yielded result is a genuine certification.
    """

    def __init__(self, *args, initializer=None, initargs=(), **kwargs):
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, rows):
        rows = list(rows)

        def results():
            yield fn(rows[0])
            raise BrokenExecutor("worker process died")

        return results()


@pytest.fixture
def engine():
    return CertificationEngine(max_depth=1, domain="box")


class TestSerialFallback:
    def test_unspawnable_pool_falls_back_to_serial(self, engine, monkeypatch):
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", _UnspawnablePool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            results = list(engine.certify_stream(_request(), n_jobs=2))
        assert len(results) == len(POINTS)
        assert [r.predicted_class for r in results] == EXPECTED_CLASSES

    def test_midway_broken_pool_completes_remaining_rows(self, engine, monkeypatch):
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", _MidwayBrokenPool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            results = list(engine.certify_stream(_request(), n_jobs=2))
        # One result arrived before the executor broke; the fallback must
        # resume *after* it, not re-certify or drop it.
        assert len(results) == len(POINTS)
        assert [r.predicted_class for r in results] == EXPECTED_CLASSES

    def test_fallback_matches_serial_verdicts(self, engine, monkeypatch):
        serial = [r.status for r in engine.certify_stream(_request(), n_jobs=1)]
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", _MidwayBrokenPool)
        with pytest.warns(RuntimeWarning):
            broken = [r.status for r in engine.certify_stream(_request(), n_jobs=2)]
        assert broken == serial

    def test_fallback_inside_runtime_path(self, engine, monkeypatch, tmp_path):
        from repro.runtime import CertificationRuntime

        engine.runtime = CertificationRuntime(tmp_path / "cache")
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", _UnspawnablePool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            report = engine.verify(_request(), n_jobs=2)
        assert [r.predicted_class for r in report.results] == EXPECTED_CLASSES
        assert report.runtime_stats["learner_invocations"] == len(POINTS)

    @pytest.mark.parametrize(
        "pool", [_UnspawnablePool, _MidwayBrokenPool], ids=["unspawnable", "midway"]
    )
    def test_pooled_pareto_sweep_falls_back_to_serial(self, engine, monkeypatch, pool):
        dataset = well_separated_dataset()
        serial = pareto_sweep(engine, dataset, POINTS, max_remove=2, max_flip=2)
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", pool)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            pooled = pareto_sweep(
                engine, dataset, POINTS, max_remove=2, max_flip=2, n_jobs=2
            )
        assert [o.frontier for o in pooled] == [o.frontier for o in serial]
