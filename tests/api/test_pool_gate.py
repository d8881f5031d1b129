"""The engine's pool starts only when measured per-row work pays for it.

With ``n_jobs > 1`` the parent certifies the head of a batch itself and
after every row asks ``_pool_pays`` whether workers would win back the
point-independent prefix each of them repeats.  These tests pin the rule as
a pure function, the decline (nothing forked, counted), identical verdict
rows whichever way a batch runs, and workers that inherit the dataset by
fork instead of receiving a copy.
"""

import multiprocessing
import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro.api.engine as engine_module
from repro.api import CertificationEngine, CertificationRequest
from repro.core.dataset import Dataset
from repro.datasets.registry import load_dataset
from repro.poisoning.models import RemovalPoisoningModel
from repro.runtime import CertificationRuntime
from repro.runtime.shm import DatasetStore
from repro.telemetry import metrics
from repro.telemetry.metrics import series_value
from repro.verify.search import pareto_sweep
from tests.conftest import force_pool, well_separated_dataset

_pool_pays = engine_module._pool_pays


class TestDecisionRule:
    def test_needs_two_rows_of_evidence(self):
        assert not _pool_pays([], 100, 4)
        assert not _pool_pays([0.001], 100, 4)

    def test_needs_two_workers(self):
        walls = [0.01, 1.0, 1.0]
        assert _pool_pays(walls, 2, 2)
        assert not _pool_pays(walls, 1, 2)
        assert not _pool_pays(walls, 0, 2)
        assert not _pool_pays(walls, 50, 1)

    def test_large_prefix_and_cheap_rows_decline(self):
        # Table 1 sizes: ~1 s of plan and root work, then ~2 ms a point.
        assert not _pool_pays([1.0, 0.002, 0.002], 5, 2)
        assert not _pool_pays([1.0, 0.002, 0.002], 500, 2)

    def test_expensive_rows_start_the_pool(self):
        # ~25 ms a point after a 25 ms prefix: 14 rows on 2 workers save 175 ms.
        assert _pool_pays([0.05, 0.03, 0.02], 14, 2)

    def test_saving_must_exceed_the_prefix(self):
        # c = 1, p = 2: c·r·(1 − 1/w) is 2.0 at r = 4, w = 2 (a tie declines)
        # and 2.5 at r = 5.
        assert not _pool_pays([3.0, 1.0, 1.0], 4, 2)
        assert _pool_pays([3.0, 1.0, 1.0], 5, 2)

    def test_workers_are_capped_by_the_rows_left(self):
        # c = 1, p = 2.5, r = 3: w = min(8, 3) = 3 saves 2 < 2.5, although
        # eight workers would save 2.625.
        assert not _pool_pays([3.5, 1.0, 1.0], 3, 8)
        assert _pool_pays([3.5, 1.0, 1.0], 4, 8)

    def test_per_row_cost_is_the_median_after_the_head(self):
        # The head row and one straggler do not move c = 1.
        assert _pool_pays([2.0, 1.0, 1.0, 100.0], 3, 2)
        assert not _pool_pays([2.0, 0.1, 0.1, 100.0], 3, 2)

    def test_pool_start_up_counts_against_the_saving(self):
        # A warm batch (t₀ ≈ c) has no prefix to win back: c = 10 ms over
        # r = 20 rows on w = 2 saves 100 ms, which the last pool's start-up
        # must stay under.
        warm = [0.01, 0.01, 0.01]
        assert _pool_pays(warm, 20, 2, 0.05)
        assert not _pool_pays(warm, 20, 2, 0.1)
        assert not _pool_pays(warm, 20, 2, 0.15)


def _iris_request() -> CertificationRequest:
    split = load_dataset("iris", scale=0.5, seed=3)
    return CertificationRequest(split.train, split.test.X[:6], RemovalPoisoningModel(2))


def _rows(results):
    """Verdict rows without the machine-dependent timings."""
    return [replace(r, elapsed_seconds=0.0, peak_memory_bytes=0) for r in results]


class _UnspawnablePool:
    def __init__(self, *args, **kwargs):
        raise OSError("fork forbidden by sandbox")


def _declining(monkeypatch):
    monkeypatch.setattr(engine_module, "_pool_pays", lambda *args: False)


class TestExecutionPaths:
    def test_every_path_gives_identical_verdict_rows(self, monkeypatch):
        engine = CertificationEngine(max_depth=2, domain="either", timeout_seconds=30.0)
        request = _iris_request()
        serial = _rows(engine.certify_stream(request, n_jobs=1))
        with monkeypatch.context() as patch:
            _declining(patch)
            declined = _rows(engine.certify_stream(request, n_jobs=2))
        with monkeypatch.context() as patch:
            force_pool(patch, head=2)
            before = metrics.get_registry().snapshot()
            pooled = _rows(engine.certify_stream(request, n_jobs=2))
            after = metrics.get_registry().snapshot()
        # Four rows after the head: two workers started.
        assert series_value(after, "pool_attach_seconds") - series_value(
            before, "pool_attach_seconds"
        ) == 2
        with monkeypatch.context() as patch:
            force_pool(patch, head=1)
            patch.setattr(engine_module, "ProcessPoolExecutor", _UnspawnablePool)
            with pytest.warns(RuntimeWarning, match="process pool unavailable"):
                fallback = _rows(engine.certify_stream(request, n_jobs=2))
        assert len(serial) == 6
        assert declined == serial
        assert pooled == serial
        assert fallback == serial

    def test_declined_batch_forks_nothing(self, monkeypatch):
        _declining(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("a declined batch must not fork")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", refuse)
        registry = metrics.get_registry()
        before = series_value(registry.snapshot(), "pool_declined_total")
        engine = CertificationEngine(max_depth=1, domain="box")
        dataset = well_separated_dataset()
        points = np.array([[0.5], [11.0], [0.8], [10.2]])
        report = engine.verify(
            CertificationRequest(dataset, points, RemovalPoisoningModel(1)), n_jobs=2
        )
        assert [r.predicted_class for r in report.results] == [0, 1, 0, 1]
        after = series_value(registry.snapshot(), "pool_declined_total")
        assert after - before == 1

    def test_gate_declines_when_one_row_is_left_after_the_head(self):
        # After two measured rows one row is left, and one worker cannot
        # beat the parent, whatever the rows cost.
        registry = metrics.get_registry()
        before = registry.snapshot()
        engine = CertificationEngine(max_depth=1, domain="box")
        points = np.array([[0.5], [11.0], [0.8]])
        engine.verify(
            CertificationRequest(well_separated_dataset(), points, 1), n_jobs=2
        )
        after = registry.snapshot()
        assert series_value(after, "pool_declined_total") - series_value(
            before, "pool_declined_total"
        ) == 1
        assert series_value(after, "pool_attach_seconds") == series_value(
            before, "pool_attach_seconds"
        )

    def test_decline_is_counted_when_the_consumer_closes_after_the_last_row(self):
        # Certbench-style consumers call next() once per point and then
        # close the stream, never resuming it past its last row.
        registry = metrics.get_registry()
        before = series_value(registry.snapshot(), "pool_declined_total")
        engine = CertificationEngine(max_depth=1, domain="box")
        points = np.array([[0.5], [11.0], [0.8]])
        stream = engine.certify_stream(
            CertificationRequest(well_separated_dataset(), points, 1), n_jobs=2
        )
        for _ in points:
            next(stream)
        stream.close()
        after = series_value(registry.snapshot(), "pool_declined_total")
        assert after - before == 1

    def test_a_pool_records_its_start_up_for_the_next_gate(self, monkeypatch):
        force_pool(monkeypatch, head=1)
        monkeypatch.setattr(engine_module, "_POOL_STARTUP", [0.0])
        engine = CertificationEngine(max_depth=1, domain="box")
        points = np.array([[0.5], [11.0], [0.8], [10.2]])
        request = CertificationRequest(well_separated_dataset(), points, 1)
        engine.verify(request, n_jobs=2)
        assert engine_module._POOL_STARTUP[0] > 0

    def test_single_row_batches_are_not_counted_as_declined(self):
        registry = metrics.get_registry()
        before = series_value(registry.snapshot(), "pool_declined_total")
        engine = CertificationEngine(max_depth=1, domain="box")
        engine.verify(
            CertificationRequest(well_separated_dataset(), [[0.5]], 1), n_jobs=2
        )
        assert series_value(registry.snapshot(), "pool_declined_total") == before


class TestDatasetByFork:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the dataset; spawned ones unpickle it",
    )
    def test_forced_pool_neither_publishes_nor_pickles_the_dataset(
        self, monkeypatch
    ):
        engine = CertificationEngine(max_depth=1, domain="box")
        dataset = well_separated_dataset()
        points = np.array([[0.5], [11.0], [3.0], [7.0]])
        request = CertificationRequest(dataset, points, 1)
        serial_rows = _rows(engine.certify_stream(request))
        serial_frontiers = pareto_sweep(engine, dataset, points, max_remove=2, max_flip=2)

        def refuse(*args, **kwargs):
            raise AssertionError("pool workers must inherit the dataset")

        force_pool(monkeypatch, head=1)
        monkeypatch.setattr(DatasetStore, "publish", refuse)
        monkeypatch.setattr(Dataset, "__reduce_ex__", refuse)
        def binds():
            return series_value(metrics.get_registry().snapshot(), "pool_attach_seconds")

        before = binds()
        pooled_rows = _rows(engine.certify_stream(request, n_jobs=2))
        between = binds()
        pooled_frontiers = pareto_sweep(
            engine, dataset, points, max_remove=2, max_flip=2, n_jobs=2
        )
        # Both batches started a pool: a worker's bind ships with its first
        # task, so each pool reports one or two binds.
        assert 1 <= between - before <= 2
        assert 1 <= binds() - between <= 2
        assert pooled_rows == serial_rows
        assert [o.frontier for o in pooled_frontiers] == [
            o.frontier for o in serial_frontiers
        ]

    def test_pool_workers_leave_the_parents_runtime_alone(self, monkeypatch, tmp_path):
        # Forked workers must not write through the parent's verdict cache:
        # its sqlite connection is open before the fork (the batch head in
        # the parent probes through it), and workers have no runtime.
        force_pool(monkeypatch)
        runtime = CertificationRuntime(tmp_path / "cache")
        assert runtime.cache is not None and runtime.cache.stats()["verdicts"] == 0
        engine = CertificationEngine(max_depth=1, domain="box", runtime=runtime)
        points = np.array([[0.5], [11.0], [3.0], [7.0]])
        engine.pareto_sweep(
            well_separated_dataset(), points, max_remove=2, max_flip=2, n_jobs=2
        )
        assert runtime.cache.stats()["verdicts"] == 0


class TestWorkerEngine:
    def test_forked_workers_keep_warm_plans_and_drop_parent_state(self, tmp_path):
        engine = CertificationEngine(
            max_depth=1, domain="box", runtime=CertificationRuntime(tmp_path)
        )
        engine.verify(CertificationRequest(well_separated_dataset(), [[0.5]], 1))
        assert engine._plan_cache and engine.scheduler is not None
        forked = engine._forked_worker()
        assert list(forked._plan_cache) == list(engine._plan_cache)
        assert forked.runtime.cache is None and forked.runtime is not engine.runtime
        assert forked._scheduler is None
        assert forked._plan_lock is not engine._plan_lock
        pickled = pickle.loads(pickle.dumps(engine))
        assert not pickled._plan_cache
        assert pickled.runtime.cache is None and pickled.runtime is not engine.runtime
        assert pickled._scheduler is None
