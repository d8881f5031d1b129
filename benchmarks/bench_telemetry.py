"""Benchmark for `repro.telemetry`: warm-path overhead and trace coverage.

Two claims are measured:

1. **Counters are cheap enough to leave on**: warm (cache-served) batch
   throughput with the default counters-only telemetry must stay within 5%
   of throughput with telemetry disabled (``REPRO_TELEMETRY=0``).  Span
   tracing is allowed to cost more — it is opt-in.
2. **Traces account for the time**: a traced cold run must attribute at
   least 80% of the root span's wall time to named child spans (ladder
   stages and transformer phases), so a flame view has no large untracked
   residual.

3. **Worker metric shipping is cheap**: in a pooled (``n_jobs=2``) cold
   batch, the parent-side cost of folding worker delta snapshots
   (``MetricsRegistry.merge_snapshot``, the ``worker_merge_seconds``
   histogram) must stay under 5% of the pooled batch's wall time.  The
   batch (iris, depth 2, removal n=4: tens of ms a point) is one the
   engine's cost gate starts a pool for; a batch that ends in the parent
   on a host that can run a pool fails the benchmark.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_telemetry.py``);
artifacts are ``results/telemetry.txt`` (rendered table) and
``results/BENCH_telemetry.json`` (machine-readable, tracked across PRs).
"""

import json
import shutil
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from repro.api import CertificationEngine, CertificationRequest
from repro.core.dataset import Dataset
from repro.datasets.registry import load_dataset
from repro.experiments.reporting import results_directory, save_artifact
from repro.poisoning.models import RemovalPoisoningModel
from repro.runtime import CertificationRuntime
from repro.telemetry import metrics, tracing
from repro.utils.tables import TextTable

ROWS = 512
BATCH_POINTS = 64
POOLED_POINTS = 16
REPETITIONS = 9
MAX_COUNTER_OVERHEAD = 0.05
MIN_ATTRIBUTED_FRACTION = 0.95
MAX_MERGE_FRACTION = 0.05


def _dataset() -> Dataset:
    rng = np.random.default_rng(23)
    per_class = ROWS // 2
    X = np.concatenate(
        [rng.normal(0.0, 1.0, per_class), rng.normal(10.0, 1.0, per_class)]
    ).reshape(-1, 1)
    y = np.concatenate([np.zeros(per_class), np.ones(per_class)]).astype(np.int64)
    return Dataset(X=X, y=y, n_classes=2, name="telemetry-bench")


def _request(dataset: Dataset) -> CertificationRequest:
    points = np.linspace(-1.0, 12.0, BATCH_POINTS).reshape(-1, 1)
    return CertificationRequest(dataset, points, RemovalPoisoningModel(2))


def _warm_seconds(cache_dir: Path, request: CertificationRequest) -> float:
    """Best-of-N wall time for one fully cache-served batch."""
    engine = CertificationEngine(
        max_depth=1,
        domain="box",
        runtime=CertificationRuntime(cache_dir, shared_memory=False),
    )
    # One untimed pass to populate the runtime's warm plans and page sqlite.
    engine.verify(request)
    best = float("inf")
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        report = engine.verify(request)
        best = min(best, time.perf_counter() - start)
        assert report.runtime_stats["learner_invocations"] == 0, (
            "warm arm unexpectedly ran the learner"
        )
    return best


def bench_warm_overhead(cache_dir: Path) -> dict:
    """Measure warm throughput: telemetry off vs counters-on vs spans-on."""
    dataset = _dataset()
    request = _request(dataset)

    # Populate the verdict cache once, counters on (the default).
    cold_engine = CertificationEngine(
        max_depth=1,
        domain="box",
        runtime=CertificationRuntime(cache_dir, shared_memory=False),
    )
    cold_start = time.perf_counter()
    cold_engine.verify(request)
    cold_seconds = time.perf_counter() - cold_start

    registry = metrics.get_registry()
    arms = {}
    try:
        registry.set_enabled(False)
        arms["telemetry_off"] = _warm_seconds(cache_dir, request)
        registry.set_enabled(True)
        arms["counters_on"] = _warm_seconds(cache_dir, request)
        tracing.enable_spans(True)
        arms["spans_on"] = _warm_seconds(cache_dir, request)
    finally:
        tracing.enable_spans(False)
        registry.set_enabled(True)
    return {"cold_seconds": cold_seconds, **arms}


def bench_trace_coverage() -> dict:
    """A traced cold run must attribute >=95% of its wall time to spans."""
    dataset = _dataset()
    request = _request(dataset)
    engine = CertificationEngine(max_depth=1, domain="box")
    tracing.clear_completed()
    tracing.enable_spans(True)
    try:
        report = engine.verify(request)
    finally:
        tracing.enable_spans(False)
    trace = report.runtime_stats["trace"]

    def covered(node: dict) -> float:
        children = sum(child["duration_seconds"] for child in node["children"])
        return min(1.0, children / node["duration_seconds"])

    root_fraction = covered(trace)
    # Per-point coverage only makes sense for the point-delivery spans; the
    # batch-level leaves (plan build, scheduler dispatch) have no children.
    per_point = [covered(child) for child in trace["children"] if child["children"]]
    return {
        "root_span": trace["name"],
        "root_seconds": trace["duration_seconds"],
        "attributed_fraction": root_fraction,
        "min_point_fraction": min(per_point),
        "spans": sum(1 for _ in _walk(trace)),
    }


def _walk(node: dict):
    yield node
    for child in node["children"]:
        yield from _walk(child)


def bench_worker_merge() -> dict:
    """Parent-side cost of merging worker metric deltas in a pooled batch.

    Returns an empty dict when the host cannot run a process pool (the
    engine warned and fell back to serial); ``merges`` is 0 when the pool
    could have run but the engine kept the batch in the parent, which
    ``main`` reports as a failure.
    """
    split = load_dataset("iris")
    request = CertificationRequest(
        split.train, split.test.X[:POOLED_POINTS], RemovalPoisoningModel(4)
    )
    engine = CertificationEngine(max_depth=2, domain="either")
    registry = metrics.get_registry()

    def merge_stats(snapshot):
        series = snapshot.get("worker_merge_seconds", {}).get("series", [])
        if not series:
            return 0, 0.0
        return series[0]["count"], series[0]["sum"]

    before_count, before_sum = merge_stats(registry.snapshot())
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        report = engine.verify(request, n_jobs=2)
    wall = time.perf_counter() - start
    if any("process pool unavailable" in str(w.message) for w in caught):
        return {}
    after_count, after_sum = merge_stats(registry.snapshot())
    merges = after_count - before_count
    merge_seconds = after_sum - before_sum
    assert report.total == POOLED_POINTS
    return {
        "pooled_points": POOLED_POINTS,
        "n_jobs": 2,
        "pooled_wall_seconds": wall,
        "merges": merges,
        "merge_seconds": merge_seconds,
        "merge_seconds_per_task": merge_seconds / merges if merges else 0.0,
        "merge_fraction_of_wall": merge_seconds / wall if wall > 0 else 0.0,
    }


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="bench-telemetry-"))
    try:
        overhead = bench_warm_overhead(scratch / "cache")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    coverage = bench_trace_coverage()
    worker_merge = bench_worker_merge()

    off = overhead["telemetry_off"]
    counters_overhead = overhead["counters_on"] / off - 1.0
    spans_overhead = overhead["spans_on"] / off - 1.0

    table = TextTable(["arm", "points/s", "seconds", "overhead"])
    table.add_row(["cold (counters on)", f"{BATCH_POINTS / overhead['cold_seconds']:.1f}",
                   f"{overhead['cold_seconds']:.4f}", "-"])
    table.add_row(["warm, telemetry off", f"{BATCH_POINTS / off:.1f}",
                   f"{off:.4f}", "baseline"])
    table.add_row(["warm, counters on", f"{BATCH_POINTS / overhead['counters_on']:.1f}",
                   f"{overhead['counters_on']:.4f}", f"{counters_overhead:+.2%}"])
    table.add_row(["warm, spans on", f"{BATCH_POINTS / overhead['spans_on']:.1f}",
                   f"{overhead['spans_on']:.4f}", f"{spans_overhead:+.2%}"])
    text = (
        f"Telemetry overhead: {BATCH_POINTS}-point warm batches on "
        f"{ROWS}-row {_dataset().name} (best of {REPETITIONS})\n"
        + table.render()
        + f"\n\ntraced cold run: {coverage['spans']} spans, "
        f"{coverage['attributed_fraction']:.1%} of root wall time attributed"
    )
    if worker_merge:
        text += (
            f"\npooled ({worker_merge['n_jobs']} workers, "
            f"{worker_merge['pooled_points']} points): "
            f"{worker_merge['merges']} delta merges cost "
            f"{worker_merge['merge_seconds'] * 1000:.2f} ms, "
            f"{worker_merge['merge_fraction_of_wall']:.2%} of "
            f"{worker_merge['pooled_wall_seconds']:.3f} s wall"
        )
    else:
        text += "\npooled worker-merge arm skipped (no process pool available)"
    print(text)
    save_artifact("telemetry", text)

    payload = {
        "dataset_rows": ROWS,
        "batch_points": BATCH_POINTS,
        "repetitions": REPETITIONS,
        "warm_seconds": {
            "telemetry_off": off,
            "counters_on": overhead["counters_on"],
            "spans_on": overhead["spans_on"],
        },
        "cold_seconds": overhead["cold_seconds"],
        "points_per_second": {
            "telemetry_off": BATCH_POINTS / off,
            "counters_on": BATCH_POINTS / overhead["counters_on"],
            "spans_on": BATCH_POINTS / overhead["spans_on"],
        },
        "counters_overhead": counters_overhead,
        "spans_overhead": spans_overhead,
        "max_counter_overhead": MAX_COUNTER_OVERHEAD,
        "trace_coverage": coverage,
        "worker_merge": worker_merge,
        "max_merge_fraction": MAX_MERGE_FRACTION,
    }
    (results_directory() / "BENCH_telemetry.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    failures = []
    if counters_overhead > MAX_COUNTER_OVERHEAD:
        failures.append(
            f"counters-on warm overhead {counters_overhead:.2%} exceeds "
            f"{MAX_COUNTER_OVERHEAD:.0%}"
        )
    if coverage["attributed_fraction"] < MIN_ATTRIBUTED_FRACTION:
        failures.append(
            f"traced cold run attributes only "
            f"{coverage['attributed_fraction']:.1%} of root wall time"
        )
    if worker_merge and worker_merge["merges"] == 0:
        failures.append(
            "the pooled arm ended in the parent: no worker delta was merged, "
            "so the merge-cost gate measured nothing"
        )
    elif worker_merge and worker_merge["merge_fraction_of_wall"] > MAX_MERGE_FRACTION:
        failures.append(
            f"worker delta merges cost "
            f"{worker_merge['merge_fraction_of_wall']:.2%} of pooled wall "
            f"time, over the {MAX_MERGE_FRACTION:.0%} budget"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
