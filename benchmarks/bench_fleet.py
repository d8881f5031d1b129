"""Benchmark for `repro.fleet`: the cost of the router hop.

One claim is measured: **routing overhead is bounded**.  A warm batch
certified through the router (client → router TCP → shard-owner TCP) must
stay within 2× the wall-clock of the same warm batch over a direct Unix
socket.  The router adds exactly one relay hop plus shard hashing; both are
per-batch, not per-point.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_fleet.py``);
artifacts: ``results/fleet.txt`` and ``results/BENCH_fleet.json``.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.dataset import Dataset
from repro.experiments.reporting import results_directory, save_artifact
from repro.fleet import CertificationRouter
from repro.poisoning.models import RemovalPoisoningModel
from repro.service import CertificationClient, CertificationServer, wait_for_server
from repro.utils.tables import TextTable

ROWS = 512
BATCH_POINTS = 32


def _dataset() -> Dataset:
    rng = np.random.default_rng(11)
    per_class = ROWS // 2
    X = np.concatenate(
        [rng.normal(0.0, 1.0, per_class), rng.normal(10.0, 1.0, per_class)]
    ).reshape(-1, 1)
    y = np.concatenate([np.zeros(per_class), np.ones(per_class)]).astype(np.int64)
    return Dataset(X=X, y=y, n_classes=2, name="fleet-bench")


def _points() -> np.ndarray:
    return np.linspace(-1.0, 12.0, BATCH_POINTS).reshape(-1, 1)


def _timed_batch(address, dataset, points, model, *, reps: int = 5) -> float:
    """Best-of-``reps`` warm wall-clock: a single ~5ms sample is all jitter."""
    with CertificationClient(
        address, max_depth=1, domain="box", timeout_seconds=30.0
    ) as client:
        client.certify_batch(dataset, points, model)  # warm the runtime
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            report = client.certify_batch(dataset, points, model)
            best = min(best, time.perf_counter() - start)
            assert report.runtime_stats["learner_invocations"] == 0, (
                "warm rerun was not served from cache"
            )
    return best


def main() -> int:
    dataset = _dataset()
    points = _points()
    model = RemovalPoisoningModel(2)

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        # -- warm batch: direct Unix socket vs routed TCP -------------------
        direct_server = CertificationServer(
            tmp_path / "s", cache_dir=tmp_path / "direct-cache"
        )
        with direct_server:
            wait_for_server(direct_server.socket_path, timeout=30)
            direct_seconds = _timed_batch(
                direct_server.socket_path, dataset, points, model
            )

        backend = CertificationServer(
            tcp="127.0.0.1:0", cache_dir=tmp_path / "routed-cache"
        )
        backend.start()
        router = CertificationRouter(
            [backend.address], tcp="127.0.0.1:0", request_timeout=60.0
        )
        router.start()
        wait_for_server(router.address, timeout=30)
        try:
            routed_seconds = _timed_batch(router.address, dataset, points, model)
        finally:
            router.close()
            backend.close()

    per_second = {
        "direct_warm": BATCH_POINTS / direct_seconds,
        "routed_warm": BATCH_POINTS / routed_seconds,
    }
    routed_ratio = routed_seconds / direct_seconds

    table = TextTable(["measurement", "points/s", "seconds"])
    table.add_row(
        ["direct Unix-socket warm", f"{per_second['direct_warm']:.1f}",
         f"{direct_seconds:.4f}"]
    )
    table.add_row(
        ["routed TCP warm", f"{per_second['routed_warm']:.1f}",
         f"{routed_seconds:.4f}"]
    )
    save_artifact(
        "fleet",
        f"Fleet serving: {BATCH_POINTS}-point warm batches on "
        f"{ROWS}-row {dataset.name} "
        f"(routed/direct warm ratio {routed_ratio:.2f}x)\n"
        + table.render(),
    )
    payload = {
        "dataset_rows": ROWS,
        "batch_points": BATCH_POINTS,
        "direct_warm_seconds": direct_seconds,
        "routed_warm_seconds": routed_seconds,
        "routed_over_direct_ratio": routed_ratio,
        "points_per_second": per_second,
    }
    (results_directory() / "BENCH_fleet.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(table.render())
    print(f"routed/direct warm ratio: {routed_ratio:.2f}x")

    # Acceptance gate: the router hop must not double warm latency.
    if routed_ratio > 2.0:
        print(f"FAIL: routed warm is {routed_ratio:.2f}x direct (> 2.0x)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
