"""Cold-path core benchmark: batch kernels + warm-started budget probes.

Measures the two layers of the vectorized/incremental learner core against
the pre-vectorization baseline (0.5 points/sec on this workload, recorded
before the batch interval kernels and the split-table plane landed):

1. **Cold throughput** — a fresh engine with every split-table plan cleared
   certifies 32 iris points (depth 2, ``domain="either"``, removal budget 4)
   from scratch.  The speedup over the 0.5 pts/s baseline is the headline
   number for the batch kernels; per-phase ``learner_phase_seconds`` deltas
   attribute where the remaining cold time goes.
2. **Probe-suffix reuse** — the same points re-certified on the now-warm
   engine (identical verdicts required), plus a removal-budget ladder per
   point, report ``trace_reuse_fraction``: the share of ``filter#`` steps
   served by replaying a prior probe's trace instead of re-running the
   closed-form ``filter#``.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_cold_core.py``);
exits non-zero — the CI smoke gate — if the cold speedup falls below 5× or
the warm arms show zero trace reuse.  Writes
``results/BENCH_cold_core.json``.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.api import CertificationEngine, CertificationRequest
from repro.core import split_plan
from repro.experiments.reporting import results_directory, save_artifact
from repro.poisoning.models import RemovalPoisoningModel
from repro.telemetry import metrics
from repro.utils.tables import TextTable

from conftest import bench_config

#: Measured on the growth seed (pre-vectorization, pure per-candidate loops)
#: for this exact workload: 32 iris points, depth 2, either-domain ladder,
#: removal budget 4, 30 s timeout.
BASELINE_POINTS_PER_SECOND = 0.5
MIN_COLD_SPEEDUP = 5.0
TARGET_COLD_SPEEDUP = 10.0
LADDER_POINTS = 4
LADDER_BUDGETS = tuple(range(0, 9))


def _workload():
    config = bench_config(timeout_seconds=30.0)
    split = load_split(config)
    reps = -(-32 // len(split.test))
    points = np.tile(split.test.X, (reps, 1))[:32]
    points = points + np.random.default_rng(0).normal(0.0, 1e-9, size=points.shape)
    return split.train, points, config


def load_split(config):
    from repro.experiments.runner import load_experiment_split

    return load_experiment_split("iris", config)


def _engine(config) -> CertificationEngine:
    return CertificationEngine(
        max_depth=2, domain="either", timeout_seconds=config.timeout_seconds
    )


def _phase_seconds(before: dict, after: dict) -> dict:
    """Per-(stage, phase) wall-second deltas of ``learner_phase_seconds``."""

    def table(snapshot: dict) -> dict:
        out = {}
        for series in snapshot.get("learner_phase_seconds", {}).get("series", []):
            labels = series["labels"]
            out[(labels["stage"], labels["phase"])] = float(series["sum"])
        return out

    first, second = table(before), table(after)
    return {
        f"{stage}/{phase}": second[(stage, phase)] - first.get((stage, phase), 0.0)
        for (stage, phase) in second
        if second[(stage, phase)] - first.get((stage, phase), 0.0) > 0.0
    }


def main() -> int:
    dataset, points, config = _workload()
    request = CertificationRequest(dataset, points, RemovalPoisoningModel(4))
    registry = metrics.get_registry()

    # --- cold arm: no plans, no traces, fresh engine -----------------------
    split_plan.clear_plans()
    engine = _engine(config)
    before = registry.snapshot()
    cold_start = time.perf_counter()
    cold_report = engine.verify(request)
    cold_seconds = time.perf_counter() - cold_start
    phases = _phase_seconds(before, registry.snapshot())
    cold_pps = cold_report.total / cold_seconds
    speedup = cold_pps / BASELINE_POINTS_PER_SECOND
    # split_table time nests inside best_split (node tables are built on
    # demand while scoring), so the attribution sum skips it to avoid double
    # counting.
    attributed = sum(
        seconds for key, seconds in phases.items() if not key.endswith("/split_table")
    )
    consume = engine.consume_trace_stats()
    cold_trace_steps, cold_trace_reused = consume

    # --- warm rerun: same engine, same budget — verdicts must be identical -
    warm_start = time.perf_counter()
    warm_report = engine.verify(request)
    warm_seconds = time.perf_counter() - warm_start
    warm_steps, warm_reused = engine.consume_trace_stats()
    identical = [r.status for r in warm_report.results] == [
        r.status for r in cold_report.results
    ]

    # --- probe ladder: removal budgets 0..8 per point ----------------------
    ladder = []
    for row in points[:LADDER_POINTS]:
        for budget in LADDER_BUDGETS:
            engine.certify_point(dataset, row, RemovalPoisoningModel(budget))
        steps, reused = engine.consume_trace_stats()
        ladder.append({"steps": steps, "reused": reused,
                       "fraction": reused / steps if steps else 0.0})
    ladder_steps = sum(p["steps"] for p in ladder)
    ladder_reused = sum(p["reused"] for p in ladder)
    ladder_fraction = ladder_reused / ladder_steps if ladder_steps else 0.0

    status_counts: dict = {}
    for result in cold_report.results:
        status_counts[result.status.value] = (
            status_counts.get(result.status.value, 0) + 1
        )

    table = TextTable(["arm", "points", "wall-clock (s)", "points/s", "trace reuse"])
    table.add_row(["cold (plans cleared)", cold_report.total, f"{cold_seconds:.3f}",
                   f"{cold_pps:.2f}", f"{cold_trace_reused}/{cold_trace_steps}"])
    table.add_row(["warm rerun", warm_report.total, f"{warm_seconds:.3f}",
                   f"{warm_report.total / warm_seconds:.2f}",
                   f"{warm_reused}/{warm_steps}"])
    table.add_row([f"budget ladder 0..{LADDER_BUDGETS[-1]} x{LADDER_POINTS}",
                   LADDER_POINTS, "-", "-", f"{ladder_reused}/{ladder_steps}"])
    phase_table = TextTable(["stage/phase", "seconds", "share of cold wall"])
    for key, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
        phase_table.add_row([key, f"{seconds:.4f}", f"{seconds / cold_seconds:.1%}"])
    text = (
        f"Cold-path core (iris, depth 2, either ladder, n=4): "
        f"{cold_pps:.2f} pts/s cold = {speedup:.1f}x the "
        f"{BASELINE_POINTS_PER_SECOND} pts/s pre-vectorization baseline "
        f"(target {TARGET_COLD_SPEEDUP:.0f}x, floor {MIN_COLD_SPEEDUP:.0f}x)\n"
        + table.render()
        + f"\nverdicts identical cold vs warm: {identical} ({status_counts})\n\n"
        f"learner_phase_seconds attribution "
        f"({attributed / cold_seconds:.1%} of cold wall):\n"
        + phase_table.render()
    )
    print(text)
    save_artifact("cold_core", text)

    payload = {
        "dataset": "iris",
        "points": cold_report.total,
        "max_depth": 2,
        "domain": "either",
        "removal_budget": 4,
        "baseline_points_per_second": BASELINE_POINTS_PER_SECOND,
        "min_cold_speedup": MIN_COLD_SPEEDUP,
        "target_cold_speedup": TARGET_COLD_SPEEDUP,
        "cold": {
            "wall_clock_seconds": cold_seconds,
            "points_per_second": cold_pps,
            "speedup_vs_baseline": speedup,
            "trace_steps": cold_trace_steps,
            "trace_reused": cold_trace_reused,
        },
        "warm_rerun": {
            "wall_clock_seconds": warm_seconds,
            "points_per_second": warm_report.total / warm_seconds,
            "trace_steps": warm_steps,
            "trace_reused": warm_reused,
            "trace_reuse_fraction": warm_reused / warm_steps if warm_steps else 0.0,
            "verdicts_identical_to_cold": identical,
        },
        "budget_ladder": {
            "budgets": list(LADDER_BUDGETS),
            "points": LADDER_POINTS,
            "per_point": ladder,
            "trace_reuse_fraction": ladder_fraction,
        },
        "status_counts": status_counts,
        "learner_phase_seconds": phases,
        "attributed_fraction_of_cold_wall": attributed / cold_seconds,
    }
    (results_directory() / "BENCH_cold_core.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    failures = []
    if speedup < MIN_COLD_SPEEDUP:
        failures.append(
            f"cold throughput {cold_pps:.2f} pts/s is only {speedup:.1f}x the "
            f"{BASELINE_POINTS_PER_SECOND} pts/s baseline (floor "
            f"{MIN_COLD_SPEEDUP:.0f}x)"
        )
    if not identical:
        failures.append("warm rerun verdicts differ from the cold run")
    if warm_reused == 0 and ladder_reused == 0:
        failures.append("trace_reuse_fraction == 0: warm-started probes never "
                        "replayed a single filter step")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
