"""Run one workload of the certification benchmark and print its metrics.

Usage (from the repository root)::

    python3 certbench/run.py --workload uci-cold --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it are the human-readable report: host stamp, verdict mix,
latency percentiles with sample counts and, when traced, the layer table.
Timings in the end-to-end metrics are scaled to a reference host speed by
interleaved probes of a fixed kernel (see ``common.HostClock``).
Exit status: 0 when every verdict matched its reference and nothing was left
behind, 1 when a check failed, 2 on bad arguments, 3 when the checkout holds
no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import sys
import time

import common


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="two points per configuration, a few seconds per run "
                        "(for the benchmark's own tests)")
    return parser.parse_args(argv)


def host_stamp(seed: int) -> dict:
    """CPU count, Python, numpy, the program's commit and source digest.

    ``run`` adds the run's wall and the host probes it took (see
    :class:`common.HostClock`).
    """
    import numpy

    digest = hashlib.sha256()
    for path in sorted(common.SRC.rglob("*.py")):
        digest.update(path.relative_to(common.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _git_commit() -> str:
    """The checkout's commit when it is a git work tree, else ``unknown``."""
    head = common.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (common.ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end_metrics(outcome) -> dict:
    return {
        "setup_s": common.median(outcome.setup_seconds),
        "ops_per_s": outcome.rate(),
        "latency_p50_ms": outcome.p50_seconds() * 1e3,
        "certified_fraction": outcome.certified / outcome.ops,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def verdict_mix(outcome) -> dict:
    """Per-status counts and seconds, and the exhausted share of ops and wall."""
    search = outcome.details.get("search")
    if search:
        # sweep: an operation is a whole search; exhaustion is per learner run.
        runs = search.get("learner_runs", 0)
        exhausted = search.get("exhausted_probes", 0) / runs if runs else 0.0
    else:
        exhausted = outcome.exhausted / outcome.ops
    return {
        "status_counts": dict(sorted(outcome.statuses.items())),
        "status_seconds": {k: round(v, 4) for k, v in sorted(outcome.status_seconds.items())},
        "exhausted_fraction": exhausted,
        "exhausted_wall_share": outcome.exhausted_seconds / outcome.timed_wall,
        "failed_fraction": min(len(outcome.failures), outcome.ops) / outcome.ops,
    }


def report_lines(args, stamp, outcome, metrics, units) -> list:
    from workloads import latency_summary

    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"passes {outcome.passes}  ops {outcome.ops}  timed wall {outcome.timed_wall:.3f}s",
        "host " + json.dumps(stamp, sort_keys=True),
        "verdict mix " + json.dumps(verdict_mix(outcome), sort_keys=True),
        "latency " + json.dumps(
            latency_summary(outcome.latencies, outcome.ops_per_pass or outcome.ops),
            sort_keys=True,
        ),
        f"measured rate {outcome.ops / outcome.timed_wall:.6f} ops/s over the timed wall "
        f"(unscaled, probes included)",
        f"setup samples {len(outcome.setup_seconds)}, scaled s: first "
        + json.dumps([round(s, 6) for s in outcome.setup_seconds[:10]]),
    ]
    if outcome.details:
        lines.append("details " + json.dumps(outcome.details, sort_keys=True, default=str))
    for name, value in metrics.items():
        lines.append(f"  {name:44} {value:14.6f} {units[name]}")
    if outcome.layer_table:
        lines.append(outcome.layer_table)
    for failure in outcome.failures[:20]:
        lines.append(f"FAILED {failure}")
    if len(outcome.failures) > 20:
        lines.append(f"FAILED ... {len(outcome.failures) - 20} more")
    return lines


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    spec = common.load_spec()
    units = common.units(spec)
    args = parse_args(spec, argv)
    try:
        common.ensure_program()
    except common.ProgramMissing as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    if not common.reference_path(args.workload).is_file():
        print(f"error: no reference verdicts for {args.workload}", file=sys.stderr)
        return 3
    signal.signal(signal.SIGTERM, _interrupt)
    common.WORK_DIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(common.WORK_DIR)

    import served
    import workloads

    runners = dict(workloads.RUNNERS, served=served.run_served)
    reference = common.load_reference(args.workload)
    stamp = host_stamp(args.seed)
    started = time.perf_counter()
    try:
        outcome = runners[args.workload](args, reference)
    finally:
        leftovers = common.stop_children()
    outcome.failures.extend(leftovers)
    if outcome.ops == 0:
        outcome.failures.append("no operation completed")
    stamp["run_wall_s"] = round(time.perf_counter() - started, 3)
    stamp["host_probe"] = outcome.clock.stamp()

    if outcome.ops:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            metrics = {name: float(outcome.layer_metrics.get(name, 0.0)) for name in names}
        else:
            metrics = end_to_end_metrics(outcome)
    else:
        metrics = {}
    print("\n".join(report_lines(args, stamp, outcome, metrics, units)), flush=True)
    attempted = max(1, outcome.ops)
    failed = min(len(outcome.failures), attempted)
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }), flush=True)
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())
