"""Regenerate the committed reference verdicts of every workload.

Usage (from the repository root)::

    python3 certbench/reference.py [WORKLOAD ...]

For each point of a workload's pool the verdict is computed in-process with
no timeout and the benchmark's disjunct cap, on a fresh engine: status and
certified class per point, plus the maximal certified budget and Pareto
frontier for ``sweep``.  ``cost_s`` is the point's certification time on the
machine that generated the file; runs use it only to stratify point
selection by cost, never to check anything.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time

import common

common.ensure_program()

import numpy as np  # noqa: E402

import served  # noqa: E402
import workloads  # noqa: E402
from workloads import MNIST_PAPER, SWEEP, UCI_COLD, engine_for, verdict  # noqa: E402


def _timed(function):
    started = time.perf_counter()
    value = function()
    return value, time.perf_counter() - started


def _certify_pool(configs) -> list:
    from repro.core import split_plan
    from repro.poisoning.models import RemovalPoisoningModel

    entries = []
    for config in configs:
        train, test = workloads.load_train_test(config)
        split_plan.clear_plans()
        engine = engine_for(config.depth)
        model = RemovalPoisoningModel(config.budget)
        # Warm the plan so that cost_s measures one point, not set-up.
        engine.certify_point(train, test.X[0], model)
        for index in range(config.pool):
            result, seconds = _timed(lambda: engine.certify_point(train, test.X[index], model))
            entries.append({
                "key": workloads.entry_key(config, index), "config": config.tag,
                "index": index, "cost_s": round(seconds, 4), **verdict(result),
            })
            print(entries[-1], flush=True)
    return entries


def _sweep_pool() -> list:
    from repro.runtime import CertificationRuntime

    train, test = workloads.load_train_test(SWEEP)
    entries = []
    cache_dir = common.work_dir("reference-sweep-")
    try:
        runtime = CertificationRuntime(cache_dir)
        engine = engine_for(SWEEP.depth)
        for index in range(SWEEP.pool):
            x = test.X[index]

            def search():
                scalar = runtime.max_certified(
                    engine, train, x, max_budget=workloads.SWEEP_MAX_BUDGET
                )
                frontier = runtime.pareto_frontier(
                    engine, train, x, max_remove=workloads.SWEEP_MAX_REMOVE,
                    max_flip=workloads.SWEEP_MAX_FLIP,
                )
                return workloads.sweep_verdict(scalar, frontier)

            got, seconds = _timed(search)
            entries.append({
                "key": workloads.entry_key(SWEEP, index), "config": SWEEP.tag,
                "index": index, "cost_s": round(seconds, 4), **got,
            })
            print(entries[-1], flush=True)
        runtime.cache.close()
    finally:
        common.remove_dir(cache_dir)
    return entries


def _served_pool() -> list:
    from repro.datasets.registry import load_dataset
    from repro.poisoning.models import RemovalPoisoningModel

    entries = []
    for name in served.DATASETS:
        split = load_dataset(name, seed=0)
        engine = engine_for(served.DEPTH)
        rows = {
            "exact": (split.test.X[: served.HIT_POOL], served.WARM_BUDGET),
            "monotone": (split.test.X[: served.HIT_POOL], served.MONOTONE_BUDGET),
            "miss": (served.variant_points(split.test.X, name), served.MISS_BUDGET),
        }
        engine.certify_point(split.train, split.test.X[0], RemovalPoisoningModel(1))
        for kind, (points, budget) in rows.items():
            model = RemovalPoisoningModel(budget)
            for index, x in enumerate(points):
                result, seconds = _timed(lambda: engine.certify_point(split.train, x, model))
                entries.append({
                    "key": served.entry_key(name, kind, index), "dataset": name,
                    "kind": kind, "index": index, "budget": budget,
                    "cost_s": round(seconds, 4), **verdict(result),
                })
        print(name, len(entries), flush=True)
    return entries


GENERATORS = {
    "uci-cold": lambda: _certify_pool(UCI_COLD),
    "mnist-paper": lambda: _certify_pool(MNIST_PAPER),
    "sweep": _sweep_pool,
    "served": _served_pool,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=sorted(GENERATORS),
                        choices=sorted(GENERATORS))
    args = parser.parse_args(argv)
    for name in args.workloads:
        points = GENERATORS[name]()
        statuses = {}
        for entry in points:
            statuses[entry["status"]] = statuses.get(entry["status"], 0) + 1
        path = common.write_reference(name, {
            "workload": name,
            "max_disjuncts": workloads.MAX_DISJUNCTS,
            "timeout_seconds": None,
            "generated_on": {"python": platform.python_version(),
                             "numpy": np.__version__},
            "status_counts": statuses,
            "points": points,
        })
        print(f"{name}: {len(points)} verdicts {statuses} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
