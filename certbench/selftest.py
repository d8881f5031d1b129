"""The benchmark's own tests.

Run from the repository root (they start the benchmark as a subprocess, so
they take about a minute)::

    python3 -m pytest -q certbench/selftest.py

The file is deliberately not named ``test_*.py``: the repository's tier-1
suite does not collect it.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

SPEC = common.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace=0, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "certbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _checkout_copy(tmp_path: Path, with_program: bool) -> Path:
    """``BENCHMARK.json`` and the benchmark's files, plus the program's
    sources (linked) when ``with_program``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "certbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return tmp_path


def _result(completed) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _served_leftovers() -> list:
    if not common.WORK_DIR.is_dir():
        return []
    return sorted(p.name for p in common.WORK_DIR.iterdir() if p.name.startswith("served-"))


PR_SET_CHILD_SUBREAPER = 36


def _run_adopting_survivors(workload, trace):
    """``_run`` with this process as the subreaper of the run's descendants.

    A process the run leaves behind is re-parented to this process instead
    of to init, alive or already a zombie, so it is found however fast it
    exits.  Returns the completed run and the survivors' command lines
    (each survivor is killed and reaped).
    """
    libc = ctypes.CDLL(None, use_errno=True)
    assert libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        completed = _run(workload, trace=trace)
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
    survivors = []
    for pid in common.child_processes():
        try:
            survivors.append(Path(f"/proc/{pid}/cmdline").read_bytes().decode(errors="replace"))
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return completed, survivors


def test_benchmark_json_respects_the_declared_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    payload = SPEC
    assert set(payload) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    names = [w["name"] for w in payload["workloads"]]
    names += [m["name"] for m in payload["end_to_end"] + payload["per_layer"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in payload["workloads"])
    assert all(unit.match(m["unit"]) for m in payload["end_to_end"] + payload["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in payload["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in payload[
        "end_to_end"
    ]
    assert 1 <= payload["run_seconds"] <= 60 and 2 <= len(payload["workloads"]) <= 8


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    completed, survivors = _run_adopting_survivors(workload, trace)
    # e.g. the resource tracker that publishing to shared memory starts.
    assert survivors == []
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    assert "host {" in completed.stdout and "verdict mix {" in completed.stdout
    if trace:
        assert "(unattributed)" in completed.stdout
    assert _served_leftovers() == []


def _tamper(entry: dict) -> None:
    if "max_certified_n" in entry:
        entry["max_certified_n"] += 1
    else:
        entry["status"] = "unknown" if entry["status"] == "robust" else "robust"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_reference_verdict_is_a_failure(workload, tmp_path):
    checkout = _checkout_copy(tmp_path, with_program=True)
    reference = common.load_reference(workload)
    for entry in reference["points"]:
        _tamper(entry)
    path = checkout / "certbench" / "reference" / f"{workload}.json"
    path.write_text(json.dumps(reference), encoding="utf-8")
    completed = _run(workload, cwd=checkout)
    assert completed.returncode == 1
    result = _result(completed)
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
    assert "FAILED " in completed.stdout


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    checkout = _checkout_copy(tmp_path, with_program=False)
    completed = _run("uci-cold", cwd=checkout, timeout=60)
    assert completed.returncode not in (0, None)
    assert '"metrics"' not in completed.stdout


def test_interrupted_served_run_leaves_nothing_behind():
    process = subprocess.Popen(
        [sys.executable, "certbench/run.py", "--workload", "served", "--seed", "5",
         "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while not _served_leftovers() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _served_leftovers(), "the fleet never started"
        time.sleep(2.0)
        process.send_signal(signal.SIGINT)
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode != 0
    assert _served_leftovers() == []
    own = str(common.WORK_DIR)
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes().decode(errors="replace")
            cwd = os.readlink(f"/proc/{pid}/cwd")
        except OSError:
            continue
        assert own not in cmdline + cwd, f"process {pid} survived: {cmdline!r}"


def test_stratified_pick_keeps_the_mix_for_every_seed():
    entries = [
        {"key": str(i), "status": "robust" if i % 3 else "unknown", "cost_s": i / 10}
        for i in range(30)
    ]
    mixes = set()
    for seed in range(20):
        picked = common.stratified_pick(np.random.default_rng(seed), entries, 10)
        assert len({e["key"] for e in picked}) == 10
        mixes.add(tuple(sorted(e["status"] for e in picked)))
    assert len(mixes) == 1


def test_resolved_percentiles_need_ten_samples_beyond():
    assert common.resolved(100, 0.9) and not common.resolved(99, 0.9)
    assert common.resolved(20, 0.5) and not common.resolved(19, 0.5)
    assert common.resolved(1000, 0.99) and not common.resolved(999, 0.99)


def test_every_pooled_pass_publishes_the_dataset_again(monkeypatch):
    common.ensure_program()
    import workloads
    from repro.datasets.registry import load_dataset
    from repro.runtime.shm import DatasetStore

    published = []
    original = DatasetStore._publish_arrays

    def counting(self, dataset):
        published.append(dataset.name)
        return original(self, dataset)

    monkeypatch.setattr(DatasetStore, "_publish_arrays", counting)
    config = workloads.Config("iris", 1, 1, pool=4, picks=2)
    split = load_dataset("iris")
    data = {"iris": (split.train, split.test)}
    selection = {config.tag: [{"key": f"iris/{i}", "index": i} for i in range(2)]}
    try:
        for _ in range(2):
            outcome = workloads.Outcome("pooled")
            workloads._cold_pass(outcome, (config,), selection, data, n_jobs=2)
            assert outcome.ops == 2 and not outcome.failures
    finally:
        assert common.stop_children() == []
    assert len(published) == 2
