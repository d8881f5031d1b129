"""Shared plumbing of the certification benchmark: paths, sampling, stats.

Every workload module imports this first.  It locates the program's sources
(``src/`` next to this directory), keeps every file the benchmark writes
inside the checkout (``.certbench_work/``), reads the workloads and metrics
declared in ``BENCHMARK.json``, and provides the seeded, cost-stratified
point selection that keeps runs with different seeds comparable, and the
host clock that scales timings to a reference host speed.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = ROOT / ".certbench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    """The benchmark's declaration: workloads, metrics, units, run length."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def units(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark (no ``src/repro``)."""


def ensure_program() -> None:
    """Put ``src/`` on ``sys.path`` or raise :class:`ProgramMissing`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child processes: the program on the path, temp inside."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(WORK_DIR)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def work_dir(prefix: str) -> Path:
    """A fresh private directory under the checkout's work area."""
    WORK_DIR.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORK_DIR)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR))


def remove_dir(path: Optional[Path]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


# --------------------------------------------------------------- references
def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text(encoding="utf-8"))


def write_reference(workload: str, payload: dict) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    target = reference_path(workload)
    target.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    return target


# ---------------------------------------------------------------- sampling
def stratified_pick(rng, entries: Sequence[dict], count: int) -> List[dict]:
    """Pick ``count`` reference entries, the same mix and cost for every seed.

    Entries are grouped by their reference ``status`` and each status gets
    its proportional share of ``count`` (largest remainders first, ties by
    status name), so the verdict mix of a selection never depends on the
    seed.  Within a status the entries are sorted by their reference cost
    and cut into as many contiguous buckets as picks; the seed draws one
    entry per bucket.  Every seed therefore selects points spread evenly
    over the cost range, and the work a pass does varies little with it.
    """
    by_status: Dict[str, List[dict]] = {}
    for entry in entries:
        by_status.setdefault(entry["status"], []).append(entry)
    total = len(entries)
    exact = {s: count * len(group) / total for s, group in by_status.items()}
    shares = {s: int(math.floor(value)) for s, value in exact.items()}
    leftover = count - sum(shares.values())
    for status in sorted(exact, key=lambda s: (shares[s] - exact[s], s))[:leftover]:
        shares[status] += 1
    picked: List[dict] = []
    for status in sorted(by_status):
        group = sorted(by_status[status], key=lambda e: (e["cost_s"], e["key"]))
        k = min(shares[status], len(group))
        for b in range(k):
            lo = b * len(group) // k
            hi = (b + 1) * len(group) // k
            picked.append(group[int(rng.integers(lo, hi))])
    order = rng.permutation(len(picked))
    return [picked[i] for i in order]


# ------------------------------------------------------------------- stats
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def resolved(count: int, q: float) -> bool:
    """Whether at least ten samples lie beyond the ``q``-quantile."""
    return round(count * (1.0 - q), 9) >= 10


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))



# -------------------------------------------------------------- host probe
#: What the probe reads, in ms, on the host the timings are scaled to.
REFERENCE_PROBE_MS = 3.0


def host_probe_ms(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of a fixed benchmark-owned kernel
    (dict updates, numpy sorts and broadcasts), in ms.

    It does not touch the program, so it reads the same on every commit
    unless the host itself runs slower or faster.  The fastest repeat
    tracked the host best (the median and a single repeat pick up more
    interrupt noise).
    """
    import numpy as np

    matrix = np.random.default_rng(0).random((200, 40))
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(3):
            counts: Dict[int, int] = {}
            for key in range(3000):
                counts[key % 97] = counts.get(key % 97, 0) + key
            np.argsort(matrix, axis=0)
            (matrix[:, :, None] > matrix[:, None, :]).sum()
        timings.append(time.perf_counter() - started)
    return min(timings) * 1e3


class HostClock:
    """Scales measured intervals to a host on which the probe reads
    :data:`REFERENCE_PROBE_MS`.

    The shared host this benchmark was built on changes speed in phases of
    seconds to tens of minutes (the same fixed work took 66-120 ms within
    one minute), and the program's own timings follow the probe: on a fixed
    certification batch, the quartile spread of 20-sample medians was 0.16
    measured and 0.04 scaled.  So each timed interval is bracketed by probes and
    multiplied by ``REFERENCE_PROBE_MS / mean(probe before, probe after)``.
    The probes run outside the intervals they scale.  An inactive clock
    (for traced passes, whose wall must hold only the program's work)
    neither probes nor scales.

    A pooled batch keeps both CPUs busy for seconds, no probe may run
    during it, and its time averages over many phases: bracketing probes
    doubled its spread.  Pooled timings are scaled by :meth:`run_factor`
    instead, from the fastest probe of the run, which follows the slow
    drifts of the host's base speed: over two sets of eight runs an hour
    apart, the measured medians moved 13% and the scaled ones 2%, with
    quartile spreads of 0.03-0.06.
    """

    def __init__(self, active: bool = True) -> None:
        self.active = active
        self.probes: List[float] = [host_probe_ms()] if active else []

    def probe(self) -> None:
        if self.active:
            self.probes.append(host_probe_ms())

    def factor(self) -> float:
        """Scale of the interval since the previous probe."""
        if not self.active:
            return 1.0
        before = self.probes[-1]
        self.probe()
        return 2.0 * REFERENCE_PROBE_MS / (before + self.probes[-1])

    def run_factor(self) -> float:
        return REFERENCE_PROBE_MS / min(self.probes) if self.active else 1.0

    def stamp(self) -> Dict[str, float]:
        if not self.probes:
            return {"probes": 0}
        return {
            "probes": len(self.probes),
            "median_ms": round(median(self.probes), 4),
            "min_ms": round(min(self.probes), 4),
            "max_ms": round(max(self.probes), 4),
        }


# --------------------------------------------------------------------- RSS
def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reaped_children_peak_rss_mb() -> float:
    """Largest peak RSS among reaped child processes (pool workers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def child_processes() -> Dict[int, str]:
    """This process's children: pid to state letter (``Z`` for a zombie)."""
    own = os.getpid()
    found = {}
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{name}/stat").read_text(encoding="utf-8")
        except OSError:
            continue
        # After the parenthesised command come the state and the parent pid.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == own:
            found[int(name)] = fields[0]
    return found


def stop_children() -> List[str]:
    """Stop and reap every child process left; report the live ones.

    Publishing a dataset to shared memory starts multiprocessing's resource
    tracker, a child that the standard library never waits for: it would
    outlive the run.  The published segments are unlinked first (so that
    the tracker has nothing left to clean up), then the tracker is stopped
    and waited for.  Any other child still running is a leak of the
    benchmark's own: it is killed, reaped and reported.
    """
    shm = sys.modules.get("repro.runtime.shm")
    if shm is not None and shm._DEFAULT_STORE is not None:
        shm._DEFAULT_STORE.close()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    leftovers = []
    for pid, state in child_processes().items():
        if state != "Z":
            leftovers.append(f"child process {pid} still running at the end of the run")
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return leftovers


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, 0 if it cannot be read."""
    try:
        text = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    return 0.0
