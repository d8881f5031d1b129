"""The ``served`` workload: one client, a router, two certification daemons.

Two ``repro serve --tcp`` backends sit behind one ``repro route --tcp``
router; all three are child processes living in a private directory under
the checkout's work area, and are stopped and reaped on every exit path.
Set-up starts the fleet and pre-warms the owner caches with exactly the hit
set.  The timed phase is a closed loop of single-point ``certify`` calls
through the router, in blocks of :data:`BLOCK` requests with fixed shares:
exact cache hits, hits derived from a larger cached budget (monotone), and
one fresh jittered point that misses, runs the learner and is stored.
"""

from __future__ import annotations

import dataclasses
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from common import (
    child_env,
    percentile,
    process_peak_rss_mb,
    remove_dir,
    self_peak_rss_mb,
    work_dir,
)
from layers import LayerRecorder, installed
from workloads import (
    MAX_DISJUNCTS,
    Outcome,
    setup_repeats,
    trace_totals,
    verdict,
)

DATASETS = ("iris", "mammography")
DEPTH = 2
#: Test points 0..HIT_POOL-1 of each dataset are pre-warmed at WARM_BUDGET.
HIT_POOL = 12
WARM_BUDGET = 1
#: Robust-at-WARM_BUDGET points asked at this budget are derived hits.
MONOTONE_BUDGET = 0
#: Fresh points per dataset: test points plus fixed jitter (reference-covered).
VARIANTS = 1024
JITTER_SCALE = 0.05
JITTER_SEED = 2020
#: Misses are certified at budget 0: cheap, so that hits carry most of the
#: wall and the serving layers, not one costly learner run, set the rate.
MISS_BUDGET = 0
#: Request block: fixed shares of misses and monotone hits; the rest exact.
BLOCK = 20
MISSES_PER_BLOCK = 1
MONOTONE_PER_BLOCK = 6
MIN_OPS = 1000
#: Requests per measurement window: five whole blocks, so every window has
#: the same mix.
WINDOW = 5 * BLOCK
SETUP_REPEATS = 3
#: Hit requests replayed on the direct-socket and in-process arms (traced).
REPLAY_HITS = 400
STARTUP_TIMEOUT = 60.0
START_ATTEMPTS = 3
STOP_TIMEOUT = 10.0


def dataset_ref(name: str) -> dict:
    return {"name": name, "seed": 0}


def variant_points(test_X: np.ndarray, dataset: str) -> np.ndarray:
    """The fixed jittered copies of the test points used as cache misses."""
    rng = np.random.default_rng([JITTER_SEED, DATASETS.index(dataset)])
    spread = test_X.std(axis=0) * JITTER_SCALE
    base = test_X[np.arange(VARIANTS) % len(test_X)]
    return base + rng.normal(0.0, 1.0, size=base.shape) * spread


def entry_key(dataset: str, kind: str, index: int) -> str:
    return f"{dataset}/{kind}/{index}"


# ------------------------------------------------------------------ fleet
def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


def _port_open(address: str) -> bool:
    host, port = address.rsplit(":", 1)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(0.5)
        return probe.connect_ex((host, int(port))) == 0


class ChildExited(RuntimeError):
    """A fleet process exited while starting (e.g. its port was taken)."""


class Fleet:
    """Two backends and a router as child processes in a private directory."""

    def __init__(self) -> None:
        self.directory: Optional[Path] = None
        self.processes: List[subprocess.Popen] = []
        self.backends: List[str] = []
        self.router = ""
        self.owner: Dict[str, str] = {}
        self._logs: list = []

    def start(self) -> None:
        from repro.fleet.ring import HashRing, shard_key
        from repro.service.protocol import dataset_to_wire

        self.directory = work_dir("served-")
        keys = {name: shard_key(dataset_to_wire(dataset_ref(name))) for name in DATASETS}
        # Ring placement depends on the backend addresses: pick ports until
        # the two datasets are owned by different backends.
        for _ in range(64):
            ports = {_free_port(), _free_port()}
            if len(ports) < 2:
                continue
            backends = [f"127.0.0.1:{port}" for port in sorted(ports)]
            ring = HashRing(backends)
            owner = {name: ring.primary(key) for name, key in keys.items()}
            if len(set(owner.values())) == len(DATASETS):
                break
        else:
            raise RuntimeError("no port pair splits the datasets across backends")
        self.backends, self.owner = backends, owner
        for index, address in enumerate(backends):
            self._spawn(f"backend{index}", [
                "serve", "--tcp", address,
                "--cache-dir", str(self.directory / f"cache{index}"),
            ])
        self.router = f"127.0.0.1:{_free_port()}"
        arguments = ["route", "--tcp", self.router, "--request-timeout", "120"]
        for address in backends:
            arguments += ["--backend", address]
        self._spawn("router", arguments)
        self._wait_ready()

    def _wait_ready(self) -> None:
        """Wait until every child answers; fail at once if one has exited."""
        from repro.service import wait_for_server

        deadline = time.monotonic() + STARTUP_TIMEOUT
        for address in self.backends + [self.router]:
            while True:
                exited = [p.args for p in self.processes if p.poll() is not None]
                if exited:
                    raise ChildExited(f"exited during start-up: {exited[0]}")
                try:
                    wait_for_server(address, timeout=0.5)
                    break
                except TimeoutError:
                    if time.monotonic() > deadline:
                        raise

    def _spawn(self, name: str, arguments: Sequence[str]) -> None:
        assert self.directory is not None
        log = open(self.directory / f"{name}.log", "wb")
        self._logs.append(log)
        self.processes.append(subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *arguments],
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            env=child_env(), cwd=str(self.directory), start_new_session=True,
        ))

    def peak_rss_mb(self) -> float:
        return sum(process_peak_rss_mb(p.pid) for p in self.processes)

    def cache_dir(self, dataset: str) -> Path:
        assert self.directory is not None
        return self.directory / f"cache{self.backends.index(self.owner[dataset])}"

    def stop(self) -> List[str]:
        """Terminate, reap, and report anything left behind (idempotent)."""
        if not self.processes:
            return []
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT
        for process in self.processes:
            try:
                process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        for log in self._logs:
            log.close()
        self._logs = []
        leftovers = [
            f"child {p.pid} still running" for p in self.processes if p.poll() is None
        ]
        leftovers += [
            f"socket {address} still accepting"
            for address in self.backends + ([self.router] if self.router else [])
            if _port_open(address)
        ]
        self.processes = []
        return leftovers

    def discard(self) -> None:
        remove_dir(self.directory)
        self.directory = None


# ---------------------------------------------------------------- requests
@dataclasses.dataclass(frozen=True)
class Request:
    dataset: str
    kind: str  # "exact", "monotone" or "miss"
    index: int
    budget: int

    @property
    def key(self) -> str:
        return entry_key(self.dataset, self.kind, self.index)


def _balanced_order(rng, entries: List[dict], buckets: int = 16) -> List[dict]:
    """All entries, ordered so that every prefix spans the cost range evenly."""
    ordered = sorted(entries, key=lambda e: (e["cost_s"], e["key"]))
    groups = [
        [ordered[i] for i in rng.permutation(range(b * len(ordered) // buckets,
                                                   (b + 1) * len(ordered) // buckets))]
        for b in range(buckets)
    ]
    out: List[dict] = []
    while any(groups):
        for b in rng.permutation(buckets):
            if groups[b]:
                out.append(groups[b].pop())
    return out


def request_plan(rng, reference: dict) -> Iterator[Request]:
    """The seeded request sequence: fixed shares per block, seeded order."""
    entries = reference["points"]
    exact_pool: Dict[str, List[int]] = {}
    monotone_pool: Dict[str, List[int]] = {}
    misses: Dict[str, List[int]] = {}
    for name in DATASETS:
        warm = [e for e in entries if e["dataset"] == name and e["kind"] == "exact"]
        exact_pool[name] = [e["index"] for e in warm]
        monotone_pool[name] = [e["index"] for e in warm if e["status"] == "robust"]
        fresh = [e for e in entries if e["dataset"] == name and e["kind"] == "miss"]
        misses[name] = [e["index"] for e in _balanced_order(rng, fresh)]
    cursors = {(name, kind): 0 for name in DATASETS for kind in ("exact", "monotone")}
    orders = {
        (name, "exact"): list(rng.permutation(exact_pool[name])) for name in DATASETS
    }
    orders.update({
        (name, "monotone"): list(rng.permutation(monotone_pool[name])) for name in DATASETS
    })
    kinds = (["miss"] * MISSES_PER_BLOCK + ["monotone"] * MONOTONE_PER_BLOCK
             + ["exact"] * (BLOCK - MISSES_PER_BLOCK - MONOTONE_PER_BLOCK))
    block = 0
    while True:
        for slot, position in enumerate(rng.permutation(BLOCK)):
            kind = kinds[position]
            name = DATASETS[(slot + block) % len(DATASETS)]
            if kind == "miss":
                if not misses[name]:
                    return
                yield Request(name, "miss", misses[name].pop(0), MISS_BUDGET)
                continue
            order = orders[(name, kind)]
            cursor = cursors[(name, kind)]
            cursors[(name, kind)] = cursor + 1
            budget = WARM_BUDGET if kind == "exact" else MONOTONE_BUDGET
            yield Request(name, kind, int(order[cursor % len(order)]), budget)
        block += 1


# ---------------------------------------------------------------- the loop
class _Points:
    """Test points and fresh variants per dataset (built during set-up)."""

    def __init__(self) -> None:
        from repro.datasets.registry import load_dataset

        self.train = {}
        self.test = {}
        self.variants = {}
        for name in DATASETS:
            split = load_dataset(name, seed=0)
            self.train[name] = split.train
            self.test[name] = split.test.X
            self.variants[name] = variant_points(split.test.X, name)

    def row(self, request: Request) -> np.ndarray:
        source = self.variants if request.kind == "miss" else self.test
        return source[request.dataset][request.index]


def _clients(addresses: Sequence[str]) -> Dict[str, object]:
    from repro.service import CertificationClient

    return {
        address: CertificationClient(
            address, request_timeout=120.0, max_depth=DEPTH, domain="either",
            max_disjuncts=MAX_DISJUNCTS,
        )
        for address in addresses
    }


def _send(client, points: _Points, request: Request):
    from repro.poisoning.models import RemovalPoisoningModel

    report = client.certify_batch(
        dataset_ref(request.dataset),
        points.row(request).reshape(1, -1),
        RemovalPoisoningModel(request.budget),
    )
    stats = report.runtime_stats or {}
    return report.results[0], int(stats.get("learner_invocations", -1))


def _backend_counters(clients: Dict[str, object]) -> Dict[str, float]:
    """Learner runs and cache lookups summed over the backends."""
    from repro.telemetry.metrics import series_value

    totals = {"learner": 0.0, "hit": 0.0, "monotone": 0.0, "miss": 0.0}
    for client in clients.values():
        snapshot = client.metrics()["metrics"]
        totals["learner"] += series_value(snapshot, "learner_invocations_total")
        for result in ("hit", "monotone", "miss"):
            totals[result] += series_value(snapshot, "cache_lookups_total", result=result)
    return totals


def _router_replication(client) -> Dict[str, float]:
    from repro.telemetry.metrics import series_value

    snapshot = client.metrics()["metrics"]
    return {
        outcome: series_value(snapshot, "router_replication_total", outcome=outcome)
        for outcome in ("replicated", "unfilled")
    }


def _prewarm(client, points: _Points, reference: Dict[str, dict], outcome: Outcome) -> None:
    from repro.poisoning.models import RemovalPoisoningModel

    for name in DATASETS:
        report = client.certify_batch(
            dataset_ref(name), points.test[name][:HIT_POOL], RemovalPoisoningModel(WARM_BUDGET)
        )
        for index, result in enumerate(report.results):
            key = entry_key(name, "exact", index)
            outcome.check(f"prewarm {key}", verdict(result), reference.get(key))


def _closed_loop(client, points, plan, reference, outcome, seconds, min_ops, log) -> None:
    """Send requests one at a time, in whole windows, until ``seconds`` and
    ``min_ops`` are met.

    The host is probed between windows; each window's rate and latencies
    are scaled by its :class:`~common.HostClock` factor, and the run's rate
    is the median window rate (see :data:`WINDOW`).
    """
    started = window_started = time.perf_counter()
    window: List[tuple] = []
    for request in plan:
        sent = time.perf_counter()
        result, learner = _send(client, points, request)
        window.append((request, result, learner, time.perf_counter() - sent))
        if len(window) < WINDOW:
            continue
        _close_window(outcome, window, time.perf_counter() - window_started, reference, log)
        window = []
        window_started = time.perf_counter()
        if window_started - started >= seconds and outcome.ops >= min_ops:
            break
    if window:
        _close_window(outcome, window, time.perf_counter() - window_started, reference, log)
    outcome.timed_wall = time.perf_counter() - started
    outcome.details["windows"] = len(outcome.window_rates)


def _close_window(outcome, window, wall, reference, log) -> None:
    factor = outcome.clock.factor()
    outcome.window_rates.append(len(window) / (wall * factor))
    for request, result, learner, latency in window:
        outcome.record(result.status.value, latency, factor, result.is_certified)
        outcome.check(request.key, verdict(result), reference.get(request.key))
        expected = 1 if request.kind == "miss" else 0
        if learner != expected:
            outcome.failures.append(
                f"{request.key}: {learner} learner runs, expected {expected}"
            )
        log.append((request, latency * factor))


def _inprocess_replay(fleet: Fleet, points: _Points, hits: List[Request],
                      recorder: Optional[LayerRecorder]) -> List[float]:
    """The hit sequence in-process, on runtimes over copies of the caches."""
    from repro.api import CertificationEngine
    from repro.poisoning.models import RemovalPoisoningModel
    from repro.runtime import CertificationRuntime

    copies = {}
    engines = {}
    try:
        for name in DATASETS:
            assert fleet.directory is not None
            copy = fleet.directory / f"copy-{name}-{'traced' if recorder else 'plain'}"
            shutil.copytree(fleet.cache_dir(name), copy)
            copies[name] = CertificationRuntime(copy)
            engines[name] = CertificationEngine(
                max_depth=DEPTH, domain="either", timeout_seconds=None,
                max_disjuncts=MAX_DISJUNCTS, runtime=copies[name],
            )
        latencies = []
        for request in hits:
            sent = time.perf_counter()
            if recorder is None:
                engines[request.dataset].certify_batch(
                    points.train[request.dataset], points.row(request).reshape(1, -1),
                    RemovalPoisoningModel(request.budget),
                )
            else:
                with recorder.span("api.engine"):
                    engines[request.dataset].certify_batch(
                        points.train[request.dataset], points.row(request).reshape(1, -1),
                        RemovalPoisoningModel(request.budget),
                    )
            latencies.append(time.perf_counter() - sent)
        return latencies
    finally:
        for runtime in copies.values():
            if runtime.cache is not None:
                runtime.cache.close()


def _start_fleet() -> Fleet:
    """A started fleet; retried with fresh ports when a child exits early."""
    for attempt in range(START_ATTEMPTS):
        fleet = Fleet()
        try:
            fleet.start()
            return fleet
        except BaseException as error:
            fleet.stop()
            fleet.discard()
            if not isinstance(error, ChildExited) or attempt == START_ATTEMPTS - 1:
                raise
    raise AssertionError("unreachable")


def run_served(args, reference_payload: dict) -> Outcome:
    outcome = Outcome("served")
    reference = {e["key"]: e for e in reference_payload["points"]}
    rng = np.random.default_rng(args.seed)
    fleet: Optional[Fleet] = None
    clients: Dict[str, object] = {}
    try:
        points = None
        repeats = setup_repeats(args, SETUP_REPEATS)
        for repeat in range(repeats):
            started = time.perf_counter()
            points = _Points()
            fleet = _start_fleet()
            clients = _clients([fleet.router] + fleet.backends)
            _prewarm(clients[fleet.router], points, reference, outcome)
            seconds = time.perf_counter() - started
            outcome.setup_seconds.append(seconds * outcome.clock.factor())
            if repeat < repeats - 1:
                for client in clients.values():
                    client.close()
                clients = {}
                outcome.failures.extend(fleet.stop())
                fleet.discard()
                fleet = None
        assert fleet is not None and points is not None
        router = clients[fleet.router]
        backends = {address: clients[address] for address in fleet.backends}
        plan = request_plan(rng, reference_payload)
        before = _backend_counters(backends)
        replication_before = _router_replication(router)
        log: List[tuple] = []
        min_ops = 1 if args.tiny else MIN_OPS
        # The traced run spends half its time on the replay arms.
        seconds = args.seconds / 2 if args.trace else args.seconds
        _closed_loop(router, points, plan, reference, outcome, seconds, min_ops, log)
        after = _backend_counters(backends)
        replication_after = _router_replication(router)
        misses = sum(1 for request, _ in log if request.kind == "miss")
        learner_runs = after["learner"] - before["learner"]
        if learner_runs != misses:
            outcome.failures.append(
                f"backends ran the learner {learner_runs:.0f} times for {misses} misses"
            )
        hit_latencies = [s for r, s in log if r.kind != "miss"]
        miss_latencies = [s for r, s in log if r.kind == "miss"]
        lookups = sum(after[k] - before[k] for k in ("hit", "monotone", "miss"))
        answered = sum(after[k] - before[k] for k in ("hit", "monotone"))
        outcome.details.update({
            "hits": len(hit_latencies),
            "misses": misses,
            "latency_hit_p50_ms": percentile(hit_latencies, 0.5) * 1e3,
            "latency_miss_p50_ms": (
                percentile(miss_latencies, 0.5) * 1e3 if miss_latencies else 0.0
            ),
            "backend_owner": dict(fleet.owner),
        })
        if args.trace:
            hits = [r for r, _ in log if r.kind != "miss"][:REPLAY_HITS]
            routed = _replay(router, points, hits)
            direct = _replay(None, points, hits, backends=backends, owner=fleet.owner)
            outcome.peak_rss_mb = self_peak_rss_mb() + fleet.peak_rss_mb()
            for client in clients.values():
                client.close()
            clients = {}
            outcome.failures.extend(fleet.stop())
            plain_started = time.perf_counter()
            inprocess = _inprocess_replay(fleet, points, hits, None)
            plain_wall = time.perf_counter() - plain_started
            recorder = LayerRecorder()
            with installed(recorder):
                traced_started = time.perf_counter()
                _inprocess_replay(fleet, points, hits, recorder)
                traced_wall = time.perf_counter() - traced_started
            layer = recorder.metrics()
            layer.update(trace_totals(recorder, traced_wall, plain_wall))
            layer.update({
                "served.latency_hit_p50_ms": outcome.details["latency_hit_p50_ms"],
                "served.latency_miss_p50_ms": outcome.details["latency_miss_p50_ms"],
                "fleet.router.hop_ms": (percentile(routed, 0.5) - percentile(direct, 0.5)) * 1e3,
                "service.socket_ms": (percentile(direct, 0.5) - percentile(inprocess, 0.5)) * 1e3,
                "runtime.cache.hit_fraction": answered / lookups if lookups else 0.0,
                "fleet.router.replication_total.replicated": (
                    replication_after["replicated"] - replication_before["replicated"]
                ),
                "fleet.router.replication_total.unfilled": (
                    replication_after["unfilled"] - replication_before["unfilled"]
                ),
                "service.learner_invocations": learner_runs,
            })
            outcome.layer_metrics = layer
            outcome.layer_table = recorder.render(
                traced_wall, f"layers: served (in-process replay of {len(hits)} hits)"
            )
        else:
            outcome.peak_rss_mb = self_peak_rss_mb() + fleet.peak_rss_mb()
    finally:
        for client in clients.values():
            client.close()
        if fleet is not None:
            outcome.failures.extend(fleet.stop())
            fleet.discard()
    return outcome


def _replay(client, points: _Points, hits: List[Request], *, backends=None,
            owner=None) -> List[float]:
    """Latencies of ``hits`` through ``client`` (or each dataset's owner)."""
    latencies = []
    for request in hits:
        target = client if client is not None else backends[owner[request.dataset]]
        sent = time.perf_counter()
        _send(target, points, request)
        latencies.append(time.perf_counter() - sent)
    return latencies
