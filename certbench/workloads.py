"""The in-process workloads: ``uci-cold``, ``mnist-paper`` and ``sweep``.

Each workload draws its inputs from ``--seed`` alone, sets up (timed as
``setup_s``), then repeats one *pass* over the same points until
``--seconds`` have passed and enough operations exist for its median.  A
pass is cold: a fresh copy of each dataset (no memoized fingerprint or split
plan), cleared split plans, an emptied shared-memory dataset store and a
fresh engine, because a CLI user pays that on every run.  Every verdict is
checked against the committed reference verdicts.

Configurations are pure functions of their input: every engine runs with
``timeout_seconds=None`` and the disjunct cap :data:`MAX_DISJUNCTS`.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    HostClock,
    median,
    percentile,
    reaped_children_peak_rss_mb,
    remove_dir,
    resolved,
    self_peak_rss_mb,
    stratified_pick,
    work_dir,
)
from layers import LayerRecorder, installed, maybe_span

#: Disjunct cap of every engine in the benchmark.
MAX_DISJUNCTS = 2048
#: Setup is sampled this many times and the median reported (fewer for
#: the paper-scale tier, whose set-up takes seconds), and for at least
#: SETUP_SECONDS.  A sample repeats a set-up until it lasts SETUP_SAMPLE_SECONDS
#: (as timeit does): single set-ups of a millisecond or less moved by up to
#: 50% between sets of runs of unchanged code.
SETUP_REPEATS = 5
MNIST_SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_SAMPLE_SECONDS = 0.05
EXHAUSTED_STATUSES = ("resource_exhausted", "timeout")


# ----------------------------------------------------------- configurations
@dataclasses.dataclass(frozen=True)
class Config:
    """One (dataset, depth, removal budget) group of a workload's pool."""

    dataset: str
    depth: int
    budget: int
    pool: int  # reference covers test points 0..pool-1
    picks: int  # points selected per pass at full size
    scale: Optional[float] = None

    @property
    def tag(self) -> str:
        return f"{self.dataset}/d{self.depth}/n{self.budget}"


UCI_COLD = (
    Config("iris", 2, 1, pool=30, picks=4),
    Config("iris", 2, 2, pool=30, picks=4),
    Config("mammography", 2, 1, pool=40, picks=6),
    Config("mammography", 2, 2, pool=40, picks=6),
    Config("wdbc", 2, 1, pool=12, picks=1),
)
MNIST_PAPER = (
    Config("mnist17-binary", 2, 256, pool=40, picks=3, scale=1.0),
    Config("mnist17-real", 1, 64, pool=40, picks=7, scale=1.0),
)
#: sweep: removal search up to this budget, then the composite frontier.
SWEEP = Config("iris", 2, 0, pool=30, picks=6)
SWEEP_MAX_BUDGET = 16
SWEEP_MAX_REMOVE = 4
SWEEP_MAX_FLIP = 2
MNIST_JOBS = 2

#: Minimum operations per run, so that the median latency has ten samples
#: beyond it, and minimum passes, so that each unit's median has three.
MIN_OPS = 20
MIN_PASSES = 3
TINY_PICKS = 2
#: Fixes which pool points a pass certifies; the run's seed orders them.
SELECTION_SEED = 2020


def load_train_test(config: Config):
    from repro.datasets.registry import load_dataset

    split = load_dataset(config.dataset, config.scale)
    return split.train, split.test


def fresh_copy(dataset):
    """An equal dataset object with none of the program's memoized state."""
    return dataclasses.replace(dataset)


def engine_for(depth: int, runtime=None):
    from repro.api import CertificationEngine

    return CertificationEngine(
        max_depth=depth,
        domain="either",
        timeout_seconds=None,
        max_disjuncts=MAX_DISJUNCTS,
        runtime=runtime,
    )


def verdict(result) -> dict:
    return {"status": result.status.value, "certified_class": result.certified_class}


# ------------------------------------------------------------------ results
@dataclasses.dataclass
class Outcome:
    """Everything one run measured, before it is turned into metrics.

    Timings that feed metrics (operations, units, set-ups) are scaled by the
    run's :class:`HostClock`; ``timed_wall`` and the verdict mix's seconds
    stay as measured.
    """

    workload: str
    clock: HostClock = dataclasses.field(default_factory=HostClock)
    setup_seconds: List[float] = dataclasses.field(default_factory=list)
    timed_wall: float = 0.0
    latencies: List[float] = dataclasses.field(default_factory=list)
    statuses: Counter = dataclasses.field(default_factory=Counter)
    status_seconds: Dict[str, float] = dataclasses.field(default_factory=dict)
    certified: int = 0
    exhausted: int = 0
    exhausted_seconds: float = 0.0
    failures: List[str] = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0
    passes: int = 0
    #: Scaled wall time per unit of work, once per pass: an operation when
    #: they run one after another, a config's batch when they run pooled.
    units: Dict[object, List[float]] = dataclasses.field(default_factory=dict)
    #: Operations one pass of units completes.
    ops_per_pass: int = 0
    #: Set instead of ``units`` by workloads measured in request windows.
    window_rates: List[float] = dataclasses.field(default_factory=list)
    details: Dict[str, object] = dataclasses.field(default_factory=dict)
    layer_metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    layer_table: str = ""

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def unit(self, name, seconds: float) -> None:
        self.units.setdefault(name, []).append(seconds)

    def rate(self) -> float:
        """Operations per scaled second.

        Passes repeat identical work, so each unit's cost is the median of
        its passes and the rate is one pass's operations over their sum.
        ``served`` measures request windows and takes their median rate.
        """
        if self.window_rates:
            return median(self.window_rates)
        return self.ops_per_pass / sum(median(v) for v in self.units.values())

    def scale(self, factor: float) -> None:
        """Scale the operations' latencies and units (not the set-ups)."""
        self.latencies = [seconds * factor for seconds in self.latencies]
        self.units = {name: [s * factor for s in v] for name, v in self.units.items()}

    def p50_seconds(self) -> float:
        return median(self.latencies)

    def record(self, status: str, seconds: float, factor: float, certified: bool) -> None:
        """One operation of ``seconds`` measured wall, scaled by ``factor``."""
        self.latencies.append(seconds * factor)
        self.statuses[status] += 1
        self.status_seconds[status] = self.status_seconds.get(status, 0.0) + seconds
        self.certified += int(certified)
        if status in EXHAUSTED_STATUSES:
            self.exhausted += 1
            self.exhausted_seconds += seconds

    def check(self, label: str, got: dict, want: Optional[dict]) -> None:
        """Count a failure unless ``got`` matches the reference verdict."""
        if want is None:
            self.failures.append(f"{label}: no reference verdict")
            return
        for key in VERDICT_KEYS:
            if key in want and got.get(key) != want[key]:
                self.failures.append(
                    f"{label}: {key} {got.get(key)!r} != reference {want[key]!r}"
                )
                return


#: The fields of a reference entry that a run must reproduce exactly.
VERDICT_KEYS = ("status", "certified_class", "max_certified_n", "frontier")


def reference_entries(reference: dict, config: Config) -> List[dict]:
    return [e for e in reference["points"] if e["config"] == config.tag]


def entry_key(config: Config, index: int) -> str:
    return f"{config.tag}/{index}"


def setup_repeats(args, repeats: int = SETUP_REPEATS) -> int:
    return 1 if args.tiny else repeats


def timed_setup(outcome: Outcome, configs, repeats: int, seconds: float) -> dict:
    """Time at least ``repeats`` samples of set-ups, for at least
    ``seconds``, each set-up generating every dataset of the workload, and
    keep the data of the last.  A sample is the mean of ``count`` set-ups;
    ``count`` doubles, and the sample is dropped, while a sample is shorter
    than :data:`SETUP_SAMPLE_SECONDS`.

    Starting a fresh interpreter and importing the program is not timed:
    measured as a subprocess, it moved by up to 28% between sets of runs of
    unchanged code (process creation and file reads, which the host probe
    does not follow), while the data generation it precedes held steady.
    """
    unique = {c.dataset: c for c in configs}
    data: Optional[dict] = None
    count = 1
    begun = time.perf_counter()
    while len(outcome.setup_seconds) < repeats or time.perf_counter() - begun < seconds:
        started = time.perf_counter()
        for _ in range(count):
            data = None
            data = {name: load_train_test(config) for name, config in unique.items()}
        elapsed = time.perf_counter() - started
        factor = outcome.clock.factor()
        if elapsed < SETUP_SAMPLE_SECONDS:
            count *= 2
        else:
            outcome.setup_seconds.append(elapsed / count * factor)
    assert data is not None
    return data


def keep_running(outcome: Outcome, started: float, seconds: float, min_ops: int,
                 min_passes: int = 1) -> bool:
    return (time.perf_counter() - started < seconds or outcome.ops < min_ops
            or outcome.passes < min_passes)


def latency_summary(latencies: Sequence[float], distinct: int) -> Dict[str, object]:
    """Median plus each higher percentile with ten samples beyond it.

    ``samples`` counts every timed operation of the run; ``distinct`` counts
    the different operations among them (one pass).
    """
    summary: Dict[str, object] = {"samples": len(latencies), "distinct": distinct}
    for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        if latencies and resolved(len(latencies), q):
            summary[f"{label}_ms"] = percentile(latencies, q) * 1e3
    return summary


def trace_totals(recorder: LayerRecorder, traced: float, untraced: float) -> Dict[str, float]:
    unattributed = max(0.0, traced - recorder.root_seconds())
    return {
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.unattributed_fraction": unattributed / traced if traced > 0 else 0.0,
        "verify.disjuncts.exhausted": recorder.disjuncts_exhausted,
        "poisoning.label_flip.rung_s": recorder.flip_rung_seconds,
    }


def _select(rng, configs, reference, tiny: bool, share: float = 1.0) -> Dict[str, List[dict]]:
    """The pass's points per config, configs in a seeded order.

    Which pool points a pass certifies, and their order within a config,
    are fixed (cost- and status-stratified by :data:`SELECTION_SEED`, then
    by index): later points reuse split work memoized by earlier ones, so
    the order inside a config changes the work a pass does.  Configs are
    independent cold units; the run's seed orders them.
    """
    selection = {}
    for config in configs:
        picks = min(config.picks, TINY_PICKS) if tiny else max(1, round(config.picks * share))
        fixed = stratified_pick(np.random.default_rng(SELECTION_SEED),
                                reference_entries(reference, config), picks)
        selection[config.tag] = sorted(fixed, key=lambda entry: entry["index"])
    tags = list(selection)
    return {tags[i]: selection[tags[i]] for i in rng.permutation(len(tags))}


def _cold_workload(name, configs, args, reference, run_pass, traced_pass=None,
                   traced_extra=None, trace_share: float = 1.0,
                   repeats: int = SETUP_REPEATS) -> Outcome:
    """Setup, then whole passes (untraced) or one untraced + one traced pass.

    A pass is ``run_pass(outcome, configs, selection, data, recorder=None)``
    and returns its wall time.  ``traced_extra(configs, selection, data,
    untraced_wall, recorder)`` returns the workload's extra layer metrics; it
    may replace the untraced reference wall (``trace.untraced_wall_s``) when
    the traced pass differs in shape from the timed one.  ``trace_share``
    shrinks the traced run's selection when it repeats the pass several times.
    """
    outcome = Outcome(name)
    rng = np.random.default_rng(args.seed)
    data = timed_setup(outcome, configs, setup_repeats(args, repeats),
                       0.0 if args.tiny else SETUP_SECONDS)
    min_ops = 1 if args.tiny else MIN_OPS
    if not args.trace:
        selection = _select(rng, configs, reference, args.tiny)
        outcome.ops_per_pass = sum(len(entries) for entries in selection.values())
        started = time.perf_counter()
        min_passes = 1 if args.tiny else MIN_PASSES
        while keep_running(outcome, started, args.seconds, min_ops, min_passes):
            run_pass(outcome, configs, selection, data)
            outcome.passes += 1
        outcome.timed_wall = time.perf_counter() - started
    else:
        selection = _select(rng, configs, reference, args.tiny, trace_share)
        outcome.ops_per_pass = sum(len(entries) for entries in selection.values())
        untraced = run_pass(outcome, configs, selection, data)
        outcome.timed_wall = untraced
        outcome.passes = 1
        recorder = LayerRecorder()
        shadow = Outcome(name, clock=HostClock(active=False))
        with installed(recorder):
            traced_started = time.perf_counter()
            (traced_pass or run_pass)(shadow, configs, selection, data, recorder)
            traced = time.perf_counter() - traced_started
        outcome.failures.extend(shadow.failures)
        layer = traced_extra(configs, selection, data, untraced, recorder) if traced_extra else {}
        untraced = layer.pop("trace.untraced_wall_s", untraced)
        layer.update(recorder.metrics())
        layer.update(trace_totals(recorder, traced, untraced))
        outcome.layer_metrics = layer
        outcome.layer_table = recorder.render(traced, f"layers: {name} (traced pass)")
    outcome.peak_rss_mb = self_peak_rss_mb() + reaped_children_peak_rss_mb()
    return outcome


# ------------------------------------------------------------------ uci-cold
def _cold_pass(outcome, configs, selection, data, recorder=None, n_jobs: int = 1) -> float:
    """Certify one selection cold, config by config; returns its measured wall.

    Serial streams time each verdict from the previous one (the first
    includes engine construction) and probe the host between verdicts;
    pooled streams time each verdict from the batch's submission and probe
    the host once the batch is done, so that no probe competes with the
    workers, and leave their timings unscaled.
    """
    from repro.api import CertificationRequest
    from repro.core import split_plan
    from repro.poisoning.models import RemovalPoisoningModel
    from repro.runtime.shm import default_store

    by_tag = {config.tag: config for config in configs}
    wall = 0.0
    for tag, entries in selection.items():
        config = by_tag[tag]
        train, test = data[config.dataset]
        points = np.array([test.X[e["index"]] for e in entries])
        split_plan.clear_plans()
        # A pooled batch publishes its dataset to shared memory again.
        default_store().close()
        done = []
        started = previous = time.perf_counter()
        dataset = fresh_copy(train)
        engine = engine_for(config.depth)
        request = CertificationRequest(dataset, points, RemovalPoisoningModel(config.budget))
        stream = engine.certify_stream(request, n_jobs=n_jobs)
        try:
            for position, entry in enumerate(entries):
                with maybe_span(recorder, "api.engine"):
                    result = next(stream)
                latency = time.perf_counter() - (previous if n_jobs == 1 else started)
                factor = 1.0
                if n_jobs == 1:
                    # Serial latencies add up to the batch: each is a unit.
                    wall += latency
                    factor = outcome.clock.factor()
                    outcome.unit((tag, position), latency * factor)
                    previous = time.perf_counter()
                done.append((entry, result, latency, factor))
        finally:
            stream.close()
        if n_jobs > 1:
            # Scaled by the whole run (HostClock.run_factor) once it is done.
            batch = time.perf_counter() - started
            wall += batch
            outcome.clock.probe()
            outcome.unit(tag, batch)
        for entry, result, latency, factor in done:
            outcome.record(result.status.value, latency, factor, result.is_certified)
            outcome.check(entry["key"], verdict(result), entry)
    return wall


def _bare_rungs(configs, selection, data) -> float:
    """The same points through the rungs alone, outside the engine.

    The split plan is built before timing: in the engine the concrete
    predict builds it before the first rung runs.
    """
    from repro.core import split_plan
    from repro.domains.trainingset import AbstractTrainingSet
    from repro.verify.abstract_learner import BoxAbstractLearner
    from repro.verify.disjunctive_learner import (
        DisjunctBudgetExceeded,
        DisjunctiveAbstractLearner,
    )

    total = 0.0
    for config in configs:
        train, test = data[config.dataset]
        split_plan.clear_plans()
        dataset = fresh_copy(train)
        split_plan.plan_for(dataset)
        started = time.perf_counter()
        box = BoxAbstractLearner(max_depth=config.depth)
        disjuncts = DisjunctiveAbstractLearner(
            max_depth=config.depth, max_disjuncts=MAX_DISJUNCTS
        )
        trainset = AbstractTrainingSet.full(dataset, config.budget)
        for entry in selection[config.tag]:
            x = test.X[entry["index"]]
            if box.run(trainset, x).robust_class is None:
                try:
                    disjuncts.run(trainset, x)
                except DisjunctBudgetExceeded:
                    pass
        total += time.perf_counter() - started
    return total


def _engine_overhead(configs, selection, data, engine_wall, recorder) -> Dict[str, float]:
    """Engine wall minus concrete predict minus the bare rungs."""
    bare = _bare_rungs(configs, selection, data)
    predict = recorder.totals["core.trace_learner.predict"].inclusive
    return {
        "verify.bare_rungs_s": bare,
        "api.engine.overhead_s": engine_wall - predict - bare,
    }


def run_uci_cold(args, reference) -> Outcome:
    return _cold_workload("uci-cold", UCI_COLD, args, reference, _cold_pass,
                          traced_extra=_engine_overhead)


# --------------------------------------------------------------- mnist-paper
def _registry_sums(names: Sequence[str]) -> Dict[str, float]:
    from repro.telemetry import metrics

    snapshot = metrics.get_registry().snapshot()
    sums = {}
    for name in names:
        family = snapshot.get(name) or {}
        sums[name] = sum(float(s.get("sum", 0.0)) for s in family.get("series", []))
    return sums


def _pooled_pass(outcome, configs, selection, data, recorder=None) -> float:
    return _cold_pass(outcome, configs, selection, data, recorder, n_jobs=MNIST_JOBS)


def _mnist_traced_extra(configs, selection, data, pooled_wall, recorder) -> Dict[str, float]:
    """Serial arm: pool efficiency, engine overhead, the untraced reference."""
    serial_wall = _cold_pass(Outcome("mnist-paper", clock=HostClock(active=False)),
                             configs, selection, data)
    extra = _engine_overhead(configs, selection, data, serial_wall, recorder)
    extra["api.engine.pool_efficiency"] = serial_wall / (MNIST_JOBS * pooled_wall)
    extra["trace.untraced_wall_s"] = serial_wall
    return extra


def run_mnist_paper(args, reference) -> Outcome:
    """Pooled cold batches; the traced pass runs serially, where wrappers see it."""
    names = ("pool_attach_seconds", "dispatch_overhead_seconds")
    before = _registry_sums(names)
    outcome = _cold_workload("mnist-paper", MNIST_PAPER, args, reference, _pooled_pass,
                             traced_pass=_cold_pass, traced_extra=_mnist_traced_extra,
                             trace_share=0.5, repeats=MNIST_SETUP_REPEATS)
    after = _registry_sums(names)
    outcome.scale(outcome.clock.run_factor())
    if args.trace:
        outcome.layer_metrics["api.engine.pool_attach_s"] = (
            after["pool_attach_seconds"] - before["pool_attach_seconds"]
        )
        outcome.layer_metrics["api.engine.dispatch_overhead_s"] = (
            after["dispatch_overhead_seconds"] - before["dispatch_overhead_seconds"]
        )
    return outcome


# --------------------------------------------------------------------- sweep
def sweep_verdict(scalar, frontier) -> dict:
    best = int(scalar.max_certified_n)
    return {
        "status": f"max_n={best}",
        "max_certified_n": best,
        "frontier": [[int(r), int(f)] for r, f in frontier.frontier],
    }


def _outcome_counts(snapshot) -> Dict[str, Tuple[int, float]]:
    """``certify_seconds`` count and sum per outcome (learner runs only)."""
    family = snapshot.get("certify_seconds") or {}
    counts: Dict[str, Tuple[int, float]] = {}
    for series in family.get("series", []):
        status = series.get("labels", {}).get("outcome", "")
        count, seconds = counts.get(status, (0, 0.0))
        counts[status] = (count + int(series.get("count", 0)),
                          seconds + float(series.get("sum", 0.0)))
    return counts


def _sweep_pass(outcome, configs, selection, data, recorder=None) -> float:
    """Budget search then Pareto frontier per point, on a fresh cache."""
    from repro.core import split_plan
    from repro.runtime import CertificationRuntime
    from repro.telemetry import metrics

    (config,) = configs
    entries = selection[config.tag]
    train, test = data[config.dataset]
    split_plan.clear_plans()
    cache_dir = work_dir("sweep-cache-")
    registry = metrics.get_registry()
    counts_before = _outcome_counts(registry.snapshot())
    search = outcome.details.setdefault("search", Counter())
    runtime = None
    try:
        started = time.perf_counter()
        dataset = fresh_copy(train)
        runtime = CertificationRuntime(cache_dir)
        engine = engine_for(config.depth)
        wall = time.perf_counter() - started
        for position, entry in enumerate(entries):
            x = test.X[entry["index"]]
            op_started = time.perf_counter()
            with maybe_span(recorder, "runtime.runtime"):
                scalar = runtime.max_certified(
                    engine, dataset, x, max_budget=SWEEP_MAX_BUDGET
                )
            with maybe_span(recorder, "runtime.runtime"):
                frontier = runtime.pareto_frontier(
                    engine, dataset, x,
                    max_remove=SWEEP_MAX_REMOVE, max_flip=SWEEP_MAX_FLIP,
                )
            got = sweep_verdict(scalar, frontier)
            seconds = time.perf_counter() - op_started
            wall += seconds
            factor = outcome.clock.factor()
            outcome.record(got["status"], seconds, factor, got["max_certified_n"] >= 1)
            outcome.unit(position, seconds * factor)
            outcome.check(entry["key"], got, entry)
            search["probes"] += scalar.attempts + frontier.probes
            search["learner"] += scalar.learner_invocations + frontier.learner_invocations
            search["search_steps"] += scalar.trace_steps
            search["search_reused"] += scalar.trace_reused
            search["frontier_steps"] += frontier.trace_steps
            search["frontier_reused"] += frontier.trace_reused
        stats = runtime.stats_snapshot()
    finally:
        if runtime is not None and runtime.cache is not None:
            runtime.cache.close()
        remove_dir(cache_dir)
    search["answered"] += stats["cache_hits"] + stats["cache_monotone_hits"]
    search["lookups"] += (
        stats["cache_hits"] + stats["cache_monotone_hits"] + stats["cache_misses"]
    )
    # Probe-level exhaustion: learner runs that ended exhausted, and their
    # time, from the engine's own per-outcome latency histogram.
    for status, (count, seconds) in _outcome_counts(registry.snapshot()).items():
        if status in EXHAUSTED_STATUSES:
            base_count, base_seconds = counts_before.get(status, (0, 0.0))
            search["exhausted_probes"] += count - base_count
            search["exhausted_probe_s"] += seconds - base_seconds
    search["learner_runs"] += sum(
        count - counts_before.get(status, (0, 0.0))[0]
        for status, (count, _) in _outcome_counts(registry.snapshot()).items()
    )
    return wall


def sweep_layer_counts(search) -> Dict[str, float]:
    steps = search.get("search_steps", 0) + search.get("frontier_steps", 0)
    reused = search.get("search_reused", 0) + search.get("frontier_reused", 0)
    lookups = search.get("lookups", 0)
    return {
        "verify.search.probes": search.get("probes", 0),
        "runtime.learner_invocations": search.get("learner", 0),
        "runtime.cache.answered_fraction": (
            search.get("answered", 0) / lookups if lookups else 0.0
        ),
        "verify.trace.reuse_fraction": reused / steps if steps else 0.0,
        "verify.trace.search_steps": search.get("search_steps", 0),
        "verify.trace.search_reused": search.get("search_reused", 0),
        "verify.trace.frontier_steps": search.get("frontier_steps", 0),
        "verify.trace.frontier_reused": search.get("frontier_reused", 0),
    }


def run_sweep(args, reference) -> Outcome:
    outcome = _cold_workload("sweep", (SWEEP,), args, reference, _sweep_pass)
    search = outcome.details.get("search", Counter())
    # A sweep operation is a whole search; its exhaustion is per probe.
    outcome.exhausted_seconds = float(search.get("exhausted_probe_s", 0.0))
    if args.trace:
        # Counters of the untraced pass (the traced pass repeats it exactly).
        outcome.layer_metrics.update(sweep_layer_counts(search))
    outcome.details["search"] = dict(search)
    return outcome


RUNNERS = {
    "uci-cold": run_uci_cold,
    "mnist-paper": run_mnist_paper,
    "sweep": run_sweep,
}
