"""Command-line interface for the reproduction.

The CLI exposes the main workflows without writing any Python:

* ``repro-antidote datasets`` — list the benchmark datasets (Table 1 metadata);
* ``repro-antidote verify <dataset> --n 8 --depth 2 --point 0`` — certify one
  test point against ``Δn`` poisoning;
* ``repro-antidote certify <dataset> --model removal --n 4 --points 16
  --n-jobs 4`` — batch-certify test points against a chosen threat model
  (removal, fractional removal, label flips, or the composite removal+flip
  model via ``--model composite --n-remove R --n-flip F``) on the unified
  :class:`repro.api.CertificationEngine`, streaming per-point verdicts and
  printing an aggregate report (optionally exported as JSON/CSV); with
  ``--cache-dir`` the run goes through the persistent certification cache
  and a resumable journal (``--resume`` continues an interrupted batch);
* ``repro-antidote sweep <dataset> --model removal --max-n 64`` — the §6.1
  certified-budget search (doubling + binary search) per test point, for any
  scalar-budget threat model; with ``--model composite --frontier
  --max-remove R --max-flip F`` it computes the per-point **Pareto frontier**
  of maximal certified ``(n_remove, n_flip)`` pairs instead (staircase
  descent over the pair lattice, probes answered through the cache's pair
  dominance when ``--cache-dir`` is given);
* ``repro-antidote cache stats|clear|gc --cache-dir DIR`` — inspect, empty,
  or garbage-collect a certification cache (``gc --max-bytes/--max-age/
  --max-entries`` evicts LRU-first, derivable verdicts before underivable
  ones);
* ``repro-antidote serve SOCKET --cache-dir DIR`` — run the certification
  daemon: one warm runtime (decoded datasets, warm request plans, open
  verdict cache) serving the versioned JSON-lines protocol over a
  Unix-domain socket — or over TCP with ``--tcp HOST:PORT``; point
  ``verify``/``certify``/``sweep`` at it with ``--connect ADDRESS``
  (socket path or ``host:port``) to certify against the warm remote runtime
  instead of a cold local engine;
* ``repro-antidote route --tcp HOST:PORT --backend ADDR ...`` — run the
  fleet router: shards requests across backends by dataset fingerprint
  (consistent hashing), health-checks them, and fails over mid-request
  (:mod:`repro.fleet`);
* ``repro-antidote metrics [--connect SOCKET] [--format prometheus]`` — dump
  the telemetry registry (:mod:`repro.telemetry`) of this process or of a
  running daemon, as a JSON snapshot or Prometheus text exposition;
  ``verify``/``certify``/``sweep`` additionally accept ``--metrics-json PATH``
  (write the local registry after the command) and ``verify``/``certify``
  accept ``--trace`` (enable span tracing on the local engine);
* ``repro-antidote table1`` — regenerate Table 1;
* ``repro-antidote figure6`` — regenerate the Figure 6 series;
* ``repro-antidote figure <dataset>`` — regenerate the dataset's performance
  figure (Figures 7–11);
* ``repro-antidote ablation domains|cprob`` — run the §6.3 / footnote-6
  ablations.

Every command prints the rendered table to stdout and optionally saves it
with ``--save NAME``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.api import CertificationEngine, CertificationReport, CertificationRequest
from repro.datasets.registry import dataset_summaries, list_datasets, load_dataset
from repro.experiments.ablations import (
    compare_cprob_transformers,
    compare_domains,
    render_cprob_ablation,
    render_domain_ablation,
)
from repro.experiments.config import ExperimentConfig, quick_config
from repro.experiments.figure6 import compute_figure6, render_figure6
from repro.experiments.perf_figures import (
    compute_performance_figure,
    render_performance_figure,
)
from repro.experiments.reporting import save_artifact
from repro.experiments.table1 import compute_table1, render_table1
from repro.poisoning.models import (
    CompositePoisoningModel,
    FractionalRemovalModel,
    LabelFlipModel,
    PerturbationModel,
    RemovalPoisoningModel,
)
from repro.runtime import CertificationCache, CertificationRuntime
from repro.service.protocol import metrics_payload
from repro.telemetry import events as telemetry_events
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import tracing
from repro.utils.tables import TextTable
from repro.utils.timing import Stopwatch


def _positive_seconds(text: str) -> float:
    """A per-point ``--timeout``: the engine takes only positive budgets."""
    seconds = float(text)
    if not seconds > 0:
        raise argparse.ArgumentTypeError(f"must be positive seconds, got {text}")
    return seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-antidote",
        description="Certify data-poisoning robustness of decision-tree learners "
        "(reproduction of Drews, Albarghouthi, D'Antoni, PLDI 2020).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the benchmark datasets")

    verify = subparsers.add_parser("verify", help="certify one test point")
    verify.add_argument("dataset", choices=list_datasets())
    verify.add_argument("--n", type=int, default=1, help="poisoning budget")
    verify.add_argument("--depth", type=int, default=2, help="decision-tree depth")
    verify.add_argument("--domain", choices=("box", "disjuncts", "either"), default="either")
    verify.add_argument("--point", type=int, default=0, help="test-set index to certify")
    verify.add_argument("--scale", type=float, default=None, help="dataset scale (1.0 = paper size)")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--timeout", type=_positive_seconds, default=60.0)
    verify.add_argument("--connect", default=None, metavar="ADDRESS",
                        help="certify through a running `repro-antidote serve` "
                        "daemon or `route` router instead of a local engine "
                        "(a Unix socket path or host:port)")
    verify.add_argument("--trace", action="store_true",
                        help="enable span tracing and print the wall-time "
                        "trace tree (local engine only)")
    verify.add_argument("--metrics-json", default=None, metavar="PATH",
                        help="write this process's telemetry snapshot as JSON "
                        "after the command")
    verify.add_argument("--log-json", default=None, metavar="PATH",
                        help="append request-correlated JSONL events to PATH "
                        "(also enabled by REPRO_LOG_JSON)")

    certify = subparsers.add_parser(
        "certify", help="batch-certify test points against a threat model"
    )
    certify.add_argument("dataset", choices=list_datasets())
    certify.add_argument(
        "--model",
        choices=("removal", "fraction", "label-flip", "composite"),
        default="removal",
        help="threat model: element removal (Δn), fractional removal, label "
        "flips, or combined removal+flip (Δ_{r,f})",
    )
    certify.add_argument("--n", type=int, default=1,
                         help="budget for the removal / label-flip models")
    certify.add_argument("--fraction", type=float, default=0.01,
                         help="budget for the fractional-removal model")
    certify.add_argument("--n-remove", type=int, default=1, metavar="R",
                         help="removal budget of the composite model")
    certify.add_argument("--n-flip", type=int, default=1, metavar="F",
                         help="label-flip budget of the composite model")
    certify.add_argument("--points", type=int, default=8,
                         help="number of test points to certify (from index 0)")
    certify.add_argument("--depth", type=int, default=2, help="decision-tree depth")
    certify.add_argument("--domain", choices=("box", "disjuncts", "either"), default="either")
    certify.add_argument("--n-jobs", type=int, default=1,
                         help="most worker processes for the batch (1 = serial; "
                         "a pool starts only when the first points show it pays)")
    certify.add_argument("--scale", type=float, default=None,
                         help="dataset scale (1.0 = paper size)")
    certify.add_argument("--seed", type=int, default=0)
    certify.add_argument("--timeout", type=_positive_seconds, default=60.0)
    certify.add_argument("--json", default=None, metavar="PATH",
                         help="also write the full report as JSON")
    certify.add_argument("--csv", default=None, metavar="PATH",
                         help="also write per-point results as CSV")
    certify.add_argument("--quiet", action="store_true",
                         help="suppress the per-point streaming lines")
    certify.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent certification cache + run journal directory")
    certify.add_argument("--resume", action="store_true",
                         help="continue an interrupted run from its journal "
                         "(requires --cache-dir)")
    certify.add_argument("--max-new-points", type=int, default=None, metavar="N",
                         help="stop after N uncached points (exit code 3; rerun "
                         "with --resume to continue)")
    certify.add_argument("--connect", default=None, metavar="ADDRESS",
                         help="certify through a running `repro-antidote serve` "
                         "daemon or `route` router — a Unix socket path or "
                         "host:port (the server owns cache and parallelism; "
                         "incompatible with --cache-dir/--resume/"
                         "--max-new-points)")
    certify.add_argument("--trace", action="store_true",
                         help="enable span tracing; the report's runtime_stats "
                         "carries the wall-time trace tree (local engine only)")
    certify.add_argument("--metrics-json", default=None, metavar="PATH",
                         help="write this process's telemetry snapshot as JSON "
                         "after the command")
    certify.add_argument("--log-json", default=None, metavar="PATH",
                         help="append request-correlated JSONL events to PATH "
                         "(also enabled by REPRO_LOG_JSON)")

    sweep = subparsers.add_parser(
        "sweep",
        help="search the largest certified budget per point (§6.1), or the "
        "composite (r, f) Pareto frontier",
    )
    sweep.add_argument("dataset", choices=list_datasets())
    sweep.add_argument(
        "--model",
        choices=("removal", "fraction", "label-flip", "composite"),
        default="removal",
        help="threat-model family to sweep; composite requires --frontier",
    )
    sweep.add_argument("--start", type=int, default=1,
                       help="first budget probed by the doubling phase")
    sweep.add_argument("--max-n", type=int, default=None, metavar="N",
                       help="cap of the scalar budget search (default: |T|)")
    sweep.add_argument("--frontier", action="store_true",
                       help="compute the set of maximal certified "
                       "(n_remove, n_flip) pairs per point (composite model only)")
    sweep.add_argument("--max-remove", type=int, default=None, metavar="R",
                       help="removal-budget cap of the frontier grid (default: |T|)")
    sweep.add_argument("--max-flip", type=int, default=None, metavar="F",
                       help="flip-budget cap of the frontier grid (default: |T|)")
    sweep.add_argument("--points", type=int, default=8,
                       help="number of test points to sweep (from index 0)")
    sweep.add_argument("--depth", type=int, default=2, help="decision-tree depth")
    sweep.add_argument("--domain", choices=("box", "disjuncts", "either"), default="either")
    sweep.add_argument("--n-jobs", type=int, default=1,
                       help="worker processes for cache-less frontier sweeps "
                       "(adaptive scalar searches and cached sweeps run serially)")
    sweep.add_argument("--scale", type=float, default=None,
                       help="dataset scale (1.0 = paper size)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--timeout", type=_positive_seconds, default=60.0)
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent certification cache the probes flow "
                       "through (repeat sweeps derive from prior verdicts)")
    sweep.add_argument("--json", default=None, metavar="PATH",
                       help="also write the sweep outcome as JSON")
    sweep.add_argument("--csv", default=None, metavar="PATH",
                       help="also write the per-point outcome rows as CSV")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress the per-point lines")
    sweep.add_argument("--connect", default=None, metavar="ADDRESS",
                       help="probe through a running `repro-antidote serve` "
                       "daemon (its cache answers repeat probes; "
                       "incompatible with --cache-dir)")
    sweep.add_argument("--metrics-json", default=None, metavar="PATH",
                       help="write this process's telemetry snapshot as JSON "
                       "after the command")
    sweep.add_argument("--log-json", default=None, metavar="PATH",
                       help="append request-correlated JSONL events to PATH "
                       "(also enabled by REPRO_LOG_JSON)")

    metrics_cmd = subparsers.add_parser(
        "metrics",
        help="dump a telemetry registry (this process's, or a daemon's via "
        "--connect)",
    )
    metrics_cmd.add_argument("--connect", default=None, metavar="ADDRESS",
                             help="fetch the registry of a running "
                             "`repro-antidote serve` daemon through the "
                             "versioned `metrics` op (default: the — mostly "
                             "empty — local process registry)")
    metrics_cmd.add_argument("--format", choices=("json", "prometheus"),
                             default="json",
                             help="json snapshot (default) or Prometheus text "
                             "exposition")
    metrics_cmd.add_argument("--json", default=None, metavar="PATH",
                             help="also write the output to PATH")

    top = subparsers.add_parser(
        "top",
        help="live terminal dashboard over a telemetry registry (this "
        "process's, or a daemon's via --connect)",
    )
    top.add_argument("--connect", default=None, metavar="ADDRESS",
                     help="watch a running `repro-antidote serve` daemon "
                     "through the versioned `metrics` op")
    top.add_argument("--interval", type=float, default=2.0, metavar="SECONDS",
                     help="refresh period (default: 2s)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="stop after N refreshes (default 0: run until "
                     "Ctrl-C)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen "
                     "(for logs and tests)")

    trace_cmd = subparsers.add_parser(
        "trace",
        help="fetch and render the stored span tree of one request id",
    )
    trace_cmd.add_argument("request_id", metavar="REQUEST_ID",
                           help="correlation id printed by the issuing "
                           "command ('[request id ...]' on stderr)")
    trace_cmd.add_argument("--connect", default=None, metavar="ADDRESS",
                           help="query a running `repro-antidote serve` "
                           "daemon (it must run with --trace); default: "
                           "this process's completed-roots ring")

    cache = subparsers.add_parser(
        "cache", help="inspect, clear, or garbage-collect a certification cache"
    )
    cache.add_argument("action", choices=("stats", "clear", "gc"))
    cache.add_argument("--cache-dir", required=True, metavar="DIR")
    cache.add_argument("--max-bytes", type=int, default=None, metavar="BYTES",
                       help="gc: evict LRU verdicts (derivable first) until "
                       "the database is at most this many bytes")
    cache.add_argument("--max-age", type=float, default=None, metavar="SECONDS",
                       help="gc: evict verdicts not used within the last "
                       "SECONDS seconds")
    cache.add_argument("--max-entries", type=int, default=None, metavar="N",
                       help="gc: keep at most N verdicts (derivable evicted "
                       "first, then least recently used)")

    serve = subparsers.add_parser(
        "serve", help="run the certification daemon (Unix socket or TCP)"
    )
    serve.add_argument("socket", metavar="SOCKET", nargs="?", default=None,
                       help="filesystem path of the Unix-domain socket to bind "
                       "(omit when using --tcp)")
    serve.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="bind a TCP listener instead of a Unix socket "
                       "(fleet mode: reachable by `repro-antidote route` "
                       "backends on other hosts)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent verdict cache served to every client "
                       "(default: an ephemeral cache living as long as the "
                       "server)")
    serve.add_argument("--max-engines", type=int, default=8, metavar="N",
                       help="how many engine configurations to keep warm")
    serve.add_argument("--trace", action="store_true",
                       help="enable span tracing server-wide so `repro trace "
                       "REQUEST_ID --connect` can fetch stored request traces")
    serve.add_argument("--log-json", default=None, metavar="PATH",
                       help="append request-correlated JSONL events to PATH "
                       "(also enabled by REPRO_LOG_JSON)")

    route = subparsers.add_parser(
        "route",
        help="run the fleet router: shard certification requests across "
        "`repro-antidote serve` backends by dataset fingerprint",
    )
    route.add_argument("socket", metavar="SOCKET", nargs="?", default=None,
                       help="Unix-domain socket to listen on (omit when "
                       "using --tcp)")
    route.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="TCP address to listen on")
    route.add_argument("--backend", action="append", default=None,
                       metavar="ADDRESS", dest="backends",
                       help="backend server address (host:port or Unix "
                       "socket path); repeat once per backend",)
    route.add_argument("--health-interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="seconds between backend health probes")
    route.add_argument("--request-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request timeout on backend calls (a backend "
                       "that stops answering triggers failover instead of "
                       "hanging the client)")
    route.add_argument("--log-json", default=None, metavar="PATH",
                       help="append request-correlated JSONL events to PATH "
                       "(also enabled by REPRO_LOG_JSON)")

    table1 = subparsers.add_parser("table1", help="regenerate Table 1")
    _add_experiment_arguments(table1)

    figure6 = subparsers.add_parser("figure6", help="regenerate Figure 6")
    _add_experiment_arguments(figure6)
    figure6.add_argument("--datasets", nargs="*", default=None, choices=list_datasets())

    figure = subparsers.add_parser("figure", help="regenerate a performance figure (Figures 7-11)")
    figure.add_argument("dataset", choices=list_datasets())
    _add_experiment_arguments(figure)

    ablation = subparsers.add_parser("ablation", help="run an ablation study")
    ablation.add_argument("kind", choices=("domains", "cprob"))
    ablation.add_argument("--dataset", default="mnist17-binary", choices=list_datasets())
    _add_experiment_arguments(ablation)

    analyze = subparsers.add_parser(
        "analyze",
        help="run the project-invariant static analysis (repro.analysis)",
    )
    analyze.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    analyze.add_argument(
        "--rule", action="append", default=None, metavar="NAME",
        help="run only this rule (repeatable; default: all rules)",
    )
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline JSON of grandfathered findings "
        "(default: analysis_baseline.json when it exists)",
    )
    analyze.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline file to cover every current finding",
    )
    analyze.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )

    return parser


def _add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="use the reduced-scale benchmark configuration")
    parser.add_argument("--save", default=None, metavar="NAME",
                        help="also save the rendered output under benchmarks/results/NAME.txt")


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "quick", False):
        return quick_config(seed=args.seed)
    return ExperimentConfig(seed=args.seed)


def _emit(text: str, args: argparse.Namespace) -> None:
    print(text)
    save_name = getattr(args, "save", None)
    if save_name:
        path = save_artifact(save_name, text)
        print(f"\n[saved to {path}]", file=sys.stderr)


def _command_datasets(args: argparse.Namespace) -> int:
    table = TextTable(
        ["name", "paper train", "paper test", "features", "type", "classes", "default scale"]
    )
    for row in dataset_summaries():
        table.add_row(
            [
                row["name"],
                row["paper_train_size"],
                row["paper_test_size"],
                row["n_features"],
                row["feature_type"],
                row["n_classes"],
                row["default_scale"],
            ]
        )
    _emit(table.render(), args)
    return 0


def _dataset_ref(args: argparse.Namespace) -> dict:
    """The registry reference `--connect` requests send instead of arrays."""
    return {"name": args.dataset, "scale": args.scale, "seed": args.seed}


def _connect_client(args: argparse.Namespace):
    """A service client configured like the local engine the command builds."""
    from repro.service import CertificationClient

    return CertificationClient(
        args.connect,
        max_depth=args.depth,
        domain=args.domain,
        timeout_seconds=args.timeout,
    )


def _command_verify(args: argparse.Namespace) -> int:
    split = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if not 0 <= args.point < len(split.test):
        print(
            f"error: --point must be in [0, {len(split.test)}) for this dataset",
            file=sys.stderr,
        )
        return 2
    if args.connect:
        with _connect_client(args) as client:
            result = client.certify_point(
                _dataset_ref(args), split.test.X[args.point], args.n
            )
    else:
        engine = CertificationEngine(
            max_depth=args.depth, domain=args.domain, timeout_seconds=args.timeout
        )
        with tracing.span("cli.verify") as trace_root:
            result = engine.certify_point(
                split.train, split.test.X[args.point], args.n
            )
        if trace_root is not None:
            print(trace_root.render(), file=sys.stderr)
    print(split.describe())
    print(f"test point #{args.point}: {result.describe()}")
    if result.is_certified:
        print(
            f"certified: no attacker contributing up to {args.n} of the "
            f"{len(split.train)} training elements can change this prediction "
            f"(~10^{result.log10_num_datasets:.0f} poisoned training sets covered)."
        )
    return 0 if result.is_certified else 1


def _threat_model(args: argparse.Namespace, n_classes: int) -> PerturbationModel:
    # Flip-family models leave n_classes unset: the engine resolves it from
    # the dataset at request time (and would reject a mismatch).
    del n_classes
    if args.model == "removal":
        return RemovalPoisoningModel(args.n)
    if args.model == "fraction":
        return FractionalRemovalModel(args.fraction)
    if args.model == "composite":
        return CompositePoisoningModel(args.n_remove, args.n_flip)
    return LabelFlipModel(args.n)


def _command_certify(args: argparse.Namespace) -> int:
    split = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    count = max(0, min(args.points, len(split.test)))
    try:
        model = _threat_model(args, split.train.n_classes)
    except ValueError as error:
        print(f"error: invalid threat-model budget: {error}", file=sys.stderr)
        return 2
    if args.cache_dir is None and (args.resume or args.max_new_points is not None):
        # Without a journal there is nothing to resume and an interrupted run
        # could never make progress — refuse rather than loop forever.
        print(
            "error: --resume and --max-new-points require --cache-dir",
            file=sys.stderr,
        )
        return 2
    if args.connect:
        if args.cache_dir is not None:
            # The server owns its cache; a client cannot re-point it.
            print(
                "error: --connect is incompatible with --cache-dir "
                "(the server owns the runtime)",
                file=sys.stderr,
            )
            return 2
        return _certify_connected(args, split, count, model)
    engine = CertificationEngine(
        max_depth=args.depth,
        domain=args.domain,
        timeout_seconds=args.timeout,
        runtime=CertificationRuntime(
            args.cache_dir,
            resume=args.resume,
            max_new_points=args.max_new_points,
        ),
    )
    request = CertificationRequest(split.train, split.test.X[:count], model)
    print(split.describe())
    print(request.describe())

    watch = Stopwatch().start()
    results = []
    with tracing.span("cli.certify") as trace_root:
        for index, result in enumerate(
            engine.certify_stream(request, n_jobs=args.n_jobs)
        ):
            results.append(result)
            if not args.quiet:
                print(f"  point {index:3d}: {result.describe()}")
    batch_stats = engine.runtime.last_batch_stats
    runtime_stats = None if batch_stats is None else batch_stats.snapshot()
    if trace_root is not None:
        runtime_stats = dict(runtime_stats or {})
        runtime_stats["trace"] = trace_root.to_dict()
    report = CertificationReport(
        results=results,
        model_description=model.describe(),
        dataset_name=split.train.name,
        total_seconds=watch.elapsed(),
        runtime_stats=runtime_stats,
    )
    print()
    print(report.render())
    print(report.describe())
    if args.json:
        Path(args.json).write_text(report.to_json(indent=2), encoding="utf-8")
        print(f"[report JSON written to {args.json}]", file=sys.stderr)
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
        print(f"[per-point CSV written to {args.csv}]", file=sys.stderr)
    if batch_stats is not None and batch_stats.truncated_at is not None:
        print(
            f"interrupted after {batch_stats.learner_invocations} new point(s) "
            f"({len(results)}/{count} done); rerun with --resume to continue",
            file=sys.stderr,
        )
        return 3
    return 0


def _certify_connected(args, split, count, model) -> int:
    """The `certify --connect` path: one warm-runtime round trip per batch."""
    request_points = split.test.X[:count]
    print(split.describe())
    print(
        f"certify {len(request_points)} point(s) of {split.train.name!r} "
        f"(|T|={len(split.train)}) against {model.describe()} "
        f"via {args.connect}"
    )
    with _connect_client(args) as client:
        report = client.certify_batch(
            _dataset_ref(args), request_points, model, n_jobs=args.n_jobs
        )
    if not args.quiet:
        for index, result in enumerate(report.results):
            print(f"  point {index:3d}: {result.describe()}")
    print()
    print(report.render())
    print(report.describe())
    if args.json:
        Path(args.json).write_text(report.to_json(indent=2), encoding="utf-8")
        print(f"[report JSON written to {args.json}]", file=sys.stderr)
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
        print(f"[per-point CSV written to {args.csv}]", file=sys.stderr)
    return 0


def _sweep_template(args: argparse.Namespace) -> Optional[PerturbationModel]:
    """The family template a ``sweep`` run rebinds budgets on.

    ``None`` selects the paper's ``Δn`` (the default of the search layer);
    fractional removal denotes the same family once resolved, so it sweeps
    over explicit element counts too.
    """
    if args.model == "label-flip":
        return LabelFlipModel(0)
    if args.model == "composite":
        return CompositePoisoningModel(0, 0)
    return None


def _command_sweep(args: argparse.Namespace) -> int:
    if args.frontier and args.model != "composite":
        print(
            "error: --frontier sweeps the (n_remove, n_flip) pair lattice and "
            "requires --model composite",
            file=sys.stderr,
        )
        return 2
    if args.model == "composite" and not args.frontier:
        print(
            "error: the composite model has no scalar budget to search; "
            "pass --frontier for the (n_remove, n_flip) Pareto frontier",
            file=sys.stderr,
        )
        return 2
    if args.connect and args.cache_dir is not None:
        print(
            "error: --connect is incompatible with --cache-dir (probes flow "
            "through the server's cache)",
            file=sys.stderr,
        )
        return 2
    split = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    count = max(0, min(args.points, len(split.test)))
    points = split.test.X[:count]
    template = _sweep_template(args)
    client = None
    engine = None
    if args.connect:
        client = _connect_client(args)
    else:
        engine = CertificationEngine(
            max_depth=args.depth,
            domain=args.domain,
            timeout_seconds=args.timeout,
            runtime=CertificationRuntime(args.cache_dir),
        )
    print(split.describe())

    watch = Stopwatch().start()
    try:
        if args.frontier:
            exit_code = _run_frontier_sweep(
                args, split, points, template, engine, watch, client
            )
        else:
            exit_code = _run_scalar_sweep(
                args, split, points, template, engine, watch, client
            )
    finally:
        if client is not None:
            client.close()
    return exit_code


def _run_scalar_sweep(
    args, split, points, template, engine, watch, client=None
) -> int:
    """The §6.1 protocol per point: doubling + binary search over one budget."""
    family = (
        "removal" if args.model in ("removal", "fraction") else args.model
    )
    print(
        f"searching the largest certified {family} budget for {len(points)} "
        f"point(s) of {split.train.name!r} (|T|={len(split.train)}, "
        f"max budget {args.max_n if args.max_n is not None else len(split.train)})"
    )
    if args.n_jobs > 1:
        print(
            "note: the scalar budget search probes adaptively and runs "
            "serially; --n-jobs ignored",
            file=sys.stderr,
        )
    # A client or an engine (whose runtime's cache, with --cache-dir, then
    # answers the probes): every path returns the same search result.
    searcher, dataset = (
        (client, _dataset_ref(args)) if client is not None else (engine, split.train)
    )
    outcomes = []
    for index, x in enumerate(points):
        outcome = searcher.max_certified(
            dataset, x, model=template, start=args.start, max_budget=args.max_n
        )
        row = {"index": index, **outcome.to_dict()}
        outcomes.append(row)
        if not args.quiet:
            print(
                f"  point {index:3d}: max certified budget "
                f"{row['max_certified_n']} ({row['attempts']} probe(s))"
            )
    total_seconds = watch.elapsed()

    certified = [row for row in outcomes if row["max_certified_n"] > 0]
    table = TextTable(["metric", "value"])
    table.add_row(["dataset", split.train.name])
    table.add_row(["family", family])
    table.add_row(["points", len(outcomes)])
    table.add_row(["ever certified", len(certified)])
    if outcomes:
        budgets = [row["max_certified_n"] for row in outcomes]
        table.add_row(["mean max budget", f"{sum(budgets) / len(budgets):.2f}"])
        table.add_row(["largest max budget", max(budgets)])
    table.add_row(["total probes", sum(row["attempts"] for row in outcomes)])
    table.add_row(
        ["learner invocations", sum(row["learner_invocations"] for row in outcomes)]
    )
    table.add_row(["wall-clock (s)", f"{total_seconds:.3f}"])
    print()
    print(table.render())

    stats = None
    if args.cache_dir is not None:
        stats = engine.runtime.stats_snapshot()
    if args.json:
        payload = {
            "dataset_name": split.train.name,
            "family": family,
            "start": args.start,
            "max_budget": args.max_n,
            "outcomes": outcomes,
            "total_seconds": total_seconds,
        }
        if stats is not None:
            payload["runtime_stats"] = stats
        Path(args.json).write_text(
            json.dumps(payload, indent=2), encoding="utf-8"
        )
        print(f"[sweep JSON written to {args.json}]", file=sys.stderr)
    if args.csv:
        lines = ["index,max_certified_n,attempts"]
        lines += [
            f"{row['index']},{row['max_certified_n']},{row['attempts']}"
            for row in outcomes
        ]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"[per-point CSV written to {args.csv}]", file=sys.stderr)
    return 0


def _run_frontier_sweep(
    args, split, points, template, engine, watch, client=None
) -> int:
    """Composite (r, f) Pareto frontiers per point (staircase descent)."""
    size = len(split.train)
    max_remove = size if args.max_remove is None else min(args.max_remove, size)
    max_flip = size if args.max_flip is None else min(args.max_flip, size)
    description = (
        f"composite (r, f) Pareto frontier over "
        f"[0, {max_remove}] × [0, {max_flip}]"
    )
    print(
        f"computing {description} for {len(points)} point(s) of "
        f"{split.train.name!r} (|T|={size})"
    )
    if client is not None:
        outcomes = client.pareto_sweep(
            _dataset_ref(args), points,
            max_remove=max_remove, max_flip=max_flip, model=template,
        )
    else:
        cached = args.cache_dir is not None
        if cached and args.n_jobs > 1:
            print(
                "note: cached frontier sweeps run serially so every probe "
                "shares the verdict cache; --n-jobs ignored",
                file=sys.stderr,
            )
        outcomes = engine.pareto_sweep(
            split.train, points,
            max_remove=max_remove, max_flip=max_flip, model=template,
            n_jobs=1 if cached else args.n_jobs,
        )
    frontiers = [outcome.to_dict() for outcome in outcomes]
    total_seconds = watch.elapsed()

    if not args.quiet:
        for index, entry in enumerate(frontiers):
            pairs = ", ".join(f"({r}, {f})" for r, f in entry["frontier"])
            print(
                f"  point {index:3d}: frontier [{pairs or 'uncertified'}] "
                f"({entry['probes']} probe(s))"
            )

    stats = None
    if args.cache_dir is not None:
        stats = engine.runtime.stats_snapshot()
    report = CertificationReport(
        results=[],
        model_description=description,
        dataset_name=split.train.name,
        total_seconds=total_seconds,
        runtime_stats=stats,
        frontiers=frontiers,
    )
    certified = sum(1 for entry in frontiers if entry["frontier"])
    table = TextTable(["metric", "value"])
    table.add_row(["dataset", split.train.name])
    table.add_row(["frontier grid", f"[0, {max_remove}] × [0, {max_flip}]"])
    table.add_row(["points", len(frontiers)])
    table.add_row(["ever certified", certified])
    table.add_row(
        ["total frontier pairs", sum(len(entry["frontier"]) for entry in frontiers)]
    )
    table.add_row(["total probes", sum(entry["probes"] for entry in frontiers)])
    table.add_row(
        ["learner invocations",
         sum(entry["learner_invocations"] for entry in frontiers)]
    )
    table.add_row(["wall-clock (s)", f"{total_seconds:.3f}"])
    print()
    print(table.render())

    if args.json:
        Path(args.json).write_text(report.to_json(indent=2), encoding="utf-8")
        print(f"[frontier JSON written to {args.json}]", file=sys.stderr)
    if args.csv:
        Path(args.csv).write_text(report.frontier_csv(), encoding="utf-8")
        print(f"[frontier CSV written to {args.csv}]", file=sys.stderr)
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    cache_dir = Path(args.cache_dir).expanduser()
    if not (cache_dir / CertificationCache.DB_NAME).is_file():
        # Inspection commands must not fabricate a database: a typo'd path
        # would silently report an empty cache instead of the mistake.
        print(f"error: no certification cache at {cache_dir}", file=sys.stderr)
        return 2
    cache = CertificationCache(cache_dir)
    try:
        return _run_cache_action(cache, args)
    finally:
        # A dangling connection (with whatever transaction state the last
        # statement auto-began) would lock out other processes' VACUUMs.
        cache.close()


def _run_cache_action(cache: CertificationCache, args: argparse.Namespace) -> int:
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached verdict(s) from {cache.db_path}")
        return 0
    if args.action == "gc":
        if args.max_bytes is None and args.max_age is None and args.max_entries is None:
            print(
                "error: cache gc needs at least one bound "
                "(--max-bytes, --max-age, or --max-entries)",
                file=sys.stderr,
            )
            return 2
        summary = cache.gc(
            max_bytes=args.max_bytes,
            max_age=args.max_age,
            max_entries=args.max_entries,
        )
        print(
            f"evicted {summary['evicted']} verdict(s) from {cache.db_path} "
            f"({summary['remaining']} remaining, "
            f"{summary['size_bytes_before']} -> {summary['size_bytes_after']} bytes)"
        )
        return 0
    stats = cache.stats()
    table = TextTable(["metric", "value"])
    table.add_row(["path", stats["path"]])
    table.add_row(["verdicts", stats["verdicts"]])
    for status, count in sorted(stats["by_status"].items()):
        table.add_row([f"status: {status}", count])
    table.add_row(["datasets", stats["datasets"]])
    table.add_row(["size (bytes)", stats["size_bytes"]])
    print(table.render())
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import CertificationServer

    if (args.socket is None) == (args.tcp is None):
        print("error: pass exactly one of SOCKET or --tcp HOST:PORT",
              file=sys.stderr)
        return 2
    server = CertificationServer(
        args.socket,
        tcp=args.tcp,
        cache_dir=args.cache_dir,
        max_engines=args.max_engines,
    )
    cache = "ephemeral" if args.cache_dir is None else args.cache_dir
    print(f"serving certifications on {server.address} (cache: {cache})")
    print("press Ctrl-C or send SIGTERM to stop")
    server.serve_forever()
    print("server stopped")
    return 0


def _command_route(args: argparse.Namespace) -> int:
    from repro.fleet import CertificationRouter

    if (args.socket is None) == (args.tcp is None):
        print("error: pass exactly one of SOCKET or --tcp HOST:PORT",
              file=sys.stderr)
        return 2
    if not args.backends:
        print("error: pass at least one --backend ADDRESS", file=sys.stderr)
        return 2
    router = CertificationRouter(
        args.backends,
        tcp=args.tcp,
        socket_path=args.socket,
        health_interval=args.health_interval,
        request_timeout=args.request_timeout,
    )
    print(
        f"routing certifications on {router.address} across "
        f"{len(args.backends)} backend(s): {', '.join(args.backends)}"
    )
    print("press Ctrl-C or send SIGTERM to stop")
    router.serve_forever()
    print("router stopped")
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    if args.connect:
        from repro.service import CertificationClient

        with CertificationClient(args.connect) as client:
            payload = client.metrics(format=args.format)
    else:
        payload = metrics_payload(args.format)
    if args.format == "prometheus":
        text = str(payload.get("prometheus", ""))
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")
        print(f"[metrics written to {args.json}]", file=sys.stderr)
    return 0


def _command_top(args: argparse.Namespace) -> int:
    """The refreshing dashboard loop: snapshot, render, clear, repeat."""
    from repro.telemetry import dashboard

    client = None
    if args.connect:
        from repro.service import CertificationClient

        client = CertificationClient(args.connect)
        source = f"daemon at {args.connect}"
    else:
        source = f"local process {os.getpid()}"
    previous = None
    refreshes = 0
    try:
        while True:
            if client is not None:
                snapshot = client.metrics()["metrics"]
            else:
                snapshot = telemetry_metrics.get_registry().snapshot()
            frame = dashboard.render_dashboard(
                snapshot,
                previous,
                interval=args.interval if previous is not None else None,
                source=source,
            )
            if not args.no_clear:
                # ANSI clear-screen + home; the frame repaints in place.
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            previous = snapshot
            refreshes += 1
            if args.iterations and refreshes >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    finally:
        if client is not None:
            client.close()


def _command_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import dashboard

    if args.connect:
        from repro.service import CertificationClient
        from repro.service.protocol import RemoteError

        try:
            with CertificationClient(args.connect) as client:
                payload = client.trace(args.request_id)
        except RemoteError as error:
            print(f"error: {error.message}", file=sys.stderr)
            return 2
        print(dashboard.render_trace(payload["trace"]))
        return 0
    root = tracing.find_root_by_request(args.request_id)
    if root is None:
        print(
            f"error: no stored trace for request id {args.request_id!r} in "
            "this process; pass --connect SOCKET to query a daemon running "
            "with --trace",
            file=sys.stderr,
        )
        return 2
    print(root.render())
    return 0


def _command_table1(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    rows = compute_table1(config)
    _emit(render_table1(rows), args)
    return 0


def _command_figure6(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    series = compute_figure6(config, datasets=args.datasets)
    _emit(render_figure6(series), args)
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    points = compute_performance_figure(args.dataset, config)
    _emit(render_performance_figure(points), args)
    return 0


def _command_ablation(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    if args.kind == "domains":
        _emit(render_domain_ablation(compare_domains(args.dataset, config)), args)
    else:
        _emit(render_cprob_ablation(compare_cprob_transformers(args.dataset, config)), args)
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    # Deferred import: the analyzer is pure stdlib but pulls in every rule
    # module, which no other command needs.
    from repro.analysis import (
        all_rules,
        load_baseline,
        run_analysis,
        write_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name}: {rule.description}")
        return 0

    try:
        rules = all_rules(args.rule)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    root = Path.cwd()
    baseline_path = args.baseline
    if baseline_path is None and (root / "analysis_baseline.json").is_file():
        baseline_path = str(root / "analysis_baseline.json")
    baseline = {}
    if baseline_path is not None and not args.write_baseline:
        try:
            baseline = load_baseline(Path(baseline_path))
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot load baseline {baseline_path}: {error}", file=sys.stderr)
            return 2

    report = run_analysis(root, paths=args.paths, rules=rules, baseline=baseline)

    if args.write_baseline:
        target = Path(baseline_path or "analysis_baseline.json")
        write_baseline(target, report.findings)
        print(f"wrote {len(report.findings)} finding(s) to {target}")
        return 0

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.new_findings:
            print(f"{finding.location()}: [{finding.rule}] {finding.message}")
            if finding.hint:
                print(f"    hint: {finding.hint}")
        summary = (
            f"{len(report.new_findings)} finding(s), "
            f"{len(report.baselined)} baselined, "
            f"{report.suppressed_count} suppressed"
        )
        if report.stale_baseline:
            summary += f", {len(report.stale_baseline)} stale baseline entr(y/ies)"
        print(summary)
        for stale in report.stale_baseline:
            print(f"    stale baseline fingerprint: {stale}", file=sys.stderr)
    return 0 if report.ok else 1


_COMMANDS = {
    "datasets": _command_datasets,
    "verify": _command_verify,
    "certify": _command_certify,
    "sweep": _command_sweep,
    "cache": _command_cache,
    "serve": _command_serve,
    "route": _command_route,
    "metrics": _command_metrics,
    "top": _command_top,
    "trace": _command_trace,
    "table1": _command_table1,
    "figure6": _command_figure6,
    "figure": _command_figure,
    "ablation": _command_ablation,
    "analyze": _command_analyze,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if getattr(args, "trace", False) and args.command != "trace":
        tracing.enable_spans(True)
    log_json = getattr(args, "log_json", None)
    if log_json:
        telemetry_events.configure(log_json)
    # Every invocation mints one correlation id: it stamps this process's
    # events and root spans, travels to a daemon in request frames, and
    # reaches pool workers inside task payloads.  Printed when the event log
    # is active so scripts can grep the log for this exact run.
    request_id = telemetry_events.new_request_id()
    with telemetry_events.bind_request(request_id):
        if telemetry_events.configured_path():
            print(f"[request id {request_id}]", file=sys.stderr)
        telemetry_events.emit("cli.command", command=args.command)
        started = time.perf_counter()
        code = _COMMANDS[args.command](args)
        telemetry_events.emit(
            "cli.exit",
            command=args.command,
            seconds=time.perf_counter() - started,
            code=code,
        )
    metrics_path = getattr(args, "metrics_json", None)
    if metrics_path:
        Path(metrics_path).write_text(
            telemetry_metrics.get_registry().snapshot_json(indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"[telemetry snapshot written to {metrics_path}]", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
