"""The benchmark's ``sweep`` pass still reads real search-result names.

``certbench/workloads.py::_sweep_pass`` and ``sweep_verdict`` read the
results of ``runtime.max_certified`` (``scalar``) and
``runtime.pareto_frontier`` (``frontier``) by attribute on every pass, and
the runtime's stats snapshot by key.  A deleted name would otherwise
surface only in a ``sweep`` run.  The names are read from the module's
source, which is not changed.
"""

import ast
from pathlib import Path

import pytest

from repro.api import CertificationEngine
from repro.datasets.registry import load_dataset
from repro.runtime import CertificationRuntime

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "certbench" / "workloads.py"
READERS = ("_sweep_pass", "sweep_verdict")


def _names_read():
    """``{variable: attributes}`` for ``scalar`` / ``frontier``, and the stats keys."""
    tree = ast.parse(WORKLOADS_PATH.read_text(encoding="utf-8"))
    attributes = {"scalar": set(), "frontier": set()}
    stats_keys = set()
    for function in tree.body:
        if not (isinstance(function, ast.FunctionDef) and function.name in READERS):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in attributes:
                    attributes[node.value.id].add(node.attr)
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "stats"
                and isinstance(node.slice, ast.Constant)
            ):
                stats_keys.add(node.slice.value)
    return attributes, stats_keys


ATTRIBUTES, STATS_KEYS = _names_read()


@pytest.fixture(scope="module")
def searched(tmp_path_factory):
    split = load_dataset("iris", scale=0.3, seed=0)
    x = split.test.X[0]
    runtime = CertificationRuntime(tmp_path_factory.mktemp("sweep-cache"))
    engine = CertificationEngine(max_depth=1)
    try:
        scalar = runtime.max_certified(engine, split.train, x, max_budget=4)
        frontier = runtime.pareto_frontier(
            engine, split.train, x, max_remove=1, max_flip=1
        )
        stats = runtime.stats_snapshot()
    finally:
        runtime.cache.close()
    return {"scalar": scalar, "frontier": frontier}, stats


def test_the_sweep_readers_were_found():
    assert {"max_certified_n", "attempts"} <= ATTRIBUTES["scalar"]
    assert {"frontier", "probes"} <= ATTRIBUTES["frontier"]
    assert STATS_KEYS


@pytest.mark.parametrize(
    "variable, attribute",
    sorted((variable, name) for variable, names in ATTRIBUTES.items() for name in names),
)
def test_search_results_carry_every_name_the_sweep_reads(searched, variable, attribute):
    results, _ = searched
    value = getattr(results[variable], attribute)
    assert isinstance(value, (int, tuple)), (variable, attribute, value)


@pytest.mark.parametrize("key", sorted(STATS_KEYS))
def test_runtime_stats_carry_every_key_the_sweep_reads(searched, key):
    _, stats = searched
    assert isinstance(stats[key], int), (key, stats)
