"""Benchmark for the label-flip extension (experiment E12 in DESIGN.md).

The paper's related-work section contrasts its removal model with the
label-contamination model studied elsewhere; this extension benchmark
certifies the same test points against (a) element removal, (b) label flips,
and (c) the combined budget, quantifying how much harder label corruption is
to certify at the same budget.
"""

from repro.api import CertificationEngine, CertificationRequest
from repro.experiments.reporting import save_artifact
from repro.experiments.runner import load_experiment_split, select_test_points
from repro.poisoning.models import (
    CompositePoisoningModel,
    LabelFlipModel,
    RemovalPoisoningModel,
)
from repro.utils.tables import TextTable

from conftest import bench_config


def bench_label_flip_vs_removal(benchmark):
    config = bench_config(depths=(1,), n_test_points=4)
    split = load_experiment_split("mnist17-binary", config)
    test_points = select_test_points(split, config, "mnist17-binary")
    budgets = (1, 4, 16)

    def run():
        # One engine serves all three threat models through the same
        # verify(request) entry point.
        engine = CertificationEngine(
            max_depth=1, domain="box", timeout_seconds=config.timeout_seconds
        )
        n_classes = split.train.n_classes
        rows = []
        for budget in budgets:
            removal = engine.verify(
                CertificationRequest(
                    split.train, test_points, RemovalPoisoningModel(budget)
                )
            ).certified_count
            flips = engine.verify(
                CertificationRequest(
                    split.train,
                    test_points,
                    LabelFlipModel(budget, n_classes=n_classes),
                )
            ).certified_count
            combined = engine.verify(
                CertificationRequest(
                    split.train,
                    test_points,
                    CompositePoisoningModel(budget, budget, n_classes=n_classes),
                )
            ).certified_count
            rows.append((budget, removal, flips, combined))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = TextTable(
        ["budget", "removal certified", "label-flip certified", "combined certified"]
    )
    for budget, removal, flips, combined in rows:
        table.add_row([budget, removal, flips, combined])
    save_artifact(
        "label_flip_extension",
        f"Label-flip extension on mnist17-binary (|T|={len(split.train)}, "
        f"{len(test_points)} test points, depth 1)\n" + table.render(),
    )

    # Certification against the combined budget is never easier than against
    # the flip-only budget handled by the same abstract learner.
    for _, _, flips, combined in rows:
        assert combined <= flips
    # At the smallest budget the flip verifier certifies something on this
    # large, well-separated dataset.
    assert rows[0][2] > 0
