"""Scenario: auditing a classifier against label-contamination attacks.

The removal model of the paper asks "what if some training rows were planted
by an attacker?".  A complementary worry — common when labels come from
crowdsourcing — is that the *labels* of genuine rows were corrupted.  This
example certifies predictions of the MNIST-1-7-like classifier against

* up to ``n`` planted rows (:class:`repro.RemovalPoisoningModel`),
* up to ``f`` flipped labels (:class:`repro.LabelFlipModel`),
* and the combined threat of ``r`` planted rows plus ``f`` flipped labels
  (:class:`repro.CompositePoisoningModel`).

All three threat models flow through the *same*
``CertificationEngine.verify(request)`` entry point and the same abstract
domain ``⟨T, n, f⟩``: ``⟨T, n, 0⟩`` for removal, ``⟨T, 0, f⟩`` for flips and
``⟨T, r, f⟩`` for the combination.

Run with:  python examples/label_flip_audit.py
"""

from __future__ import annotations

import argparse

from repro import (
    CertificationEngine,
    CertificationRequest,
    CompositePoisoningModel,
    LabelFlipModel,
    RemovalPoisoningModel,
    load_dataset,
)
from repro.utils.tables import TextTable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--digits", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    split = load_dataset("mnist17-binary", scale=args.scale, seed=args.seed)
    print(split.describe())
    print()

    engine = CertificationEngine(
        max_depth=args.depth, domain="either", timeout_seconds=60.0
    )
    digits = split.test.X[: min(args.digits, len(split.test))]

    budgets = (1, 4, 16)
    table = TextTable(
        ["digit", "budget", "removal-robust", "flip-robust", "combined-robust"]
    )
    for budget in budgets:
        # One engine, one entry point, three different threat models.
        removal_report = engine.verify(
            CertificationRequest(split.train, digits, RemovalPoisoningModel(budget))
        )
        flip_report = engine.verify(
            CertificationRequest(
                split.train,
                digits,
                LabelFlipModel(budget, n_classes=split.train.n_classes),
            )
        )
        combined_report = engine.verify(
            CertificationRequest(
                split.train,
                digits,
                CompositePoisoningModel(
                    budget, budget, n_classes=split.train.n_classes
                ),
            )
        )
        for index, (removal, flips, combined) in enumerate(
            zip(removal_report.results, flip_report.results, combined_report.results)
        ):
            table.add_row(
                [
                    index,
                    budget,
                    removal.is_certified,
                    flips.is_certified,
                    combined.is_certified,
                ]
            )
    print(table.render())
    print(
        "\nEvery column is certified on the one ⟨T, n, f⟩ abstract domain; "
        "'combined' tolerates both planted rows and flipped labels "
        "simultaneously."
    )


if __name__ == "__main__":
    main()
