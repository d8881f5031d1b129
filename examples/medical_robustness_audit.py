"""Domain scenario: auditing a medical classifier for data-poisoning robustness.

The paper motivates poisoning robustness with settings where training data is
curated from sources an attacker can influence.  Medical decision support is
a natural example: if a hospital's tumour-classification training data could
contain a handful of adversarial records, which individual diagnoses can we
still trust?

This example audits the Wisconsin-Diagnostic-Breast-Cancer-like benchmark:

* for each audited patient record, it reports the prediction, whether it is
  certified robust at a conservative poisoning budget (0.5% of the training
  set), and the largest budget at which the certificate still holds;
* it contrasts certification with a concrete attack search: records that are
  not certified are attacked greedily to see whether the prediction can
  actually be flipped (the gap between the two is the abstraction's
  incompleteness).

Run with:  python examples/medical_robustness_audit.py
"""

from __future__ import annotations

import argparse

from repro import (
    CertificationEngine,
    greedy_removal_attack,
    load_dataset,
    max_certified_poisoning,
)
from repro.utils.tables import TextTable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5,
                        help="fraction of the paper-sized dataset to generate")
    parser.add_argument("--patients", type=int, default=8,
                        help="number of held-out records to audit")
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    split = load_dataset("wdbc", scale=args.scale, seed=args.seed)
    print(split.describe())
    train = split.train

    conservative_budget = max(1, int(0.005 * len(train)))
    print(f"Conservative audit budget: {conservative_budget} potentially "
          f"malicious records (0.5% of {len(train)})\n")

    engine = CertificationEngine(max_depth=args.depth, domain="either", timeout_seconds=60.0)

    table = TextTable(
        [
            "patient",
            "prediction",
            "certified @ 0.5%",
            "max certified n",
            "attack flips it?",
        ]
    )
    certified_count = 0
    for index in range(min(args.patients, len(split.test))):
        x = split.test.X[index]
        result = engine.certify_point(train, x, conservative_budget)
        certified_count += result.is_certified

        search = max_certified_poisoning(engine, train, x, max_n=len(train) // 8)
        attack_note = "-"
        if not result.is_certified:
            attack = greedy_removal_attack(
                train, x, conservative_budget, max_depth=args.depth, rng=args.seed
            )
            attack_note = "yes" if attack.success else "not found"
        table.add_row(
            [
                index,
                train.class_names[result.predicted_class],
                "yes" if result.is_certified else "no",
                search.max_certified_n,
                attack_note,
            ]
        )

    print(table.render())
    print(
        f"\n{certified_count}/{min(args.patients, len(split.test))} audited "
        "diagnoses are provably unchanged under the conservative poisoning budget."
    )
    print(
        "Records marked 'not found' are in the gap between certification and "
        "attack: the verifier could not prove robustness, but no concrete "
        "attack within budget was found either."
    )


if __name__ == "__main__":
    main()
