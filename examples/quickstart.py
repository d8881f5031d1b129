"""Quickstart: certify a prediction against data poisoning.

This walks through the paper's overview example (Figure 2) and then a small
real-valued benchmark:

1. learn a decision tree / trace on the 13-element black-and-white dataset;
2. prove that the classification of the point ``x = 5`` cannot change no
   matter which (up to) two training elements an attacker contributed;
3. cross-check the certificate against exhaustive enumeration of all 92
   poisoned training sets;
4. repeat the exercise on the Iris-like benchmark with the unified
   :class:`repro.CertificationEngine` API: one batch request, an aggregate
   report, and per-point streaming.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    CertificationEngine,
    CertificationRequest,
    DecisionTreeLearner,
    RemovalPoisoningModel,
    figure2_dataset,
    learn_trace,
    load_dataset,
    verify_by_enumeration,
)


def overview_example() -> None:
    print("=" * 72)
    print("Part 1 — the paper's overview example (Figure 2)")
    print("=" * 72)
    dataset = figure2_dataset()
    print(dataset.summary())

    tree = DecisionTreeLearner(max_depth=1).fit(dataset)
    print("\nLearned depth-1 tree:")
    print(tree.to_text())

    x = [5.0]
    trace = learn_trace(dataset, x, max_depth=1)
    print(f"\nDTrace(T, {x[0]}): prediction={dataset.class_names[trace.prediction]} "
          f"probabilities={tuple(round(p, 3) for p in trace.class_probabilities)}")

    # How many datasets would naïve enumeration have to retrain on?
    model = RemovalPoisoningModel(2)
    print(f"\n2-poisoning neighbourhood size: {model.num_neighbors(len(dataset))} training sets")

    engine = CertificationEngine(max_depth=1, domain="either")
    result = engine.certify_point(dataset, x, model)
    print(f"Antidote verdict: {result.describe()}")

    oracle = verify_by_enumeration(dataset, x, 2, max_depth=1)
    print(f"Enumeration oracle ({oracle.datasets_checked} retrainings): "
          f"robust={oracle.robust}")
    if result.is_certified:
        assert oracle.robust, "soundness violated!"
    print("Note: on this tiny dataset the abstraction may be inconclusive even "
          "though enumeration shows robustness — the paper's approach is sound, "
          "not complete.")


def iris_example() -> None:
    print()
    print("=" * 72)
    print("Part 2 — certifying predictions on the Iris-like benchmark")
    print("=" * 72)
    split = load_dataset("iris", seed=7)
    print(split.describe())

    engine = CertificationEngine(max_depth=2, domain="either", timeout_seconds=30.0)
    request = CertificationRequest(
        split.train, split.test.X[:10], RemovalPoisoningModel(2)
    )
    # certify_stream yields per-point verdicts in input order as they finish;
    # engine.verify(request, n_jobs=4) runs the same batch on up to four
    # worker processes, once the first points show that they pay.
    results = []
    for index, result in enumerate(engine.certify_stream(request)):
        results.append(result)
        label = split.train.class_names[result.predicted_class]
        print(f"  test point {index:2d}: predicted={label:12s} -> {result.status.value}"
              f" ({result.domain}, {result.elapsed_seconds:.2f}s)")
    certified = sum(result.is_certified for result in results)
    print(f"\nCertified {certified}/{len(results)} test points against "
          f"2-poisoning of {len(split.train)} training elements.")


if __name__ == "__main__":
    overview_example()
    iris_example()
