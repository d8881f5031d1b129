"""Flip and composite certificates on categorical features.

``bestSplit#`` splits a categorical feature with equality predicates, as the
concrete learner does (``splitter.best_split``).  The flip
family once scored categorical columns as midpoint thresholds instead, so at
a zero budget it could certify a class the concrete learner does not
predict.  These seeded cases pin the shared candidate selection: a zero
budget certifies only the concrete prediction, and composite ``(r, 0)``
reproduces removal ``r``.
"""

import numpy as np
import pytest

from repro.api import CertificationEngine, CertificationRequest
from repro.core.dataset import Dataset, FeatureKind
from repro.core.trace_learner import TraceLearner
from repro.poisoning.models import (
    CompositePoisoningModel,
    LabelFlipModel,
    RemovalPoisoningModel,
)


def _categorical_cases(count: int, seed: int = 0):
    """12-row datasets with two 3-valued categorical features, 4 points each."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        X = rng.integers(0, 3, size=(12, 2)).astype(float)
        y = rng.integers(0, 2, size=12)
        dataset = Dataset(
            X=X, y=y, n_classes=2, feature_kinds=(FeatureKind.CATEGORICAL,) * 2
        )
        yield dataset, rng.integers(0, 3, size=(4, 2)).astype(float)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize(
    "model",
    [LabelFlipModel(0), CompositePoisoningModel(0, 0)],
    ids=["flip-0", "composite-0-0"],
)
def test_zero_budget_certifies_only_the_concrete_prediction(depth, model):
    engine = CertificationEngine(max_depth=depth, domain="either")
    learner = TraceLearner(max_depth=depth)
    wrong = []
    for case, (dataset, points) in enumerate(_categorical_cases(50)):
        report = engine.verify(CertificationRequest(dataset, points, model))
        for x, result in zip(points, report.results):
            predicted = learner.predict(dataset, x)
            if result.certified_class not in (None, predicted):
                wrong.append((case, tuple(x), result.certified_class, predicted))
    assert wrong == []


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("removals", [1, 2])
@pytest.mark.parametrize("method", ["optimal", "box"])
def test_composite_without_flips_reproduces_removal(depth, removals, method):
    # ⟨T, r, 0⟩ is ⟨T, r⟩: same bestSplit#, pure exits and cprob# under
    # either cprob# method, so the same verdicts and class intervals.
    engine = CertificationEngine(max_depth=depth, domain="either", cprob_method=method)
    for dataset, points in _categorical_cases(25, seed=1):
        removal = engine.verify(
            CertificationRequest(dataset, points, RemovalPoisoningModel(removals))
        )
        composite = engine.verify(
            CertificationRequest(dataset, points, CompositePoisoningModel(removals, 0))
        )
        for expected, result in zip(removal.results, composite.results):
            assert result.status == expected.status
            assert result.certified_class == expected.certified_class
            assert result.class_intervals == expected.class_intervals
