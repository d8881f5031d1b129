"""Antidote-style certification of data-poisoning robustness for decision trees.

This package is a from-scratch Python reproduction of *Proving Data-Poisoning
Robustness in Decision Trees* (Drews, Albarghouthi, D'Antoni — PLDI 2020).
It provides:

* the unified certification API (:mod:`repro.api`): the
  :class:`CertificationEngine` single entry point, declarative
  :class:`CertificationRequest` objects with first-class threat models,
  parallel/streaming batch certification, and aggregate
  :class:`CertificationReport` objects with JSON/CSV export;
* a concrete decision-tree substrate (:mod:`repro.core`): datasets,
  predicates, CART-style learning, and the trace-based learner ``DTrace``;
* the abstract domains of the paper (:mod:`repro.domains`): intervals, the
  ``⟨T, n⟩`` training-set domain, abstract predicate sets, and disjunctive
  states;
* the verifier (:mod:`repro.verify`): the abstract learner ``DTrace#`` on the
  Box and disjunctive domains, the naïve enumeration baseline, and the
  poisoning-amount search protocol;
* poisoning threat models and concrete attacks (:mod:`repro.poisoning`);
* synthetic stand-ins for the paper's benchmark datasets
  (:mod:`repro.datasets`); and
* the experiment harness regenerating every table and figure of the paper's
  evaluation (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import CertificationEngine, CertificationRequest, RemovalPoisoningModel, load_dataset
>>> split = load_dataset("iris", scale=0.5, seed=1)
>>> engine = CertificationEngine(max_depth=2, domain="either")
>>> report = engine.verify(
...     CertificationRequest(split.train, split.test.X[:4], RemovalPoisoningModel(2))
... )
>>> report.total
4
>>> all(r.status.value in {"robust", "unknown"} for r in report)
True

One engine certifies every threat model through the same entry point
(``RemovalPoisoningModel``, ``FractionalRemovalModel``, ``LabelFlipModel``,
``CompositePoisoningModel``),
batches in parallel with ``engine.verify(request, n_jobs=4)``, and streams
per-point results with ``engine.certify_stream(request)``.
"""

from repro.api import (
    CertificationEngine,
    CertificationReport,
    CertificationRequest,
    as_perturbation_model,
)

from repro.core.dataset import Dataset, FeatureKind
from repro.core.learner import DecisionTreeLearner, evaluate_accuracy
from repro.core.predicates import (
    EqualityPredicate,
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.core.trace_learner import TraceLearner, TraceResult, learn_trace
from repro.core.tree import DecisionTree, Trace, TreeNode
from repro.datasets import DatasetSplit, figure2_dataset, list_datasets, load_dataset
from repro.domains.interval import Interval
from repro.domains.trainingset import AbstractTrainingSet
from repro.poisoning.attacks import AttackResult, greedy_removal_attack, random_removal_attack
from repro.poisoning.models import (
    CompositePoisoningModel,
    FractionalRemovalModel,
    LabelFlipModel,
    PerturbationModel,
    RemovalPoisoningModel,
)
from repro.runtime import (
    CertificationCache,
    CertificationRuntime,
    DatasetStore,
    SharedDatasetHandle,
    fingerprint_dataset,
)
from repro.service import (
    CertificationClient,
    CertificationServer,
    wait_for_server,
)
from repro.verify.abstract_learner import BoxAbstractLearner
from repro.verify.disjunctive_learner import DisjunctiveAbstractLearner
from repro.verify.enumeration import EnumerationResult, verify_by_enumeration
from repro.verify.result import VerificationResult, VerificationStatus
from repro.verify.search import (
    ParetoFrontierResult,
    PoisoningSearchResult,
    max_certified_poisoning,
    pareto_frontier,
    pareto_sweep,
    robustness_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationEngine",
    "CertificationReport",
    "CertificationRequest",
    "as_perturbation_model",
    "Dataset",
    "FeatureKind",
    "DecisionTreeLearner",
    "evaluate_accuracy",
    "Predicate",
    "ThresholdPredicate",
    "EqualityPredicate",
    "SymbolicThresholdPredicate",
    "TraceLearner",
    "TraceResult",
    "learn_trace",
    "DecisionTree",
    "Trace",
    "TreeNode",
    "DatasetSplit",
    "figure2_dataset",
    "list_datasets",
    "load_dataset",
    "Interval",
    "AbstractTrainingSet",
    "AttackResult",
    "greedy_removal_attack",
    "random_removal_attack",
    "CompositePoisoningModel",
    "FractionalRemovalModel",
    "LabelFlipModel",
    "PerturbationModel",
    "RemovalPoisoningModel",
    "BoxAbstractLearner",
    "DisjunctiveAbstractLearner",
    "EnumerationResult",
    "verify_by_enumeration",
    "VerificationResult",
    "VerificationStatus",
    "ParetoFrontierResult",
    "PoisoningSearchResult",
    "max_certified_poisoning",
    "pareto_frontier",
    "pareto_sweep",
    "robustness_sweep",
    "CertificationCache",
    "CertificationClient",
    "CertificationRuntime",
    "CertificationServer",
    "DatasetStore",
    "SharedDatasetHandle",
    "fingerprint_dataset",
    "wait_for_server",
    "__version__",
]
