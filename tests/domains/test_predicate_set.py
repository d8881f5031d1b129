"""Tests for the abstract predicate-set domain."""

from repro.core.predicates import SymbolicThresholdPredicate, ThresholdPredicate
from repro.domains.predicate_set import AbstractPredicateSet


class TestConstruction:
    def test_of(self):
        predicates = AbstractPredicateSet.of([ThresholdPredicate(0, 1.0)])
        assert predicates.predicates == (ThresholdPredicate(0, 1.0),)
        assert not predicates.includes_null
        assert AbstractPredicateSet.of((), includes_null=True).includes_null


class TestPointPartition:
    def test_concrete_predicates_split_cleanly(self):
        predicates = AbstractPredicateSet.of(
            [ThresholdPredicate(0, 1.0), ThresholdPredicate(0, 5.0)]
        )
        satisfied, falsified = predicates.partition_for_point([3.0])
        assert satisfied == (ThresholdPredicate(0, 5.0),)
        assert falsified == (ThresholdPredicate(0, 1.0),)

    def test_symbolic_maybe_lands_in_both(self):
        symbolic = SymbolicThresholdPredicate(0, 1.0, 5.0)
        predicates = AbstractPredicateSet.of([symbolic])
        satisfied, falsified = predicates.partition_for_point([3.0])
        assert symbolic in satisfied and symbolic in falsified

    def test_symbolic_definite_cases(self):
        symbolic = SymbolicThresholdPredicate(0, 1.0, 5.0)
        predicates = AbstractPredicateSet.of([symbolic])
        satisfied, falsified = predicates.partition_for_point([0.0])
        assert satisfied and not falsified
        satisfied, falsified = predicates.partition_for_point([9.0])
        assert falsified and not satisfied
