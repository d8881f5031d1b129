"""Tests for the poisoning-amount search protocol (§6.1)."""

import sys
import threading

import numpy as np
import pytest

from repro.api import CertificationEngine
from repro.datasets.registry import load_dataset
from repro.poisoning.models import (
    CompositePoisoningModel,
    FractionalRemovalModel,
    LabelFlipModel,
)
from repro.utils.validation import ValidationError
from repro.verify.result import VerificationResult, VerificationStatus
from repro.verify.search import max_certified_poisoning, robustness_sweep
from tests.conftest import well_separated_dataset
from repro.datasets.toy import figure2_dataset


@pytest.fixture
def engine():
    return CertificationEngine(max_depth=1, domain="either")


def _stub_result(certified: bool, n: int) -> VerificationResult:
    return VerificationResult(
        status=VerificationStatus.ROBUST if certified else VerificationStatus.UNKNOWN,
        poisoning_amount=n,
        predicted_class=0,
        certified_class=0 if certified else None,
        class_intervals=(),
        domain="box",
        elapsed_seconds=0.0,
        peak_memory_bytes=0,
        exit_count=0,
        max_disjuncts=0,
        log10_num_datasets=0.0,
    )


class ThresholdEngine:
    """Fake engine certifying exactly the budgets ``n <= threshold``.

    Lets the search-protocol tests pin down probe sequences without paying
    for (or depending on the precision of) the real abstract learners.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.probed = []

    def certify_point(self, dataset, x, model):
        n = model.nominal_amount(len(dataset))
        self.probed.append(n)
        return _stub_result(n <= self.threshold, n)


class TestMaxCertifiedPoisoning:
    def test_well_separated_point_reaches_positive_n(self, engine):
        dataset = well_separated_dataset()
        search = max_certified_poisoning(engine, dataset, [0.5], max_n=16)
        assert search.max_certified_n >= 1
        assert search.ever_certified
        # The reported maximum must indeed be certified, and doubling past it
        # must have failed (or hit the cap).
        assert search.results[search.max_certified_n].is_certified

    def test_uncertifiable_point_returns_zero(self, engine):
        dataset = figure2_dataset()
        search = max_certified_poisoning(engine, dataset, [5.0], max_n=8)
        assert search.max_certified_n >= 0
        if search.max_certified_n == 0:
            assert not search.ever_certified

    def test_attempts_are_cached(self, engine):
        dataset = well_separated_dataset()
        search = max_certified_poisoning(engine, dataset, [0.5], max_n=8)
        assert search.attempts == len(search.results)

    def test_respects_max_n_cap(self, engine):
        dataset = well_separated_dataset()
        search = max_certified_poisoning(engine, dataset, [0.5], max_n=2)
        assert search.max_certified_n <= 2

    def test_binary_search_is_consistent(self, engine):
        dataset = well_separated_dataset()
        search = max_certified_poisoning(engine, dataset, [0.5], max_n=32)
        best = search.max_certified_n
        for n, result in search.results.items():
            if result.is_certified:
                assert n <= best
            else:
                assert n > best


class TestDoublingOvershootClamp:
    """The doubling phase must decide max_n itself, not stop at the last power.

    Before the fix, doubling 1→2→4→8 with ``max_n = 10`` exited the loop at
    16 > 10 and returned 8 without ever attempting 9 or 10.
    """

    def test_gap_between_last_double_and_cap_is_searched(self):
        dataset = well_separated_dataset()
        engine = ThresholdEngine(threshold=9)
        search = max_certified_poisoning(engine, dataset, [0.0], max_n=10)
        assert search.max_certified_n == 9
        # Doubling reached 8, then the clamped attempt at 10 failed and the
        # binary search decided 9.
        assert 10 in search.results and not search.results[10].is_certified
        assert 9 in search.results and search.results[9].is_certified

    def test_cap_itself_certified_after_overshoot(self):
        dataset = well_separated_dataset()
        engine = ThresholdEngine(threshold=1_000)
        search = max_certified_poisoning(engine, dataset, [0.0], max_n=10)
        assert search.max_certified_n == 10
        assert engine.probed == [1, 2, 4, 8, 10]

    def test_power_of_two_cap_needs_no_extra_probe(self):
        dataset = well_separated_dataset()
        engine = ThresholdEngine(threshold=1_000)
        search = max_certified_poisoning(engine, dataset, [0.0], max_n=16)
        assert search.max_certified_n == 16
        assert engine.probed == [1, 2, 4, 8, 16]

    def test_every_gap_position_is_found_exactly(self):
        dataset = well_separated_dataset()
        for threshold in range(0, 14):
            engine = ThresholdEngine(threshold=threshold)
            search = max_certified_poisoning(engine, dataset, [0.0], max_n=13)
            assert search.max_certified_n == min(threshold, 13), threshold


class TestModelGenericSearch:
    def test_label_flip_family_is_searchable(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        search = max_certified_poisoning(
            engine, dataset, [0.5], max_n=8, model=LabelFlipModel(0)
        )
        # Every probe certified against the flip family, not Δn.
        assert all(
            result.poisoning_flips == n for n, result in search.results.items()
        )
        assert search.max_certified_n >= 0

    def test_flip_probes_run_on_the_flip_domain(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        search = max_certified_poisoning(
            engine, dataset, [0.5], max_n=16, model=LabelFlipModel(0)
        )
        assert search.results
        assert all(
            result.domain.startswith("flip-") for result in search.results.values()
        )

    def test_fractional_template_sweeps_removal_counts(self):
        dataset = well_separated_dataset()
        engine = ThresholdEngine(threshold=3)
        search = max_certified_poisoning(
            engine, dataset, [0.0], max_n=8, model=FractionalRemovalModel(0.25)
        )
        assert search.max_certified_n == 3

    def test_composite_template_is_rejected_for_scalar_search(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        with pytest.raises(ValidationError, match="pareto_frontier"):
            max_certified_poisoning(
                engine, dataset, [0.5], model=CompositePoisoningModel(1, 1)
            )

    def test_non_model_template_is_rejected(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        with pytest.raises(ValidationError, match="PerturbationModel"):
            max_certified_poisoning(engine, dataset, [0.5], model=3)  # type: ignore[arg-type]


class TestRobustnessSweep:
    def test_fractions_are_monotone_nonincreasing(self, engine):
        dataset = well_separated_dataset()
        test_points = np.array([[0.5], [1.0], [10.5], [11.5]])
        records = robustness_sweep(engine, dataset, test_points, [1, 2, 4, 8, 16])
        fractions = [record.fraction_certified for record in records]
        assert all(b <= a + 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] > 0.0

    def test_incremental_mode_stops_after_total_failure(self, engine):
        dataset = figure2_dataset()
        test_points = np.array([[5.0]])
        records = robustness_sweep(engine, dataset, test_points, [1, 2, 4, 8])
        # Once no point is certified the sweep stops early.
        assert len(records) <= 4
        if records and records[-1].certified == 0:
            assert records[-1].attempted >= 1

    def test_non_incremental_mode_attempts_every_level(self, engine):
        dataset = well_separated_dataset()
        test_points = np.array([[0.5], [11.0]])
        records = robustness_sweep(
            engine, dataset, test_points, [1, 2], incremental=False
        )
        assert [record.attempted for record in records] == [2, 2]

    def test_records_collect_statistics(self, engine):
        dataset = well_separated_dataset()
        test_points = np.array([[0.5]])
        records = robustness_sweep(
            engine, dataset, test_points, [1], keep_results=True
        )
        record = records[0]
        assert record.poisoning_amount == 1
        assert record.average_seconds >= 0.0
        assert record.average_peak_memory_bytes >= 0.0
        assert record.timeouts == 0
        assert len(record.results) == 1

    def test_box_engine_sweep_attempts_every_point(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        records = robustness_sweep(
            engine, dataset, np.array([[0.5], [11.0]]), amounts=(1, 2)
        )
        assert records
        assert records[0].attempted == 2
        assert 0.0 <= records[0].fraction_certified <= 1.0


class TestRobustnessSweepEdgeCases:
    def test_duplicate_and_unsorted_amounts_collapse(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        records = robustness_sweep(
            engine,
            dataset,
            np.array([[0.5], [11.0]]),
            [4, 1, 1, 2, 4],
            incremental=False,
        )
        assert [record.poisoning_amount for record in records] == [1, 2, 4]
        # No level was certified twice: every record attempted the full batch.
        assert all(record.attempted == 2 for record in records)

    def test_sweep_is_generic_over_the_flip_family(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        records = robustness_sweep(
            engine,
            dataset,
            np.array([[0.5]]),
            [1, 2],
            model=LabelFlipModel(0),
            keep_results=True,
            incremental=False,
        )
        for record in records:
            assert all(
                result.domain.startswith("flip-") for result in record.results
            )
            assert all(
                result.poisoning_flips == record.poisoning_amount
                for result in record.results
            )

    def test_empty_test_points_produce_no_phantom_records(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(max_depth=1, domain="box")
        records = robustness_sweep(
            engine, dataset, np.empty((0, 1)), [1, 2, 4]
        )
        assert records == []

    def test_incremental_break_emits_no_records_for_skipped_levels(self):
        dataset = well_separated_dataset()

        class _NeverCertifies(ThresholdEngine):
            def certify_batch(self, dataset, points, model, *, n_jobs=1):
                from repro.api import CertificationReport

                n = model.nominal_amount(len(dataset))
                return CertificationReport(
                    results=[_stub_result(False, n) for _ in points]
                )

        engine = _NeverCertifies(threshold=0)
        records = robustness_sweep(
            engine, dataset, np.array([[0.5], [11.0]]), [1, 2, 4, 8]
        )
        # Every point fails at level 1; the incremental sweep records that
        # level and stops — no phantom rows for 2/4/8.
        assert [record.poisoning_amount for record in records] == [1]
        assert records[0].attempted == 2
        assert records[0].certified == 0

    def test_timeout_rows_counted_and_dropped_from_active(self):
        dataset = well_separated_dataset()
        engine = CertificationEngine(
            max_depth=1, domain="box", timeout_seconds=1e-9
        )
        records = robustness_sweep(
            engine, dataset, np.array([[0.5], [11.0]]), [1, 2, 4]
        )
        # Every attempt times out: one record, all points counted as
        # timeouts, none certified, and the incremental sweep stops there.
        assert len(records) == 1
        record = records[0]
        assert record.timeouts == 2
        assert record.certified == 0
        assert record.fraction_certified == 0.0


class TestSearchWorkTally:
    def test_concurrent_searches_on_a_shared_engine_count_their_own_work(self):
        split = load_dataset("iris", scale=1.0, seed=0)
        points = split.test.X[:8]  # distinct rows: no two searches probe one point
        solo = CertificationEngine(max_depth=1)
        expected = [
            solo.max_certified(split.train, x, max_budget=16).to_dict()
            for x in points
        ]
        shared = CertificationEngine(max_depth=1)
        got = [None] * len(points)

        def search(index):
            got[index] = shared.max_certified(
                split.train, points[index], max_budget=16
            ).to_dict()

        threads = [
            threading.Thread(target=search, args=(index,))
            for index in range(len(points))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected
        assert all(row["learner_invocations"] == row["attempts"] for row in got)
