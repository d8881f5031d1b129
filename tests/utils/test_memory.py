"""Tests for the tracemalloc-based memory tracking."""

import tracemalloc

import numpy as np

from repro.utils.memory import MemoryTracker


class TestMemoryTracker:
    def test_records_positive_peak_for_allocation(self):
        with MemoryTracker() as tracker:
            buffer = np.zeros(200_000)
            assert buffer.size == 200_000
        assert tracker.peak_bytes > 100_000
        assert tracker.peak_megabytes > 0.0

    def test_stops_tracing_it_started(self):
        assert not tracemalloc.is_tracing()
        with MemoryTracker():
            pass
        assert not tracemalloc.is_tracing()

    def test_nested_trackers(self):
        with MemoryTracker() as outer:
            with MemoryTracker() as inner:
                buffer = np.zeros(100_000)
                assert buffer is not None
        assert inner.peak_bytes > 0
        assert outer.peak_bytes >= 0
