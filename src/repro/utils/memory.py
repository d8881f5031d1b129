"""Peak-memory tracking based on :mod:`tracemalloc`.

The paper reports the peak resident memory of the C++ prototype (Figures
7-11).  In this Python reproduction we report the peak *Python heap*
allocation observed while a verification instance runs, measured with
``tracemalloc``.  Absolute numbers are not comparable with the paper's MB
figures, but the qualitative trends (the disjunctive domain's memory grows
quickly with the poisoning amount and tree depth) are preserved.

Peak memory is measured only while ``tracemalloc`` is tracing: the
certification engine enters a tracker per point only when its caller
already traces (``tracemalloc.start()``, ``python -X tracemalloc`` or
``PYTHONTRACEMALLOC``), and otherwise reports 0, meaning "not measured".
The paper-figure experiments trace around each grid cell.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass, field


@dataclass
class MemoryTracker:
    """Context manager measuring the peak Python-heap allocation of a block.

    If tracemalloc is already tracing (e.g. nested trackers), the tracker
    reuses the existing trace and reports the peak delta relative to entry.
    """

    peak_bytes: int = 0
    _started_here: bool = field(default=False, init=False)
    _baseline: int = field(default=0, init=False)

    def __enter__(self) -> "MemoryTracker":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_here = True
        current, _ = tracemalloc.get_traced_memory()
        self._baseline = current
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc_info: object) -> None:
        _, peak = tracemalloc.get_traced_memory()
        self.peak_bytes = max(0, int(peak) - int(self._baseline))
        if self._started_here:
            tracemalloc.stop()

    @property
    def peak_megabytes(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)
