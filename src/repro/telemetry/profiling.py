"""Profiling hooks: attribute learner wall time to ladder stage × phase.

The engine certifies a point by walking a *domain ladder* (``box`` then
``disjuncts``, or their flip counterparts), and each rung spends its time in
a handful of transformer *phases* (``pure_exit``, ``best_split``, ``filter``,
``split_table``).  These hooks cross the two axes: the engine marks the
current ladder stage (:func:`ladder_stage`), and the instrumented hot loops
in :mod:`repro.verify.transformers`, :mod:`repro.verify.abstract_learner`,
and :mod:`repro.core.split_plan` wrap their phases in :func:`phase`, which

* always (counters mode) observes ``learner_phase_seconds{stage,phase}`` in
  the process registry, and
* when span tracing is enabled, additionally stamps a
  ``transformer.<phase>`` span into the current trace tree.

Only the cold compute path reaches these hooks — warm (cache-served) points
never run the learner — so the attribution comes at no warm-path cost.  The
stage marker is thread-local, matching the thread-per-batch execution model
of the scheduler and server.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Optional

from repro.telemetry import metrics, tracing

__all__ = ["ladder_stage", "current_stage", "phase"]

_stage_local = threading.local()

#: Wall time per (ladder stage, transformer phase); pool workers ship theirs
#: back to the parent's registry.
PHASE_SECONDS = metrics.histogram(
    "learner_phase_seconds",
    "Wall seconds spent per abstract-learner phase, by ladder stage.",
    labelnames=("stage", "phase"),
)


@contextmanager
def ladder_stage(name: str) -> Iterator[None]:
    """Mark the active domain-ladder rung (e.g. ``box``, ``flip-disjuncts``)."""
    previous: Optional[str] = getattr(_stage_local, "stage", None)
    _stage_local.stage = name
    try:
        yield
    finally:
        _stage_local.stage = previous


def current_stage() -> str:
    """The active ladder rung, or ``"none"`` outside a ladder walk."""
    return getattr(_stage_local, "stage", None) or "none"


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time one transformer phase under the current ladder stage."""
    stage = current_stage()  # closed vocabulary: ladder rung names or "none"
    if tracing.spans_enabled():
        with tracing.span(f"transformer.{name}"):
            started = perf_counter()
            try:
                yield
            finally:
                PHASE_SECONDS.observe(perf_counter() - started, stage=stage, phase=name)
        return
    started = perf_counter()
    try:
        yield
    finally:
        PHASE_SECONDS.observe(perf_counter() - started, stage=stage, phase=name)
