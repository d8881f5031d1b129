"""Outside-in layer timing for the traced benchmark runs.

The program is not modified.  :class:`LayerRecorder` replaces each layer's
public function at the attribute its caller looks it up through — a class
attribute for methods, every ``repro.*`` module global bound to the same
function object for module functions — with a wrapper that records calls,
inclusive time and self time (inclusive time minus the time of wrapped calls
made inside it).  The benchmark opens its own root spans around the calls it
makes into the program; wall time outside every root span is reported as
unattributed.

Spans are kept in memory as per-layer totals and rendered when the run ends.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Every wrapped layer, in table order: ``(layer name, target, attribute)``.
#: ``target`` is ``"module:Class"`` for a method and ``"module"`` for a
#: module function (patched in every module importing it by name).
WRAPPED_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("verify.search", "repro.verify.search", "max_certified_poisoning"),
    ("verify.search", "repro.verify.search", "pareto_frontier"),
    ("core.trace_learner.predict", "repro.core.trace_learner:TraceLearner", "predict"),
    ("runtime.fingerprint", "repro.runtime.fingerprint", "fingerprint_dataset"),
    ("domains.trainingset.full", "repro.domains.trainingset:AbstractTrainingSet", "full"),
    ("domains.trainingset.full", "repro.poisoning.label_flip:FlipAbstractTrainingSet", "full"),
    ("verify.box.run", "repro.verify.abstract_learner:BoxAbstractLearner", "run"),
    ("verify.disjuncts.run", "repro.verify.disjunctive_learner:DisjunctiveAbstractLearner", "run"),
    ("verify.transformers.filter", "repro.verify.trace", "filter_abstract_traced"),
    ("verify.transformers.best_split", "repro.verify.transformers", "best_split_abstract"),
    ("verify.transformers.cprob", "repro.verify.transformers", "cprob_intervals"),
    ("verify.transformers.cprob", "repro.verify.transformers", "pure_exit_vector"),
    ("core.split_plan.plan_for", "repro.core.split_plan", "plan_for"),
    ("runtime.cache.lookup", "repro.runtime.cache:CertificationCache", "lookup"),
    ("runtime.cache.store", "repro.runtime.cache:CertificationCache", "store"),
)

#: Root layers: spans the benchmark opens around its own calls.
ROOT_LAYERS = ("api.engine", "runtime.runtime")

LAYER_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(ROOT_LAYERS + tuple(name for name, _, _ in WRAPPED_LAYERS))
)


class _Totals:
    __slots__ = ("calls", "inclusive", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0


class LayerRecorder:
    """Per-layer call counts and inclusive/self seconds, across threads."""

    def __init__(self) -> None:
        self.totals: Dict[str, _Totals] = {name: _Totals() for name in LAYER_NAMES}
        #: Box/disjunct rung time spent on the flip/composite domain ⟨T, r, f⟩.
        self.flip_rung_seconds = 0.0
        #: Disjunctive runs that hit the disjunct cap.
        self.disjuncts_exhausted = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, frame: list, started: float) -> float:
        elapsed = time.perf_counter() - started
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            totals = self.totals[name]
            totals.calls += 1
            totals.inclusive += elapsed
            totals.self_time += elapsed - frame[0]
        return elapsed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A benchmark-owned span around one call into the program."""
        frame = [0.0]
        self._stack().append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, started)

    def root_seconds(self) -> float:
        return sum(self.totals[name].inclusive for name in ROOT_LAYERS)

    def _wrap(self, name: str, function: Callable) -> Callable:
        recorder = self
        flip_rung = name in ("verify.box.run", "verify.disjuncts.run")
        disjuncts = name == "verify.disjuncts.run"

        def wrapper(*args, **kwargs):
            frame = [0.0]
            recorder._stack().append(frame)
            started = time.perf_counter()
            exhausted = False
            try:
                return function(*args, **kwargs)
            except Exception as error:
                exhausted = disjuncts and type(error).__name__ == "DisjunctBudgetExceeded"
                raise
            finally:
                elapsed = recorder._close(name, frame, started)
                if flip_rung and len(args) > 1 and (
                    type(args[1]).__name__ == "FlipAbstractTrainingSet"
                ):
                    with recorder._lock:
                        recorder.flip_rung_seconds += elapsed
                if exhausted:
                    with recorder._lock:
                        recorder.disjuncts_exhausted += 1

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------- patching
    def install(self) -> None:
        """Wrap every layer in :data:`WRAPPED_LAYERS` (undone by :meth:`remove`)."""
        for name, target, attribute in WRAPPED_LAYERS:
            module_name, _, class_name = target.partition(":")
            __import__(module_name)
            module = sys.modules[module_name]
            if class_name:
                self._patch_method(name, getattr(module, class_name), attribute)
            else:
                self._patch_function(name, getattr(module, attribute))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_method(self, name: str, owner: type, attribute: str) -> None:
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(name, original.__func__))
        else:
            replacement = self._wrap(name, original)
        setattr(owner, attribute, replacement)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def _patch_function(self, name: str, function: Callable) -> None:
        wrapper = self._wrap(name, function)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, wrapper)
                    self._undo.append(
                        lambda m=module, a=attribute: setattr(m, a, function)
                    )

    # ------------------------------------------------------------ reporting
    def metrics(self) -> Dict[str, float]:
        """``<layer>_s`` (self seconds) and the call count of every layer.

        Counts are ``<layer>_calls``, except that a rung's ``….run`` layer
        counts as ``….calls``.
        """
        out: Dict[str, float] = {}
        for name in LAYER_NAMES:
            totals = self.totals[name]
            out[f"{name}_s"] = totals.self_time
            calls = name[: -len(".run")] + ".calls" if name.endswith(".run") else f"{name}_calls"
            out[calls] = totals.calls
        return out

    def render(self, wall: float, title: str) -> str:
        """The layer table: self/inclusive seconds, calls, share of wall."""
        rows = [(n, self.totals[n]) for n in LAYER_NAMES if self.totals[n].calls]
        rows.sort(key=lambda item: -item[1].self_time)
        lines = [
            title,
            f"{'layer':34} {'self s':>9} {'incl s':>9} {'calls':>9} {'% wall':>7}",
        ]
        for name, totals in rows:
            share = totals.self_time / wall if wall > 0 else 0.0
            lines.append(
                f"{name:34} {totals.self_time:9.4f} {totals.inclusive:9.4f} "
                f"{totals.calls:9d} {share:7.1%}"
            )
        unattributed = max(0.0, wall - self.root_seconds())
        lines.append(
            f"{'(unattributed)':34} {unattributed:9.4f} {'':9} {'':9} "
            f"{(unattributed / wall if wall > 0 else 0.0):7.1%}"
        )
        lines.append(f"{'(traced wall)':34} {wall:9.4f}")
        return "\n".join(lines)


@contextmanager
def installed(recorder: Optional[LayerRecorder]) -> Iterator[Optional[LayerRecorder]]:
    """Install ``recorder``'s wrappers for the duration (no-op for ``None``)."""
    if recorder is None:
        yield None
        return
    recorder.install()
    try:
        yield recorder
    finally:
        recorder.remove()


@contextmanager
def maybe_span(recorder: Optional[LayerRecorder], name: str) -> Iterator[None]:
    if recorder is None:
        yield
    else:
        with recorder.span(name):
            yield
