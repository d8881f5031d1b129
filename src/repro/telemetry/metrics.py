"""Process-wide metrics registry: counters, gauges, and histograms.

The registry is the always-on half of the telemetry subsystem: counter
increments and histogram observations are a dict lookup plus a locked float
add, cheap enough to leave enabled on the warm serving path (every
``certbench`` run measures with them on).  Span tracing, the expensive half,
lives in :mod:`repro.telemetry.tracing` and is opt-in.

Metrics are *labeled series*: one metric family (say
``cache_lookups_total``) owns one series per distinct label value combination
(``result="hit"``, ``result="miss"``, ...).  Hot call sites bind their labels
once at import time (:meth:`Counter.labels`) so the per-event cost is a single
lock/add.

Two export formats are supported:

* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict, served by the daemon's
  ``metrics`` op and written by the CLI's ``--metrics-json``;
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (version 0.0.4), so a scraper can poll the daemon directly.

Everything here is standard library only and safe to import from pool
workers; each process has its own registry.  Worker registries do not die
with the worker: pool workers ship a per-task **delta snapshot**
(:func:`diff_snapshots`) back with each result, and the parent folds it into
its own registry with :meth:`MetricsRegistry.merge_snapshot` — commutative
(counters and histogram buckets add), idempotent per task id — so
``n_jobs > 1`` batches attribute ``learner_phase_seconds`` and friends
exactly like serial runs.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "set_enabled",
    "enabled",
    "diff_snapshots",
    "histogram_quantile",
    "series_value",
]

LabelValues = Tuple[str, ...]

#: Default latency buckets (seconds).  They span sub-millisecond sqlite ops
#: up to the minutes-long cold disjunctive runs of the paper's evaluation.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    300.0,
)


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (ints stay ints)."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def _format_labels(labelnames: Sequence[str], labelvalues: LabelValues) -> str:
    if not labelnames:
        return ""
    escaped = (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        for value in labelvalues
    )
    pairs = ",".join(f'{name}="{value}"' for name, value in zip(labelnames, escaped))
    return "{" + pairs + "}"


class _Metric:
    """Base class for one metric family (shared bookkeeping)."""

    kind = "untyped"

    def __init__(
        self, registry: "MetricsRegistry", name: str, help: str, labelnames: Sequence[str]
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._series: Dict[LabelValues, object] = {}
        if not self.labelnames:
            # Unlabeled families expose their single series eagerly so a
            # snapshot shows 0 rather than an absent metric.
            self._series[()] = self._new_series()

    # -- subclass hooks ----------------------------------------------------
    def _new_series(self) -> object:
        raise NotImplementedError

    def _series_snapshot(self, state: object) -> dict:
        raise NotImplementedError

    def _series_exposition(self, labelvalues: LabelValues, state: object) -> List[str]:
        raise NotImplementedError

    def _merge_series(self, state: object, payload: Mapping) -> None:
        raise NotImplementedError

    # -- shared API --------------------------------------------------------
    def _resolve(self, labels: Mapping[str, str]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _state(self, labelvalues: LabelValues) -> object:
        # Double-checked fast path on the hot record() route: a missed racing
        # insert falls through to the locked setdefault.
        state = self._series.get(labelvalues)  # repro: ignore[lock-discipline]
        if state is None:
            with self._lock:
                state = self._series.setdefault(labelvalues, self._new_series())
        return state

    def clear(self) -> None:
        with self._lock:
            self._series.clear()
            if not self.labelnames:
                self._series[()] = self._new_series()

    def _family_extra(self) -> dict:
        """Extra family-level snapshot fields (histogram bucket bounds)."""
        return {}

    def snapshot(self) -> dict:
        with self._lock:
            series = [
                {
                    "labels": dict(zip(self.labelnames, labelvalues)),
                    **self._series_snapshot(state),
                }
                for labelvalues, state in sorted(self._series.items())
            ]
        return {
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            **self._family_extra(),
            "series": series,
        }

    def exposition(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        with self._lock:
            for labelvalues, state in sorted(self._series.items()):
                lines.extend(self._series_exposition(labelvalues, state))
        return lines


class _ScalarSeries:
    __slots__ = ("value", "lock")

    def __init__(self) -> None:
        self.value = 0.0
        self.lock = threading.Lock()


class Counter(_Metric):
    """A monotonically increasing counter (optionally labeled)."""

    kind = "counter"

    def _new_series(self) -> _ScalarSeries:
        return _ScalarSeries()

    def labels(self, **labels: str) -> "BoundCounter":
        return BoundCounter(self, self._state(self._resolve(labels)))

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not self._registry._enabled:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        state = self._state(self._resolve(labels))
        with state.lock:
            state.value += amount

    def value(self, **labels: str) -> float:
        # Unlocked read of one series' float: tests and dashboards tolerate a
        # snapshot racing a concurrent inc.
        state = self._series.get(self._resolve(labels))  # repro: ignore[lock-discipline]
        return 0.0 if state is None else state.value

    def total(self) -> float:
        with self._lock:
            return sum(state.value for state in self._series.values())

    def _series_snapshot(self, state: _ScalarSeries) -> dict:
        return {"value": state.value}

    def _series_exposition(self, labelvalues: LabelValues, state: _ScalarSeries) -> List[str]:
        labels = _format_labels(self.labelnames, labelvalues)
        return [f"{self.name}{labels} {_format_value(state.value)}"]

    def _merge_series(self, state: _ScalarSeries, payload: Mapping) -> None:
        amount = float(payload.get("value", 0.0))
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot merge a negative delta")
        with state.lock:
            state.value += amount


class BoundCounter:
    """A counter series with its labels pre-resolved (hot-path helper)."""

    __slots__ = ("_metric", "_state")

    def __init__(self, metric: Counter, state: _ScalarSeries) -> None:
        self._metric = metric
        self._state = state

    def inc(self, amount: float = 1.0) -> None:
        if not self._metric._registry._enabled:
            return
        state = self._state
        with state.lock:
            state.value += amount


class Gauge(_Metric):
    """A value that can go up and down (pool sizes, in-flight counts)."""

    kind = "gauge"

    def _new_series(self) -> _ScalarSeries:
        return _ScalarSeries()

    def set(self, value: float, **labels: str) -> None:
        if not self._registry._enabled:
            return
        state = self._state(self._resolve(labels))
        with state.lock:
            state.value = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not self._registry._enabled:
            return
        state = self._state(self._resolve(labels))
        with state.lock:
            state.value += amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        # Same snapshot-read tolerance as Counter.value above.
        state = self._series.get(self._resolve(labels))  # repro: ignore[lock-discipline]
        return 0.0 if state is None else state.value

    def _series_snapshot(self, state: _ScalarSeries) -> dict:
        return {"value": state.value}

    def _series_exposition(self, labelvalues: LabelValues, state: _ScalarSeries) -> List[str]:
        labels = _format_labels(self.labelnames, labelvalues)
        return [f"{self.name}{labels} {_format_value(state.value)}"]

    def _merge_series(self, state: _ScalarSeries, payload: Mapping) -> None:
        # Gauges describe the *sender's* current level, not an increment:
        # the merged value is last-writer-wins (deltas only ship changed
        # gauges, so a quiet worker never clobbers a parent gauge).
        with state.lock:
            state.value = float(payload.get("value", 0.0))


class _HistogramSeries:
    __slots__ = ("counts", "sum", "count", "lock")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self.lock = threading.Lock()


class Histogram(_Metric):
    """A fixed-bucket histogram of observed values (typically seconds)."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        super().__init__(registry, name, help, labelnames)

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(len(self.buckets))

    def labels(self, **labels: str) -> "BoundHistogram":
        return BoundHistogram(self, self._state(self._resolve(labels)))

    def observe(self, value: float, **labels: str) -> None:
        if not self._registry._enabled:
            return
        state = self._state(self._resolve(labels))
        index = bisect_left(self.buckets, value)
        with state.lock:
            state.counts[index] += 1
            state.sum += value
            state.count += 1

    def _family_extra(self) -> dict:
        return {"buckets": list(self.buckets)}

    def _series_snapshot(self, state: _HistogramSeries) -> dict:
        cumulative = 0
        buckets = {}
        for bound, count in zip(self.buckets, state.counts):
            cumulative += count
            buckets[repr(bound)] = cumulative
        buckets["+Inf"] = state.count
        return {"count": state.count, "sum": state.sum, "buckets": buckets}

    def _merge_series(self, state: _HistogramSeries, payload: Mapping) -> None:
        """Fold one snapshot series into this one, bucket-wise.

        The wire form carries *cumulative* bucket counts (the Prometheus
        convention); cumulative counts of a delta are the deltas of the
        cumulative counts, so un-cumulating and adding per bucket is exact.
        """
        incoming = payload.get("buckets", {})
        expected = {repr(bound) for bound in self.buckets} | {"+Inf"}
        if incoming and set(incoming) != expected:
            raise ValueError(
                f"histogram {self.name!r} cannot merge a snapshot with "
                f"different bucket bounds"
            )
        count = int(payload.get("count", 0))
        total = float(payload.get("sum", 0.0))
        per_bucket = []
        previous = 0
        for bound in self.buckets:
            cumulative = int(incoming.get(repr(bound), previous))
            per_bucket.append(cumulative - previous)
            previous = cumulative
        per_bucket.append(count - previous)  # the +Inf bucket
        if any(increment < 0 for increment in per_bucket) or count < 0:
            raise ValueError(
                f"histogram {self.name!r} cannot merge a negative delta"
            )
        with state.lock:
            for index, increment in enumerate(per_bucket):
                state.counts[index] += increment
            state.sum += total
            state.count += count

    def _series_exposition(
        self, labelvalues: LabelValues, state: _HistogramSeries
    ) -> List[str]:
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, state.counts):
            cumulative += count
            labels = _format_labels(
                self.labelnames + ("le",), labelvalues + (repr(bound),)
            )
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
        labels = _format_labels(self.labelnames + ("le",), labelvalues + ("+Inf",))
        lines.append(f"{self.name}_bucket{labels} {state.count}")
        plain = _format_labels(self.labelnames, labelvalues)
        lines.append(f"{self.name}_sum{plain} {_format_value(state.sum)}")
        lines.append(f"{self.name}_count{plain} {state.count}")
        return lines


class BoundHistogram:
    """A histogram series with its labels pre-resolved (hot-path helper)."""

    __slots__ = ("_metric", "_state")

    def __init__(self, metric: Histogram, state: _HistogramSeries) -> None:
        self._metric = metric
        self._state = state

    def observe(self, value: float) -> None:
        metric = self._metric
        if not metric._registry._enabled:
            return
        state = self._state
        index = bisect_left(metric.buckets, value)
        with state.lock:
            state.counts[index] += 1
            state.sum += value
            state.count += 1


class MetricsRegistry:
    """A named collection of metric families, one per process by default.

    ``counter``/``gauge``/``histogram`` are get-or-create: instrumented
    modules can each ask for the same family and share its series.  The
    registry can be globally disabled (``set_enabled(False)``) to measure the
    zero-telemetry baseline; disabled increments are a single attribute check.
    """

    #: Bound on remembered merge task ids (idempotence window).  Far larger
    #: than any in-flight pool batch; FIFO-evicted beyond that.
    MERGED_TASKS_LIMIT = 8192

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Metric]" = {}
        self._enabled = os.environ.get("REPRO_TELEMETRY", "1") != "0"
        self._merged_tasks: "OrderedDict[str, None]" = OrderedDict()

    # -- registration ------------------------------------------------------
    def _register(self, cls: type, name: str, **kwargs: object) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                labelnames = tuple(kwargs.get("labelnames", ()))
                if labelnames != existing.labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, requested {labelnames}"
                    )
                return existing
            metric = cls(self, name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help=help, labelnames=labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help=help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help=help, labelnames=labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    # -- enablement --------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, enabled: bool) -> None:
        self._enabled = bool(enabled)

    def reset(self) -> None:
        """Zero every series (registrations survive).  Intended for tests."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.clear()

    # -- cross-process merge ------------------------------------------------
    def merge_snapshot(
        self, snapshot: Mapping[str, Mapping], task_id: Optional[str] = None
    ) -> bool:
        """Fold a (delta) snapshot from another process into this registry.

        Families absent here are created from the snapshot's own ``type`` /
        ``help`` / ``labelnames`` (and ``buckets`` for histograms), so a
        worker can ship series the parent never registered.  Counters and
        histograms *add* — merging is commutative across workers — while
        gauges are last-writer-wins.  When ``task_id`` is given, a repeat
        merge of the same id is a no-op (idempotence for at-least-once
        delivery); the remembered-id window is bounded by
        :attr:`MERGED_TASKS_LIMIT`.  Returns True when the snapshot was
        applied, False when skipped (registry disabled or duplicate task).
        """
        if not self._enabled:
            return False
        if task_id is not None:
            with self._lock:
                if task_id in self._merged_tasks:
                    return False
                self._merged_tasks[task_id] = None
                while len(self._merged_tasks) > self.MERGED_TASKS_LIMIT:
                    self._merged_tasks.popitem(last=False)
        for name, family in snapshot.items():
            kind = family.get("type")
            labelnames = tuple(family.get("labelnames", ()))
            help_text = str(family.get("help", ""))
            if kind == "counter":
                metric: _Metric = self.counter(name, help=help_text, labelnames=labelnames)
            elif kind == "gauge":
                metric = self.gauge(name, help=help_text, labelnames=labelnames)
            elif kind == "histogram":
                buckets = tuple(family.get("buckets", ())) or DEFAULT_BUCKETS
                metric = self.histogram(
                    name, help=help_text, labelnames=labelnames, buckets=buckets
                )
            else:
                raise ValueError(f"cannot merge metric {name!r} of type {kind!r}")
            for series in family.get("series", []):
                labels = series.get("labels", {})
                labelvalues = tuple(str(labels[label]) for label in metric.labelnames)
                metric._merge_series(metric._state(labelvalues), series)
        return True

    # -- export ------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """A JSON-safe dict: ``{metric_name: {type, help, labelnames, series}}``."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in metrics}

    def snapshot_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (content type text/plain)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for _, metric in metrics:
            lines.extend(metric.exposition())
        return "\n".join(lines) + "\n" if lines else ""


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def counter(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
    return _REGISTRY.counter(name, help=help, labelnames=labelnames)


def gauge(name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
    return _REGISTRY.gauge(name, help=help, labelnames=labelnames)


def histogram(
    name: str,
    help: str = "",
    labelnames: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> Histogram:
    return _REGISTRY.histogram(name, help=help, labelnames=labelnames, buckets=buckets)


def set_enabled(enabled: bool) -> None:
    _REGISTRY.set_enabled(enabled)


def enabled() -> bool:
    return _REGISTRY.enabled


def diff_snapshots(
    before: Mapping[str, Mapping], after: Mapping[str, Mapping]
) -> Dict[str, dict]:
    """The delta between two snapshots of the *same* registry.

    This is the wire form a pool worker ships back with each task result:
    snapshot at task start, snapshot at task end, diff.  Counters and
    histograms subtract (only positive deltas are kept); gauges are included
    only when their value changed, carrying the ``after`` level.  Families
    and series with no activity between the two snapshots are dropped, so a
    quiet task ships an empty dict.
    """
    delta: Dict[str, dict] = {}
    for name, family in after.items():
        kind = family.get("type")
        base = before.get(name, {})
        base_series = {
            tuple(sorted(series.get("labels", {}).items())): series
            for series in base.get("series", [])
        }
        changed = []
        for series in family.get("series", []):
            key = tuple(sorted(series.get("labels", {}).items()))
            prior = base_series.get(key)
            if kind == "counter":
                increment = series.get("value", 0.0) - (
                    prior.get("value", 0.0) if prior else 0.0
                )
                if increment > 0:
                    changed.append({"labels": series.get("labels", {}), "value": increment})
            elif kind == "gauge":
                value = series.get("value", 0.0)
                if prior is None or value != prior.get("value", 0.0):
                    changed.append({"labels": series.get("labels", {}), "value": value})
            elif kind == "histogram":
                prior_count = prior.get("count", 0) if prior else 0
                count = series.get("count", 0) - prior_count
                if count <= 0:
                    continue
                prior_buckets = prior.get("buckets", {}) if prior else {}
                # Cumulative counts of the delta are deltas of the
                # cumulative counts, so bucket-wise subtraction is exact.
                buckets = {
                    bound: cumulative - prior_buckets.get(bound, 0)
                    for bound, cumulative in series.get("buckets", {}).items()
                }
                changed.append(
                    {
                        "labels": series.get("labels", {}),
                        "count": count,
                        "sum": series.get("sum", 0.0)
                        - (prior.get("sum", 0.0) if prior else 0.0),
                        "buckets": buckets,
                    }
                )
        if changed:
            delta[name] = {
                "type": kind,
                "help": family.get("help", ""),
                "labelnames": list(family.get("labelnames", ())),
                **(
                    {"buckets": list(family.get("buckets", ()))}
                    if kind == "histogram" and family.get("buckets")
                    else {}
                ),
                "series": changed,
            }
    return delta


def histogram_quantile(series: Mapping, q: float) -> Optional[float]:
    """Estimate the q-quantile of one snapshot histogram series.

    Standard Prometheus-style estimate: find the bucket the target rank
    falls in and interpolate linearly inside it.  Ranks landing in the
    ``+Inf`` bucket clamp to the highest finite bound.  Returns None for an
    empty series.
    """
    count = series.get("count", 0)
    if count <= 0:
        return None
    buckets = series.get("buckets", {})
    finite = sorted(
        (float(bound), cumulative)
        for bound, cumulative in buckets.items()
        if bound != "+Inf"
    )
    if not finite:
        return None
    rank = q * count
    previous_bound = 0.0
    previous_cumulative = 0
    for bound, cumulative in finite:
        if cumulative >= rank:
            in_bucket = cumulative - previous_cumulative
            if in_bucket <= 0:
                return bound
            fraction = (rank - previous_cumulative) / in_bucket
            return previous_bound + fraction * (bound - previous_bound)
        previous_bound, previous_cumulative = bound, cumulative
    return finite[-1][0]


def series_value(
    snapshot: Mapping[str, dict], name: str, **labels: str
) -> Union[float, int]:
    """Read one series value out of a :meth:`MetricsRegistry.snapshot` dict.

    Convenience for tests and CI assertions: returns 0 when the metric or
    series is absent; for histograms returns the observation count.
    """
    family = snapshot.get(name)
    if family is None:
        return 0
    for series in family.get("series", []):
        if series.get("labels", {}) == labels:
            if family.get("type") == "histogram":
                return series.get("count", 0)
            return series.get("value", 0)
    return 0
