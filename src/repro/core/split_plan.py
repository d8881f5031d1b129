"""Per-dataset split-table plans: presorted feature orders, per-node candidates.

A :class:`SplitTablePlan` is the one split-table path of the package: the
concrete ``bestSplit`` of :mod:`repro.core.splitter` (which ``DTrace`` and the
full-tree learner call) and the abstract ``bestSplit#`` of
:mod:`repro.verify.transformers` both score the rows it derives.  The plan
sorts each feature column once per *dataset*; the split table of any node
(an index subset along a predicate path) is then derived by filtering the
presorted orders with a boolean mask — O(N) per feature instead of
O(N log N), and equal to sorting the node directly because a stable global
sort restricted to a subset *is* the stable sort of that subset (node index
arrays are ascending, and candidate boundaries only sit between distinct
values anyway).  The plan derives every feature's table at once and keeps
them stacked as one row table of split candidates
(:class:`StackedCandidates`).

Three properties make the plan widely shareable:

* node tables depend only on ``(X, y, indices)``: the concrete trace of every
  test point starts at the same root, so the points of a batch share the
  root table and every node their traces have in common, and the abstract
  learners then find those tables already built;
* ``split_down`` keeps indices that depend only on the predicate path, never
  on the poisoning budget — so node tables are reused verbatim across the
  budget probes of a sweep or Pareto staircase;
* tables do not depend on the threat family — so the removal, flip, and
  composite transformers over the same dataset all hit the same cache entries.

Plans are memoized per dataset *instance* as a hidden attribute on the frozen
dataclass (the ``fingerprint_dataset`` trick), so the hot-path lookup is one
dict probe; ``clear_plans`` strips them for cold benchmarks.  A plan keeps
no reference to its dataset, so the pair forms no reference cycle and a
dataset and its plan are freed as soon as the dataset's last reference
drops.  Cache effectiveness is observable as
``split_table_cache_total{result}``.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.dataset import Dataset, FeatureKind
from repro.core.predicates import SymbolicThresholdPredicate, ThresholdPredicate
from repro.telemetry import metrics, profiling

#: Per-plan bound on distinct node tables kept alive (LRU evicted beyond it).
NODE_TABLE_CACHE_SIZE = 256

#: Per-plan bound on cached split-down index results.  Entries are small (one
#: child index array each) but numerous: the disjunctive learner splits every
#: live disjunct by every candidate predicate, so a single exhausting probe
#: can produce tens of thousands of distinct (indices, predicate, branch)
#: keys — the cap must comfortably hold one probe's worth.
SPLIT_CACHE_SIZE = 32768

#: Per-plan bound on memoized ``bestSplit`` / ``bestSplit#`` outcomes (keyed
#: by node and impurity, resp. node, budgets and ``cprob#`` method).
BEST_SPLIT_CACHE_SIZE = 4096

_SPLIT_TABLE_CACHE = metrics.counter(
    "split_table_cache_total",
    "Per-node split-table derivations served from a SplitTablePlan cache "
    "(result=hit) versus built by filtering the presorted order (result=miss).",
    labelnames=("result",),
)


#: Row kinds of :class:`StackedCandidates`: a REAL feature's symbolic
#: ``x <= [a, b)``, a BOOLEAN feature's threshold ``x <= τ``, and a
#: CATEGORICAL feature's equality ``x == v``.
SYMBOLIC_ROW, THRESHOLD_ROW, EQUALITY_ROW = 0, 1, 2
_ROW_KIND = {
    FeatureKind.REAL: SYMBOLIC_ROW,
    FeatureKind.BOOLEAN: THRESHOLD_ROW,
    FeatureKind.CATEGORICAL: EQUALITY_ROW,
}


@dataclass(frozen=True)
class StackedCandidates:
    """Every split candidate of one node, one row each, in feature order.

    Feature ``f`` owns rows ``offsets[f]:offsets[f + 1]``, all of kind
    ``kinds[f]``.  A point can take row ``i``'s true branch when
    ``x < high[i]`` and its false branch when ``x > low[i]`` (for an
    equality row: ``x == low[i]`` and ``x != low[i]``), so one branch test
    serves every row: a threshold ``τ`` is stored as ``[τ, τ⁺)`` for the
    next float ``τ⁺`` above it, an equality ``x == v`` as ``[v, v]``.  The
    ``left_*`` arrays describe the true side; every row splits the node
    non-trivially.
    """

    offsets: np.ndarray  # (n_features + 1,)
    kinds: np.ndarray  # (n_features,) int8: *_ROW
    low: np.ndarray  # (c,)
    high: np.ndarray  # (c,)
    left_sizes: np.ndarray  # (c,)
    left_class_counts: np.ndarray  # (c, k)
    total_size: int
    total_class_counts: np.ndarray  # (k,)

    @property
    def right_sizes(self) -> np.ndarray:
        return self.total_size - self.left_sizes

    @property
    def right_class_counts(self) -> np.ndarray:
        return self.total_class_counts[np.newaxis, :] - self.left_class_counts

    def features(self, rows: np.ndarray) -> np.ndarray:
        """The feature of each row in ``rows``."""
        return np.searchsorted(self.offsets, rows, side="right") - 1


def _with_equality_rows(rows: StackedCandidates) -> StackedCandidates:
    """Replace each categorical feature's threshold rows by equality rows.

    The feature's distinct node values are the candidates' lower values plus
    the last upper value, and each value's rows are the difference of
    adjacent cumulative counts.  A constant feature keeps no row.
    """
    pieces = []
    for feature, kind in enumerate(rows.kinds.tolist()):
        part = slice(int(rows.offsets[feature]), int(rows.offsets[feature + 1]))
        low, high = rows.low[part], rows.high[part]
        sizes, counts = rows.left_sizes[part], rows.left_class_counts[part]
        if kind == EQUALITY_ROW and sizes.size:
            low = high = np.append(low, high[-1])
            sizes = np.diff(sizes, prepend=0, append=rows.total_size)
            counts = np.diff(
                np.vstack((counts, rows.total_class_counts)), axis=0, prepend=0
            )
        pieces.append((low, high, sizes, counts))
    low, high, sizes, counts = (np.concatenate(column) for column in zip(*pieces))
    return StackedCandidates(
        offsets=np.concatenate(([0], np.cumsum([piece[2].size for piece in pieces]))),
        kinds=rows.kinds,
        low=low,
        high=high,
        left_sizes=sizes,
        left_class_counts=counts,
        total_size=rows.total_size,
        total_class_counts=rows.total_class_counts,
    )


class SplitTablePlan:
    """Presorted per-feature orders for one dataset plus node-level caches.

    The plan keeps what it needs of the dataset (its label array, column
    copies, class count and feature kinds) but no reference to the dataset
    itself, which carries the plan.

    The per-node caches are plain dicts read and written without locks: every
    individual dict operation is atomic under the GIL, entries are immutable
    once stored, and a lost race merely recomputes a value.  Eviction empties
    a cache wholesale when it overflows its cap — refilling is cheap relative
    to tracking recency on the hot path.
    """

    __slots__ = (
        "_y",
        "_n_classes",
        "_kinds",
        "_sorted_values",
        "_sorted_labels",
        "_orders",
        "_columns",
        "_node_cache",
        "_split_cache",
        "_best_split_cache",
        "__weakref__",
    )

    def __init__(self, dataset: Dataset) -> None:
        self._y = dataset.y
        self._n_classes = dataset.n_classes
        self._kinds = np.array(
            [_ROW_KIND[kind] for kind in dataset.feature_kinds], dtype=np.int8
        )
        X = dataset.X
        columns = tuple(np.ascontiguousarray(X[:, f]) for f in range(X.shape[1]))
        # One stable argsort per feature, as an (n_features, N) matrix.
        self._orders = np.array(
            [np.argsort(column, kind="stable") for column in columns], dtype=np.int64
        ).reshape(len(columns), len(dataset))
        self._sorted_values = X.T[np.arange(len(columns))[:, None], self._orders]
        self._sorted_labels = dataset.y[self._orders]
        self._columns: Tuple[np.ndarray, ...] = columns
        self._node_cache: Dict[bytes, StackedCandidates] = {}
        self._split_cache: Dict[tuple, tuple] = {}
        self._best_split_cache: Dict[tuple, object] = {}

    def node_candidates(self, indices: np.ndarray) -> StackedCandidates:
        """Every split candidate of the node selecting ``indices``.

        ``indices`` must be a sorted/unique int64 index array into this
        plan's dataset: a concrete trace node, or the rows of an abstract
        element (the invariant every ``AbstractTrainingSet`` ⟨T, n, f⟩
        maintains, whatever its budgets).  Only the stacked rows are kept,
        not the per-feature tables.
        """
        key = indices.tobytes()
        cached = self._node_cache.get(key)
        if cached is not None:
            _SPLIT_TABLE_CACHE.inc(result="hit")
            return cached
        _SPLIT_TABLE_CACHE.inc(result="miss")
        with profiling.phase("split_table"):
            candidates = self._build_candidates(indices)
        if len(self._node_cache) >= NODE_TABLE_CACHE_SIZE:
            self._node_cache.clear()
        self._node_cache[key] = candidates
        return candidates

    def _build_candidates(self, indices: np.ndarray) -> StackedCandidates:
        """Every feature's split table of the node at once, as stacked rows.

        Restricting a presorted order to the node keeps it sorted, so the
        node's rows of all features form one ``(n_features, size)`` matrix.
        A candidate sits wherever a feature's sorted value increases, and its
        true side is the prefix before it, for every feature in a few array
        operations.
        """
        n_classes = self._n_classes
        n_features = self._orders.shape[0]
        size = int(indices.size)
        mask = np.zeros(self._y.size, dtype=bool)
        mask[indices] = True
        keep = mask[self._orders]
        values = self._sorted_values[keep].reshape(n_features, size)
        labels = self._sorted_labels[keep].reshape(n_features, size)
        features, positions = np.nonzero(values[:, 1:] > values[:, :-1])
        left_class_counts = np.empty((features.size, n_classes), dtype=np.int64)
        for label in range(n_classes):
            cumulative = np.cumsum(labels == label, axis=1, dtype=np.int32)
            left_class_counts[:, label] = cumulative[features, positions]
        low = values[features, positions]
        high = values[features, positions + 1]
        kinds = self._kinds
        threshold = kinds[features] == THRESHOLD_ROW
        if threshold.any():
            midpoints = (low[threshold] + high[threshold]) / 2.0
            low[threshold] = midpoints
            high[threshold] = np.nextafter(midpoints, np.inf)
        rows = StackedCandidates(
            offsets=np.concatenate(
                ([0], np.cumsum(np.bincount(features, minlength=n_features)))
            ),
            kinds=kinds,
            low=low,
            high=high,
            left_sizes=positions + 1,
            left_class_counts=left_class_counts,
            total_size=size,
            total_class_counts=np.bincount(
                self._y[indices], minlength=n_classes
            ).astype(np.int64),
        )
        if (kinds == EQUALITY_ROW).any():
            rows = _with_equality_rows(rows)
        return rows

    # ------------------------------------------------------ split-down cache
    # ``split_down`` keeps the subset of ``indices`` selected by a predicate
    # branch — a function of (indices, predicate, branch) only, never of the
    # poisoning budgets.  Budget probes and the disjunctive learner's many
    # same-rows/different-budget disjuncts therefore share these results
    # verbatim; the caller re-derives budgets from the returned counts.

    def symbolic_split(
        self, indices: np.ndarray, feature: int, low: float, high: float, branch: bool
    ) -> Tuple[np.ndarray, int, int]:
        """Rows surviving ``x_f <= [low, high)`` (or its negation).

        Returns ``(loose_indices, tight_count, loose_count)`` where the tight
        side (``x <= low`` resp. ``x >= high``) is a subset of the loose side
        (``x < high`` resp. ``x > low``) because ``low < high``.
        """
        key = (indices.tobytes(), feature, low, high, branch)
        cached = self._split_cache.get(key)
        if cached is not None:
            return cached
        values = self._columns[feature][indices]
        if branch:
            tight = values <= low
            loose = values < high
        else:
            tight = values >= high
            loose = values > low
        result = (
            indices[loose],
            int(np.count_nonzero(tight)),
            int(np.count_nonzero(loose)),
        )
        result[0].setflags(write=False)
        if len(self._split_cache) >= SPLIT_CACHE_SIZE:
            self._split_cache.clear()
        self._split_cache[key] = result
        return result

    def threshold_split(
        self, indices: np.ndarray, feature: int, threshold: float, branch: bool
    ) -> np.ndarray:
        """Rows surviving ``x_f <= threshold`` (or its negation)."""
        key = (indices.tobytes(), feature, threshold, branch)
        cached = self._split_cache.get(key)
        if cached is not None:
            return cached[0]
        mask = self._columns[feature][indices] <= threshold
        if not branch:
            mask = ~mask
        kept = indices[mask]
        kept.setflags(write=False)
        if len(self._split_cache) >= SPLIT_CACHE_SIZE:
            self._split_cache.clear()
        self._split_cache[key] = (kept,)
        return kept

    # ------------------------------------------- bestSplit / bestSplit# memo
    # The concrete choice of bestSplit is fully determined by (node indices,
    # impurity): the traces of a batch's points re-pose it for every node
    # they share.  The abstract predicate sets returned by bestSplit# are
    # immutable and fully determined by (node indices, budgets, cprob
    # method); the Box and disjunctive learners re-pose the same query for
    # same-rows disjuncts and across ladder rungs of one certification.

    def cached_best_split(self, key: tuple) -> Optional[object]:
        return self._best_split_cache.get(key)

    def store_best_split(self, key: tuple, value: object) -> None:
        if len(self._best_split_cache) >= BEST_SPLIT_CACHE_SIZE:
            self._best_split_cache.clear()
        self._best_split_cache[key] = value


# The plan of a dataset is memoized as a (non-field) attribute on the frozen
# dataclass instance itself — the same trick ``fingerprint_dataset`` uses.
# An attribute probe is an order of magnitude cheaper than a locked registry
# lookup, and ``plan_for`` sits on the hottest path there is (every
# ``split_down`` of every disjunct).  ``_PLANNED`` weakly tracks the datasets
# carrying a plan so ``clear_plans`` can strip them for cold benchmarks.

_PLAN_ATTR = "_split_plan"
_PLANNED: Dict[int, "weakref.ref[Dataset]"] = {}
_PLANS_LOCK = threading.Lock()


def plan_for(dataset: Dataset) -> SplitTablePlan:
    """The (lazily built) :class:`SplitTablePlan` of ``dataset``."""
    plan = dataset.__dict__.get(_PLAN_ATTR)
    if plan is not None:
        return plan
    with _PLANS_LOCK:
        plan = dataset.__dict__.get(_PLAN_ATTR)
        if plan is None:
            plan = SplitTablePlan(dataset)
            object.__setattr__(dataset, _PLAN_ATTR, plan)
            key = id(dataset)
            _PLANNED[key] = weakref.ref(
                dataset, lambda _ref, _key=key: _PLANNED.pop(_key, None)
            )
    return plan


def clear_plans() -> None:
    """Drop every live plan (used by cold-path benchmarks)."""
    with _PLANS_LOCK:
        for ref in list(_PLANNED.values()):
            dataset = ref()
            if dataset is not None:
                dataset.__dict__.pop(_PLAN_ATTR, None)
        _PLANNED.clear()
    _SYMBOLIC_PREDICATES.clear()
    _THRESHOLD_PREDICATES.clear()


# --------------------------------------------------------------------------
# Predicate interning
#
# Threshold predicates are pure value objects; the abstract learners
# re-materialize the same (feature, bounds) predicates at every node of every
# probe.  Interning them cuts the allocation churn and makes the identity
# fast path of dict lookups (per-run point_satisfies memos, predicate-set
# comparisons) effective.  Keys are value-based, so sharing across datasets
# is sound.

PREDICATE_INTERN_SIZE = 65536

_SYMBOLIC_PREDICATES: Dict[tuple, SymbolicThresholdPredicate] = {}
_THRESHOLD_PREDICATES: Dict[tuple, ThresholdPredicate] = {}


def symbolic_predicate(feature: int, low: float, high: float) -> SymbolicThresholdPredicate:
    """Interned ``x_feature <= [low, high)`` predicate."""
    key = (feature, low, high)
    predicate = _SYMBOLIC_PREDICATES.get(key)
    if predicate is None:
        predicate = SymbolicThresholdPredicate(feature, low, high)
        if len(_SYMBOLIC_PREDICATES) >= PREDICATE_INTERN_SIZE:
            _SYMBOLIC_PREDICATES.clear()
        _SYMBOLIC_PREDICATES[key] = predicate
    return predicate


def threshold_predicate(feature: int, threshold: float) -> ThresholdPredicate:
    """Interned ``x_feature <= threshold`` predicate."""
    key = (feature, threshold)
    predicate = _THRESHOLD_PREDICATES.get(key)
    if predicate is None:
        predicate = ThresholdPredicate(feature, threshold)
        if len(_THRESHOLD_PREDICATES) >= PREDICATE_INTERN_SIZE:
            _THRESHOLD_PREDICATES.clear()
        _THRESHOLD_PREDICATES[key] = predicate
    return predicate
