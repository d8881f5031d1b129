"""Per-dataset split-table plans: presorted and counted columns, per-node candidates.

A :class:`SplitTablePlan` is the one split-table path of the package: the
concrete ``bestSplit`` of :mod:`repro.core.splitter` (which ``DTrace`` and the
full-tree learner call) and the abstract ``bestSplit#`` of
:mod:`repro.verify.transformers` both score the rows it derives.  The plan
derives every feature's table of a node (an index subset along a predicate
path) at once and keeps them stacked as one row table of split candidates
(:class:`StackedCandidates`), in feature order.

Real and categorical columns are sorted once per *dataset*; a node's table
of such a feature is then derived by keeping the node's rows of the
presorted order — O(N) per feature instead of O(N log N).  Any sorted order
restricted to a subset is a sorted order of that subset, and no table
depends on the order of rows within a tie: a candidate sits only where a
feature's sorted value strictly increases, its true side is the node rows
valued at most that boundary, its bounds are the values on either side, and
its class counts are a prefix sum read there.  The sort therefore need not
be stable.  One exception: a tie of ``-0.0`` and ``+0.0`` could report
either sign as a bound, so the plan turns every ``-0.0`` into ``+0.0``
first, and tables depend only on the node's values.

The plan presorts its columns, and builds a node's table of all presorted
features, one feature block of about ``_FEATURE_BLOCK_CELLS`` node cells at
a time.  In a block, one boundary mask over the node's ``(features, size)``
sorted matrices compresses every column of the table out of them at once
(the values on either side, the prefix sizes and ``k - 1`` prefix class
counts).  A node of several blocks first gathers and counts every block,
then allocates the table's columns once and writes each block's rows at its
final offset: no full-size temporary and no concatenated copy.  Blocks are
independent and their numpy calls release the GIL, so a build of several
blocks maps them over one thread per usable CPU, in a pool that lives only
for that build; a node of one block (every node of a small dataset) and a
process with one usable CPU start no thread.  However a build is blocked,
its tables are the same bit for bit.  Inside a table, sizes and class counts
are ``int32`` (no node reaches 2³¹ rows), which halves the largest columns
of a root table; the choices and selections read out of a table count in
``int64``.  The plan keeps the orders as ``int32``, the sorted labels in the
narrowest unsigned type and the sorted values, and no other copy of the
matrix: the sides of a split compare the dataset's own column, as ``<``,
``<=`` and ``==`` do not see the sign of zero.  A table scores the concrete
Gini of its rows once (:attr:`StackedCandidates.gini`) and finds their
first minimum once (:attr:`StackedCandidates.gini_argmin`); the concrete
``bestSplit`` and the ``bestSplit#`` screen both read them.  A table of
several feature blocks is scored and scanned in its build threads, each
block's thread right after it writes the block's rows, in sub-blocks of
``_SCORE_ROWS`` rows; a table of one block is scored on first use, as most
such tables never are.  A table that merges boolean rows in or trades
categorical rows for equality rows is scored on first use too.

Boolean columns are not sorted.  A boolean feature holds only 0 and 1 (the
contract :class:`~repro.core.dataset.Dataset` enforces), so its table has at
most the one row ``x <= 0.5``, and counting the node's ones per class gives
its class counts.  The plan keeps the boolean columns as one ``uint8``
matrix and counts all of them at once; a dataset of boolean features alone
(MNIST-1-7-Binary) sorts nothing.  ``filter#`` counts a node's boolean
columns from the same matrix (:meth:`SplitTablePlan.node_bits`).

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

import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.dataset import Dataset, FeatureKind
from repro.core.predicates import (
    EqualityPredicate,
    Predicate,
    SymbolicThresholdPredicate,
    ThresholdPredicate,
)
from repro.telemetry import metrics, profiling

#: Per-plan bound on distinct node tables kept alive; ``node_candidates``
#: empties the whole cache when it reaches the cap.
NODE_TABLE_CACHE_SIZE = 256

#: Per-plan bound on cached split results.  Entries are small (one child index
#: array each) but numerous: the disjunctive learner splits every inner
#: disjunct by each candidate row the point takes, so a single exhausting
#: probe can produce tens of thousands of distinct (indices, row, branch)
#: keys — the cap must comfortably hold one probe's worth.
SPLIT_CACHE_SIZE = 32768

#: Per-plan bound on memoized ``bestSplit`` / ``bestSplit#`` outcomes (keyed
#: by node and impurity, resp. node, budgets and ``cprob#`` method).
BEST_SPLIT_CACHE_SIZE = 4096

#: Rows per block when a kernel walks a node's whole candidate table.  Root
#: tables reach millions of rows; a block's temporaries fit in cache.
_BLOCK_ROWS = 8192

#: Node cells (features × node rows) per feature block when the plan
#: presorts its columns or builds a node's presorted rows: 32 row blocks.
_FEATURE_BLOCK_CELLS = 32 * _BLOCK_ROWS

#: Rows per Gini sub-block when a feature block's build thread scores the
#: rows it wrote: 8 row blocks, coarse enough that the threads' scoring
#: calls do not queue on the GIL.
_SCORE_ROWS = 8 * _BLOCK_ROWS

_SPLIT_TABLE_CACHE = metrics.counter(
    "split_table_cache_total",
    "Per-node split-table derivations served from a SplitTablePlan cache "
    "(result=hit) versus built from the plan's columns (result=miss).",
    labelnames=("result",),
)


#: A table's read-only Gini scores and the first row of least score.
_Scored = Tuple[np.ndarray, int]

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
    left_sizes: np.ndarray  # (c,) int32
    left_class_counts: np.ndarray  # (c, k) int32
    total_size: int
    total_class_counts: np.ndarray  # (k,) int64
    #: ``(gini, gini_argmin)`` when the build already scored the rows.
    _scored: Optional[_Scored] = field(default=None, repr=False, compare=False)

    @property
    def right_sizes(self) -> np.ndarray:
        return self.total_size - self.left_sizes

    @property
    def right_class_counts(self) -> np.ndarray:
        return self.total_class_counts[np.newaxis, :] - self.left_class_counts

    def features(self, rows: np.ndarray) -> np.ndarray:
        """The feature of each row in ``rows``."""
        return np.searchsorted(self.offsets, rows, side="right") - 1

    @cached_property
    def gini(self) -> np.ndarray:
        """The concrete Gini score of every row (:func:`gini_scores`), read-only.

        A table built in several feature blocks of presorted rows comes with
        its scores, written by the build threads; any other table scores
        once on first use, one :func:`row_blocks` block at a time.  Either
        way the concrete ``bestSplit`` and the ``bestSplit#`` screen share
        them.
        """
        if self._scored is not None:
            return self._scored[0]
        scores = np.empty(self.low.size)
        for block in row_blocks(scores.size):
            scores[block] = gini_scores(
                self.left_sizes[block],
                self.left_class_counts[block],
                self.total_size,
                self.total_class_counts,
            )
        scores.setflags(write=False)
        return scores

    @cached_property
    def gini_argmin(self) -> int:
        """The first row of least :attr:`gini` score: found by the build
        threads along with the scores, or else scanned once on first use."""
        if self._scored is not None:
            return self._scored[1]
        return int(np.argmin(self.gini))


def row_blocks(n_rows: int) -> Iterator[slice]:
    """Consecutive slices of at most ``_BLOCK_ROWS`` rows covering ``n_rows``."""
    return (
        slice(start, start + _BLOCK_ROWS) for start in range(0, n_rows, _BLOCK_ROWS)
    )


def _feature_blocks(n_features: int, size: int) -> List[slice]:
    """Consecutive feature slices of about ``_FEATURE_BLOCK_CELLS`` cells of
    ``size`` rows each."""
    step = max(1, _FEATURE_BLOCK_CELLS // max(size, 1))
    return [slice(start, start + step) for start in range(0, n_features, step)]


@lru_cache(maxsize=None)
def _usable_cpus() -> int:
    """The number of CPUs this process may run on, read once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


@contextmanager
def _block_map(n_blocks: int) -> Iterator[Callable]:
    """A ``map`` for ``n_blocks`` feature blocks, over one thread per usable CPU.

    One block, or one usable CPU, maps inline and starts no thread; the
    threads of a pool live only inside the ``with``.  Every block kernel
    spends its time in numpy calls that release the GIL.
    """
    threads = min(n_blocks, _usable_cpus())
    if threads < 2:
        yield map
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield pool.map


def class_sum(columns: np.ndarray) -> np.ndarray:
    """``columns[..., 0] + columns[..., 1] + …``: the class axis summed in order.

    That is numpy's ``sum`` order below 8 classes (it sums pairwise from 8),
    and it walks a block's short class axis much faster than ``sum``.
    """
    k = columns.shape[-1]
    total = columns[..., 0] + columns[..., 1] if k > 1 else columns[..., 0].copy()
    for j in range(2, k):
        total += columns[..., j]
    return total


def gini_scores(
    left_sizes: np.ndarray,
    left_class_counts: np.ndarray,
    total_size: int,
    total_class_counts: np.ndarray,
) -> np.ndarray:
    """Concrete Gini score ``Σ_side (s − Σ c²/s)`` of each row of a node table.

    An empty side scores 0.  With the node's class counts ``t``, the right
    side's ``Σ (t − c)²`` is ``Σ t² − 2 Σ t·c + Σ c²``.  Every sum is an
    integer far below 2⁵³ and so exact, which leaves the per-side
    arithmetic ``s − Σ c²/s`` the only rounding.
    """
    counts = left_class_counts.astype(np.float64)
    totals = total_class_counts.astype(np.float64)
    right_squares = counts @ (-2.0 * totals)
    counts *= counts
    left_squares = class_sum(counts)
    right_squares += left_squares
    right_squares += totals @ totals
    left = left_sizes.astype(np.float64)
    right = total_size - left
    left_squares /= np.maximum(left, 1.0)
    right_squares /= np.maximum(right, 1.0)
    left -= left_squares
    right -= right_squares
    left += right
    return left


def predicate_row(predicate: Predicate) -> Tuple[int, float, float, int]:
    """``predicate`` as a candidate row ``(feature, low, high, kind)``.

    A threshold ``x <= τ`` is the row ``[τ, τ⁺)`` for the next float ``τ⁺``
    above ``τ``: no value lies strictly between the two, so both give the
    same sides and branch tests.  An equality ``x == v`` is ``[v, v]``.
    """
    if isinstance(predicate, SymbolicThresholdPredicate):
        return predicate.feature, predicate.low, predicate.high, SYMBOLIC_ROW
    if isinstance(predicate, ThresholdPredicate):
        threshold = predicate.threshold
        return (
            predicate.feature,
            threshold,
            math.nextafter(threshold, math.inf),
            THRESHOLD_ROW,
        )
    if isinstance(predicate, EqualityPredicate):
        return predicate.feature, predicate.value, predicate.value, EQUALITY_ROW
    raise TypeError(f"no candidate row for {type(predicate).__name__}")


#: A node table's rows as ``(rows per feature, low, high, left_sizes,
#: left_class_counts)``, listed feature by feature; the first array counts
#: the rows of every feature of the dataset.
_Rows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: One feature block of a node: its ``(features, size)`` sorted values and
#: labels, and the ``(features, size - 1)`` mask of where the values increase.
_Block = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: The upper bound of a boolean feature's row ``x <= 0.5``.
_ABOVE_HALF = math.nextafter(0.5, math.inf)


def _compressed(
    values: np.ndarray, labels: np.ndarray, boundary: np.ndarray, n_classes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A feature block's rows ``(low, high, left_sizes, left_class_counts)``.

    A row's true side is the prefix up to its boundary, so the one mask
    compresses every column out of the block at once: the values on either
    side, the prefix size and ``k - 1`` prefix class counts.  The last
    class's count is the prefix size minus the other classes'.  Sizes and
    counts are ``int32``.
    """
    low = values[:, :-1][boundary]
    high = values[:, 1:][boundary]
    left_sizes = np.broadcast_to(
        np.arange(1, values.shape[1], dtype=np.int32), boundary.shape
    )[boundary]
    left_class_counts = np.empty((low.size, n_classes), dtype=np.int32)
    last = left_class_counts[:, n_classes - 1]
    last[:] = left_sizes
    for label in range(n_classes - 1):
        prefix = np.cumsum(labels[:, :-1] == label, axis=1, dtype=np.int32)
        counts = prefix[boundary]
        left_class_counts[:, label] = counts
        last -= counts
    return low, high, left_sizes, left_class_counts


def _presorted(
    X: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of ``X`` presorted: ``(orders, sorted values, sorted labels)``.

    Each is one fresh C-ordered ``(n_features, N)`` matrix, filled a feature
    block at a time.  A block copies its columns in, where ``+ 0.0`` turns
    every -0.0 into +0.0; one unstable argsort orders its features (ties may
    come out in any order), and sorting the block in place gives the values
    in that order, since equal values are now indistinguishable.
    """
    shape = X.shape[::-1]
    orders = np.empty(shape, dtype=np.int32)
    values = np.empty(shape)
    sorted_labels = np.empty(shape, dtype=labels.dtype)

    def presort(features: slice) -> None:
        block = values[features]
        np.add(X[:, features].T, 0.0, out=block)
        order = np.argsort(block, axis=1)
        sorted_labels[features] = labels.take(order)
        orders[features] = order
        block.sort(axis=1)

    blocks = _feature_blocks(*shape)
    with _block_map(len(blocks)) as run:
        list(run(presort, blocks))
    return orders, values, sorted_labels


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
            sizes = np.diff(sizes, prepend=0, append=rows.total_size).astype(np.int32)
            counts = np.diff(
                np.vstack((counts, rows.total_class_counts)), axis=0, prepend=0
            ).astype(np.int32)
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


def _merged(*tables: _Rows) -> _Rows:
    """The rows of ``tables`` in feature order.

    Each table lists its rows feature by feature and no feature appears in
    two tables, so a stable sort by feature merges them.
    """
    features = [np.repeat(np.arange(table[0].size), table[0]) for table in tables]
    order = np.argsort(np.concatenate(features), kind="stable")
    low, high, sizes, counts = (
        np.concatenate(parts)[order] for parts in zip(*(table[1:] for table in tables))
    )
    per_feature = np.sum([table[0] for table in tables], axis=0)
    return per_feature, low, high, sizes, counts


class SplitTablePlan:
    """Per-dataset column layouts for node tables, plus node-level caches.

    Non-boolean columns are presorted once; boolean columns are kept as one
    ``uint8`` matrix whose node rows are counted.  The plan keeps what it
    needs of the dataset (its read-only feature matrix and label array, the
    presorted and counted layouts, class count and feature kinds) but no
    reference to the dataset itself, which carries the plan.

    The per-node caches are plain dicts read and written without locks: every
    individual dict operation is atomic under the GIL, entries are immutable
    once stored, and a lost race merely recomputes a value.  Eviction empties
    a cache wholesale when it overflows its cap — refilling is cheap relative
    to tracking recency on the hot path.
    """

    __slots__ = (
        "_X",
        "_y",
        "_n_classes",
        "_kinds",
        "_presorted",
        "_sorted_values",
        "_sorted_labels",
        "_orders",
        "_boolean",
        "_bits",
        "_node_cache",
        "_split_cache",
        "_best_split_cache",
        "__weakref__",
    )

    def __init__(self, dataset: Dataset) -> None:
        self._X = dataset.X
        self._y = dataset.y
        self._n_classes = dataset.n_classes
        self._kinds = np.array(
            [_ROW_KIND[kind] for kind in dataset.feature_kinds], dtype=np.int8
        )
        boolean = self._kinds == THRESHOLD_ROW
        self._boolean = np.flatnonzero(boolean)
        self._presorted = np.flatnonzero(~boolean)
        self._orders: Optional[np.ndarray] = None
        self._sorted_values: Optional[np.ndarray] = None
        self._sorted_labels: Optional[np.ndarray] = None
        if self._presorted.size or not self._boolean.size:
            self._orders, self._sorted_values, self._sorted_labels = _presorted(
                dataset.X[:, self._presorted] if self._boolean.size else dataset.X,
                dataset.y.astype(np.min_scalar_type(self._n_classes)),
            )
        self._bits: Optional[np.ndarray] = None
        if self._boolean.size:
            X = dataset.X if not self._presorted.size else dataset.X[:, self._boolean]
            self._bits = X.astype(np.uint8)
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

        The presorted and the boolean columns each give their rows feature
        by feature; with both kinds present the two tables are merged into
        feature order.  Categorical features then trade their threshold rows
        for equality rows.  A table of presorted rows alone, none of them
        categorical, keeps its rows as built, so its build may score them
        too (:meth:`_presorted_rows`).
        """
        labels = self._y[indices]
        total_class_counts = np.bincount(labels, minlength=self._n_classes).astype(
            np.int64
        )
        kinds = self._kinds
        categorical = bool((kinds == EQUALITY_ROW).any())
        tables: List[_Rows] = []
        scored: Optional[_Scored] = None
        if self._orders is not None:
            table, scored = self._presorted_rows(
                indices,
                total_class_counts if self._bits is None and not categorical else None,
            )
            tables.append(table)
        if self._bits is not None:
            tables.append(self._boolean_rows(indices, labels, total_class_counts))
        per_feature, low, high, left_sizes, left_class_counts = (
            tables[0] if len(tables) == 1 else _merged(*tables)
        )
        rows = StackedCandidates(
            offsets=np.concatenate(([0], np.cumsum(per_feature))),
            kinds=kinds,
            low=low,
            high=high,
            left_sizes=left_sizes,
            left_class_counts=left_class_counts,
            total_size=int(indices.size),
            total_class_counts=total_class_counts,
            _scored=scored,
        )
        if categorical:
            rows = _with_equality_rows(rows)
        return rows

    def _presorted_rows(
        self, indices: np.ndarray, totals: Optional[np.ndarray]
    ) -> Tuple[_Rows, Optional[_Scored]]:
        """The node's rows of every presorted (non-boolean) feature, and
        their Gini scores if the build scored them.

        Restricting the presorted orders to the node keeps them sorted, so
        the node's rows of a block of these features form one
        ``(features, size)`` matrix, gathered through the flat positions of
        the node's rows; the whole dataset reads the presorted matrices as
        they are.  Which row of a tie lands where is unspecified and reaches
        no table (see the module docstring).  A candidate sits wherever a
        feature's sorted value strictly increases, so each block's boundary
        mask counts its rows and then compresses them (:func:`_compressed`).

        A node of one feature block returns that block's columns, unscored:
        most such tables are never scored.  A larger node gathers and counts
        every block, allocates the table's columns once, and writes each
        block's rows at its offset, both passes over :func:`_block_map`.
        Given the node's class ``totals``, each block's thread then scores
        the rows it wrote (:func:`gini_scores`, ``_SCORE_ROWS`` rows at a
        time) and finds their first minimum; the least ``(score, row)`` over
        the blocks is the table's first minimum.  Each row's score depends
        on that row alone, so the scores are those of a later
        :attr:`StackedCandidates.gini`, bit for bit.
        """
        orders, values, labels = self._orders, self._sorted_values, self._sorted_labels
        assert orders is not None and values is not None and labels is not None
        size = int(indices.size)
        mask: Optional[np.ndarray] = None
        if size != self._y.size:  # sorted unique indices: not the whole dataset
            mask = np.zeros(self._y.size, dtype=bool)
            mask[indices] = True

        def gather(features: slice) -> _Block:
            """The node's sorted values and labels of ``features``, and boundaries."""
            node_values, node_labels = values[features], labels[features]
            if mask is not None:
                keep = np.flatnonzero(mask.take(orders[features]))
                shape = (node_values.shape[0], size)
                node_values = node_values.reshape(-1).take(keep).reshape(shape)
                node_labels = node_labels.reshape(-1).take(keep).reshape(shape)
            return node_values, node_labels, node_values[:, 1:] > node_values[:, :-1]

        per_feature = np.zeros(self._kinds.size, dtype=np.int64)
        n_features = orders.shape[0]
        if n_features * size <= _FEATURE_BLOCK_CELLS:
            block = gather(slice(None))
            per_feature[self._presorted] = np.count_nonzero(block[2], axis=1)
            return (per_feature, *_compressed(*block, self._n_classes)), None
        blocks = _feature_blocks(n_features, size)
        with _block_map(len(blocks)) as run:
            parts = list(run(gather, blocks))
            counts = [np.count_nonzero(part[2], axis=1) for part in parts]
            per_feature[self._presorted] = np.concatenate(counts)
            ends = np.cumsum([block.sum() for block in counts]).tolist()
            columns = (
                np.empty(ends[-1]),
                np.empty(ends[-1]),
                np.empty(ends[-1], dtype=np.int32),
                np.empty((ends[-1], self._n_classes), dtype=np.int32),
            )
            scores = None if totals is None else np.empty(ends[-1])

            def write(
                part: _Block, start: int, end: int
            ) -> Optional[Tuple[float, int]]:
                """Write the block's rows at ``start:end``; if scored, score
                them and return their first ``(least score, row)``."""
                for column, rows in zip(columns, _compressed(*part, self._n_classes)):
                    column[start:end] = rows
                if scores is None or totals is None:
                    return None
                minima: List[Tuple[float, int]] = []
                for first in range(start, end, _SCORE_ROWS):
                    sub = slice(first, min(first + _SCORE_ROWS, end))
                    sub_scores = gini_scores(
                        columns[2][sub], columns[3][sub], size, totals
                    )
                    scores[sub] = sub_scores
                    row = int(np.argmin(sub_scores))
                    minima.append((float(sub_scores[row]), first + row))
                return min(minima, default=None)

            written = run(write, parts, [0, *ends[:-1]], ends)
            block_minima = [least for least in written if least is not None]
        if scores is None or not block_minima:  # unscored, or no rows at all
            return (per_feature, *columns), None
        scores.setflags(write=False)
        return (per_feature, *columns), (scores, min(block_minima)[1])

    def _boolean_rows(
        self, indices: np.ndarray, labels: np.ndarray, total_class_counts: np.ndarray
    ) -> _Rows:
        """The node's row of every boolean feature, by counting.

        Per class, summing the node's rows of the ``uint8`` matrix counts
        each feature's ones, and the class total minus them its zeros.  A
        feature whose node holds both values has the one row ``x <= 0.5``,
        stored as ``[0.5, 0.5⁺)``, whose true side is the zeros.
        """
        bits = self._bits
        assert bits is not None
        ones = np.empty((bits.shape[1], self._n_classes), dtype=np.int32)
        for label in range(self._n_classes):
            ones[:, label] = bits[indices[labels == label]].sum(axis=0, dtype=np.int32)
        zeros = total_class_counts.astype(np.int32) - ones
        zero_sizes = zeros.sum(axis=1, dtype=np.int32)
        split = (zero_sizes > 0) & (zero_sizes < indices.size)
        count = int(np.count_nonzero(split))
        per_feature = np.zeros(self._kinds.size, dtype=np.int64)
        per_feature[self._boolean] = split
        return (
            per_feature,
            np.full(count, 0.5),
            np.full(count, _ABOVE_HALF),
            zero_sizes[split],
            zeros[split],
        )

    def is_boolean(self, features: np.ndarray) -> np.ndarray:
        """Whether each of ``features`` is boolean: holds only 0 and 1."""
        return self._kinds[features] == THRESHOLD_ROW

    def node_bits(self, indices: np.ndarray, features: np.ndarray) -> np.ndarray:
        """The node's values of the boolean ``features``, one ``uint8`` column each."""
        assert self._bits is not None
        columns = np.searchsorted(self._boolean, features)
        return self._bits.take(indices, axis=0).take(columns, axis=1)

    # ------------------------------------------------------ split-down cache
    # ``symbolic_split`` keeps the subset of ``indices`` on one side of a
    # candidate row — a function of (indices, row, branch) only, never of
    # the poisoning budgets.  Budget probes and the disjunctive learner's
    # many same-rows/different-budget disjuncts therefore share these results
    # verbatim; the caller derives the budgets.

    def symbolic_split(
        self,
        indices: np.ndarray,
        feature: int,
        low: float,
        high: float,
        kind: int,
        branch: bool,
    ) -> Tuple[np.ndarray, int, int]:
        """Rows on one side of the candidate row ``(feature, low, high, kind)``.

        The row encoding is :class:`StackedCandidates`'s: the true side keeps
        ``x < high`` and the false side ``x > low`` (``x == low`` and
        ``x != low`` for an equality row).  Returns ``(loose_indices,
        tight_count, loose_count)``, where the tight side (``x <= low`` resp.
        ``x >= high``) is the subset a symbolic ``x <= [low, high)`` keeps for
        every threshold it stands for; a threshold or equality row has no
        value strictly between its bounds, so its two sides coincide.
        """
        key = (indices.tobytes(), feature, low, high, kind, branch)
        cached = self._split_cache.get(key)
        if cached is not None:
            return cached
        # The dataset's own column: ``<``, ``<=`` and ``==`` do not see the
        # sign of zero, so no normalized copy is needed.
        values = self._X[:, feature][indices]
        if kind == EQUALITY_ROW:
            tight = loose = values == low if branch else values != low
        elif branch:
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
