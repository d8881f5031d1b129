"""The abstract learner ``DTrace#`` on the disjunctive domain (§5.2).

Instead of joining the abstract training sets produced by different predicate
choices (the precision bottleneck identified in Example 5.3), the disjunctive
learner keeps one disjunct per surviving control-flow path: each predicate
returned by ``bestSplit#`` spawns its own disjunct, and a symbolic predicate
whose evaluation on the test point is *maybe* spawns a disjunct for each
branch.  Exits accumulate across iterations; the point is certified robust
only if the **same** class dominates in every exit disjunct (Cor. 4.12).

The last level is array-shaped.  A leaf disjunct is one side of a candidate
that ``bestSplit#`` selected at its parent, and
:func:`~repro.verify.transformers.best_split_candidates` already carries each
side's size, class counts and budgets.  So the learner never builds the
leaves as states: it masks the sides the point can take and classifies all
of them with one :func:`~repro.verify.transformers.exit_bounds` call.  Exits
are kept as ``(E, k)`` lower/upper bound arrays; their join is a min/max over
rows, and the per-exit dominating classes come from one vectorized step.
Earlier levels still split states with ``split_down``, since their children
run ``bestSplit#`` again.

Precision is higher than the Box domain by construction, but the number of
disjuncts can grow exponentially with the tree depth, so the learner enforces
a configurable disjunct budget and a cooperative time budget, mirroring the
timeouts and out-of-memory failures reported in the paper's evaluation.

The learner interprets every element ``⟨T, n, f⟩`` of the one training-set
domain, so label-flip and combined removal+flip certificates (``f > 0``) get
the same disjunctive precision boost as removal ones
(``domain="disjuncts"/"either"`` on the engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.domains.interval import Interval, dominating_components
from repro.domains.trainingset import AbstractTrainingSet
from repro.telemetry import profiling
from repro.utils.timing import TimeBudget
from repro.verify.abstract_learner import AbstractRunResult
from repro.verify.transformers import (
    best_split_candidates,
    cprob_intervals,
    entropy_is_definitely_zero,
    exit_bounds,
    pure_exit_vector,
)


class DisjunctBudgetExceeded(RuntimeError):
    """Raised when the number of live disjuncts exceeds the configured budget."""


@dataclass(frozen=True)
class DisjunctiveRunResult(AbstractRunResult):
    """Result of a disjunctive run; adds the per-exit dominating classes."""

    exit_robust_classes: Tuple[Optional[int], ...] = ()

    @property
    def robust_class(self) -> Optional[int]:
        """The class dominating *every* exit disjunct, if any (Cor. 4.12)."""
        if not self.exit_robust_classes:
            return None
        first = self.exit_robust_classes[0]
        if first is None:
            return None
        if all(label == first for label in self.exit_robust_classes):
            return first
        return None


@dataclass
class DisjunctiveAbstractLearner:
    """``DTrace#`` over the disjunctive domain of §5.2.

    Parameters mirror :class:`repro.verify.abstract_learner.BoxAbstractLearner`
    plus ``max_disjuncts``, the resource limit on simultaneously live
    disjuncts (live + exited).  Exceeding it raises
    :class:`DisjunctBudgetExceeded`, which the robustness driver reports as a
    resource-exhausted (inconclusive) outcome.
    """

    max_depth: int = 2
    cprob_method: str = "optimal"
    predicate_pool: Optional[Sequence] = None
    max_disjuncts: int = 4096

    def run(
        self,
        trainset: AbstractTrainingSet,
        x: Sequence[float],
        *,
        time_budget: Optional[TimeBudget] = None,
    ) -> DisjunctiveRunResult:
        budget = time_budget or TimeBudget.unlimited()
        method = self.cprob_method
        point = np.asarray(x, dtype=np.float64)
        live: List[AbstractTrainingSet] = [trainset]
        # The pure and ⋄ exits of visited states, as classification vectors
        # (pure exits with label flips have no state form, see
        # transformers.pure_exit_vector).
        exit_vectors: List[Tuple[Interval, ...]] = []
        # The leaves: (sizes, class counts, removals, flips) of the sides the
        # point takes at each last-level state.
        leaves: List[Tuple[np.ndarray, ...]] = []
        leaf_count = 0
        iterations = 0
        peak_disjuncts = 1

        for depth in range(self.max_depth):
            if not live:
                break
            iterations += 1
            last_level = depth == self.max_depth - 1
            next_live: List[AbstractTrainingSet] = []
            for state in live:
                budget.check()

                pure = pure_exit_vector(state, method)
                if pure is not None:
                    exit_vectors.append(pure)
                if entropy_is_definitely_zero(state, method):
                    continue

                candidates = best_split_candidates(state, method, self.predicate_pool)
                if candidates.includes_null:
                    with profiling.phase("cprob_exit"):
                        exit_vectors.append(cprob_intervals(state, method))
                with profiling.phase("disjunct_split"):
                    taken = candidates.branches(point)
                    if last_level:
                        leaves.append(
                            (
                                candidates.sizes[taken],
                                candidates.class_counts[taken],
                                candidates.removals[taken],
                                candidates.flips[taken],
                            )
                        )
                        leaf_count += int(np.count_nonzero(taken))
                    else:
                        predicates = candidates.predicates
                        rows, sides = np.nonzero(taken)
                        for row, side in zip(rows.tolist(), sides.tolist()):
                            next_live.append(
                                state.split_down(predicates[row], side == 0)
                            )
                self._check_budget(len(next_live) + leaf_count + len(exit_vectors))
            live = next_live
            peak_disjuncts = max(
                peak_disjuncts, len(live) + leaf_count + len(exit_vectors)
            )

        # Only a zero-depth run leaves a live state: the root is its exit.
        exit_vectors.extend(cprob_intervals(state, method) for state in live)
        self._check_budget(len(exit_vectors) + leaf_count)

        n_classes = trainset.dataset.n_classes
        lower = np.array(
            [[component.lo for component in vector] for vector in exit_vectors],
            dtype=np.float64,
        ).reshape(-1, n_classes)
        upper = np.array(
            [[component.hi for component in vector] for vector in exit_vectors],
            dtype=np.float64,
        ).reshape(-1, n_classes)
        if leaves:
            with profiling.phase("cprob_exit"):
                leaf_lower, leaf_upper = exit_bounds(
                    *(np.concatenate(column) for column in zip(*leaves)), method
                )
            lower = np.concatenate((lower, leaf_lower))
            upper = np.concatenate((upper, leaf_upper))

        if lower.shape[0] == 0:
            joined: Tuple[Interval, ...] = tuple(
                Interval.unit() for _ in range(n_classes)
            )
            per_exit: Tuple[Optional[int], ...] = ()
        else:
            joined = tuple(
                Interval(lo, hi)
                for lo, hi in zip(lower.min(axis=0).tolist(), upper.max(axis=0).tolist())
            )
            per_exit = dominating_components(lower, upper)

        return DisjunctiveRunResult(
            class_intervals=joined,
            exit_count=int(lower.shape[0]),
            iterations=iterations,
            max_disjuncts=peak_disjuncts,
            exit_robust_classes=per_exit,
        )

    def _check_budget(self, count: int) -> None:
        if count > self.max_disjuncts:
            raise DisjunctBudgetExceeded(
                f"disjunct budget of {self.max_disjuncts} exceeded ({count} disjuncts)"
            )
