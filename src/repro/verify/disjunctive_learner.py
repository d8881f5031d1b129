"""The abstract learner ``DTrace#`` on the disjunctive domain (§5.2).

Instead of joining the abstract training sets produced by different predicate
choices (the precision bottleneck identified in Example 5.3), the disjunctive
learner keeps one disjunct per surviving control-flow path: each predicate
returned by ``bestSplit#`` spawns its own disjunct, and a symbolic predicate
whose evaluation on the test point is *maybe* spawns a disjunct for each
branch.  Exits accumulate across iterations; the point is certified robust
only if the **same** class dominates in every exit disjunct (Cor. 4.12).

The learner certifies a level's live states together, in chunks.  A
chunk's exits come from one ``(S, k)`` class-count array
(:func:`~repro.verify.transformers.level_exits`): every state's pure exit,
its ``ent(T) = 0`` test and its ``⋄`` exit.  Its ``bestSplit#`` is one
:func:`~repro.verify.transformers.best_splits` call, which scores the rows
of every state not memoized in one kernel call.  Ψ stays in the
candidate-row form: each row's feature, bounds and kind, with the size,
class counts and budgets of both of its sides.  A child disjunct is one
side of a row, and only the sides the point can take are touched.  The last
level is array-shaped: the learner never builds the leaves as states, it
classifies all of them with one
:func:`~repro.verify.transformers.exit_bounds` call.  Exits are kept as
``(E, k)`` lower/upper bound arrays, in the order a state-by-state walk
finds them; their join is a min/max over rows, and the per-exit dominating
classes come from one vectorized step.  Earlier levels build each child
element from its row and side
(:meth:`~repro.verify.transformers.SplitCandidates.child`), since their
children run ``bestSplit#`` again.

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
from math import ceil
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.domains.interval import Interval, dominating_components
from repro.domains.trainingset import AbstractTrainingSet
from repro.telemetry import profiling
from repro.utils.timing import TimeBudget
from repro.verify.abstract_learner import AbstractRunResult
from repro.verify.transformers import (
    best_splits,
    exit_bounds,
    level_exits,
    stack_candidates,
)

#: A level's exits, ``bestSplit#`` and cap check run over chunks of its
#: live states: the first of ``_FIRST_CHUNK`` states, each next one twice
#: as large, up to ``_CHUNK_STATES``.  An exhausting run thus does at most
#: about twice the work it did before the state that crossed the cap.
_FIRST_CHUNK = 16
_CHUNK_STATES = 256


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
        n_classes = trainset.dataset.n_classes
        live: List[AbstractTrainingSet] = [trainset]
        # Exit bounds in visit order: each state's pure exit, then its ⋄
        # exit.  Pure exits with label flips have no state form (see
        # transformers.state_exits).
        lower_parts: List[np.ndarray] = []
        upper_parts: List[np.ndarray] = []
        # The leaves: (sizes, class counts, removals, flips) of the sides the
        # point takes at the last level, classified after the loop.
        leaves: List[Tuple[np.ndarray, ...]] = []
        # Live states, exits and leaves: what the cap counts.
        held = len(live)
        iterations = 0
        peak_disjuncts = 1
        # Disjuncts a state adds, as last observed (each adds one at least).
        rate = 1.0

        for depth in range(self.max_depth):
            if not live:
                break
            iterations += 1
            last_level = depth == self.max_depth - 1
            next_live: List[AbstractTrainingSet] = []
            # The cap counts a level's states through what they add.
            held -= len(live)
            done = added = 0
            size = _FIRST_CHUNK
            while done < len(live):
                budget.check()
                # A chunk ends about where the cap would be crossed at the
                # observed rate, so an exhausting run stops close to the
                # state that crosses it.
                headroom = ceil((self.max_disjuncts - held + 1) / rate)
                states = live[done : done + max(1, min(size, headroom))]
                done += len(states)
                size = min(2 * size, _CHUNK_STATES)

                exits = level_exits(states, method)
                splitting = np.flatnonzero(~exits.zero_entropy)
                parts = best_splits([states[i] for i in splitting.tolist()], method)
                with profiling.phase("disjunct_split"):
                    rows = stack_candidates(parts, n_classes)
                    # The state of each row, and each side the point takes.
                    owner = np.repeat(splitting, [part.feature.size for part in parts])
                    taken = rows.branches(point)
                    taken_rows, taken_sides = np.nonzero(taken)
                    null = np.zeros(len(states), dtype=bool)
                    null[splitting] = [part.includes_null for part in parts]

                    # The cap is checked after each state that splits,
                    # counting what the states up to it added.
                    held_after = held + np.cumsum(
                        np.bincount(owner[taken_rows], minlength=len(states))
                        + exits.pure
                        + null
                    )
                    crossed = held_after[
                        ~exits.zero_entropy & (held_after > self.max_disjuncts)
                    ]
                    if crossed.size:
                        self._check_budget(int(crossed[0]))
                    added += int(held_after[-1]) - held
                    held = int(held_after[-1])
                    rate = added / done

                    found = np.stack((exits.pure, null), axis=1)
                    lower_parts.append(
                        np.stack((exits.pure_lower, exits.cprob_lower), axis=1)[found]
                    )
                    upper_parts.append(
                        np.stack((exits.pure_upper, exits.cprob_upper), axis=1)[found]
                    )
                    if last_level:
                        leaves.append(
                            (
                                rows.sizes[taken],
                                rows.class_counts[taken],
                                rows.removals[taken],
                                rows.flips[taken],
                            )
                        )
                        continue
                    for row, side in zip(taken_rows.tolist(), taken_sides.tolist()):
                        next_live.append(rows.child(states[owner[row]], row, side))
            live = next_live
            peak_disjuncts = max(peak_disjuncts, held)

        # Only a zero-depth run leaves a live state: the root is its exit.
        if live:
            exits = level_exits(live, method)
            lower_parts.append(exits.cprob_lower)
            upper_parts.append(exits.cprob_upper)
        self._check_budget(held)

        lower = np.concatenate([np.empty((0, n_classes)), *lower_parts])
        upper = np.concatenate([np.empty((0, n_classes)), *upper_parts])
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

