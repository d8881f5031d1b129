"""Content-addressed keys for the runtime layer.

Every runtime feature — the engine's request plans, the persistent
certification cache, and the resumable run journal — needs stable identities
that survive process boundaries and interpreter restarts.  Python object
identity (``id()``) provides neither, so this module derives keys from
*content*:

* :func:`fingerprint_dataset` — SHA-256 over the feature matrix, the labels,
  the class count, and the feature kinds of a :class:`~repro.core.dataset.Dataset`.
  Cosmetic metadata (``name``, ``feature_names``, ``class_names``) is
  deliberately excluded: renaming a dataset must not invalidate its verdicts.
* :func:`point_digest` — SHA-256 of one test point's ``float64`` bytes.
* :func:`model_cache_key` — the ``(family, resolved budget)`` pair a
  perturbation model denotes against a given training size.  Two models that
  resolve to the same family and budget (e.g. ``RemovalPoisoningModel(1000)``
  and ``FractionalRemovalModel(0.5)`` on a 100-row set with budget 100 ≡ 50…
  when equal) share cached verdicts.  The composite removal+flip family keys
  on the resolved *pair* ``(n_remove, n_flip)``; monotone derivation then
  ranges over pair dominance (robust at ``(r, f)`` answers every
  ``(r' ≤ r, f' ≤ f)``), never across non-nested pairs.
* :func:`engine_cache_key` — the engine configuration facets that can change
  a verdict (depth, domain, cprob method, disjunct budget, impurity).  The
  key ends in a constant ``pool=default`` component, kept for compatibility
  so existing caches keep hitting.  ``timeout_seconds`` is excluded on
  purpose: timeouts are environment-dependent and are never cached.
* :func:`row_keys` — the :class:`RowKey` of each row of a batch, built from
  the four keys above.  It is the one identity the scheduler's in-flight
  table, the verdict cache and the run journal share.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.core.dataset import Dataset
from repro.poisoning.models import (
    CompositePoisoningModel,
    FractionalRemovalModel,
    LabelFlipModel,
    PerturbationModel,
    RemovalPoisoningModel,
)

#: A resolved cache budget: a single integer for the one-dimensional model
#: families, a ``(n_remove, n_flip)`` pair for the composite family.
BudgetKey = Union[int, Tuple[int, int]]

#: Attribute used to memoize the fingerprint on the (frozen) dataset instance.
_FINGERPRINT_ATTR = "_content_fingerprint"

#: Version tag mixed into every digest so future key-schema changes cannot
#: collide with verdicts cached under the old schema.
_SCHEMA = b"repro-runtime-v1"


#: SHA-256 states after ``_SCHEMA`` and a read-only feature matrix, keyed by
#: ``id(X)``; a finalizer drops the entry when X dies.  Every copy of a
#: dataset (``replace``, ``dataclasses.replace``) shares its read-only X, so
#: X is hashed once and each fingerprint finishes from a copy of the state.
_MATRIX_STATES: "Dict[int, hashlib._Hash]" = {}


def _hash_array(hasher: "hashlib._Hash", array: np.ndarray) -> None:
    hasher.update(str(array.dtype).encode())
    hasher.update(str(array.shape).encode())
    # A C-contiguous array is hashed through its buffer, without a copy.
    hasher.update(np.ascontiguousarray(array))


def _matrix_hasher(X: np.ndarray) -> "hashlib._Hash":
    """A fresh hasher that has consumed ``_SCHEMA`` and ``X``.

    Only a read-only X is remembered: a writable one may change between
    calls.
    """
    state = None if X.flags.writeable else _MATRIX_STATES.get(id(X))
    if state is None:
        state = hashlib.sha256(_SCHEMA)
        _hash_array(state, X)
        if not X.flags.writeable:
            _MATRIX_STATES[id(X)] = state
            weakref.finalize(X, _MATRIX_STATES.pop, id(X), None)
    return state.copy()


def fingerprint_dataset(dataset: Dataset) -> str:
    """Return the content fingerprint of a dataset (hex SHA-256).

    The fingerprint covers ``X``, ``y``, ``n_classes``, and the feature
    kinds — everything that can influence a certification verdict — and
    nothing cosmetic.  It is memoized on the instance, so repeated calls are
    O(1) after the first, and a copy that shares the read-only ``X`` hashes
    only the rest.
    """
    cached = getattr(dataset, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    hasher = _matrix_hasher(dataset.X)
    _hash_array(hasher, dataset.y)
    hasher.update(str(dataset.n_classes).encode())
    hasher.update("|".join(kind.value for kind in dataset.feature_kinds).encode())
    fingerprint = hasher.hexdigest()
    # Dataset is a frozen dataclass; memoize through object.__setattr__ (the
    # same door its own __post_init__ uses).
    object.__setattr__(dataset, _FINGERPRINT_ATTR, fingerprint)
    return fingerprint


def point_digest(x: Sequence[float]) -> str:
    """Return the content digest of one test point (hex SHA-256)."""
    row = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    hasher = hashlib.sha256(_SCHEMA)
    hasher.update(str(row.shape).encode())
    hasher.update(row.tobytes())
    return hasher.hexdigest()


def model_cache_key(
    model: PerturbationModel, training_size: int
) -> Tuple[str, BudgetKey]:
    """Return ``(family, resolved_budget)`` for a model against a training set.

    The family string identifies the *semantics* of the perturbation space;
    the resolved budget is what the monotonicity argument ranges over — an
    integer for the one-dimensional families, the resolved
    ``(n_remove, n_flip)`` pair for the composite family.  Removal-style
    models (``RemovalPoisoningModel``, ``FractionalRemovalModel``) share the
    ``"removal"`` family because they denote the same ``Δn`` space once the
    budget is resolved.  Flip-family keys include the resolved class count —
    the number of label alternatives changes ``Δ(T)`` itself — and raise
    while it is still unresolved rather than fragmenting the keyspace.
    """
    budget = model.resolve_budget(training_size)
    if isinstance(model, (RemovalPoisoningModel, FractionalRemovalModel)):
        return "removal", budget
    if isinstance(model, LabelFlipModel):
        return f"label-flip:k={model.resolved_classes}", budget
    if isinstance(model, CompositePoisoningModel):
        return (
            f"composite:k={model.resolved_classes}",
            model.resolve_budgets(training_size),
        )
    # Unknown families fall back to a describing key; monotonicity is not
    # assumed for them (see monotone_in_budget).
    return f"{type(model).__name__}:{model.describe()}", budget


def monotone_in_budget(model: PerturbationModel) -> bool:
    """Whether certification for this model family is monotone in the budget.

    For removal and label-flip models the perturbation spaces are nested
    (``Δn'(T) ⊆ Δn(T)`` for ``n' ≤ n``), so a point proven robust at budget
    ``n`` is robust at every smaller budget, and a point *not* provable at
    ``n`` stays unprovable at every larger budget.  The composite family is
    nested in the componentwise order on ``(n_remove, n_flip)`` pairs —
    ``Δ_{r',f'}(T) ⊆ Δ_{r,f}(T)`` iff ``r' ≤ r`` and ``f' ≤ f`` — which is
    exactly the dominance the cache's pair lookup implements.  Unknown model
    families get no such assumption.
    """
    return isinstance(
        model,
        (
            RemovalPoisoningModel,
            FractionalRemovalModel,
            LabelFlipModel,
            CompositePoisoningModel,
        ),
    )


def engine_cache_key(engine) -> str:
    """Return the verdict-relevant configuration key of a certification engine.

    Includes every knob that can change a (non-timeout) verdict; excludes
    ``timeout_seconds`` because timeout outcomes are never cached.
    """
    # `pool=default` names the removed fixed predicate pool; the constant
    # keeps keys byte-identical so existing sqlite caches keep hitting.
    return (
        f"depth={engine.max_depth}"
        f"|domain={engine.domain}"
        f"|cprob={engine.cprob_method}"
        f"|disjuncts={engine.max_disjuncts}"
        f"|impurity={engine.impurity}"
        "|pool=default"
    )


class RowKey(NamedTuple):
    """The content-addressed identity of one certification verdict.

    Two rows with equal keys are guaranteed the same verdict: the scheduler
    lets at most one of them run the learner, the runtime answers the rest
    from the first, and the verdict cache and run journal store under it.
    """

    dataset: str
    point: str
    family: str
    budget: BudgetKey
    engine: str


def row_keys(
    engine, dataset: Dataset, model: PerturbationModel, rows: Sequence[np.ndarray]
) -> List[RowKey]:
    """The :class:`RowKey` of each row against one (dataset, model, engine).

    ``model`` must already be class-count resolved.
    """
    fingerprint = fingerprint_dataset(dataset)
    family, budget = model_cache_key(model, len(dataset))
    engine_key = engine_cache_key(engine)
    return [
        RowKey(fingerprint, point_digest(row), family, budget, engine_key)
        for row in rows
    ]
