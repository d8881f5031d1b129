"""Labelled training sets with typed features.

A :class:`Dataset` is the concrete object the paper calls ``T ⊆ X × Y``: a
feature matrix together with one class label per row.  Features are typed
(:class:`FeatureKind`) because the learner enumerates candidate predicates
differently for boolean and real-valued features (§5.1 of the paper), which
in turn determines whether the *abstract* learner needs symbolic predicates.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import ValidationError, check_index_array


class FeatureKind(enum.Enum):
    """The type of a feature column.

    ``BOOLEAN`` features take values in ``{0, 1}`` (``-0.0`` counts as 0;
    :class:`Dataset` rejects any other value) and induce a single candidate
    predicate per feature (``x_i <= 0.5``).  ``REAL`` features
    induce data-dependent threshold predicates at midpoints between adjacent
    observed values; the abstract learner additionally widens them into
    symbolic predicates (Appendix B).  ``CATEGORICAL`` features are integer
    codes compared with equality predicates; they behave like a small set of
    boolean indicator predicates.
    """

    REAL = "real"
    BOOLEAN = "boolean"
    CATEGORICAL = "categorical"


#: Read-only matrices that passed the ``BOOLEAN`` check, keyed by
#: ``(id(X), boolean column mask)``.  Every copy of a dataset (``replace``,
#: ``dataclasses.replace``) shares its read-only X, so it is scanned once.
_CHECKED: "weakref.WeakValueDictionary[Tuple[int, bytes], np.ndarray]" = (
    weakref.WeakValueDictionary()
)


def _check_boolean_columns(
    X: np.ndarray, kinds: Sequence[FeatureKind]
) -> Optional[Tuple[int, bytes]]:
    """Raise :class:`ValidationError` if a ``BOOLEAN`` column holds a value
    outside ``{0, 1}``.

    A read-only matrix that already passed with the same boolean columns is
    not scanned again: its values cannot have changed.  Returns the key
    under which to remember ``X`` once it is read-only, or ``None`` when
    nothing was scanned.
    """
    if FeatureKind.BOOLEAN not in kinds:
        return None
    boolean = np.array([kind is FeatureKind.BOOLEAN for kind in kinds], dtype=bool)
    key = (id(X), boolean.tobytes())
    if _CHECKED.get(key) is X and not X.flags.writeable:
        return None
    _scan_boolean_columns(X, boolean)
    return key


def _scan_boolean_columns(X: np.ndarray, boolean: np.ndarray) -> None:
    """The scan of :func:`_check_boolean_columns`.

    One pass over the whole matrix, with no column gather: flag every value
    that is neither 0 nor 1 (NaN included), then look only at the boolean
    columns' flags.
    """
    outside = X != 0.0
    outside &= X != 1.0
    bad = outside.any(axis=0) & boolean
    if bad.any():
        feature = int(np.argmax(bad))
        value = float(X[np.argmax(outside[:, feature]), feature])
        raise ValidationError(
            f"boolean feature {feature} holds {value!r}; boolean features "
            "take only the values 0 and 1"
        )


@dataclass(frozen=True)
class Dataset:
    """An immutable labelled dataset.

    Parameters
    ----------
    X:
        Feature matrix of shape ``(n_samples, n_features)``; always stored as
        ``float64`` (boolean and categorical features are stored as their
        numeric codes).
    y:
        Integer class labels of shape ``(n_samples,)`` with values in
        ``[0, n_classes)``.
    n_classes:
        Number of classes ``k``; defaults to ``max(y) + 1``.
    feature_kinds:
        One :class:`FeatureKind` per column; defaults to all ``REAL``.  A
        ``BOOLEAN`` column must hold only 0 and 1 (``-0.0`` counts as 0),
        else construction raises :class:`ValidationError`.
    feature_names / class_names:
        Optional human-readable names used in reports and tree printouts.
    """

    X: np.ndarray
    y: np.ndarray
    n_classes: int = 0
    feature_kinds: Tuple[FeatureKind, ...] = field(default=())
    feature_names: Tuple[str, ...] = field(default=())
    class_names: Tuple[str, ...] = field(default=())
    name: str = "dataset"

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-D, got shape {X.shape}")
        if y.ndim != 1:
            raise ValidationError(f"y must be 1-D, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValidationError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} labels"
            )
        n_classes = self.n_classes
        if n_classes <= 0:
            n_classes = int(y.max()) + 1 if y.size else 1
        if y.size and (y.min() < 0 or y.max() >= n_classes):
            raise ValidationError(
                f"labels must lie in [0, {n_classes}), got range "
                f"[{y.min()}, {y.max()}]"
            )
        kinds = self.feature_kinds
        if not kinds:
            kinds = tuple(FeatureKind.REAL for _ in range(X.shape[1]))
        if len(kinds) != X.shape[1]:
            raise ValidationError(
                f"feature_kinds has {len(kinds)} entries but X has "
                f"{X.shape[1]} columns"
            )
        checked = _check_boolean_columns(X, kinds)
        feature_names = self.feature_names
        if not feature_names:
            feature_names = tuple(f"x{i}" for i in range(X.shape[1]))
        if len(feature_names) != X.shape[1]:
            raise ValidationError("feature_names length must match the number of columns")
        class_names = self.class_names
        if not class_names:
            class_names = tuple(f"class_{i}" for i in range(n_classes))
        if len(class_names) != n_classes:
            raise ValidationError("class_names length must match n_classes")
        X.setflags(write=False)
        y.setflags(write=False)
        if checked is not None:
            _CHECKED[checked] = X
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "n_classes", int(n_classes))
        object.__setattr__(self, "feature_kinds", tuple(kinds))
        object.__setattr__(self, "feature_names", tuple(feature_names))
        object.__setattr__(self, "class_names", tuple(class_names))

    # ------------------------------------------------------------------ size
    def __len__(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_samples(self) -> int:
        return len(self)

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    # -------------------------------------------------------------- contents
    def class_counts(self) -> np.ndarray:
        """Return the per-class element counts (length ``n_classes``)."""
        return np.bincount(self.y, minlength=self.n_classes).astype(np.int64)

    def class_probabilities(self) -> np.ndarray:
        """Return ``cprob(T)`` (Figure 5); uniform over classes when empty."""
        counts = self.class_counts()
        total = counts.sum()
        if total == 0:
            return np.full(self.n_classes, 1.0 / self.n_classes)
        return counts / float(total)

    def majority_class(self) -> int:
        """Return the majority class, breaking ties towards the lowest index."""
        return int(np.argmax(self.class_counts()))

    def feature_values(self, feature: int) -> np.ndarray:
        """Return the sorted distinct values observed for ``feature``."""
        return np.unique(self.X[:, feature])

    # ------------------------------------------------------------ subsetting
    def subset(self, indices: Iterable[int]) -> "Dataset":
        """Return the dataset restricted to ``indices`` (rows are re-packed)."""
        idx = check_index_array(indices, len(self), "indices")
        return self.replace(X=self.X[idx], y=self.y[idx])

    def subset_mask(self, mask: np.ndarray) -> "Dataset":
        """Return the dataset restricted to rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValidationError(
                f"mask must have shape ({len(self)},), got {mask.shape}"
            )
        return self.replace(X=self.X[mask], y=self.y[mask])

    def remove(self, indices: Iterable[int]) -> "Dataset":
        """Return the dataset with the given rows removed (poisoning removal)."""
        idx = check_index_array(indices, len(self), "indices")
        keep = np.setdiff1d(np.arange(len(self), dtype=np.int64), idx)
        return self.subset(keep)

    def append(self, X_new: np.ndarray, y_new: np.ndarray) -> "Dataset":
        """Return a dataset with extra rows appended (poisoning injection)."""
        X_new = np.asarray(X_new, dtype=np.float64)
        y_new = np.asarray(y_new, dtype=np.int64)
        if X_new.ndim == 1:
            X_new = X_new.reshape(1, -1)
            y_new = y_new.reshape(1)
        if X_new.shape[1] != self.n_features:
            raise ValidationError(
                f"appended rows have {X_new.shape[1]} features, expected {self.n_features}"
            )
        return self.replace(
            X=np.vstack([self.X, X_new]), y=np.concatenate([self.y, y_new])
        )

    def replace(self, **changes: object) -> "Dataset":
        """Return a copy of the dataset with the given fields replaced."""
        fields = {
            "X": self.X,
            "y": self.y,
            "n_classes": self.n_classes,
            "feature_kinds": self.feature_kinds,
            "feature_names": self.feature_names,
            "class_names": self.class_names,
            "name": self.name,
        }
        fields.update(changes)
        return Dataset(**fields)  # type: ignore[arg-type]

    # ------------------------------------------------------------- factories
    @classmethod
    def from_arrays(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        *,
        feature_kinds: Optional[Sequence[FeatureKind]] = None,
        name: str = "dataset",
        class_names: Sequence[str] = (),
        feature_names: Sequence[str] = (),
        n_classes: int = 0,
    ) -> "Dataset":
        """Build a dataset from raw arrays, inferring boolean feature kinds.

        A column whose observed values are all in ``{0, 1}`` is inferred to be
        ``BOOLEAN`` unless ``feature_kinds`` is given explicitly.
        """
        X = np.asarray(X, dtype=np.float64)
        if feature_kinds is None:
            kinds = []
            for j in range(X.shape[1]):
                column = X[:, j]
                if np.all(np.isin(column, (0.0, 1.0))):
                    kinds.append(FeatureKind.BOOLEAN)
                else:
                    kinds.append(FeatureKind.REAL)
            feature_kinds = kinds
        return cls(
            X=X,
            y=np.asarray(y, dtype=np.int64),
            n_classes=n_classes,
            feature_kinds=tuple(feature_kinds),
            feature_names=tuple(feature_names),
            class_names=tuple(class_names),
            name=name,
        )

    # -------------------------------------------------------------- printing
    def summary(self) -> str:
        """Return a one-line human-readable summary of the dataset."""
        kind_counts = {}
        for kind in self.feature_kinds:
            kind_counts[kind.value] = kind_counts.get(kind.value, 0) + 1
        kinds = ", ".join(f"{v} {k}" for k, v in sorted(kind_counts.items()))
        return (
            f"{self.name}: {len(self)} samples, {self.n_features} features "
            f"({kinds}), {self.n_classes} classes"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Dataset({self.summary()})"
