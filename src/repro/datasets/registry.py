"""Registry of the benchmark datasets used throughout the reproduction.

The five entries correspond to the five rows of Table 1 of the paper.  Every
entry records the paper's training/test sizes (for reporting) next to the
*default scale* the reproduction uses when the caller does not ask for a
specific scale: the three UCI-sized datasets default to their full size, the
MNIST variants default to a reduced size that keeps the pure-Python verifier
responsive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.datasets import iris_like, mammography_like, mnist_like, wdbc_like
from repro.datasets.splits import DatasetSplit


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata and generator for one benchmark dataset."""

    name: str
    description: str
    paper_train_size: int
    paper_test_size: int
    n_features: int
    n_classes: int
    feature_type: str
    default_scale: float
    factory: Callable[..., DatasetSplit]

    def load(self, scale: Optional[float] = None, *, seed: int = 0, **kwargs) -> DatasetSplit:
        """Generate the dataset at the requested (or default) scale."""
        effective_scale = self.default_scale if scale is None else float(scale)
        return self.factory(effective_scale, seed=seed, **kwargs)


_REGISTRY: Dict[str, DatasetSpec] = {}


def _register(spec: DatasetSpec) -> None:
    _REGISTRY[spec.name] = spec


_register(
    DatasetSpec(
        name="iris",
        description="Iris-like: three flower species, four real features",
        paper_train_size=iris_like.PAPER_TRAIN_SIZE,
        paper_test_size=iris_like.PAPER_TEST_SIZE,
        n_features=4,
        n_classes=3,
        feature_type="real",
        default_scale=1.0,
        factory=iris_like.make_split,
    )
)
_register(
    DatasetSpec(
        name="mammography",
        description="Mammographic-Masses-like: benign vs malignant, five clinical features",
        paper_train_size=mammography_like.PAPER_TRAIN_SIZE,
        paper_test_size=mammography_like.PAPER_TEST_SIZE,
        n_features=5,
        n_classes=2,
        feature_type="real",
        default_scale=1.0,
        factory=mammography_like.make_split,
    )
)
_register(
    DatasetSpec(
        name="wdbc",
        description="Wisconsin-Diagnostic-Breast-Cancer-like: 30 real features",
        paper_train_size=wdbc_like.PAPER_TRAIN_SIZE,
        paper_test_size=wdbc_like.PAPER_TEST_SIZE,
        n_features=30,
        n_classes=2,
        feature_type="real",
        default_scale=1.0,
        factory=wdbc_like.make_split,
    )
)
_register(
    DatasetSpec(
        name="mnist17-binary",
        description="MNIST-1-7-Binary-like: ones vs sevens, boolean pixels",
        paper_train_size=mnist_like.PAPER_TRAIN_SIZE,
        paper_test_size=mnist_like.PAPER_TEST_SIZE,
        n_features=mnist_like.DEFAULT_SIDE**2,
        n_classes=2,
        feature_type="boolean",
        default_scale=0.15,
        factory=mnist_like.make_binary_split,
    )
)
_register(
    DatasetSpec(
        name="mnist17-real",
        description="MNIST-1-7-Real-like: ones vs sevens, real-valued pixels",
        paper_train_size=mnist_like.PAPER_TRAIN_SIZE,
        paper_test_size=mnist_like.PAPER_TEST_SIZE,
        n_features=mnist_like.DEFAULT_SIDE**2,
        n_classes=2,
        feature_type="real",
        default_scale=0.15,
        factory=mnist_like.make_real_split,
    )
)


def list_datasets() -> List[str]:
    """Names of every registered benchmark dataset (Table 1 order)."""
    return list(_REGISTRY.keys())


def get_spec(name: str) -> DatasetSpec:
    """Return the registry entry for ``name`` (raises ``KeyError`` if unknown)."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown dataset {name!r}; known datasets: {known}")
    return _REGISTRY[name]


def load_dataset(
    name: str, scale: Optional[float] = None, *, seed: int = 0, **kwargs
) -> DatasetSplit:
    """Generate a registered benchmark dataset.

    Parameters
    ----------
    name:
        One of :func:`list_datasets`.
    scale:
        Fraction of the paper's dataset size to generate; ``None`` uses the
        registry default (full size for the UCI-like datasets, reduced for the
        MNIST variants).
    seed:
        Seed controlling both generation and the train/test split.
    """
    return get_spec(name).load(scale, seed=seed, **kwargs)


def dataset_summaries() -> List[Dict[str, object]]:
    """Table-1-style metadata rows for every registered dataset."""
    rows: List[Dict[str, object]] = []
    for spec in _REGISTRY.values():
        rows.append(
            {
                "name": spec.name,
                "description": spec.description,
                "paper_train_size": spec.paper_train_size,
                "paper_test_size": spec.paper_test_size,
                "n_features": spec.n_features,
                "n_classes": spec.n_classes,
                "feature_type": spec.feature_type,
                "default_scale": spec.default_scale,
            }
        )
    return rows
