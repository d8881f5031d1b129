"""Synthetic stand-in for the MNIST-1-7 digit-classification task.

The paper evaluates two variants of the ones-versus-sevens MNIST subset
(13,007 training / 2,163 test images of 28x28 = 784 pixels):

* **MNIST-1-7-Binary** — every pixel reduced to its most significant bit, so
  each feature is boolean and each pixel has the single split ``x <= 0.5``;
* **MNIST-1-7-Real** — 8-bit pixel intensities treated as real values, so the
  learner chooses thresholds dynamically and the abstract learner needs the
  symbolic predicates of Appendix B.

Without network access we synthesize images instead: a "one" is a vertical
stroke with a random horizontal offset and slant, a "seven" is a horizontal
top bar joined to a diagonal stroke, both with stroke-thickness jitter and
pixel noise.  The two generators share the image model and differ only in the
pixel representation, which preserves exactly the binary-versus-real contrast
that drives the paper's headline performance comparison (Figures 7 and 11).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.dataset import Dataset, FeatureKind
from repro.datasets.splits import DatasetSplit
from repro.utils.rng import RngLike, derive_seed, make_rng
from repro.utils.validation import check_positive_int

PAPER_TRAIN_SIZE = 13007
PAPER_TEST_SIZE = 100  # the paper runs robustness experiments on 100 test digits
PAPER_SIDE = 28

#: Default image side used by the registry; 14x14 = 196 features keeps the
#: verification experiments tractable in pure Python while preserving the
#: digit structure.
DEFAULT_SIDE = 14

_CLASS_NAMES = ("one", "seven")
CLASS_ONE = 0
CLASS_SEVEN = 1


def _draw_one(side: int, rng: np.random.Generator) -> np.ndarray:
    """Render a synthetic "1": a near-vertical stroke."""
    image = np.zeros((side, side))
    column = int(rng.integers(side // 3, 2 * side // 3))
    slant = float(rng.uniform(-0.25, 0.25))
    thickness = int(rng.integers(1, max(2, side // 7) + 1))
    top = int(rng.integers(0, max(1, side // 6)))
    bottom = side - 1 - int(rng.integers(0, max(1, side // 6)))
    for row in range(top, bottom + 1):
        center = column + slant * (row - side / 2)
        lo = int(round(center - thickness / 2))
        hi = int(round(center + thickness / 2))
        image[row, max(0, lo) : min(side, hi + 1)] = 1.0
    return image


def _draw_seven(side: int, rng: np.random.Generator) -> np.ndarray:
    """Render a synthetic "7": a top bar plus a descending diagonal."""
    image = np.zeros((side, side))
    top_row = int(rng.integers(0, max(1, side // 6)))
    bar_thickness = int(rng.integers(1, max(2, side // 8) + 1))
    left = int(rng.integers(0, side // 5))
    right = side - 1 - int(rng.integers(0, side // 6))
    image[top_row : top_row + bar_thickness, left : right + 1] = 1.0

    # Diagonal stroke from the right end of the bar down to the lower-middle.
    start_col = right
    end_col = int(rng.integers(side // 4, side // 2))
    thickness = int(rng.integers(1, max(2, side // 8) + 1))
    rows = np.arange(top_row, side - 1 - int(rng.integers(0, max(1, side // 8))))
    if rows.size:
        columns = np.linspace(start_col, end_col, rows.size)
        for row, center in zip(rows, columns):
            lo = int(round(center - thickness / 2))
            hi = int(round(center + thickness / 2))
            image[int(row), max(0, lo) : min(side, hi + 1)] = 1.0
    return image


def _render_digits(
    n_samples: int, side: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Render ``n_samples`` digit images and their labels (grayscale in [0, 255])."""
    labels = rng.integers(0, 2, size=n_samples)
    images = np.zeros((n_samples, side, side))
    for index, label in enumerate(labels):
        stroke = _draw_one(side, rng) if label == CLASS_ONE else _draw_seven(side, rng)
        intensity = rng.uniform(140.0, 255.0)
        background = rng.uniform(0.0, 25.0, size=(side, side))
        smear = rng.uniform(0.75, 1.0, size=(side, side))
        images[index] = np.clip(stroke * intensity * smear + background, 0.0, 255.0)
    return images.reshape(n_samples, side * side), labels.astype(np.int64)


def _feature_names(side: int) -> Tuple[str, ...]:
    return tuple(f"pixel_{row}_{col}" for row in range(side) for col in range(side))


def make_mnist17(
    n_train: int,
    n_test: int,
    *,
    side: int = DEFAULT_SIDE,
    binary: bool,
    rng: RngLike = None,
) -> DatasetSplit:
    """Generate an MNIST-1-7-like train/test split (binary or real pixels)."""
    n_train = check_positive_int(n_train, "n_train")
    n_test = check_positive_int(n_test, "n_test")
    side = check_positive_int(side, "side")
    generator = make_rng(rng)
    X, y = _render_digits(n_train + n_test, side, generator)

    if binary:
        X = (X >= 128.0).astype(float)
        kinds = tuple(FeatureKind.BOOLEAN for _ in range(side * side))
        name = "mnist-1-7-binary"
    else:
        kinds = tuple(FeatureKind.REAL for _ in range(side * side))
        name = "mnist-1-7-real"

    def build(rows: slice, suffix: str) -> Dataset:
        return Dataset(
            X=X[rows],
            y=y[rows],
            n_classes=2,
            feature_kinds=kinds,
            feature_names=_feature_names(side),
            class_names=_CLASS_NAMES,
            name=f"{name}-{suffix}",
        )

    return DatasetSplit(
        train=build(slice(0, n_train), "train"),
        test=build(slice(n_train, n_train + n_test), "test"),
    )


def make_binary_split(scale: float = 1.0, *, seed: int = 0, side: int = DEFAULT_SIDE) -> DatasetSplit:
    """MNIST-1-7-Binary-like split; ``scale=1.0`` matches the paper's 13,007 images."""
    n_train = max(64, int(round(PAPER_TRAIN_SIZE * float(scale))))
    n_test = max(10, int(round(PAPER_TEST_SIZE * max(float(scale), 0.25))))
    return make_mnist17(
        n_train, n_test, side=side, binary=True, rng=derive_seed(seed, "mnist-binary")
    )


def make_real_split(scale: float = 1.0, *, seed: int = 0, side: int = DEFAULT_SIDE) -> DatasetSplit:
    """MNIST-1-7-Real-like split; ``scale=1.0`` matches the paper's 13,007 images."""
    n_train = max(64, int(round(PAPER_TRAIN_SIZE * float(scale))))
    n_test = max(10, int(round(PAPER_TEST_SIZE * max(float(scale), 0.25))))
    return make_mnist17(
        n_train, n_test, side=side, binary=False, rng=derive_seed(seed, "mnist-real")
    )
