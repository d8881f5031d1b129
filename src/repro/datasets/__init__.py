"""Dataset substrate: synthetic stand-ins for the paper's benchmark datasets.

The original evaluation uses three UCI datasets (Iris, Mammographic Masses,
Wisconsin Diagnostic Breast Cancer) and the MNIST-1-7 digit-classification
task in a boolean and a real-valued variant.  This environment has no network
access, so this subpackage provides deterministic synthetic generators that
reproduce each dataset's *shape* — number of classes, number and kind of
features, training/test sizes, and comparable class separability — which is
what drives Antidote's behaviour (the paper's Table 1 lists the originals).

Every generator accepts a ``scale`` argument: ``scale=1.0`` matches the
paper's training-set sizes, while the default registry entries use smaller
sizes suitable for continuous testing.
"""

from repro.datasets.registry import (
    DatasetSpec,
    dataset_summaries,
    list_datasets,
    load_dataset,
)
from repro.datasets.splits import DatasetSplit, train_test_split
from repro.datasets.toy import figure2_dataset

__all__ = [
    "DatasetSpec",
    "dataset_summaries",
    "list_datasets",
    "load_dataset",
    "DatasetSplit",
    "train_test_split",
    "figure2_dataset",
]
