"""Helpers for persisting regenerated tables and figure series to disk.

The paper benchmarks write every regenerated artifact under
``benchmarks/results/`` so that the tables and figure series can be
re-derived and diffed after any change to the library.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Union


def results_directory(base: Union[str, Path, None] = None) -> Path:
    """Directory where regenerated experiment artifacts are written."""
    if base is not None:
        path = Path(base)
    else:
        override = os.environ.get("REPRO_RESULTS_DIR")
        path = Path(override) if override else Path("benchmarks") / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_artifact(name: str, content: str, base: Union[str, Path, None] = None) -> Path:
    """Write one rendered table/series to ``<results>/<name>.txt`` and return the path."""
    directory = results_directory(base)
    path = directory / f"{name}.txt"
    path.write_text(content + "\n", encoding="utf-8")
    return path
