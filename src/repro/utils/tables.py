"""Plain-text table rendering used by the experiment reporting code.

The paper benchmarks regenerate the paper's tables and figure series as
text so they can be diffed between runs without any plotting
dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence


def format_float(value: float, digits: int = 3) -> str:
    """Format a float compactly (fixed digits, no trailing noise)."""
    if value != value:  # NaN
        return "nan"
    if value == float("inf"):
        return "inf"
    if abs(value) >= 1000 or (abs(value) < 0.001 and value != 0.0):
        return f"{value:.{digits}e}"
    return f"{value:.{digits}f}"


@dataclass
class TextTable:
    """A small monospaced table builder.

    Example
    -------
    >>> table = TextTable(["dataset", "accuracy"])
    >>> table.add_row(["iris", 0.9])
    >>> print(table.render())  # doctest: +NORMALIZE_WHITESPACE
    dataset | accuracy
    --------+---------
    iris    | 0.900
    """

    headers: Sequence[str]
    rows: List[List[str]] = field(default_factory=list)
    float_digits: int = 3

    def add_row(self, values: Iterable[object]) -> None:
        formatted: List[str] = []
        for value in values:
            if isinstance(value, bool):
                formatted.append("yes" if value else "no")
            elif isinstance(value, float):
                formatted.append(format_float(value, self.float_digits))
            else:
                formatted.append(str(value))
        if len(formatted) != len(self.headers):
            raise ValueError(
                f"row has {len(formatted)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(formatted)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        separator = "-+-".join("-" * widths[i] for i in range(len(self.headers)))
        body = [
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in self.rows
        ]
        return "\n".join([header_line, separator, *body])

    def to_csv(self) -> str:
        lines = [",".join(self.headers)]
        lines.extend(",".join(row) for row in self.rows)
        return "\n".join(lines)
