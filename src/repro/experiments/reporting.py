"""Sweep results and ASCII reporting.

Each figure module returns a :class:`SweepResult` — the x axis the paper
plots plus one named series per curve — and the reporters print exactly the
rows the paper's figures show, so EXPERIMENTS.md can be filled by running
the modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["SweepResult", "format_table", "print_sweep"]


@dataclass
class SweepResult:
    """One figure panel: an x axis and named y series."""

    title: str
    x_label: str
    x_values: List[float] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)

    def add_point(self, x: float, values: Dict[str, float]) -> None:
        """Append one x position with a y value for every series."""
        self.x_values.append(x)
        for name, v in values.items():
            self.series.setdefault(name, []).append(v)

    def series_names(self) -> List[str]:
        return list(self.series)

    def column(self, name: str) -> List[float]:
        return self.series[name]


def _fmt(v: float) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "      n/a"
    if v == 0:
        return "    0.000"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:9.3g}"
    return f"{v:9.3f}"


def format_table(result: SweepResult) -> str:
    """Render a sweep as a fixed-width ASCII table."""
    names = result.series_names()
    header = f"{result.x_label:>12} | " + " | ".join(f"{n:>9}" for n in names)
    rule = "-" * len(header)
    lines = [result.title, rule, header, rule]
    for i, x in enumerate(result.x_values):
        row = f"{x:12g} | " + " | ".join(
            _fmt(result.series[n][i]) for n in names
        )
        lines.append(row)
    lines.append(rule)
    return "\n".join(lines)


def print_sweep(result: SweepResult) -> None:
    print(format_table(result))
    print()
