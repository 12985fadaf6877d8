"""ASCII timeline rendering of broadcast schedules.

One row per node over the broadcast window: contact coverage drawn as a
track, transmissions and receptions marked on top.  Meant for terminals,
examples, and debugging — seeing *when* the scheduler chose to act relative
to the contact structure usually explains its cost immediately.

Legend: ``─`` no contact, ``═`` in contact with someone, ``T`` transmits,
``R`` first informed (reception), ``S`` the source at t = 0.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Optional

from ..tveg.graph import TVEG
from .feasibility import check_feasibility
from .schedule import Schedule

__all__ = ["ascii_timeline"]

Node = Hashable


def ascii_timeline(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    deadline: Optional[float] = None,
    width: int = 72,
    eps: Optional[float] = None,
) -> str:
    """Render the schedule as one text row per node (see module docstring)."""
    end = tveg.horizon if deadline is None else deadline
    if end <= 0 or width < 10:
        raise ValueError("need a positive window and width >= 10")

    def col(t: float) -> int:
        return min(int(t / end * (width - 1)), width - 1)

    report = check_feasibility(tveg, schedule, source, end, eps=eps)
    informed_at = dict(report.informed_times)

    lines: List[str] = [
        f"broadcast from {source!r} over [0, {end:g}]  "
        f"({len(schedule)} transmissions, feasible={report.feasible})"
    ]
    label_width = max(len(repr(n)) for n in tveg.nodes)

    for node in tveg.nodes:
        row = ["─"] * width
        # contact coverage: union of this node's adjacency intervals
        for other in tveg.tvg.incident(node):
            for iv in tveg.tvg.adjacency_set(node, other).clamp(0.0, end):
                a, b = col(iv.start), col(max(iv.start, iv.end - 1e-12))
                for c in range(a, b + 1):
                    row[c] = "═"
        # receptions (first informed) and transmissions
        t_inf = informed_at.get(node, math.inf)
        if node == source:
            row[0] = "S"
        elif math.isfinite(t_inf):
            row[col(t_inf)] = "R"
        for s in schedule.by_relay(node):
            if s.time <= end:
                row[col(s.time)] = "T"
        lines.append(f"{node!r:>{label_width}} |{''.join(row)}|")

    ruler = [" "] * width
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        marker = f"{frac * end:g}"
        c = min(col(frac * end), width - len(marker))  # keep the label whole
        for i, ch in enumerate(marker):
            ruler[c + i] = ch
    lines.append(f"{'':>{label_width}}  {''.join(ruler)}")
    return "\n".join(lines)
