"""Aggregation of trace snapshots: timers, counters, gauges, percentiles.

:func:`aggregate` folds a :class:`~repro.obs.tracer.TraceSnapshot` into a
:class:`MetricsReport`: every span's duration listed under its name (the
*timers*), plus the counters and gauges verbatim.  ``report.rows()``
flattens everything into :class:`MetricStat` records — the schema the CSV
exporter writes.

Standard library only; percentiles use linear interpolation between order
statistics (the same convention as ``numpy.percentile``'s default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .tracer import TraceSnapshot

__all__ = ["MetricStat", "MetricsReport", "aggregate", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) of ``values``, linear interpolation.

    ``values`` need not be sorted; NaN for an empty sequence.
    """
    if not values:
        return math.nan
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return float(ordered[lo])
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


#: the CSV/row schema shared by every aggregated metric
@dataclass(frozen=True)
class MetricStat:
    """One flat row of the aggregated report (timer, counter, or gauge).

    For timers the value fields are in **seconds**; for counters ``total``
    is the accumulated count; for gauges ``total`` is the last value.
    """

    kind: str  # "timer" | "counter" | "gauge"
    name: str
    count: int
    total: float
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated view of one snapshot: per-name timers + raw scalars.

    ``timers`` maps each span name to its durations in seconds, in the
    snapshot's order.
    """

    timers: Dict[str, List[float]]
    counters: Dict[str, float]
    gauges: Dict[str, float]

    def rows(self) -> List[MetricStat]:
        """Flat, deterministically ordered rows (timers, counters, gauges)."""
        out: List[MetricStat] = []
        for name in sorted(self.timers):
            values = self.timers[name]
            total = float(sum(values))
            out.append(
                MetricStat(
                    kind="timer",
                    name=name,
                    count=len(values),
                    total=total,
                    mean=total / len(values),
                    minimum=float(min(values)),
                    maximum=float(max(values)),
                    p50=percentile(values, 50),
                    p90=percentile(values, 90),
                    p99=percentile(values, 99),
                )
            )
        for name in sorted(self.counters):
            v = self.counters[name]
            out.append(
                MetricStat("counter", name, 1, v, v, v, v, v, v, v)
            )
        for name in sorted(self.gauges):
            v = self.gauges[name]
            out.append(
                MetricStat("gauge", name, 1, v, v, v, v, v, v, v)
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsReport(timers={len(self.timers)}, "
            f"counters={len(self.counters)}, gauges={len(self.gauges)})"
        )


def aggregate(snapshot: TraceSnapshot) -> MetricsReport:
    """Fold a snapshot into per-span-name duration histograms + scalars."""
    timers: Dict[str, List[float]] = {}
    for s in snapshot.spans:
        if s.duration is None:  # pragma: no cover - snapshots drop open spans
            continue
        timers.setdefault(s.name, []).append(float(s.duration))
    return MetricsReport(
        timers=timers,
        counters=dict(snapshot.counters),
        gauges=dict(snapshot.gauges),
    )
