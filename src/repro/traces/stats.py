"""Descriptive statistics of contact traces.

Used by the synthetic-generator tests (the generated trace must exhibit the
targeted mean gap/duration and the warm-up degree ramp) and by the examples
to print a trace summary the way the Haggle papers characterize theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..temporal import metrics as tvg_metrics
from .model import ContactTrace

__all__ = ["TraceStats", "summarize"]


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a contact trace."""

    num_nodes: int
    num_contacts: int
    horizon: float
    mean_contact_duration: float
    median_contact_duration: float
    mean_inter_contact: float
    median_inter_contact: float
    p95_inter_contact: float
    social_pairs: int
    possible_pairs: int
    temporal_density: float
    mean_degree_early: float
    mean_degree_late: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_nodes": self.num_nodes,
            "num_contacts": self.num_contacts,
            "horizon": self.horizon,
            "mean_contact_duration": self.mean_contact_duration,
            "median_contact_duration": self.median_contact_duration,
            "mean_inter_contact": self.mean_inter_contact,
            "median_inter_contact": self.median_inter_contact,
            "p95_inter_contact": self.p95_inter_contact,
            "social_pairs": self.social_pairs,
            "possible_pairs": self.possible_pairs,
            "temporal_density": self.temporal_density,
            "mean_degree_early": self.mean_degree_early,
            "mean_degree_late": self.mean_degree_late,
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"{k:>24}: {v:g}" for k, v in self.as_dict().items()]
        return "\n".join(lines)


def summarize(trace: ContactTrace, early_frac: float = 0.25) -> TraceStats:
    """Compute :class:`TraceStats` for a trace.

    ``mean_degree_early`` / ``mean_degree_late`` average the instantaneous
    degree over the first ``early_frac`` and last ``early_frac`` of the
    horizon; a ramping trace has early ≪ late.
    """
    tvg = trace.to_tvg()
    durations = tvg_metrics.contact_durations(tvg)
    gaps = tvg_metrics.inter_contact_times(tvg)
    n = trace.num_nodes

    def _window_degree(lo: float, hi: float) -> float:
        ts = np.linspace(lo, hi, 16)
        return float(np.mean([tvg_metrics.average_degree(tvg, t) for t in ts]))

    h = trace.horizon
    early = _window_degree(0.0, early_frac * h)
    late = _window_degree((1.0 - early_frac) * h, h * 0.999)
    return TraceStats(
        num_nodes=n,
        num_contacts=trace.num_contacts,
        horizon=h,
        mean_contact_duration=float(np.mean(durations)) if durations.size else 0.0,
        median_contact_duration=float(np.median(durations)) if durations.size else 0.0,
        mean_inter_contact=float(np.mean(gaps)) if gaps.size else 0.0,
        median_inter_contact=float(np.median(gaps)) if gaps.size else 0.0,
        p95_inter_contact=float(np.percentile(gaps, 95)) if gaps.size else 0.0,
        social_pairs=len(trace.pair_presence()),
        possible_pairs=n * (n - 1) // 2,
        temporal_density=tvg_metrics.temporal_density(tvg),
        mean_degree_early=early,
        mean_degree_late=late,
    )
