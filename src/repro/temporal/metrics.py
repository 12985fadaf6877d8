"""Temporal-graph statistics: degree over time, contact structure.

Figure 7 of the paper plots the *average node degree* of the trace alongside
broadcast energy, sampled every 500 s; :func:`average_degree_series` computes
exactly that series.  The remaining helpers characterize a trace the way the
Haggle papers do (contact counts, durations, inter-contact gaps) and are used
by the synthetic-trace tests to show the generator matches its targets.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from .tvg import TVG

__all__ = [
    "average_degree",
    "average_degree_series",
    "degree_profile",
    "contact_durations",
    "inter_contact_times",
    "pair_contact_counts",
    "temporal_density",
]

Node = Hashable


def average_degree(tvg: TVG, t: float) -> float:
    """Mean instantaneous (``ρ_τ``) degree over all nodes at time ``t``."""
    total = 0
    for (a, b), pres in tvg.edges_with_presence():
        if pres.covers(t, t + tvg.tau):
            total += 2  # each present edge contributes to two degrees
    return total / tvg.num_nodes


def average_degree_series(
    tvg: TVG, times: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Average degree sampled at each time in ``times`` (Fig. 7 series)."""
    ts = np.asarray(list(times), dtype=float)
    degs = np.array([average_degree(tvg, t) for t in ts])
    return ts, degs


def degree_profile(
    tvg: TVG, window_start: float, window_end: float, step: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Average degree sampled every ``step`` over ``[window_start, window_end]``.

    The paper's Fig. 7 uses ``window = [5000, 15000]`` and ``step = 500``.
    """
    n = int(math.floor((window_end - window_start) / step)) + 1
    times = window_start + step * np.arange(n)
    return average_degree_series(tvg, times)


def contact_durations(tvg: TVG) -> np.ndarray:
    """Durations of every maximal contact in the trace, as an array."""
    return np.array(
        [end - start for _, _, start, end in tvg.contacts()], dtype=float
    )


def inter_contact_times(tvg: TVG) -> np.ndarray:
    """Gaps between consecutive contacts of each pair, pooled over pairs.

    The heavy tail of this distribution is the signature property of human
    contact traces (Chaintreau et al. [12]) which the synthetic generator
    reproduces.
    """
    gaps: List[float] = []
    for _, pres in tvg.edges_with_presence():
        ivs = pres.intervals
        for a, b in zip(ivs, ivs[1:]):
            gaps.append(b.start - a.end)
    return np.array(gaps, dtype=float)


def pair_contact_counts(tvg: TVG) -> Dict[Tuple[Node, Node], int]:
    """Number of maximal contacts per node pair."""
    return {key: len(pres) for key, pres in tvg.edges_with_presence()}


def temporal_density(tvg: TVG) -> float:
    """Fraction of (pair × time) capacity occupied by contacts.

    ``Σ_e |presence(e)| / (C(N,2) · horizon)`` — 1.0 would be an always-fully
    connected graph.
    """
    n = tvg.num_nodes
    capacity = n * (n - 1) / 2 * tvg.horizon
    if capacity == 0:
        return 0.0
    return tvg.total_contact_time() / capacity
