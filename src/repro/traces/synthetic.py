"""Synthetic contact-trace generators.

The paper evaluates on a real Haggle-project contact trace [12]; offline we
synthesize traces that reproduce the properties its algorithms actually
exercise (DESIGN.md documents the substitution):

* **Pairwise intermittent connectivity** — each social pair alternates
  heavy-tailed inter-contact gaps (truncated Pareto, the signature of human
  mobility found by Chaintreau et al.) with exponential contact durations.
* **Warm-up degree ramp** — the iMote experiments power on gradually, so the
  average degree climbs early and flattens (visible in the paper's Fig. 7).
  :func:`haggle_like_trace` reproduces this by modulating the contact-start
  intensity ``a(t)`` from ``ramp_start_level`` up to 1 over
  ``[0, ramp_end]`` and warping event times through ``Λ^{-1}``.
* **Social heterogeneity** — only a fraction of pairs ever meet, and meeting
  rates vary per pair (gamma-distributed multipliers).

Two simpler generators support unit tests: :func:`uniform_trace` (stationary
Poisson pair processes) and :func:`deterministic_trace` (a fixed small
pattern with hand-checkable schedules).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.rng import SeedLike, as_generator
from ..errors import TraceFormatError
from .model import Contact, ContactTrace

__all__ = [
    "HaggleLikeConfig",
    "haggle_like_trace",
    "uniform_trace",
    "deterministic_trace",
    "scale_trace_store",
]


@dataclass(frozen=True)
class HaggleLikeConfig:
    """Parameters of the Haggle-like generator.

    Defaults are tuned so the default 20-node trace matches the paper's
    setup: a ~17000 s experiment, average saturated degree of a few
    neighbors, degree ramping until ~8000 s.
    """

    num_nodes: int = 20
    horizon: float = 17000.0
    #: fraction of node pairs that ever meet
    social_fraction: float = 0.8
    #: mean inter-contact gap of an average pair at full activity (s)
    mean_gap: float = 600.0
    #: Pareto tail exponent of inter-contact gaps (1 < shape ⇒ heavy tail)
    gap_shape: float = 1.6
    #: mean contact duration (s)
    mean_duration: float = 150.0
    #: activity level at t = 0 (1.0 disables the warm-up ramp)
    ramp_start_level: float = 0.2
    #: activity stays at the start level until here (s)
    ramp_start: float = 4000.0
    #: time by which activity reaches its stationary level (s)
    ramp_end: float = 8000.0
    #: dispersion of per-pair meeting-rate multipliers (gamma shape)
    rate_dispersion: float = 2.0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise TraceFormatError("need at least 2 nodes")
        if self.horizon <= 0:
            raise TraceFormatError("horizon must be positive")
        if not (0 < self.social_fraction <= 1):
            raise TraceFormatError("social_fraction must be in (0, 1]")
        if self.mean_gap <= 0 or self.mean_duration <= 0:
            raise TraceFormatError("mean gap/duration must be positive")
        if self.gap_shape <= 1:
            raise TraceFormatError("gap_shape must exceed 1 (finite mean)")
        if not (0 < self.ramp_start_level <= 1):
            raise TraceFormatError("ramp_start_level must be in (0, 1]")
        if self.ramp_start < 0 or self.ramp_end < self.ramp_start:
            raise TraceFormatError("require 0 <= ramp_start <= ramp_end")
        if self.rate_dispersion <= 0:
            raise TraceFormatError("rate_dispersion must be positive")


class _ActivityWarp:
    """Time warp implementing the delayed warm-up intensity ramp.

    Activity ``a(t)`` is ``a0`` on ``[0, rs]``, rises linearly to 1 on
    ``[rs, re]``, and is 1 afterwards.  Events generated at unit intensity
    in warped time ``y`` are mapped to real time via the inverse cumulative
    activity ``Λ^{-1}``.
    """

    def __init__(self, a0: float, ramp_start: float, ramp_end: float) -> None:
        self._a0 = a0
        self._rs = ramp_start
        self._re = ramp_end
        self._flat = a0 == 1.0 or ramp_end == ramp_start == 0.0
        span = ramp_end - ramp_start
        self._lam_rs = a0 * ramp_start
        self._lam_re = self._lam_rs + a0 * span + (1.0 - a0) * span / 2.0

    def cumulative(self, t: float) -> float:
        if self._flat:
            return t
        a0, rs, re = self._a0, self._rs, self._re
        if t <= rs:
            return a0 * t
        if t >= re:
            return self._lam_re + (t - re)
        s = t - rs
        return self._lam_rs + a0 * s + (1.0 - a0) * s * s / (2.0 * (re - rs))

    def inverse(self, y: float) -> float:
        if self._flat:
            return y
        a0, rs, re = self._a0, self._rs, self._re
        if y <= self._lam_rs:
            return y / a0
        if y >= self._lam_re:
            return re + (y - self._lam_re)
        if re == rs:
            return rs
        # Solve c·s² + a0·s − (y − Λ(rs)) = 0 for s = t − rs ∈ [0, re − rs].
        c = (1.0 - a0) / (2.0 * (re - rs))
        rem = y - self._lam_rs
        disc = a0 * a0 + 4.0 * c * rem
        return rs + (-a0 + math.sqrt(disc)) / (2.0 * c)


def _pareto_gaps(rng: np.random.Generator, mean: float, shape: float, n: int) -> np.ndarray:
    """Truncated-Pareto gaps with the requested mean.

    Pareto(x_m, k) has mean ``k·x_m/(k−1)``; we pick ``x_m`` accordingly and
    cap draws at 50× the mean to bound the tail without disturbing it.
    """
    x_m = mean * (shape - 1.0) / shape
    draws = x_m * (1.0 + rng.pareto(shape, size=n))
    return np.minimum(draws, 50.0 * mean)


def haggle_like_trace(
    config: HaggleLikeConfig = HaggleLikeConfig(),
    seed: SeedLike = None,
) -> ContactTrace:
    """Generate a Haggle-like contact trace (see module docstring)."""
    rng = as_generator(seed)
    n = config.num_nodes
    warp = _ActivityWarp(
        config.ramp_start_level, config.ramp_start, config.ramp_end
    )
    contacts: List[Contact] = []
    pairs = list(itertools.combinations(range(n), 2))
    social_mask = rng.random(len(pairs)) < config.social_fraction
    # Per-pair meeting-rate multipliers: gamma with unit mean.
    multipliers = rng.gamma(
        config.rate_dispersion, 1.0 / config.rate_dispersion, size=len(pairs)
    )
    total_warped = warp.cumulative(config.horizon)

    for (u, v), social, mult in zip(pairs, social_mask, multipliers):
        if not social:
            continue
        pair_gap = config.mean_gap / max(mult, 1e-3)
        # Draw enough gaps to cover the warped horizon with high margin.
        est = max(4, int(2.5 * total_warped / pair_gap) + 4)
        gaps = _pareto_gaps(rng, pair_gap, config.gap_shape, est)
        warped_starts = np.cumsum(gaps)
        while warped_starts[-1] < total_warped:
            more = _pareto_gaps(rng, pair_gap, config.gap_shape, est)
            warped_starts = np.concatenate(
                [warped_starts, warped_starts[-1] + np.cumsum(more)]
            )
        warped_starts = warped_starts[warped_starts < total_warped]
        durations = rng.exponential(config.mean_duration, size=len(warped_starts))
        for ws, dur in zip(warped_starts, durations):
            start = warp.inverse(float(ws))
            end = min(start + float(dur), config.horizon)
            if end > start:
                contacts.append(Contact(start, end, u, v))

    return ContactTrace(contacts, nodes=tuple(range(n)), horizon=config.horizon)


def uniform_trace(
    num_nodes: int,
    horizon: float,
    mean_gap: float,
    mean_duration: float,
    seed: SeedLike = None,
) -> ContactTrace:
    """Stationary trace: every pair alternates Exp(gap) / Exp(duration)."""
    if num_nodes < 2:
        raise TraceFormatError("need at least 2 nodes")
    rng = as_generator(seed)
    contacts: List[Contact] = []
    for u, v in itertools.combinations(range(num_nodes), 2):
        t = float(rng.exponential(mean_gap))
        while t < horizon:
            dur = float(rng.exponential(mean_duration))
            end = min(t + dur, horizon)
            if end > t:
                contacts.append(Contact(t, end, u, v))
            t = end + float(rng.exponential(mean_gap))
    return ContactTrace(contacts, nodes=tuple(range(num_nodes)), horizon=horizon)


def scale_trace_store(
    num_nodes: int,
    num_contacts: int,
    horizon: float,
    mean_duration: float = 150.0,
    seed: SeedLike = None,
) -> ContactTrace:
    """A large uniform-random trace, generated straight into the columns
    of a :class:`~repro.traces.model.ContactTrace` with no per-contact loop.

    The scale-regime generator: node pairs, start times, and exponential
    durations are drawn as whole numpy columns and handed to
    :meth:`ContactTrace.from_arrays`, so an N=1000 / 10^6-contact instance
    builds in seconds where :func:`uniform_trace` would grind through a
    million ``Contact`` constructions.  Statistically it is the stationary
    :func:`uniform_trace` regime without the per-pair renewal structure:
    contact count is exact rather than rate-derived, which is what the
    scale bench and smoke jobs want to pin down.
    """
    if num_nodes < 2:
        raise TraceFormatError("need at least 2 nodes")
    if num_contacts < 0:
        raise TraceFormatError("need a non-negative contact count")
    if horizon <= 0:
        raise TraceFormatError("horizon must be positive")
    if mean_duration <= 0:
        raise TraceFormatError("mean duration must be positive")
    rng = as_generator(seed)
    u = rng.integers(0, num_nodes, size=num_contacts)
    # v uniform over the other nodes: never equal to u by construction.
    v = (u + 1 + rng.integers(0, num_nodes - 1, size=num_contacts)) % num_nodes
    starts = rng.uniform(0.0, horizon, size=num_contacts)
    ends = np.minimum(
        starts + rng.exponential(mean_duration, size=num_contacts), horizon
    )
    return ContactTrace.from_arrays(
        u, v, starts, ends, nodes=tuple(range(num_nodes)), horizon=horizon
    )


def deterministic_trace() -> ContactTrace:
    """A fixed 4-node trace with hand-checkable broadcast schedules.

    Topology over ``[0, 100]``:

    * edge (0,1) present on [0, 30) and [60, 100)
    * edge (1,2) present on [20, 50)
    * edge (2,3) present on [40, 80)
    * edge (0,3) present on [10, 25)

    From source 0 the unique foremost broadcast informs 1 by 20, 2 by 20–50,
    3 by 40–80 (or directly by 10–25).  Used throughout the unit tests.
    """
    contacts = [
        Contact(0.0, 30.0, 0, 1),
        Contact(60.0, 100.0, 0, 1),
        Contact(20.0, 50.0, 1, 2),
        Contact(40.0, 80.0, 2, 3),
        Contact(10.0, 25.0, 0, 3),
    ]
    return ContactTrace(contacts, nodes=(0, 1, 2, 3), horizon=100.0)
