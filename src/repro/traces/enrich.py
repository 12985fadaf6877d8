"""Distance enrichment for contact traces.

A contact trace records *who* was in range *when*, but both channel models
need the link distance ``d_{i,j,t}`` (Eq. 3).  Reproducing the paper from a
contact trace therefore requires synthesizing distances — this module
attaches a distance profile to every contact:

* ``"constant"`` (default) — one distance per contact, drawn uniformly from
  ``[d_min, d_max]``.  With constant per-contact distances the link cost is
  constant over each adjacency interval, so the DTS equivalence theorem
  (Thm. 5.2) holds *exactly*; this is the profile all paper experiments use.
* ``"approach"`` — a V-shaped profile: nodes close from ``d_max`` to a
  random minimum and retreat, linear in time.  Models walking encounters.
* ``"wander"`` — a mean-reverting random walk sampled at knots and linearly
  interpolated.

For the non-constant profiles the schedulers evaluate cost at each DTS
interval start (the paper's own "``φ`` unchanged during ``[t, t+τ]``"
assumption extended to the interval), a documented approximation.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Hashable, List, Tuple

import numpy as np

from ..core.rng import SeedLike, as_generator
from ..errors import GraphModelError, TraceFormatError
from ..temporal.tvg import edge_key
from .model import Contact, ContactTrace

__all__ = ["DistanceModel", "ContactDistanceProvider"]

Node = Hashable


class _Profile:
    """Distance profile of one contact: piecewise-linear knots over time,
    or with ``times=None`` the one distance ``values`` throughout, which
    is what ``np.interp`` between two equal knots returns exactly."""

    __slots__ = ("start", "end", "times", "values")

    def __init__(self, start: float, end: float, times, values):
        self.start = start
        self.end = end
        self.times = times
        self.values = values

    def at(self, t: float) -> float:
        if self.times is None:
            return self.values
        return float(np.interp(t, self.times, self.values))


class ContactDistanceProvider:
    """Answers ``distance(u, v, t)`` from per-contact profiles.

    Query times must fall within a recorded contact of the pair; the contact
    end itself is tolerated so τ-window endpoint queries resolve.

    ``constant_within_contacts`` advertises whether the distance (hence any
    derived link cost) is invariant across each contact — consumers such as
    the auxiliary-graph builder use it to cache per-contact costs safely.
    """

    def __init__(
        self,
        profiles: Dict[Tuple[Node, Node], List[_Profile]],
        constant_within_contacts: bool = False,
    ):
        self._profiles = profiles
        self._starts = {
            pair: [p.start for p in plist] for pair, plist in profiles.items()
        }
        self.constant_within_contacts = constant_within_contacts

    def distance(self, u: Node, v: Node, t: float) -> float:
        pair = edge_key(u, v)
        plist = self._profiles.get(pair)
        if plist:
            idx = bisect_right(self._starts[pair], t) - 1
            if idx >= 0:
                p = plist[idx]
                if p.start <= t <= p.end:
                    return p.at(t)
        raise GraphModelError(
            f"no contact of pair {pair!r} covers time {t!r}; "
            "distance is undefined outside contacts"
        )

    def __call__(self, u: Node, v: Node, t: float) -> float:
        return self.distance(u, v, t)


class DistanceModel:
    """Factory of :class:`ContactDistanceProvider` objects from traces."""

    PROFILES = ("constant", "approach", "wander")

    def __init__(
        self,
        d_min: float = 2.0,
        d_max: float = 10.0,
        profile: str = "constant",
        wander_step: float = 0.15,
        knot_spacing: float = 60.0,
    ) -> None:
        if not (0 < d_min < d_max):
            raise TraceFormatError("require 0 < d_min < d_max")
        if profile not in self.PROFILES:
            raise TraceFormatError(
                f"unknown profile {profile!r}; choose from {self.PROFILES}"
            )
        if wander_step <= 0 or knot_spacing <= 0:
            raise TraceFormatError("wander_step and knot_spacing must be positive")
        self.d_min = d_min
        self.d_max = d_max
        self.profile = profile
        self.wander_step = wander_step
        self.knot_spacing = knot_spacing

    # ------------------------------------------------------------------
    def _constant_profile(self, c: Contact, rng: np.random.Generator) -> _Profile:
        return _Profile(
            c.start, c.end, None, float(rng.uniform(self.d_min, self.d_max))
        )

    def _approach_profile(self, c: Contact, rng: np.random.Generator) -> _Profile:
        d_close = float(rng.uniform(self.d_min, 0.5 * (self.d_min + self.d_max)))
        mid = c.start + c.duration * float(rng.uniform(0.3, 0.7))
        times = np.array([c.start, mid, c.end])
        values = np.array([self.d_max, d_close, self.d_max])
        return _Profile(c.start, c.end, times, values)

    def _wander_profile(self, c: Contact, rng: np.random.Generator) -> _Profile:
        n_knots = max(2, int(c.duration / self.knot_spacing) + 1)
        times = np.linspace(c.start, c.end, n_knots)
        mid = 0.5 * (self.d_min + self.d_max)
        span = self.d_max - self.d_min
        vals = [float(rng.uniform(self.d_min, self.d_max))]
        for _ in range(n_knots - 1):
            # Mean-reverting step toward the middle of the range.
            drift = 0.3 * (mid - vals[-1])
            step = float(rng.normal(drift, self.wander_step * span))
            vals.append(min(self.d_max, max(self.d_min, vals[-1] + step)))
        return _Profile(c.start, c.end, times, np.array(vals))

    # ------------------------------------------------------------------
    def attach(self, trace: ContactTrace, seed: SeedLike = None) -> ContactDistanceProvider:
        """Build a distance provider covering every contact of ``trace``."""
        rng = as_generator(seed)
        make = {
            "constant": self._constant_profile,
            "approach": self._approach_profile,
            "wander": self._wander_profile,
        }[self.profile]
        profiles: Dict[Tuple[Node, Node], List[_Profile]] = {}
        # Merge overlapping contacts per pair first so each profile owns a
        # maximal interval (mirrors TVG presence normalization).
        for pair, pres in trace.pair_presence().items():
            plist: List[_Profile] = []
            for iv in pres:
                merged = Contact(iv.start, iv.end, *pair)
                plist.append(make(merged, rng))
            profiles[pair] = plist
        return ContactDistanceProvider(
            profiles, constant_within_contacts=(self.profile == "constant")
        )
