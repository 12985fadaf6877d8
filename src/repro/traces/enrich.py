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
from typing import Dict, Hashable, List, Tuple, Union

import numpy as np

from ..core.rng import SeedLike, as_generator
from ..errors import GraphModelError, TraceFormatError
from ..temporal.tvg import edge_key
from .model import ContactTrace

__all__ = ["DistanceModel", "ContactDistanceProvider"]

Node = Hashable


#: one contact's distance profile: the distance itself when constant,
#: else the ``(times, values)`` knots of a piecewise-linear profile
Profile = Union[float, Tuple["np.ndarray", "np.ndarray"]]


class ContactDistanceProvider:
    """Answers ``distance(u, v, t)`` from per-contact profiles.

    Contacts are held as flat columns: ``index`` maps each pair to its
    rows ``[lo, hi)`` of ``starts`` / ``ends`` (the pair's contacts by
    start) and ``profiles``.  A profile is a distance, constant over the
    contact, or the knots ``np.interp`` reads.  Query times must fall
    within a recorded contact of the pair; the contact end itself is
    tolerated so τ-window endpoint queries resolve.

    ``constant_within_contacts`` advertises whether the distance (hence any
    derived link cost) is invariant across each contact — consumers such as
    the auxiliary-graph builder use it to price each contact once.
    """

    def __init__(
        self,
        index: Dict[Tuple[Node, Node], Tuple[int, int]],
        starts: List[float],
        ends: List[float],
        profiles: List[Profile],
        constant_within_contacts: bool = False,
    ):
        self._index = index
        self._starts = starts
        self._ends = ends
        self._profiles = profiles
        self.constant_within_contacts = constant_within_contacts

    def distance(self, u: Node, v: Node, t: float) -> float:
        pair = edge_key(u, v)
        rows = self._index.get(pair)
        if rows is not None:
            i = bisect_right(self._starts, t, *rows) - 1
            if i >= rows[0] and self._starts[i] <= t <= self._ends[i]:
                p = self._profiles[i]
                return p if isinstance(p, float) else float(np.interp(t, *p))
        raise GraphModelError(
            f"no contact of pair {pair!r} covers time {t!r}; "
            "distance is undefined outside contacts"
        )

    __call__ = distance


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
    def _approach_profile(self, start: float, end: float,
                          rng: np.random.Generator) -> Profile:
        d_close = float(rng.uniform(self.d_min, 0.5 * (self.d_min + self.d_max)))
        mid = start + (end - start) * float(rng.uniform(0.3, 0.7))
        return (np.array([start, mid, end]),
                np.array([self.d_max, d_close, self.d_max]))

    def _wander_profile(self, start: float, end: float,
                        rng: np.random.Generator) -> Profile:
        n_knots = max(2, int((end - start) / self.knot_spacing) + 1)
        times = np.linspace(start, end, n_knots)
        mid = 0.5 * (self.d_min + self.d_max)
        span = self.d_max - self.d_min
        vals = [float(rng.uniform(self.d_min, self.d_max))]
        for _ in range(n_knots - 1):
            # Mean-reverting step toward the middle of the range.
            drift = 0.3 * (mid - vals[-1])
            step = float(rng.normal(drift, self.wander_step * span))
            vals.append(min(self.d_max, max(self.d_min, vals[-1] + step)))
        return (times, np.array(vals))

    # ------------------------------------------------------------------
    def attach(self, trace: ContactTrace, seed: SeedLike = None) -> ContactDistanceProvider:
        """Build a distance provider covering every contact of ``trace``.

        Each profile owns one merged contact of ``trace.pair_presence()``
        (mirroring TVG presence normalization), drawn pair by pair in its
        order, each pair's contacts by start.  The constant profile draws
        every distance in one call, which gives the floats, and leaves the
        generator in the state, that one draw per contact would; a drawn
        distance is returned as is, which is what ``np.interp`` between
        two equal knots returns at every time of the contact.
        """
        rng = as_generator(seed)
        index: Dict[Tuple[Node, Node], Tuple[int, int]] = {}
        spans: List[Tuple[float, float]] = []
        for pair, pres in trace.pair_presence().items():
            index[pair] = (len(spans), len(spans) + len(pres))
            spans += pres.pairs
        if self.profile == "constant":
            profiles = rng.uniform(self.d_min, self.d_max,
                                   size=len(spans)).tolist()
        else:
            make = (self._approach_profile if self.profile == "approach"
                    else self._wander_profile)
            profiles = [make(s, e, rng) for s, e in spans]
        return ContactDistanceProvider(
            index, [s for s, _ in spans], [e for _, e in spans], profiles,
            constant_within_contacts=(self.profile == "constant"),
        )
