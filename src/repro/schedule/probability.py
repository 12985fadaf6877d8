"""The uninformed-probability engine (Eq. 6).

Given a schedule, node ``v_i``'s probability of still being uninformed at
time ``t`` is the product of the failure probabilities of every transmission
that could have reached it:

    p_{i,t} = Π_{t_k ≤ t, ρ_τ(e_{r_k, v_i}, t_k) = 1} φ_{t_k}^{e_{r_k, v_i}}(w_k)

The source is always informed (``p = 0``) from the broadcast start.  These
probabilities are monotonically non-increasing in ``t`` and only change at
transmission times, so the "informed time" of a node is the time of the
transmission that first pushes its product below ε.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional

from ..tveg.graph import TVEG
from .feasibility import node_index, replay_eps
from .schedule import Schedule, Transmission

__all__ = [
    "uninformed_probability",
    "uninformed_probabilities",
    "is_informed",
    "informed_time",
]

Node = Hashable


def _transmission_failure(tveg: TVEG, s: Transmission, node: Node) -> Optional[float]:
    """``φ_{t_k}^{e_{r_k, node}}(w_k)`` or ``None`` when not adjacent.

    Skipping non-adjacent transmissions (instead of multiplying by 1) keeps
    the product numerically identical and avoids distance lookups outside
    contacts.
    """
    if s.relay == node:
        return None
    if not tveg.adjacent(s.relay, node, s.time):
        return None
    return tveg.failure(s.relay, node, s.time, s.cost)


def uninformed_probability(
    tveg: TVEG,
    schedule: Schedule,
    node: Node,
    t: float,
    source: Node,
    start_time: float = 0.0,
) -> float:
    """``p_{i,t}`` per Eq. (6); the source is 0 from the broadcast start."""
    if node == source:
        return 0.0 if t >= start_time else 1.0
    p = 1.0
    for s in schedule:
        if s.time > t:
            break  # schedule rows are time-sorted
        q = _transmission_failure(tveg, s, node)
        if q is not None:
            p *= q
            if p == 0.0:
                return 0.0
    return p


def uninformed_probabilities(
    tveg: TVEG,
    schedule: Schedule,
    t: float,
    source: Node,
    start_time: float = 0.0,
) -> Dict[Node, float]:
    """``p_{i,t}`` for every node, sharing one pass over the schedule."""
    probs: Dict[Node, float] = {n: 1.0 for n in tveg.nodes}
    probs[source] = 0.0 if t >= start_time else 1.0
    for s in schedule:
        if s.time > t:
            break
        for v in tveg.neighbors(s.relay, s.time):
            if v == source:
                continue
            if probs[v] > 0.0:
                probs[v] *= tveg.failure(s.relay, v, s.time, s.cost)
    return probs


def is_informed(
    tveg: TVEG,
    schedule: Schedule,
    node: Node,
    t: float,
    source: Node,
    eps: Optional[float] = None,
    start_time: float = 0.0,
) -> bool:
    """True iff ``p_{node,t} ≤ ε`` (Section IV's informed predicate).

    An explicit ``eps`` outside (0, 1) raises
    :class:`~repro.errors.ScheduleError`; a ``node`` or ``source`` that is
    not a node of ``tveg`` raises :class:`~repro.errors.GraphModelError`.
    """
    e = replay_eps(tveg, eps)
    node_index(tveg, source, (node,))
    return uninformed_probability(tveg, schedule, node, t, source, start_time) <= e


def informed_time(
    tveg: TVEG,
    schedule: Schedule,
    node: Node,
    source: Node,
    eps: Optional[float] = None,
    start_time: float = 0.0,
) -> float:
    """Earliest ``t`` with ``p_{node,t} ≤ ε``, or ``inf`` if never.

    Since ``p`` only drops at transmission times, this is the time of the
    transmission whose failure factor first takes the running product to ε.
    ``eps``, ``node`` and ``source`` are validated as in :func:`is_informed`.
    """
    e = replay_eps(tveg, eps)
    node_index(tveg, source, (node,))
    if node == source:
        return start_time
    p = 1.0  # above ε: an ε in (0, 1) never counts an unreached node
    for s in schedule:
        q = _transmission_failure(tveg, s, node)
        if q is not None:
            p *= q
            if p <= e:
                return s.time
    return math.inf
