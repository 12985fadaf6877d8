"""Reference per-edge builds: the loops the contact table replaced.

The production trace (:class:`repro.traces.model.ContactTrace`) merges its
rows per pair in one numpy pass; its TVG keeps one
:class:`~repro.temporal.tvg.ContactTable` per version; the status points,
the DTS, the adjacency boundaries and the TVEG's priced components read
that table.  These are the constructions they replaced, kept as the
independent side of ``tests/test_contact_table.py``: a python pass over
the rows per pair, one ``set_presence`` per edge, one scalar draw and one
lookup per contact, and one erosion per edge for every consumer.  Nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.intervals import IntervalSet
from repro.temporal.tvg import TVG, edge_key
from repro.tveg.costsets import canonical
from repro.tveg.graph import TVEG

Node = Hashable


def pair_presence(trace) -> Dict[Tuple[Node, Node], IntervalSet]:
    """Presence set per pair, pairs in first-occurrence order over the rows."""
    out: Dict[Tuple[Node, Node], List[Tuple[float, float]]] = {}
    for u, v, s, e in trace.iter_rows():
        out.setdefault(edge_key(u, v), []).append((s, e))
    return {k: IntervalSet(v) for k, v in out.items()}


def to_tvg(trace, tau: float = 0.0, horizon: Optional[float] = None) -> TVG:
    """The trace's TVG, one ``set_presence`` per pair in first-occurrence
    order over the rows."""
    tvg = TVG(trace.nodes, trace.horizon if horizon is None else horizon, tau)
    for (a, b), pres in pair_presence(trace).items():
        tvg.set_presence(a, b, pres)
    return tvg


def distances(model, trace, rng) -> List[Tuple[Tuple[Node, Node], float, float, object]]:
    """``(pair, start, end, profile)`` per merged contact, one scalar draw
    per contact in pair order: a constant profile's distance as a float,
    else its ``(times, values)`` knots."""
    out = []
    for pair, pres in pair_presence(trace).items():
        for s, e in pres.pairs:
            if model.profile == "constant":
                profile = float(rng.uniform(model.d_min, model.d_max))
            elif model.profile == "approach":
                profile = model._approach_profile(s, e, rng)
            else:
                profile = model._wander_profile(s, e, rng)
            out.append((pair, s, e, profile))
    return out


def adjacency_boundaries(tvg: TVG) -> Tuple[float, ...]:
    """Every boundary of every edge's eroded presence, sorted, distinct."""
    points = set()
    for pres in tvg._presence.values():
        points.update(pres.erode(tvg.tau).boundaries())
    return tuple(sorted(points))


def status_points(tvg: TVG, deadline: Optional[float] = None,
                  max_depth: Optional[int] = None) -> Tuple[float, ...]:
    """:func:`repro.dts.status_points`, eroding every edge again."""
    end = tvg.horizon if deadline is None else min(tvg.horizon, deadline)
    base = {0.0}
    for _, pres in tvg.edges_with_presence():
        base.update(pres.erode(tvg.tau).boundaries_within(0.0, end))
    tau = tvg.tau
    if tau == 0.0:
        return tuple(sorted(base))
    depth = (tvg.num_nodes - 1) if max_depth is None else max_depth
    triggered = set(base)
    for t in base:
        shifted = t
        for _ in range(depth):
            shifted = shifted + tau
            if shifted > end:
                break
            triggered.add(shifted)
    return tuple(sorted(triggered))


def node_components(tveg: TVEG, node: Node) -> List[tuple]:
    """The node's ``(cost, neighbor, start, end)`` component rows: every
    eroded adjacency interval of every incident edge, in incident order,
    each contact costed at its start straight from the distance provider
    and the channel, then :func:`canonical` order when costs are constant
    within contacts (else cost ``None`` and incident order)."""
    tvg, costed = tveg.tvg, tveg.cost_cacheable
    rows = [
        (tveg.channel.backbone_weight(tveg.distance(node, v, s))
         if costed else None, v, s, e)
        for v in tvg.incident(node)
        for s, e in tvg.adjacency_set(node, v).pairs
    ]
    return canonical(rows) if costed else rows


def point_runs(tveg: TVEG, node: Node, points: "np.ndarray"):
    """The node's costed components as the aux build reads them:
    ``(costs, neighbors, a, b)``, one ``searchsorted`` per row."""
    rows = node_components(tveg, node)
    return ([r[0] for r in rows], [r[1] for r in rows],
            [int(np.searchsorted(points, r[2])) for r in rows],
            [int(np.searchsorted(points, r[3])) for r in rows])
