"""Temporal reachability (Section II's re-studied problem, used as substrate).

Whitbeck et al. [10] introduced *temporal reachability graphs*: node ``j`` is
reachable from node ``i`` within window ``[t, t + δ]`` iff a journey departs
from ``i`` no earlier than ``t`` and arrives at ``j`` no later than ``t + δ``.
The TMEDB schedulers use reachability as a feasibility pre-check (condition
(ii) of Section IV can only hold if every node is temporally reachable from
the source by the delay constraint), and the test suite uses it as ground
truth for the DTS equivalence experiments.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, FrozenSet, Hashable, Optional, Set

from .. import obs
from .journeys import earliest_arrivals
from .tvg import TVG

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "reachable_set",
    "is_broadcastable",
    "reachability_graph",
    "broadcast_feasible_sources",
    "first_feasible_source",
]

Node = Hashable


def reachable_set(
    tvg: TVG, source: Node, start_time: float = 0.0, deadline: float = math.inf
) -> FrozenSet[Node]:
    """Nodes reachable from ``source`` by journeys within ``[start, deadline]``.

    The source itself is always included.
    """
    arrivals = earliest_arrivals(tvg, source, start_time)
    # math.isfinite guards the default deadline = inf: an unreachable node
    # (arrival inf) must not satisfy `inf <= inf`.
    return frozenset(
        n for n, a in arrivals.items() if math.isfinite(a) and a <= deadline
    )


def is_broadcastable(
    tvg: TVG, source: Node, start_time: float = 0.0, deadline: float = math.inf
) -> bool:
    """True iff every node is temporally reachable from ``source`` in time.

    This is the necessary condition for TMEDB feasibility (condition (ii)):
    if no journey reaches some node by the delay constraint, no schedule can
    inform it regardless of energy.
    """
    return len(reachable_set(tvg, source, start_time, deadline)) == tvg.num_nodes


def reachability_graph(
    tvg: TVG, start_time: float = 0.0, deadline: float = math.inf
) -> nx.DiGraph:
    """The temporal reachability digraph for the window ``[start, deadline]``.

    Edge ``(i, j)`` means a journey from ``i`` departing ≥ start arrives at
    ``j`` ≤ deadline.  Computed by one temporal Dijkstra per node —
    ``O(N · E log E)`` overall, fine at trace scale.
    """
    import networkx as nx

    with obs.span("reachability.graph", nodes=tvg.num_nodes):
        g = nx.DiGraph()
        g.add_nodes_from(tvg.nodes)
        for src in tvg.nodes:
            arrivals = earliest_arrivals(tvg, src, start_time)
            for dst, a in arrivals.items():
                if dst != src and math.isfinite(a) and a <= deadline:
                    g.add_edge(src, dst, arrival=a)
    return g


def broadcast_feasible_sources(
    tvg: TVG, start_time: float = 0.0, deadline: float = math.inf
) -> FrozenSet[Node]:
    """Sources from which a full broadcast can complete within the window."""
    with obs.span("reachability.feasible_sources", nodes=tvg.num_nodes):
        out: Set[Node] = set()
        n = tvg.num_nodes
        for src in tvg.nodes:
            if len(reachable_set(tvg, src, start_time, deadline)) == n:
                out.add(src)
    return frozenset(out)


def first_feasible_source(
    tvg: TVG, start_time: float = 0.0, deadline: float = math.inf
) -> Optional[Node]:
    """The smallest broadcast-feasible source, or ``None`` when none exists.

    Equal to ``min(broadcast_feasible_sources(...))``, but nodes are tried
    in sorted order and the search stops at the first whose broadcast
    completes within the window.  This is the source auto-pick of
    :func:`repro.api.plan_broadcast` and ``repro schedule``.
    """
    with obs.span("reachability.first_feasible_source", nodes=tvg.num_nodes):
        for src in sorted(tvg.nodes):
            if is_broadcastable(tvg, src, start_time, deadline):
                return src
    return None
