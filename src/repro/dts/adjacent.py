"""Adjacent partitions (Section V, Eq. 9).

For a pair ``(v_i, v_j)`` the time span splits into alternating *adjacent*
and *non-adjacent* intervals — the pair partition ``P^ad_{i,j}`` whose points
are the boundaries of the pair's (τ-eroded) adjacency set.  A node's
adjacent partition ``P^ad_i`` is the combination over all other nodes
(Eq. 9): within each of its intervals, the set of nodes ``v_i`` is connected
to is constant — the property Proposition 5.1's ET-law rests on.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from ..core.partitions import Partition
from ..temporal.tvg import TVG

__all__ = ["pair_partition", "adjacent_partition", "all_adjacent_partitions"]

Node = Hashable


def _span(tvg: TVG, deadline: Optional[float]) -> Tuple[float, float]:
    end = tvg.horizon if deadline is None else min(tvg.horizon, deadline)
    return 0.0, end


def pair_partition(
    tvg: TVG, u: Node, v: Node, deadline: Optional[float] = None
) -> Partition:
    """The pair partition ``P^ad_{u,v}`` over ``[0, deadline]``.

    Its points are the boundaries of the pair's adjacency set (the τ-eroded
    presence), so each interval is entirely adjacent or entirely
    non-adjacent.
    """
    start, end = _span(tvg, deadline)
    boundaries = tvg.adjacency_set(u, v).boundaries_within(start, end)
    return Partition.from_boundaries(boundaries, start, end)


def adjacent_partition(
    tvg: TVG, node: Node, deadline: Optional[float] = None
) -> Partition:
    """The node's adjacent partition ``P^ad_i = ∪_j P^ad_{i,j}`` (Eq. 9)."""
    start, end = _span(tvg, deadline)
    points = [start, end]
    for (a, b), pres in tvg.edges_with_presence():
        if a == node or b == node:
            adj = pres.erode(tvg.tau)
            points.extend(adj.boundaries_within(start, end))
    return Partition(points) if len(set(points)) >= 2 else Partition.trivial(start, end)


def all_adjacent_partitions(
    tvg: TVG, deadline: Optional[float] = None
) -> Dict[Node, Partition]:
    """``P^ad_V = {P^ad_1, ..., P^ad_N}`` — one pass over all edges."""
    start, end = _span(tvg, deadline)
    points: Dict[Node, list] = {n: [start, end] for n in tvg.nodes}
    for (a, b), pres in tvg.edges_with_presence():
        bnds = pres.erode(tvg.tau).boundaries_within(start, end)
        points[a].extend(bnds)
        points[b].extend(bnds)
    return {n: Partition(pts) for n, pts in points.items()}
