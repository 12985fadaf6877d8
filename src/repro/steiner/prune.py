"""Steiner-tree pruning: drop edges not on any root→terminal path.

Solver output may contain stubs (explored branches that ended up covered
more cheaply elsewhere).  Pruning keeps only edges that lie on a directed
path from the root to some terminal — it never increases cost and often
removes paid transmission edges whose coverage became redundant.

:func:`~repro.steiner.memt.solve_memt` prunes the ``sptree`` and
``charikar`` trees only.  A greedy tree is a union of grafted pred
chains, each running from a node already in the tree to an uncovered
terminal, so every edge already lies on a root→terminal path and the
prune would return an equal set.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Set, Tuple

__all__ = ["prune_tree"]

AuxNode = Hashable
Edge = Tuple[AuxNode, AuxNode]


def prune_tree(
    edges: Set[Edge],
    root: AuxNode,
    terminals: Sequence[AuxNode],
) -> Set[Edge]:
    """Edges on some root→terminal path within ``edges``.

    Computed as (reachable from root) ∩ (co-reachable to a terminal), both
    restricted to the edge set — two linear traversals.
    """
    fwd: Dict[AuxNode, List[AuxNode]] = {}
    bwd: Dict[AuxNode, List[AuxNode]] = {}
    for u, v in edges:
        fwd.setdefault(u, []).append(v)
        bwd.setdefault(v, []).append(u)

    reach_fwd: Set[AuxNode] = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in fwd.get(u, ()):
            if v not in reach_fwd:
                reach_fwd.add(v)
                stack.append(v)

    reach_bwd: Set[AuxNode] = set()
    stack = [t for t in terminals if t in reach_fwd or t == root]
    reach_bwd.update(stack)
    while stack:
        v = stack.pop()
        for u in bwd.get(v, ()):
            if u not in reach_bwd:
                reach_bwd.add(u)
                stack.append(u)

    return {(u, v) for u, v in edges if u in reach_fwd and v in reach_bwd}
