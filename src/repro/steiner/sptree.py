"""Shortest-path-tree Steiner approximation (Charikar level 1).

The union of shortest paths from the root to every terminal.  This is the
``i = 1`` base case of Charikar's recursive algorithm, with approximation
ratio ``k`` (number of terminals) — cheap (one Dijkstra) and the baseline
against which the ablation bench measures the better solvers.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Hashable, Sequence, Set, Tuple

from ..compute.numpy_backend import NumpyAuxGraph
from ..errors import InfeasibleError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["shortest_path_tree", "tree_cost"]

AuxNode = Hashable
Edge = Tuple[AuxNode, AuxNode]


def shortest_path_tree(
    graph: nx.DiGraph,
    root: AuxNode,
    terminals: Sequence[AuxNode],
) -> Set[Edge]:
    """Union of root→terminal shortest paths (weight attribute ``weight``)."""
    import networkx as nx

    dist, paths = nx.single_source_dijkstra(graph, root, weight="weight")
    missing = [t for t in terminals if t not in dist]
    if missing:
        raise InfeasibleError(
            f"{len(missing)} terminal(s) unreachable from the root "
            f"(first: {missing[0]!r})"
        )
    edges: Set[Edge] = set()
    for t in terminals:
        p = paths[t]
        edges.update(zip(p, p[1:]))
    return edges


def tree_cost(graph, edges: Set[Edge]) -> float:
    """Total weight of an edge set (networkx or implicit auxiliary graph).

    Summed with :func:`math.fsum` (exactly rounded, hence independent of
    iteration order): ``edges`` is a set whose tuples contain strings, so
    a naive left-fold would drift by an ulp between processes with
    different hash seeds — visible as byte-nonidentical plans from a
    sharded service whose workers are separate processes.  The implicit
    graph sums the child transmissions' cost levels by node id
    (:meth:`~repro.compute.numpy_backend.NumpyAuxGraph.tree_cost`).
    """
    if isinstance(graph, NumpyAuxGraph):
        return graph.tree_cost(edges)
    return float(math.fsum(graph[u][v]["weight"] for u, v in edges))
