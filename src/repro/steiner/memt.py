"""Minimum-energy multicast tree facade (Liang's problem [3]).

:func:`solve_memt` is the single entry point the schedulers call: given
the auxiliary graph, a root, and terminals, return a pruned Steiner edge
set using the selected solver:

* ``"greedy"`` (default) — incremental multi-source Dijkstra grafting,
  the compiled search over the implicit graph; the practical solver used
  for all paper-scale experiments.
* ``"sptree"`` — level-1 shortest-path tree; fastest, weakest bound.
* ``"charikar"`` — the recursive level-``i`` algorithm with the paper's
  ``O(N^ε)``-family guarantee; small instances only.

Every returned edge lies on a root→terminal path.  ``sptree`` and
``charikar`` get that from :func:`~repro.steiner.prune.prune_tree`.  The
greedy tree needs no prune: each graft adds the pred chain from a tree
node to an uncovered terminal, so every edge already lies on such a
path.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Set, Tuple

from .. import obs
from ..compute.numpy_backend import NumpyAuxGraph, greedy_incremental_dst_numpy
from ..errors import SolverError
from .dst import charikar_dst
from .prune import prune_tree
from .sptree import shortest_path_tree

__all__ = ["solve_memt", "MEMT_METHODS"]

AuxNode = Hashable
Edge = Tuple[AuxNode, AuxNode]

MEMT_METHODS = ("greedy", "sptree", "charikar")


def solve_memt(
    graph,
    root: AuxNode,
    terminals: Sequence[AuxNode],
    method: str = "greedy",
    level: int = 2,
    max_candidates: Optional[int] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Set[Edge]:
    """Solve the MEMT instance and return its Steiner edge set, every edge
    on a root→terminal path.

    ``graph`` is the implicit
    :class:`~repro.compute.numpy_backend.NumpyAuxGraph` or, for
    ``sptree`` and ``charikar``, a weighted :class:`networkx.DiGraph`.
    The greedy solver is
    :func:`~repro.compute.numpy_backend.greedy_incremental_dst_numpy`,
    the compiled search over the build's arrays, whose tree stays in
    node ids (a :class:`~repro.compute.numpy_backend.LazyTreeEdges`
    set); it raises :class:`~repro.errors.SolverError` on any other
    graph.  The networkx-based solvers receive the implicit graph's
    lossless ``to_networkx()`` view.

    ``stats``, when given, receives the solver's work counters (at least
    ``expansions``; the greedy solver adds ``grafts``) — the numbers the
    schedulers surface as ``steiner_expansions`` in their result ``info``.
    """
    with obs.span(
        "steiner.solve_memt",
        method=method,
        graph_nodes=graph.number_of_nodes(),
        graph_edges=graph.number_of_edges(),
        terminals=len(terminals),
    ):
        if method == "greedy":
            if not isinstance(graph, NumpyAuxGraph):
                raise SolverError(
                    "the greedy solver searches the implicit auxiliary "
                    "graph (build_numpy_aux_graph), not a "
                    f"{type(graph).__name__}"
                )
            # A union of grafted root→terminal chains: already pruned.
            return greedy_incremental_dst_numpy(graph, root, terminals,
                                                stats=stats)
        if method == "sptree":
            if isinstance(graph, NumpyAuxGraph):
                graph = graph.to_networkx()
            edges = shortest_path_tree(graph, root, terminals)
            if stats is not None:
                stats.setdefault("expansions", 0)
        elif method == "charikar":
            if isinstance(graph, NumpyAuxGraph):
                graph = graph.to_networkx()
            edges = charikar_dst(
                graph, root, terminals, level, max_candidates, stats=stats
            )
        else:
            raise SolverError(
                f"unknown MEMT method {method!r}; choose from {MEMT_METHODS}"
            )
        return prune_tree(edges, root, terminals)
