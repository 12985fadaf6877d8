"""Charikar et al.'s recursive directed Steiner tree solver.

:func:`charikar_dst` is the level-``i`` algorithm with approximation ratio
``O(k^{1/i} · i)`` (the ``O(N^ε)`` family the paper cites through Liang's
reduction).  Exponential in ``i`` and meant for small instances:
ground-truthing the greedy solver in tests and the solver-ablation
benchmark.  The greedy solver is
:func:`~repro.compute.numpy_backend.greedy_incremental_dst_numpy`.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Set, Tuple,
)

from .. import obs
from ..errors import InfeasibleError, SolverError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["charikar_dst"]

AuxNode = Hashable
Edge = Tuple[AuxNode, AuxNode]


class _CharikarSolver:
    """Stateful recursion with memoized single-source Dijkstra runs."""

    def __init__(self, graph: nx.DiGraph, max_candidates: Optional[int] = None):
        self._g = graph
        self._sp_cache: Dict[AuxNode, Tuple[Dict, Dict]] = {}
        self._max_candidates = max_candidates
        #: recursive subproblem invocations — the solver's expansion count
        self.subproblems = 0

    def _sp(self, v: AuxNode) -> Tuple[Dict, Dict]:
        if v not in self._sp_cache:
            import networkx as nx

            self._sp_cache[v] = nx.single_source_dijkstra(
                self._g, v, weight="weight"
            )
        return self._sp_cache[v]

    def _path_edges(self, v: AuxNode, target: AuxNode) -> Optional[List[Edge]]:
        dist, paths = self._sp(v)
        if target not in dist:
            return None
        p = paths[target]
        return list(zip(p, p[1:]))

    def _edge_cost(self, edges: Set[Edge]) -> float:
        return sum(self._g[u][v]["weight"] for u, v in edges)

    def solve(
        self, level: int, k: int, root: AuxNode, terminals: Set[AuxNode]
    ) -> Set[Edge]:
        """``A_i(k, root, X)`` — a tree covering ≥ k of ``terminals``."""
        self.subproblems += 1
        if k <= 0:
            return set()
        if level <= 1:
            return self._level1(k, root, terminals)

        remaining = set(terminals)
        need = k
        out: Set[Edge] = set()
        while need > 0:
            best_edges: Optional[Set[Edge]] = None
            best_density = math.inf
            best_covered: Set[AuxNode] = set()
            candidates = self._candidates(root, remaining)
            for v in candidates:
                link = [] if v == root else self._path_edges(root, v)
                if link is None:
                    continue
                for k_prime in range(1, need + 1):
                    try:
                        sub = self.solve(level - 1, k_prime, v, remaining)
                    except InfeasibleError:
                        break
                    edges = set(link) | sub
                    covered = remaining & _covered_terminals(edges, v, remaining)
                    if not covered:
                        continue
                    density = self._edge_cost(edges) / len(covered)
                    if density < best_density:
                        best_density = density
                        best_edges = edges
                        best_covered = covered
            if best_edges is None:
                raise InfeasibleError(
                    "Charikar recursion cannot cover the requested terminals"
                )
            out |= best_edges
            remaining -= best_covered
            need -= len(best_covered)
        return out

    def _level1(self, k: int, root: AuxNode, terminals: Set[AuxNode]) -> Set[Edge]:
        dist, paths = self._sp(root)
        ranked = sorted(
            (dist[t], t) for t in terminals if t in dist and math.isfinite(dist[t])
        )
        if len(ranked) < k:
            raise InfeasibleError(
                f"only {len(ranked)} of the requested {k} terminals reachable"
            )
        edges: Set[Edge] = set()
        for _, t in ranked[:k]:
            p = paths[t]
            edges.update(zip(p, p[1:]))
        return edges

    def _candidates(self, root: AuxNode, terminals: Set[AuxNode]) -> List[AuxNode]:
        """Intermediate-root candidates, optionally pruned to the cheapest.

        The full algorithm tries every vertex; when ``max_candidates`` is
        set we keep the ones closest to the root (plus the root itself),
        trading the formal guarantee for tractability on larger graphs.
        """
        dist, _ = self._sp(root)
        nodes = [v for v in dist if math.isfinite(dist[v])]
        if self._max_candidates is None or len(nodes) <= self._max_candidates:
            return nodes
        nodes.sort(key=lambda v: dist[v])
        return nodes[: self._max_candidates]


def _covered_terminals(
    edges: Set[Edge], root: AuxNode, terminals: Set[AuxNode]
) -> Set[AuxNode]:
    """Terminals reachable from ``root`` using only ``edges``."""
    adj: Dict[AuxNode, List[AuxNode]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return terminals & seen


def charikar_dst(
    graph: nx.DiGraph,
    root: AuxNode,
    terminals: Sequence[AuxNode],
    level: int = 2,
    max_candidates: Optional[int] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Set[Edge]:
    """Charikar et al.'s level-``i`` directed Steiner tree approximation.

    ``level = 1`` reduces to the shortest-path tree; ``level = 2`` already
    gives ``O(√k)`` quality.  Runtime grows steeply with ``level`` and graph
    size — use on small instances (see module docstring).
    """
    if level < 1:
        raise SolverError("charikar level must be >= 1")
    targets = {t for t in terminals if t != root}
    if not targets:
        return set()
    solver = _CharikarSolver(graph, max_candidates)
    try:
        return solver.solve(level, len(targets), root, targets)
    finally:
        if stats is not None:
            stats["expansions"] = stats.get("expansions", 0) + solver.subproblems
        obs.counter("steiner.expansions", solver.subproblems)
