"""Auxiliary-graph construction (Section VI-A, Fig. 3).

Maps TMEDB on a DTS to a minimum-energy multicast (directed Steiner) problem:

* waiting edges ``u_{i,l} → u_{i,l+1}`` with weight 0 — having the packet at
  one DTS point implies having it at the next;
* transmit edges ``u_{i,l} → x_{i,l,k}`` with weight ``w^k_{i,t}`` — pay the
  ``k``-th DCS level once;
* coverage edges ``x_{i,l,k} → u_{j,f}`` with weight 0 for every ``v_j``
  whose minimum cost at ``t_{i,l}`` is ≤ ``w^k`` — the broadcast advantage;
  the receiver's point ``t_{j,f}`` equals ``t_{i,l} + τ`` (the paper prints
  ``−τ``, a typo: decoding completes *after* traversal; with the paper's own
  ``τ ≈ 0`` approximation the two coincide).

The graph is a DAG: every edge moves forward in (node-local) time.  TMEDB-S
is then exactly the directed Steiner tree problem rooted at the source's
first state node with the terminals ``D = {u_{i, last}}``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import networkx as nx

from .. import obs
from ..dts.dts import DiscreteTimeSet, build_dts
from ..errors import GraphModelError
from ..tveg.costsets import DiscreteCostSet, discrete_cost_sets
from ..tveg.graph import TVEG
from .model import AuxNode, state_node, tx_node

__all__ = ["AuxGraph", "build_aux_graph"]

Node = Hashable
_TOL = 1e-9


@dataclass
class AuxGraph:
    """The auxiliary graph plus the bookkeeping needed to decode trees."""

    graph: nx.DiGraph
    dts: DiscreteTimeSet
    source: Node
    root: AuxNode
    terminals: Tuple[AuxNode, ...]
    #: DCS per (node, point index) — reused during schedule extraction
    cost_sets: Dict[Tuple[Node, int], DiscreteCostSet] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self.graph.number_of_edges()

    @property
    def dcs_levels(self) -> int:
        """Total DCS levels over every (node, point) with a usable DCS."""
        return sum(len(cs) for cs in self.cost_sets.values())

    def time_of(self, node: Node, point_index: int) -> float:
        return float(self.dts.points(node)[point_index])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AuxGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"terminals={len(self.terminals)})"
        )


def _point_index(points: List[float], t: float) -> Optional[int]:
    """Index of the EXACT value ``t`` in sorted ``points``, else None.

    Exact float matching is deliberate: reception times are constructed so
    they reproduce the receiver's stored point bit-for-bit (τ = 0 reuses the
    sender's point; τ > 0 status points are built by iterated ``+ τ``).  A
    tolerance here once allowed a reception to snap to an *earlier* point of
    the receiver — sub-nanosecond time travel that produced causally
    impossible schedules (found by the hypothesis suite).
    """
    i = bisect_left(points, t)
    if i < len(points) and points[i] == t:
        return i
    return None


@obs.span("auxgraph.build")
def build_aux_graph(
    tveg: TVEG,
    source: Node,
    deadline: Optional[float] = None,
    dts: Optional[DiscreteTimeSet] = None,
    targets: Optional[Tuple[Node, ...]] = None,
) -> AuxGraph:
    """Build the Section VI-A auxiliary graph for a TMEDB-S/-R instance.

    For fading channels the DCS entries are the ``w0`` backbone weights
    (Section VI-B), so the same construction drives both EEDCB and
    FR-EEDCB's backbone-selection stage.  ``targets`` selects a multicast
    terminal subset (default: all other nodes — the paper's broadcast);
    this is exactly Liang's original MEMT problem.
    """
    if not tveg.tvg.has_node(source):
        raise GraphModelError(f"unknown source {source!r}")
    if targets is not None:
        unknown = [t for t in targets if not tveg.tvg.has_node(t)]
        if unknown:
            raise GraphModelError(f"unknown targets {unknown!r}")
    end = tveg.horizon if deadline is None else min(tveg.horizon, deadline)
    d = dts if dts is not None else build_dts(tveg.tvg, end)
    tau = tveg.tau

    g = nx.DiGraph()
    cost_sets: Dict[Tuple[Node, int], DiscreteCostSet] = {}
    pts_of = {node: d.points(node).tolist() for node in tveg.nodes}

    # State nodes and waiting edges.
    for node in tveg.nodes:
        pts = pts_of[node]
        for l in range(len(pts)):
            g.add_node(state_node(node, l), time=pts[l])
        for l in range(len(pts) - 1):
            g.add_edge(state_node(node, l), state_node(node, l + 1), weight=0.0)

    # Transmission and coverage edges.  The DCS at every point of one node
    # comes from a single timeline sweep (see repro.tveg.costsets).
    for node in tveg.nodes:
        pts = pts_of[node]
        all_dcs = discrete_cost_sets(tveg, node, pts)
        for l, t in enumerate(pts):
            if t + tau > end:
                continue  # transmission could not complete by the deadline
            dcs = all_dcs[l]
            if dcs.is_empty:
                continue
            t_recv = t + tau
            # Receivers whose DTS lacks the reception point are dropped:
            # with the default trigger depth N−1 this only happens for
            # departures at maximal depth, which no circle-free journey can
            # extend — such coverage is provably useless (Section V's
            # O(N³L) bound counts receptions up to depth N−1 only).
            recv_index: Dict[Node, int] = {}
            for _, nbr in dcs.entries:
                f = _point_index(pts_of[nbr], t_recv)
                if f is not None:
                    recv_index[nbr] = f
            reachable = tuple(
                (w, nbr) for w, nbr in dcs.entries if nbr in recv_index
            )
            if not reachable:
                continue
            cost_sets[(node, l)] = dcs
            for k, (w, _) in enumerate(dcs.entries):
                receivers = [nbr for c, nbr in reachable if c <= w]
                if not receivers:
                    continue
                x = tx_node(node, l, k)
                g.add_node(x, time=t)
                g.add_edge(state_node(node, l), x, weight=w)
                for nbr in receivers:
                    g.add_edge(x, state_node(nbr, recv_index[nbr]), weight=0.0)

    root = state_node(source, 0)
    wanted = tuple(n for n in tveg.nodes if n != source) if targets is None else tuple(
        n for n in targets if n != source
    )
    terminals = tuple(state_node(n, len(pts_of[n]) - 1) for n in wanted)
    obs.gauge("auxgraph.nodes", g.number_of_nodes())
    obs.gauge("auxgraph.edges", g.number_of_edges())
    obs.gauge("auxgraph.dcs_levels", sum(len(cs) for cs in cost_sets.values()))
    obs.counter("auxgraph.builds")
    return AuxGraph(
        graph=g,
        dts=d,
        source=source,
        root=root,
        terminals=terminals,
        cost_sets=cost_sets,
    )
