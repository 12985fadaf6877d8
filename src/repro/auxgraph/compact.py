"""Flat-array (CSR) auxiliary graph — the stdlib form EEDCB plans on.

:func:`build_aux_graph` (the networkx construction) spends most of its time
creating dict-of-dict adjacency and tuple node keys, only for the Steiner
solver to immediately flatten everything back to int-indexed arrays.  This
module skips the round trip: :func:`build_compact_aux_graph` produces a
:class:`CompactAuxGraph` — int node ids, CSR adjacency (``indptr`` /
``targets`` / ``weights`` stdlib arrays) — directly from the timeline-sweep
DCS computation, and :func:`~repro.steiner.dst.greedy_incremental_dst`
consumes it natively with no per-call re-indexing.  EEDCB builds this form
whenever link costs may vary within a contact (``tveg.cost_cacheable`` is
false); otherwise it builds the implicit numpy graph, which mirrors this
one row for row.

The construction mirrors :func:`build_aux_graph` *exactly*: node ids follow
the same insertion order (all state nodes, then transmission nodes as
created) and per-node adjacency follows the same edge insertion order
(waiting edge first, then transmission edges by level; coverage edges in
DCS entry order).  Because the greedy Steiner solver breaks distance ties
by node index and adjacency order, this makes compact and networkx runs
byte-identical, not merely equivalent — a property the equivalence suite
pins down.  :meth:`CompactAuxGraph.to_networkx` /
:func:`from_aux_graph` convert losslessly in both directions.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from .. import obs
from ..dts.dts import DiscreteTimeSet, build_dts
from ..errors import GraphModelError
from ..tveg.costsets import DiscreteCostSet, discrete_cost_sets
from ..tveg.graph import TVEG
from .build import AuxGraph, _point_index
from .model import AuxNode, state_node, tx_node

__all__ = [
    "RowGraph",
    "CompactAuxGraph",
    "build_compact_aux_graph",
    "from_aux_graph",
]

Node = Hashable


class RowGraph:
    """The decoding and conversion surface shared by the int-indexed forms.

    Written against a small core each form provides: ``aux_nodes``,
    ``times``, ``dts``, ``source``, ``state_base``, the root/terminal
    bookkeeping, ``num_edges``, :meth:`index_of` and :meth:`out_edges`
    (``(target id, weight)`` pairs in the nx build's insertion order).
    :class:`CompactAuxGraph` reads its rows from CSR arrays; the numpy
    kernel's :class:`~repro.compute.numpy_backend.NumpyAuxGraph` derives
    them from per-state and per-transmission arrays.
    """

    # ------------------------------------------------------------------
    # sizes (same surface as AuxGraph / nx.DiGraph)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.aux_nodes)

    def number_of_nodes(self) -> int:
        return self.num_nodes

    def number_of_edges(self) -> int:
        return self.num_edges

    def time_of(self, node: Node, point_index: int) -> float:
        return self.dts.points(node)[point_index]

    def edge_weight(self, u: AuxNode, v: AuxNode) -> float:
        """Weight of the edge ``u → v`` (KeyError-style failure if absent)."""
        vi = self.index_of(v)
        for j, w in self.out_edges(self.index_of(u)):
            if j == vi:
                return w
        raise GraphModelError(f"no auxiliary edge {u!r} → {v!r}")

    # ------------------------------------------------------------------
    # retargeting (the batch-planning amortization)
    # ------------------------------------------------------------------
    def retarget(
        self, source: Node, targets: Optional[Tuple[Node, ...]] = None
    ) -> "RowGraph":
        """The same auxiliary graph, re-rooted at a different source.

        The Section VI-A construction depends only on the TVEG and the
        deadline — the source merely selects the root state node and
        drops itself from the terminal set — so a built graph can serve
        every source.  Returns a shallow copy sharing all arrays with
        ``self``; only root/terminal bookkeeping is recomputed, exactly
        as the builder would have produced it.  This is what lets
        ``plan_broadcast_many`` pay for one build across k sources.
        """
        from dataclasses import replace

        if self.state_base is None:
            raise GraphModelError(
                "retarget requires a builder-produced graph "
                "(state_base is unset on converted graphs)"
            )
        if source not in self.state_base:
            raise GraphModelError(f"unknown source {source!r}")
        if targets is not None:
            unknown = [t for t in targets if t not in self.state_base]
            if unknown:
                raise GraphModelError(f"unknown targets {unknown!r}")
        wanted = (
            tuple(n for n in self.dts.nodes if n != source)
            if targets is None
            else tuple(n for n in targets if n != source)
        )
        return replace(
            self,
            source=source,
            root=state_node(source, 0),
            root_index=self.state_base[source],
            terminals=tuple(
                state_node(n, len(self.dts.points(n)) - 1) for n in wanted
            ),
            terminal_indices=tuple(
                self.state_base[n] + len(self.dts.points(n)) - 1
                for n in wanted
            ),
        )

    # ------------------------------------------------------------------
    # conversion (lossless, for the non-greedy solvers and tests)
    # ------------------------------------------------------------------
    def to_networkx(self):
        """The equivalent :class:`networkx.DiGraph` (node ``time`` attrs,
        edge ``weight`` attrs, matching insertion order)."""
        import networkx as nx

        g = nx.DiGraph()
        nodes = self.aux_nodes
        for aux, t in zip(nodes, self.times):
            g.add_node(aux, time=t)
        for i, u in enumerate(nodes):
            for j, w in self.out_edges(i):
                g.add_edge(u, nodes[j], weight=w)
        return g

    def to_aux_graph(self) -> AuxGraph:
        """The equivalent networkx-backed :class:`AuxGraph`."""
        return AuxGraph(
            graph=self.to_networkx(),
            dts=self.dts,
            source=self.source,
            root=self.root,
            terminals=self.terminals,
            cost_sets=dict(self.cost_sets),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, terminals={len(self.terminals)})"
        )


@dataclass(repr=False)
class CompactAuxGraph(RowGraph):
    """Int-indexed CSR auxiliary graph plus decoding bookkeeping.

    ``aux_nodes[i]`` is the tuple-form auxiliary node with id ``i``;
    out-edges of ``i`` are ``targets[indptr[i]:indptr[i+1]]`` with parallel
    ``weights``.  Exposes the same decoding surface as
    :class:`~repro.auxgraph.build.AuxGraph` (``root`` / ``terminals`` /
    ``cost_sets`` / ``time_of``), so schedule extraction works unchanged.
    """

    indptr: array
    targets: array
    weights: array
    aux_nodes: List[AuxNode]
    times: array
    dts: DiscreteTimeSet
    source: Node
    root: AuxNode
    terminals: Tuple[AuxNode, ...]
    root_index: int
    terminal_indices: Tuple[int, ...]
    #: DCS per (node, point index) — reused during schedule extraction
    cost_sets: Dict[Tuple[Node, int], DiscreteCostSet] = field(
        default_factory=dict
    )
    _index: Optional[Dict[AuxNode, int]] = field(default=None, repr=False)
    #: graph node → id of its first state node; filled by the builders,
    #: ``None`` on converted graphs.  Enables :meth:`retarget`.
    state_base: Optional[Dict[Node, int]] = field(default=None, repr=False)

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    @property
    def dcs_levels(self) -> int:
        """Total DCS levels over every (node, point) with a usable DCS."""
        return sum(len(cs) for cs in self.cost_sets.values())

    def index_of(self, aux: AuxNode) -> int:
        """Int id of a tuple-form auxiliary node (index built lazily)."""
        if self._index is None:
            self._index = {n: i for i, n in enumerate(self.aux_nodes)}
        return self._index[aux]

    def out_edges(self, i: int) -> List[Tuple[int, float]]:
        """``(target id, weight)`` pairs of node id ``i``, CSR order."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return list(zip(self.targets[lo:hi], self.weights[lo:hi]))


def from_aux_graph(aux: AuxGraph) -> CompactAuxGraph:
    """Losslessly re-encode a networkx-backed :class:`AuxGraph` as CSR."""
    g = aux.graph
    nodes = list(g.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    times = array("d", (g.nodes[n].get("time", math.nan) for n in nodes))
    indptr = array("l", [0])
    targets = array("l")
    weights = array("d")
    for n in nodes:
        for _, v, data in g.edges(n, data=True):
            targets.append(index[v])
            weights.append(float(data.get("weight", 0.0)))
        indptr.append(len(targets))
    return CompactAuxGraph(
        indptr=indptr,
        targets=targets,
        weights=weights,
        aux_nodes=nodes,
        times=times,
        dts=aux.dts,
        source=aux.source,
        root=aux.root,
        terminals=aux.terminals,
        root_index=index[aux.root],
        terminal_indices=tuple(index[t] for t in aux.terminals),
        cost_sets=dict(aux.cost_sets),
        _index=index,
    )


@obs.span("auxgraph.compact_build")
def build_compact_aux_graph(
    tveg: TVEG,
    source: Node,
    deadline: Optional[float] = None,
    dts: Optional[DiscreteTimeSet] = None,
    targets: Optional[Tuple[Node, ...]] = None,
) -> CompactAuxGraph:
    """Build the Section VI-A auxiliary graph directly in CSR form.

    Semantically identical to :func:`~repro.auxgraph.build.build_aux_graph`
    (same nodes, edges, weights, node/edge ordering — see module docstring)
    but constructed from flat arrays fed by one timeline sweep per node,
    with no networkx object graph in between.
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

    # State nodes first, in (node, point) order — same ids the nx build's
    # insertion order produces.
    aux_nodes: List[AuxNode] = []
    times = array("d")
    state_base: Dict[Node, int] = {}
    all_points: Dict[Node, Tuple[float, ...]] = {}
    for node in tveg.nodes:
        pts = d.points(node)
        state_base[node] = len(aux_nodes)
        all_points[node] = pts
        for l in range(len(pts)):
            aux_nodes.append(state_node(node, l))
            times.append(pts[l])

    # Adjacency accumulators (per-source edge lists, flattened to CSR last).
    adj_t: List[List[int]] = [[] for _ in aux_nodes]
    adj_w: List[List[float]] = [[] for _ in aux_nodes]
    for node in tveg.nodes:
        base, pts = state_base[node], all_points[node]
        for l in range(len(pts) - 1):
            adj_t[base + l].append(base + l + 1)
            adj_w[base + l].append(0.0)  # waiting edge

    # Transmission and coverage edges; one DCS sweep per node.
    cost_sets: Dict[Tuple[Node, int], DiscreteCostSet] = {}
    for node in tveg.nodes:
        base, pts = state_base[node], all_points[node]
        all_dcs = discrete_cost_sets(tveg, node, pts)
        for l, t in enumerate(pts):
            if t + tau > end:
                continue  # transmission could not complete by the deadline
            dcs = all_dcs[l]
            if dcs.is_empty:
                continue
            t_recv = t + tau
            # Receivers whose DTS lacks the reception point are dropped
            # (see build_aux_graph: provably useless coverage).  The kept
            # ones stay in DCS entry order, so they are cost-ascending and
            # level k's coverage is a prefix of the list.
            r_costs: List[float] = []
            r_states: List[int] = []
            for c, nbr in dcs.entries:
                f = _point_index(all_points[nbr], t_recv)
                if f is not None:
                    r_costs.append(c)
                    r_states.append(state_base[nbr] + f)
            if not r_costs:
                continue
            cost_sets[(node, l)] = dcs
            for k, (w, _) in enumerate(dcs.entries):
                j = bisect_right(r_costs, w)
                if j == 0:
                    continue
                x = len(aux_nodes)
                aux_nodes.append(tx_node(node, l, k))
                times.append(t)
                adj_t.append(r_states[:j])
                adj_w.append([0.0] * j)
                adj_t[base + l].append(x)
                adj_w[base + l].append(w)

    # Flatten to CSR.
    indptr = array("l", [0])
    targets_arr = array("l")
    weights_arr = array("d")
    for ts, ws in zip(adj_t, adj_w):
        targets_arr.extend(ts)
        weights_arr.extend(ws)
        indptr.append(len(targets_arr))

    root = state_node(source, 0)
    wanted = (
        tuple(n for n in tveg.nodes if n != source)
        if targets is None
        else tuple(n for n in targets if n != source)
    )
    terminals = tuple(
        state_node(n, len(all_points[n]) - 1) for n in wanted
    )
    terminal_indices = tuple(
        state_base[n] + len(all_points[n]) - 1 for n in wanted
    )
    obs.gauge("auxgraph.nodes", len(aux_nodes))
    obs.gauge("auxgraph.edges", len(targets_arr))
    obs.gauge(
        "auxgraph.dcs_levels", sum(len(cs) for cs in cost_sets.values())
    )
    obs.counter("auxgraph.compact_builds")
    return CompactAuxGraph(
        indptr=indptr,
        targets=targets_arr,
        weights=weights_arr,
        aux_nodes=aux_nodes,
        times=times,
        dts=d,
        source=source,
        root=root,
        terminals=terminals,
        root_index=state_base[source],
        terminal_indices=terminal_indices,
        cost_sets=cost_sets,
        state_base=state_base,
    )
