"""Array-native kernels for the DCS/aux-graph/Steiner hot path.

Three stages of the EEDCB pipeline dominate ``eedcb_run``: the per-node
contact-cost evaluation, the DCS level construction and auxiliary-graph
build, and the greedy directed-Steiner expansion.  This module
implements them with batched numpy operations and two compiled loops
(:mod:`repro.compute.native`) while reproducing the networkx reference
construction (``build_aux_graph`` in ``tests/aux_oracle.py``) **byte
for byte**:

* :func:`node_components` gives each node canonically sorted
  ``(cost, neighbor)`` *component* rows, each active on one contiguous
  run of the node's DTS points.  When link costs are constant within a
  contact (``tveg.cost_cacheable``) a component is a τ-eroded adjacency
  component, its cost taken once from the TVEG's shared per-contact cost
  cache; otherwise every active (neighbor, point) cell is its own
  one-point component, costed at that point.  Either way the costs are
  the floats the reference's timeline sweep computes.
* :func:`build_numpy_aux_graph` derives every DCS and every auxiliary
  node from those arrays in one compiled pass over all nodes
  (``_auxfill.c``, O(cells) — a cell is one (component, DTS point) pair
  where the component is active), with no per-neighbor loop and no
  search per cell: it reads the columnar DTS
  (:class:`~repro.dts.dts.DiscreteTimeSet`) by grid position, finds each
  cell's receiver state in one node-major state table, sweeps each
  node's points with its active components kept in canonical order, and
  takes coverage counts from a running count of valid receivers.  It returns the graph in *implicit*
  form (:class:`NumpyAuxGraph`): per-state and per-transmission arrays,
  about 16 bytes per transmission node, allocated once and filled in
  place, from which each adjacency row, node tuple and cost set is
  derived on demand, with the exact node ids, row order and weights of
  the reference.  Insertion order is part of the contract: the greedy
  Steiner search breaks distance ties by node id and row order.  The
  search expands about a tenth of the nodes, so no per-edge array is
  ever materialized.
* :func:`greedy_incremental_dst_numpy` runs the same incremental
  multi-source Dijkstra as
  the reference ``greedy_incremental_dst`` (``tests/aux_oracle.py``)
  does on the networkx graph, reading each settled row straight from those arrays.
  It keeps distances for state nodes only and queues one pending cost
  level per state instead of every transmission node.  Every live heap
  entry of the reference is either queued here too or outranked by a
  queued level of its own state, and the heap orders by
  ``(distance, id)``, so live entries pop in the reference's order: the
  expansions, the ``expansions`` counter and the tree are identical.
  A state whose waiting edge the expansion lowers would be the next pop,
  so it is expanded in place.  The search loop is compiled C
  (:mod:`repro.compute.native`), and the tree it returns stays in node
  ids (:class:`LazyTreeEdges`) through schedule extraction and
  :meth:`NumpyAuxGraph.tree_cost`; it is decoded
  (:meth:`LazyAuxNodes.decode`, the graph's only id decoder) only when
  iterated.
"""

from __future__ import annotations

import ctypes
import math
from bisect import bisect_left
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..auxgraph.model import AuxNode, state_node, tx_node
from ..dts.dts import DiscreteTimeSet, build_dts
from ..errors import GraphModelError, InfeasibleError
from ..tveg.graph import TVEG
from . import native

__all__ = [
    "node_components",
    "NumpyAuxGraph",
    "LazyTreeEdges",
    "build_numpy_aux_graph",
    "greedy_incremental_dst_numpy",
]

Node = Hashable
Edge = Tuple[AuxNode, AuxNode]


class NodeComponents:
    """One node's contact components in canonical DCS order.

    Rows are sorted by ``(cost, repr(neighbor))`` — the exact
    :func:`~repro.tveg.costsets._sorted_entries` key.  At any DTS point
    at most one component per neighbor is active (interval sets are
    normalized, and a one-point component covers a single point), and
    distinct neighbors have distinct ``repr``, so the *active subset* of
    this canonical order is precisely the entry order of that point's
    :class:`~repro.tveg.costsets.DiscreteCostSet`.
    """

    __slots__ = ("costs", "neighbors")

    def __init__(self, costs, neighbors):
        self.costs = costs          #: (C,) float64, ascending
        self.neighbors = neighbors  #: list of C neighbor labels

    def __len__(self) -> int:
        return len(self.neighbors)


def _canonical(raw: List[tuple]):
    """Sort ``(cost, repr(neighbor), lo, hi, neighbor)`` rows canonically;
    returns the :class:`NodeComponents` and the ``lo`` / ``hi`` arrays."""
    raw.sort(key=lambda item: (item[0], item[1]))
    comp = NodeComponents(
        costs=np.array([r[0] for r in raw], dtype=np.float64),
        neighbors=[r[4] for r in raw],
    )
    return comp, np.array([r[2] for r in raw]), np.array([r[3] for r in raw])


def node_components(
    tveg: TVEG, node: Node, points: "np.ndarray"
) -> Tuple[NodeComponents, "np.ndarray", "np.ndarray"]:
    """The node's canonical components and where each one is active.

    Returns ``(components, a, b)``: component ``j`` is adjacent at DTS
    point ``l`` (of the node's ascending ``points``) exactly when
    ``a[j] <= l < b[j]``.  Components with a non-finite cost are dropped,
    matching the DCS entry filter.

    With ``tveg.cost_cacheable`` the components are the τ-eroded
    adjacency components, costed once at their start through
    :meth:`~repro.tveg.graph.TVEG.contact_cost` (which shares the TVEG's
    per-contact cost cache with the point-query path) and
    cached per node on :meth:`~repro.tveg.graph.TVEG.compute_cache`.
    Otherwise each active (neighbor, point) cell is a one-point component
    costed by the same ``contact_cost(node, other, t, start)`` call the
    reference's timeline sweep makes at that point.
    """
    tvg = tveg.tvg
    if not tveg.cost_cacheable:
        pts = points.tolist()
        raw = []
        for other in tvg.incident(node):
            key = repr(other)
            for s, e in tvg.adjacency_set(node, other).pairs:
                for l in range(bisect_left(pts, s), bisect_left(pts, e)):
                    c = tveg.contact_cost(node, other, pts[l], s)
                    if math.isfinite(c):
                        raw.append((c, key, l, l + 1, other))
        return _canonical(raw)
    cache = tveg.compute_cache()
    hit = cache.get(("components", node))
    if hit is None:
        raw = []
        for other in tvg.incident(node):
            for s, e in tvg.adjacency_set(node, other).pairs:
                # Erosion preserves component starts, so ``s`` is also the
                # presence-interval start — the shared cost-cache key.
                c = tveg.contact_cost(node, other, s, s)
                if math.isfinite(c):
                    raw.append((c, repr(other), s, e, other))
        hit = cache[("components", node)] = _canonical(raw)
    comp, starts, ends = hit
    return (
        comp,
        np.searchsorted(points, starts, side="left"),
        np.searchsorted(points, ends, side="left"),
    )


class LazyAuxNodes(Sequence):
    """The auxiliary node-id → tuple mapping, decoded on demand.

    Ids follow the reference build's numbering: every state node (graph
    nodes in TVEG order, points ascending), then every transmission node
    (point-major, level-minor).  Millions of ``("state", node, l)`` and
    ``("tx", node, l, k)`` tuples would cost more than the rest of the
    build, while the Steiner search needs only the ids on tree edges, so
    tuples are recovered from ids when asked for.  Every access — an
    item, a slice, iteration — goes through :meth:`decode`, which
    decodes a whole id array in one vectorized pass.
    """

    __slots__ = ("_labels", "_node_base", "_tx_ptr", "_tx_k0")

    def __init__(self, labels, node_base, tx_ptr, tx_k0):
        self._labels = labels
        self._node_base = node_base  #: (N+1,) first state id per graph node
        self._tx_ptr = tx_ptr
        self._tx_k0 = tx_k0

    def __len__(self) -> int:
        return len(self._tx_ptr) - 1 + int(self._tx_ptr[-1])

    def decode(self, ids) -> List[AuxNode]:
        """The node tuples of the ids in ``ids`` (all in range), in order.

        A transmission's state ``s`` comes from a ``searchsorted`` over
        ``tx_ptr`` and its level from ``tx_k0[s]`` plus its rank among the
        state's transmissions; every state's graph node and point index
        from a ``searchsorted`` over the node bases.
        """
        s = np.array(ids, dtype=np.int64)
        num_states = len(self._tx_ptr) - 1
        is_tx = s >= num_states
        j = s[is_tx] - num_states
        owner = np.searchsorted(self._tx_ptr, j, "right") - 1
        s[is_tx] = owner
        k = np.full(len(s), -1, dtype=np.int64)
        k[is_tx] = self._tx_k0[owner] + (j - self._tx_ptr[owner])
        ni = np.searchsorted(self._node_base, s, "right") - 1
        labels = self._labels
        return [
            state_node(labels[n], l) if kk < 0 else tx_node(labels[n], l, kk)
            for n, l, kk in zip(ni.tolist(),
                                (s - self._node_base[ni]).tolist(),
                                k.tolist())
        ]

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return self.decode(np.arange(*i.indices(n), dtype=np.int64))
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(i)
        return self.decode([i])[0]

    def __iter__(self):
        return iter(self.decode(np.arange(len(self), dtype=np.int64)))


class LazyTreeEdges(AbstractSet):
    """A greedy Steiner tree held as ``(parent, child)`` node ids.

    ``ids`` is the flat ``[parent, child, …]`` array in graft order;
    ``len`` is the number of edges.  Schedule extraction and
    :meth:`NumpyAuxGraph.tree_cost` read the ids.  Iteration and ``in``
    decode the pairs on first use, through :meth:`LazyAuxNodes.decode`,
    into the set the networkx search builds: the same tuples, inserted
    in graft order.
    """

    __slots__ = ("ids", "_nodes", "_edges")

    def __init__(self, ids, nodes: LazyAuxNodes):
        self.ids = ids  #: (2E,) int64
        self._nodes = nodes
        self._edges: Optional[Set[Edge]] = None

    def _decoded(self) -> Set[Edge]:
        if self._edges is None:
            nodes = self._nodes.decode(self.ids)
            self._edges = set(zip(nodes[0::2], nodes[1::2]))
        return self._edges

    def __len__(self) -> int:
        return len(self.ids) // 2

    def __iter__(self):
        return iter(self._decoded())

    def __contains__(self, edge) -> bool:
        return edge in self._decoded()


@dataclass(repr=False, eq=False)
class NumpyAuxGraph:
    """The Section VI-A auxiliary graph, its rows derived on demand.

    Same node ids, per-row edge order and weights as the networkx
    reference (``build_aux_graph`` in ``tests/aux_oracle.py``), but no
    per-edge array.  The construction is local to each (node, DTS point),
    and Property 6.1(i) makes the coverage of cost level ``k`` a prefix of
    the point's receivers in DCS order, so every row follows from 12
    bytes per transmission node, 4 per receiver entry and 21 per state:

    * per state ``s`` (``num_states`` of them): ``tx_ptr[s]``, the first
      transmission index of its point.  Transmission nodes are numbered
      point-major and level-minor after the states, so the row is the
      0-weight waiting edge to ``s + 1`` (unless ``s`` is its node's last
      point, ``wait[s] == 0``), then the edges to ids
      ``num_states + tx_ptr[s] … num_states + tx_ptr[s+1] - 1``,
      weighted by their cost levels ``tx_w``.  Transmission ``j`` of
      ``s`` is DCS level ``k = tx_k0[s] + (j - tx_ptr[s])``: levels
      that cover no receiver have no node, and since coverage grows
      with the level they are a prefix of ``tx_k0[s]`` levels;
    * per transmission node ``j`` of state ``s``: the 0-weight coverage
      edges to the receiver states ``recv[recv_ptr[s] : recv_ptr[s] +
      tx_cnt[j]]``.  ``recv`` holds each transmitting point's valid
      receivers, point-major and DCS-order-minor, so every level of a
      point starts its coverage at the same place.

    ``num_edges`` and ``dcs_levels`` are counted during the build;
    ``aux_nodes`` decodes on access.  The id lookup :meth:`index_of` is
    arithmetic.  A level's DCS cost is its ``tx_w`` entry, so schedule
    extraction and :meth:`tree_cost` read a tree's ids
    (:meth:`tree_ids`) and never build a cost set.
    """

    aux_nodes: LazyAuxNodes
    dts: DiscreteTimeSet
    source: Node
    root: AuxNode
    terminals: Tuple[AuxNode, ...]
    root_index: int
    terminal_indices: Tuple[int, ...]
    state_base: Dict[Node, int]
    #: (S+1,) int64 — first transmission index of each state's point
    tx_ptr: "np.ndarray"
    #: (S+1,) int64 — first ``recv`` entry of each state's point
    recv_ptr: "np.ndarray"
    #: (S,) int32 — DCS level index of each state's first transmission
    tx_k0: "np.ndarray"
    #: S bytes — 1 where the state has a waiting edge
    wait: bytes
    #: (T,) float64 — each transmission's cost level (its in-edge weight)
    tx_w: "np.ndarray"
    #: (T,) int32 — each transmission's coverage count
    tx_cnt: "np.ndarray"
    #: int32 — valid receiver state ids, point-major, DCS-order-minor
    recv: "np.ndarray"
    num_edges: int
    dcs_levels: int

    @property
    def num_states(self) -> int:
        return len(self.tx_ptr) - 1

    @property
    def num_nodes(self) -> int:
        return len(self.aux_nodes)

    def number_of_nodes(self) -> int:
        return self.num_nodes

    def number_of_edges(self) -> int:
        return self.num_edges

    def time_of(self, node: Node, point_index: int) -> float:
        return float(self.dts.points(node)[point_index])

    @property
    def times(self) -> "np.ndarray":
        """Node times in id order; a transmission is at its state's time."""
        st = np.concatenate([self.dts.points(n) for n in self.state_base])
        return np.concatenate([st, np.repeat(st, np.diff(self.tx_ptr))])

    def index_of(self, aux: AuxNode) -> int:
        kind = aux[0] if isinstance(aux, tuple) and aux else None
        if (kind == "state" and len(aux) == 3) or (
            kind == "tx" and len(aux) == 4
        ):
            base = self.state_base.get(aux[1])
            if base is not None and 0 <= aux[2] < len(self.dts.points(aux[1])):
                s = base + aux[2]
                if kind == "state":
                    return s
                lo, hi = int(self.tx_ptr[s]), int(self.tx_ptr[s + 1])
                k = aux[3]
                if isinstance(k, int):
                    j = lo + k - int(self.tx_k0[s])
                    if lo <= j < hi:
                        return self.num_states + j
        raise KeyError(aux)

    def out_edges(self, i: int) -> List[Tuple[int, float]]:
        """``(target id, weight)`` pairs of node id ``i``, reference order."""
        num_states = self.num_states
        if i < num_states:
            lo, hi = int(self.tx_ptr[i]), int(self.tx_ptr[i + 1])
            row = [(i + 1, 0.0)] if self.wait[i] else []
            row.extend(zip(range(num_states + lo, num_states + hi),
                           self.tx_w[lo:hi].tolist()))
            return row
        j = i - num_states
        s = int(np.searchsorted(self.tx_ptr, j, "right")) - 1
        lo = int(self.recv_ptr[s])
        hi = lo + int(self.tx_cnt[j])
        return [(v, 0.0) for v in self.recv[lo:hi].tolist()]

    def tree_ids(self, edges) -> "np.ndarray":
        """The flat ``[parent, child, …]`` id array of an edge set: a
        :class:`LazyTreeEdges`' own, else each tuple's :meth:`index_of`."""
        if isinstance(edges, LazyTreeEdges):
            return edges.ids
        return np.array([self.index_of(x) for e in edges for x in e],
                        dtype=np.int64)

    def tree_cost(self, edges) -> float:
        """Summed edge weights, read from ``tx_w`` by id.

        Only state → transmission edges carry weight: the child's cost
        level, ``tx_w[j]``.  Adding 0.0 for the waiting and coverage
        edges is exact, so summing the child transmissions' levels
        reproduces the reference graph's :func:`math.fsum` over every
        edge bit for bit; fsum's exact rounding also makes the result
        independent of the edges' order.
        """
        child = self.tree_ids(edges)[1::2]
        j = child[child >= self.num_states] - self.num_states
        return float(math.fsum(self.tx_w[j].tolist()))

    def retarget(
        self, source: Node, targets: Optional[Tuple[Node, ...]] = None
    ) -> "NumpyAuxGraph":
        """The same auxiliary graph, re-rooted at a different source.

        The Section VI-A construction depends only on the TVEG and the
        deadline — the source merely selects the root state node and
        drops itself from the terminal set — so a built graph can serve
        every source.  Returns a shallow copy sharing all arrays with
        ``self``; only root/terminal bookkeeping is recomputed, exactly
        as the builder would have produced it.  This is what lets
        ``plan_broadcast_many`` pay for one build across k sources.
        """
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

    def to_networkx(self):
        """The equivalent :class:`networkx.DiGraph` (node ``time`` attrs,
        edge ``weight`` attrs, matching insertion order) — for the
        networkx-based solvers and the reference comparisons."""
        import networkx as nx

        g = nx.DiGraph()
        nodes = list(self.aux_nodes)
        for aux, t in zip(nodes, self.times.tolist()):
            g.add_node(aux, time=t)
        for i, u in enumerate(nodes):
            for j, w in self.out_edges(i):
                g.add_edge(u, nodes[j], weight=w)
        return g


@obs.span("auxgraph.numpy_build")
def build_numpy_aux_graph(
    tveg: TVEG,
    source: Node,
    deadline: Optional[float] = None,
    dts: Optional[DiscreteTimeSet] = None,
    targets: Optional[Tuple[Node, ...]] = None,
) -> NumpyAuxGraph:
    """Build the Section VI-A auxiliary graph in implicit form.

    Returns a :class:`NumpyAuxGraph` whose node numbering, per-row edge
    order and weights are identical to the networkx reference build's
    (``tests/aux_oracle.py``) — pinned row for row by the compute-parity
    suite, on costs constant within each contact and on costs that vary
    within one (see :func:`node_components`).

    Python takes every node's components (so each cost still comes from
    :meth:`~repro.tveg.graph.TVEG.contact_cost`), joins them into one set
    of arrays and builds the grid tables; one compiled call
    (:func:`_fill_rows`) then fills every node's rows.  The components'
    active (component, point) cells bound both the transmissions and the
    receiver entries, so the per-transmission arrays are allocated once
    at that bound, filled in place and trimmed.  For the build's length
    it also holds an int32 state id per (node, DTS grid point), through
    which every cell finds its receiver: 1.1 MB on the N=50 benchmark
    windows, 56 MB at N=1000.  Raises
    :class:`~repro.errors.GraphModelError` when the state ids would not
    fit ``recv``'s int32, and :class:`~repro.errors.NativeBuildError`
    when the fill cannot be compiled.
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

    labels = list(tveg.nodes)
    node_index = {n: i for i, n in enumerate(labels)}
    pts_of = {node: d.points(node) for node in labels}
    node_base = np.cumsum([0] + [len(p) for p in pts_of.values()],
                          dtype=np.int64)  # first state id of each node
    num_states = int(node_base[-1])
    state_base = dict(zip(labels, node_base[:-1].tolist()))
    if num_states >= 2**31:
        raise GraphModelError(
            f"{num_states} auxiliary states exceed the int32 state ids"
        )

    # Receivers are found by grid position.  ``state[i * (G + 1) + g]`` is
    # the state id of ``labels[i]`` at grid point ``g``, -1 where its DTS
    # lacks the point; column ``G`` is -1 throughout, for receptions at no
    # grid point.  ``recv_at[g]`` is the grid position of the reception
    # time ``t + tau`` of a transmission at grid point ``g``, by exact float
    # equality (as the reference build's ``_point_index``), else ``G``.  A
    # cell's receiver state is then one read: no search per cell.
    grid = d.grid
    G, N = len(grid), len(labels)
    state = np.full((N, G + 1), -1, dtype=np.int32)
    for i, node in enumerate(labels):
        base = state_base[node]
        state[i, :G][d.grid_mask(node)] = np.arange(
            base, base + len(pts_of[node]), dtype=np.int32
        )
    state = state.ravel()
    t_recv = grid + tau
    recv_at = np.searchsorted(grid, t_recv)
    hit = recv_at < G
    hit[hit] = grid[recv_at[hit]] == t_recv[hit]
    recv_at[~hit] = G

    components = [
        node_components(tveg, node, pts_of[node]) for node in labels
    ]
    tx_ptr, recv_ptr, tx_k0, tx_w, tx_cnt, recv, num_edges, dcs_level_total = (
        _fill_rows(
            node_base=node_base,
            state=state,
            recv_at=recv_at,
            # A transmission at a grid point must complete by the deadline.
            can_tx=t_recv <= end,
            comp_ptr=np.cumsum([0] + [len(c) for c, _, _ in components],
                               dtype=np.int64),
            cost=np.concatenate([c.costs for c, _, _ in components]),
            nbr=np.array([node_index[n] for c, _, _ in components
                          for n in c.neighbors], dtype=np.int64),
            a=np.concatenate([a for _, a, _ in components]).astype(
                np.int64, copy=False),
            b=np.concatenate([b for _, _, b in components]).astype(
                np.int64, copy=False),
        )
    )
    wait = np.ones(num_states, dtype=np.uint8)
    last = node_base[1:] - 1
    wait[last[last >= 0]] = 0  # a node's last point has no waiting edge
    aux_nodes = LazyAuxNodes(labels, node_base, tx_ptr, tx_k0)

    wanted = (
        tuple(n for n in labels if n != source)
        if targets is None
        else tuple(n for n in targets if n != source)
    )
    obs.gauge("auxgraph.nodes", len(aux_nodes))
    obs.gauge("auxgraph.edges", num_edges)
    obs.gauge("auxgraph.dcs_levels", dcs_level_total)
    obs.counter("auxgraph.numpy_builds")
    return NumpyAuxGraph(
        aux_nodes=aux_nodes,
        dts=d,
        source=source,
        root=state_node(source, 0),
        terminals=tuple(
            state_node(n, len(pts_of[n]) - 1) for n in wanted
        ),
        root_index=state_base[source],
        terminal_indices=tuple(
            state_base[n] + len(pts_of[n]) - 1 for n in wanted
        ),
        state_base=state_base,
        tx_ptr=tx_ptr,
        recv_ptr=recv_ptr,
        tx_k0=tx_k0,
        wait=wait.tobytes(),
        tx_w=tx_w,
        tx_cnt=tx_cnt,
        recv=recv,
        num_edges=num_edges,
        dcs_levels=dcs_level_total,
    )


def _fill_rows(*, node_base, state, recv_at, can_tx, comp_ptr, cost, nbr,
               a, b):
    """Fill every node's rows in one compiled call (``_auxfill.c``).

    Node ``i`` has states ``node_base[i] : node_base[i + 1]``, one per
    grid point where its row of ``state`` holds one, and the canonical
    components ``comp_ptr[i] : comp_ptr[i + 1]`` of ``cost``, ``nbr``
    (neighbor index) and the point runs ``[a, b)``.  ``state``,
    ``recv_at`` and ``can_tx`` are the build's grid tables.  Every array
    the call writes, its int32 scratch included, is allocated here, so
    :mod:`tracemalloc` sees the whole build.

    Returns ``(tx_ptr, recv_ptr, tx_k0, tx_w, tx_cnt, recv, num_edges,
    dcs_levels)``, the per-transmission arrays trimmed.  Raises
    :class:`GraphModelError` before the call when an array has the wrong
    type, layout or length, or a run or index is out of range.
    """
    for name, arr, dtype in (
        ("node_base", node_base, np.int64),
        ("state", state, np.int32), ("recv_at", recv_at, np.int64),
        ("can_tx", can_tx, np.bool_), ("comp_ptr", comp_ptr, np.int64),
        ("cost", cost, np.float64), ("nbr", nbr, np.int64),
        ("a", a, np.int64), ("b", b, np.int64),
    ):
        _need_vector("the aux fill", name, arr, dtype)
    N, G = len(node_base) - 1, len(recv_at)
    points, sizes = np.diff(node_base), np.diff(comp_ptr)
    if not (N >= 0 and len(comp_ptr) == N + 1
            and node_base[0] == comp_ptr[0] == 0
            and (points >= 0).all() and (sizes >= 0).all()
            and len(cost) == len(nbr) == len(a) == len(b) == comp_ptr[-1]
            and len(can_tx) == G and len(state) == N * (G + 1)):
        raise GraphModelError(
            f"inconsistent aux-fill arrays for {N} nodes and {G} grid points"
        )
    limit = np.repeat(points, sizes)  # per component, its node's points
    if not ((a >= 0) & (a <= limit) & (b >= 0) & (b <= limit)).all():
        raise GraphModelError("component runs outside their node's points")
    if not (((nbr >= 0) & (nbr < N)).all()
            and ((recv_at >= 0) & (recv_at <= G)).all()):
        raise GraphModelError("aux-fill index out of range")
    # Cells bound the transmissions and receiver entries; per node the
    # scratch holds one int32 per point and three per component.
    bound = int(np.maximum(b - a, 0).sum())
    scratch_len = int((points + 1 + 3 * sizes).max(initial=1))
    if scratch_len >= 2**31:
        raise GraphModelError("a node's components exceed the int32 scratch")
    lib = native.library()
    S = int(node_base[-1])
    tx_ptr = np.empty(S + 1, dtype=np.int64)
    recv_ptr = np.empty(S + 1, dtype=np.int64)
    tx_k0 = np.empty(S, dtype=np.int32)
    tx_w = np.empty(bound, dtype=np.float64)
    tx_cnt = np.empty(bound, dtype=np.int32)
    recv = np.empty(bound, dtype=np.int32)
    scratch = np.empty(scratch_len, dtype=np.int32)
    out = np.zeros(4, dtype=np.int64)
    rc = lib.repro_aux_fill(
        N, G, *(x.ctypes.data for x in (
            node_base, state, recv_at, can_tx, comp_ptr, cost, nbr, a, b,
            scratch,
        )),
        scratch_len,
        *(x.ctypes.data for x in (tx_ptr, recv_ptr, tx_k0, tx_w, tx_cnt,
                                  recv)),
        bound, out.ctypes.data,
    )
    if rc:
        raise GraphModelError("a state-table row has fewer points than states")
    num_tx, num_recv, num_edges, dcs_levels = out.tolist()
    # Shrinking reallocates in place: no second copy of the arrays.
    tx_w.resize(num_tx, refcheck=False)
    tx_cnt.resize(num_tx, refcheck=False)
    recv.resize(num_recv, refcheck=False)
    return tx_ptr, recv_ptr, tx_k0, tx_w, tx_cnt, recv, num_edges, dcs_levels


def greedy_incremental_dst_numpy(
    graph: NumpyAuxGraph,
    root: AuxNode,
    terminals: Sequence[AuxNode],
    stats: Optional[Dict[str, int]] = None,
) -> LazyTreeEdges:
    """The incremental multi-source Dijkstra over the implicit graph.

    Identical search to the reference ``greedy_incremental_dst``
    (``tests/aux_oracle.py``) on the equivalent networkx graph — same expansions in the same order,
    same ``expansions`` / ``grafts`` counters, same tree — but it keeps
    distances for the state nodes only and queues at most one pending
    cost level per state instead of every transmission node.  Rows are
    read straight from the build's arrays, in place.

    **Why only states need distances.**  A transmission node ``j`` of
    state ``s`` has exactly one in-edge, ``s → j``, weighted by its cost
    level ``w_j``.  A state is only ever expanded at a distance no higher
    than the one before (the lazy-deletion check admits a pop only at the
    current distance, distances only fall, and a graft resets them to
    ``0.0``), and float addition is monotone, so the reference's
    ``dist[j]`` is always ``fl(dlast[s] + w_j)``, with ``dlast[s]`` the
    distance ``s`` was last expanded at — or ``0.0`` once ``j`` is in the
    tree — and its ``pred`` is always ``s``, recovered by bisecting
    ``tx_ptr``.  Per transmission there is one flag byte: "expanded at
    its current distance" and "in the tree".  A transmission is
    *pending* (the reference holds a live heap entry for it) when neither
    flag is set and ``s`` has been expanded.

    **Why one pending level per state is enough.**  A state's levels
    have consecutive ids and non-decreasing weights (a DCS lists its
    costs ``w¹ ≤ … ≤ wᵐ``), so the keys ``(distance, id)`` of its pending
    levels strictly rise with the level: only the first pending one can
    be the next of them to pop.  The search keeps that one queued:

    * the first expansion of a state queues its first level;
    * expanding a pending level queues the next pending level of the
      same state;
    * a re-expansion at a lower distance walks the state's levels once,
      makes pending again each expanded non-tree level whose distance
      fell (``dd + w < old + w`` — a drop that float rounding absorbs
      leaves the level expanded, exactly as the reference then pushes
      nothing), and queues the first pending level;
    * a graft pushes ``(0.0, i)`` for every chain node, transmissions
      included, and clears their "expanded" flag, which reproduces the
      reference's re-expansions after a graft.  Every chain node was
      expanded at its current distance (an earlier live entry would
      have popped before the target), so no pending level leaves the
      pending set and nothing else needs queueing.

    Every live entry of the reference is therefore either queued here or
    has a strictly smaller live entry of its own state queued, and every
    entry admitted here is live in the reference.  The heap orders by
    ``(distance, id)`` and entries with equal keys are interchangeable,
    so live entries pop in the reference's order.  A popped level is
    skipped when its key is stale (``dd`` above its current distance) or
    when it is already expanded: a re-expansion queues its state's first
    pending level again even if that entry is already queued under the
    same key (as after an absorbed drop), where the reference holds one
    entry, and only the first may expand.  A level whose distance
    overflows to ``inf`` is never queued, as the reference never pushes
    ``inf``.

    **Why a waiting chain needs no heap.**  Suppose expanding state
    ``u`` at distance ``dd`` lowers ``dist[u + 1]`` through its 0-weight
    waiting edge.  Then ``(dd, u + 1)`` is the next pop.  Every queued
    entry is above the just-popped ``(dd, u)``: no state holds two queued
    entries with the same key, because a state is pushed only when its
    distance strictly drops and a graft pushes ``(0.0, i)`` only for
    chain nodes whose entries have all popped (the graft argument
    above).  No id lies between ``u`` and ``u + 1``.  The entries of
    ``u + 1`` sit at or above its old distance, which exceeds ``dd``.
    The level ``u`` queues has an id above every state and a distance
    ``dd + w ≥ dd``.  So the search sets ``dist`` and ``pred`` of
    ``u + 1`` and expands it in place, without the push and pop, and the
    same argument carries on along the chain.

    The 0-weight waiting and coverage edges skip the ``+ 0.0``:
    distances are never below ``+0.0``, where adding ``0.0`` is exact.

    **The tree stays in ids.**  Each graft appends its ``(parent,
    child)`` ids in graft order, and the result is a
    :class:`LazyTreeEdges` over that flat id array.  Schedule extraction
    and :meth:`NumpyAuxGraph.tree_cost` read the ids; iterating the tree
    or testing membership decodes it once, and the pairs enter the
    decoded set in graft order: the networkx solver's elements and
    insertion history, so even ``list(edges)`` matches it.  No output
    depends on that order, though: :class:`~repro.schedule.Schedule`
    sorts its rows by ``(time, repr(relay))``, unique per row, and
    :meth:`NumpyAuxGraph.tree_cost` sums with :func:`math.fsum`.

    **The search is compiled.**  The loop is ``_steiner.c``, a
    line-for-line port (see :mod:`repro.compute.native`): the same heap
    keys, the same IEEE double comparisons and the same flag states, so
    everything above holds for it word for word.  Per state it keeps
    ``dist`` / ``dlast`` (doubles), ``pred`` and one flag byte; per
    transmission one flag byte, whose "uncovered terminal" bit no
    pending test reads.  Raises :class:`~repro.errors.GraphModelError`
    before the call when an array has the wrong type, layout or length,
    or an id is out of range, and
    :class:`~repro.errors.NativeBuildError` when the search cannot be
    compiled.
    """
    root_i = (
        graph.root_index if root == graph.root else graph.index_of(root)
    )
    # Built like the reference's set, so an error names the same terminal.
    if tuple(terminals) == graph.terminals:
        uncovered = {i for i in graph.terminal_indices if i != root_i}
    else:
        uncovered = {graph.index_of(t) for t in terminals if t != root}
    uncovered.discard(root_i)

    tree_ids, expansions, grafts = _greedy_search(graph, root_i, uncovered)
    if stats is not None:
        stats["expansions"] = stats.get("expansions", 0) + expansions
        stats["grafts"] = stats.get("grafts", 0) + grafts
    obs.counter("steiner.expansions", expansions)
    obs.counter("steiner.grafts", grafts)
    return LazyTreeEdges(tree_ids, graph.aux_nodes)


#: (attribute, dtype) of every array the compiled search reads
_SEARCH_ARRAYS = (
    ("tx_ptr", np.int64), ("recv_ptr", np.int64), ("tx_w", np.float64),
    ("tx_cnt", np.int32), ("recv", np.int32),
)


def _need_vector(what: str, name: str, arr, dtype) -> None:
    """Raise :class:`GraphModelError` unless C code can read ``arr`` as a
    C-contiguous vector of ``dtype``."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
            and arr.ndim == 1 and arr.flags.c_contiguous):
        raise GraphModelError(
            f"{what} needs {name} as a C-contiguous {np.dtype(dtype)} "
            f"vector, got {getattr(arr, 'dtype', arr)!r}"
        )


def _check_search_arrays(graph: NumpyAuxGraph, ids: List[int]) -> None:
    """Raise :class:`GraphModelError` unless the compiled search can read
    ``graph``'s arrays and the node ids ``ids`` as they are."""
    if not isinstance(graph.wait, bytes):
        raise GraphModelError("the search needs wait as bytes")
    S = len(graph.wait)
    for name, dtype in _SEARCH_ARRAYS:
        _need_vector("the search", name, getattr(graph, name), dtype)
    T = len(graph.tx_w)
    # The last state has no waiting edge: the search reads dist[u + 1].
    if not (len(graph.tx_ptr) == len(graph.recv_ptr) == S + 1
            and len(graph.tx_cnt) == T and graph.tx_ptr[-1] == T
            and graph.recv_ptr[-1] <= len(graph.recv)
            and graph.wait[-1:] in (b"", b"\0")):
        raise GraphModelError(
            f"inconsistent aux-graph arrays for {S} states and {T} "
            "transmissions"
        )
    if S + T >= 2**31:
        raise GraphModelError(f"{S + T} aux nodes exceed the heap's int32 ids")
    bad = [i for i in ids if not 0 <= i < S + T]
    if bad:
        raise GraphModelError(f"node ids {bad!r} out of range")


def _greedy_search(
    graph: NumpyAuxGraph, root_i: int, uncovered: Set[int]
) -> Tuple["np.ndarray", int, int]:
    """Run the compiled search; returns the tree's flat ``[parent, child,
    …]`` id array in graft order, then the ``expansions`` and ``grafts``
    counts.  The search's state lives and dies inside the call."""
    terminals = np.fromiter(uncovered, dtype=np.int64, count=len(uncovered))
    _check_search_arrays(graph, [root_i, *terminals.tolist()])
    lib = native.library()
    tree = ctypes.POINTER(ctypes.c_int64)()
    n, expansions, grafts = (ctypes.c_int64() for _ in range(3))
    rc = lib.repro_steiner_search(
        len(graph.wait), len(graph.tx_w), graph.wait,
        graph.tx_ptr.ctypes.data, graph.recv_ptr.ctypes.data,
        graph.tx_w.ctypes.data, graph.tx_cnt.ctypes.data,
        graph.recv.ctypes.data, root_i, terminals.ctypes.data,
        len(terminals), ctypes.byref(tree), ctypes.byref(n),
        ctypes.byref(expansions), ctypes.byref(grafts),
    )
    try:
        ids = (np.ctypeslib.as_array(tree, shape=(n.value,)).copy()
               if n.value else np.empty(0, dtype=np.int64))
    finally:
        lib.repro_steiner_free(tree)
    if rc == 2:
        raise MemoryError("the Steiner search ran out of memory")
    if rc == 1:
        # One discard at a time, as the reference search does: a bulk
        # difference_update may resize the set and reorder it.
        for i in ids.tolist():
            uncovered.discard(i)
        first = graph.aux_nodes[next(iter(uncovered))]
        raise InfeasibleError(
            f"{len(uncovered)} terminal(s) unreachable from the tree "
            f"(first: {first!r})"
        )
    return ids, expansions.value, grafts.value
