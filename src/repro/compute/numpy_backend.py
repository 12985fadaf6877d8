"""Array-native kernels for the DCS/aux-graph/Steiner hot path.

Three stages of the EEDCB pipeline dominate ``eedcb_run``: the per-node
contact-cost evaluation, the DCS level construction and auxiliary-graph
build, and the greedy directed-Steiner expansion.  This module
implements them with batched numpy operations and two compiled loops
(:mod:`repro.compute.native`) while reproducing the networkx reference
construction (``build_aux_graph`` in ``tests/aux_oracle.py``) **byte
for byte**:

* :func:`build_numpy_aux_graph` takes every node's canonically sorted
  ``(cost, neighbor)`` *component* rows as arrays, each active on one
  contiguous run of the node's DTS points, from
  :func:`~repro.tveg.costsets.point_runs` — the rows the DCS point
  queries read too.  When link costs are constant within a contact
  (``tveg.cost_cacheable``) a component is a τ-eroded adjacency
  component, its cost priced once per contact by the TVEG
  (:meth:`~repro.tveg.graph.TVEG.components`); otherwise every active
  (neighbor, point) cell is its own one-point component, costed at that
  point.  Either way the costs are
  the floats the reference's timeline sweep computes.  The build
  derives every DCS and every auxiliary node from those arrays in one
  compiled counting sweep over all nodes (``_auxfill.c``, O(cells) — a
  cell is one (component, DTS point) pair where the component is
  active), with no per-neighbor loop and no search per cell: it reads
  the columnar DTS (:class:`~repro.dts.dts.DiscreteTimeSet`) by grid
  position, sweeps each node's points with its active components kept
  in canonical order and finds each cell's receiver in one node-major
  state table.  It returns the graph in *implicit* form
  (:class:`NumpyAuxGraph`): per-state arrays and each node's active
  list once per *segment* of points where none starts or ends, no
  per-transmission array, from which each adjacency row, node tuple and
  cost set is derived on demand, with the exact node ids, row order and
  weights of the reference.  Insertion order is part of the contract: the greedy
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
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import obs
from ..auxgraph.model import AuxNode, state_node, tx_node
from ..dts.dts import DiscreteTimeSet, build_dts
from ..errors import GraphModelError, InfeasibleError
from ..tveg.costsets import point_runs
from ..tveg.graph import TVEG
from . import native

__all__ = [
    "NumpyAuxGraph",
    "LazyTreeEdges",
    "build_numpy_aux_graph",
    "greedy_incremental_dst_numpy",
]

Node = Hashable
Edge = Tuple[AuxNode, AuxNode]


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
    per-edge and no per-transmission array.  The construction is local
    to each (node, DTS point), and a point's DCS is its node's active
    components in canonical order, a list that changes only where one
    of them starts or ends; so each node's list is stored once per
    *segment* of points where none does, and every row follows from 25
    bytes per state, 4 per segment entry and 4 per state-table cell:

    * per state ``s`` (``num_states`` of them): ``tx_ptr[s]``, the first
      transmission index of its point.  Transmission nodes are numbered
      point-major and level-minor after the states, so the row is the
      0-weight waiting edge to ``s + 1`` (unless ``s`` is its node's last
      point, ``wait[s] == 0``), then the edges to ids
      ``num_states + tx_ptr[s] … num_states + tx_ptr[s+1] - 1``.
      Transmission ``j`` of ``s`` is DCS level ``k = tx_k0[s] + (j -
      tx_ptr[s])``: levels that cover no receiver have no node, and
      since coverage grows with the level they are a prefix of
      ``tx_k0[s]`` levels.  Level ``k`` is component ``act[seg[s] +
      k]`` and weighs its ``cost``;
    * per transmission node of state ``s`` at level ``k``: the 0-weight
      coverage edges to the valid receivers ``state[nbr[c], col[s]]``
      (-1 where the neighbor's DTS lacks the reception point) of the
      list's components ``c`` up to the end of level ``k``'s equal-cost
      run, in list order.

    ``num_edges`` and ``dcs_levels`` are counted during the build;
    ``aux_nodes`` decodes on access.  The id lookup :meth:`index_of` is
    arithmetic.  Schedule extraction and :meth:`tree_cost` read a tree's
    ids (:meth:`tree_ids`) and their costs through :meth:`level_costs`,
    and never build a cost set.
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
    #: (S,) int32 — DCS level index of each state's first transmission
    tx_k0: "np.ndarray"
    #: (S,) int64 — where each state's segment list starts in ``act``
    seg: "np.ndarray"
    #: (S,) int32 — each state's reception column of ``state``
    col: "np.ndarray"
    #: S bytes — 1 where the state has a waiting edge
    wait: bytes
    #: int32 — every segment's list: its active components, canonical order
    act: "np.ndarray"
    #: (C,) float64 — each component's cost
    cost: "np.ndarray"
    #: (C,) int64 — each component's neighbor, a row of ``state``
    nbr: "np.ndarray"
    #: (rows, G+1) int32 — state id of a row's node at a grid column, or -1
    state: "np.ndarray"
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

    def level_costs(self, j) -> "np.ndarray":
        """The cost levels (in-edge weights) of the transmissions ``j``
        (indices ``id - num_states``, all in range), as float64."""
        j = np.asarray(j, dtype=np.int64)
        s = np.searchsorted(self.tx_ptr, j, "right") - 1
        return self.cost[self.act[self.seg[s] + self.tx_k0[s]
                                  + (j - self.tx_ptr[s])]]

    def out_edges(self, i: int) -> List[Tuple[int, float]]:
        """``(target id, weight)`` pairs of node id ``i``, reference order."""
        num_states = self.num_states
        if i < num_states:
            lo, hi = int(self.tx_ptr[i]), int(self.tx_ptr[i + 1])
            row = [(i + 1, 0.0)] if self.wait[i] else []
            row.extend(zip(range(num_states + lo, num_states + hi),
                           self.level_costs(range(lo, hi)).tolist()))
            return row
        j = i - num_states
        s = int(np.searchsorted(self.tx_ptr, j, "right")) - 1
        k0, lo = int(self.tx_k0[s]), int(self.tx_ptr[s])
        head = int(self.seg[s])
        lst = self.act[head:head + k0 + int(self.tx_ptr[s + 1]) - lo]
        w = self.cost[lst].tolist()
        end = k0 + j - lo + 1  # past the end of the level's equal-cost run
        while end < len(w) and w[end] == w[end - 1]:
            end += 1
        heard = self.state[self.nbr[lst[:end]], self.col[s]]
        return [(v, 0.0) for v in heard[heard >= 0].tolist()]

    def tree_ids(self, edges) -> "np.ndarray":
        """The flat ``[parent, child, …]`` id array of an edge set: a
        :class:`LazyTreeEdges`' own, else each tuple's :meth:`index_of`."""
        if isinstance(edges, LazyTreeEdges):
            return edges.ids
        return np.array([self.index_of(x) for e in edges for x in e],
                        dtype=np.int64)

    def tree_cost(self, edges) -> float:
        """Summed edge weights, read through :meth:`level_costs` by id.

        Only state → transmission edges carry weight: the child's cost
        level.  Adding 0.0 for the waiting and coverage
        edges is exact, so summing the child transmissions' levels
        reproduces the reference graph's :func:`math.fsum` over every
        edge bit for bit; fsum's exact rounding also makes the result
        independent of the edges' order.
        """
        child = self.tree_ids(edges)[1::2]
        j = child[child >= self.num_states] - self.num_states
        return float(math.fsum(self.level_costs(j).tolist()))

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
    within one (see :func:`~repro.tveg.costsets.point_runs`).

    Python takes every node's components as arrays (each cost from
    :meth:`~repro.tveg.graph.TVEG.contact_cost`) and builds the grid
    tables; one compiled call (:func:`_fill_rows`) then sweeps every
    node's points, writing each state's row pointers and each segment's
    list.  The graph keeps an int32 state id per (node, DTS grid point),
    through which every level finds its receivers: 1.1 MB on the N=50
    benchmark windows, 56 MB at N=1000.  Raises
    :class:`~repro.errors.GraphModelError` when the state ids or
    components would not fit the int32 tables, and
    :class:`~repro.errors.NativeBuildError` when the fill cannot be
    compiled.
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
    pts_of = {node: d.points(node) for node in labels}
    node_base = np.cumsum([0] + [len(p) for p in pts_of.values()],
                          dtype=np.int64)  # first state id of each node
    num_states = int(node_base[-1])
    state_base = dict(zip(labels, node_base[:-1].tolist()))
    if num_states >= 2**31:
        raise GraphModelError(
            f"{num_states} auxiliary states exceed the int32 state ids"
        )

    # Receivers are found by grid position.  ``state[i, g]`` is the state
    # id of ``labels[i]`` at grid point ``g``, -1 where its DTS lacks the
    # point; column ``G`` is -1 throughout, for receptions at no grid
    # point.  ``recv_at[g]`` is the grid position of the reception time
    # ``t + tau`` of a transmission at grid point ``g``, by exact float
    # equality (as the reference build's ``_point_index``), else ``G``.
    # A level's receiver states are then one read each: no search.
    grid = d.grid
    G, N = len(grid), len(labels)
    state = np.full((N, G + 1), -1, dtype=np.int32)
    for i, node in enumerate(labels):
        base = state_base[node]
        state[i, :G][d.grid_mask(node)] = np.arange(
            base, base + len(pts_of[node]), dtype=np.int32
        )
    t_recv = grid + tau
    recv_at = np.searchsorted(grid, t_recv)
    hit = recv_at < G
    hit[hit] = grid[recv_at[hit]] == t_recv[hit]
    recv_at[~hit] = G

    comp_ptr, cost, nbr, a, b = point_runs(tveg, d)
    tx_ptr, tx_k0, seg, col, act, num_edges, dcs_level_total = _fill_rows(
        node_base=node_base,
        state=state,
        recv_at=recv_at,
        # A transmission at a grid point must complete by the deadline.
        can_tx=t_recv <= end,
        comp_ptr=comp_ptr, cost=cost, nbr=nbr, a=a, b=b,
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
        tx_k0=tx_k0,
        seg=seg,
        col=col,
        wait=wait.tobytes(),
        act=act,
        cost=cost,
        nbr=nbr,
        state=state,
        num_edges=num_edges,
        dcs_levels=dcs_level_total,
    )


def _fill_rows(*, node_base, state, recv_at, can_tx, comp_ptr, cost, nbr,
               a, b):
    """Sweep every node's points in one compiled call (``_auxfill.c``).

    Node ``i`` has states ``node_base[i] : node_base[i + 1]``, one per
    grid point where its row of ``state`` holds one, and the canonical
    components ``comp_ptr[i] : comp_ptr[i + 1]`` of ``cost``, ``nbr``
    (neighbor index) and the point runs ``[a, b)``.  ``state``,
    ``recv_at`` and ``can_tx`` are the build's grid tables.  Every array
    the call writes, its int32 scratch and exactly sized segment lists
    included, is allocated here, so :mod:`tracemalloc` sees the build.

    Returns ``(tx_ptr, tx_k0, seg, col, act, num_edges, dcs_levels)``.
    Raises :class:`GraphModelError` before the call when an array has
    the wrong type, layout or length, or a run or index is out of range.
    """
    for name, arr, dtype in (
        ("node_base", node_base, np.int64), ("recv_at", recv_at, np.int64),
        ("can_tx", can_tx, np.bool_), ("comp_ptr", comp_ptr, np.int64),
        ("cost", cost, np.float64), ("nbr", nbr, np.int64),
        ("a", a, np.int64), ("b", b, np.int64),
    ):
        _need_array("the aux fill", name, arr, dtype)
    _need_array("the aux fill", "state", state, np.int32, ndim=2)
    N, G = len(node_base) - 1, len(recv_at)
    points, sizes = np.diff(node_base), np.diff(comp_ptr)
    if not (N >= 0 and len(comp_ptr) == N + 1
            and node_base[0] == comp_ptr[0] == 0
            and (points >= 0).all() and (sizes >= 0).all()
            and len(cost) == len(nbr) == len(a) == len(b) == comp_ptr[-1]
            and len(can_tx) == G and state.shape == (N, G + 1)):
        raise GraphModelError(
            f"inconsistent aux-fill arrays for {N} nodes and {G} grid points"
        )
    limit = np.repeat(points, sizes)  # per component, its node's points
    if not ((a >= 0) & (a <= limit) & (b >= 0) & (b <= limit)).all():
        raise GraphModelError("component runs outside their node's points")
    if not (_within(nbr, N) and _within(recv_at, G + 1)):
        raise GraphModelError("aux-fill index out of range")
    # Per node the scratch holds one int32 per point and three per
    # component; ``act`` holds component indices as int32.
    scratch_len = int((points + 1 + 3 * sizes).max(initial=1))
    if max(scratch_len, len(cost)) >= 2**31:
        raise GraphModelError("a node's components exceed the int32 tables")
    act_len = _segment_entries(node_base, comp_ptr, a, b)
    lib = native.library()
    S = int(node_base[-1])
    tx_ptr = np.empty(S + 1, dtype=np.int64)
    tx_k0 = np.empty(S, dtype=np.int32)
    seg = np.empty(S, dtype=np.int64)
    col = np.empty(S, dtype=np.int32)
    act = np.empty(act_len, dtype=np.int32)
    scratch = np.empty(scratch_len, dtype=np.int32)
    out = np.zeros(3, dtype=np.int64)
    rc = lib.repro_aux_fill(
        N, G, *(x.ctypes.data for x in (
            node_base, state, recv_at, can_tx, comp_ptr, cost, nbr, a, b,
            scratch,
        )),
        scratch_len,
        *(x.ctypes.data for x in (tx_ptr, tx_k0, seg, col, act)),
        act_len, out.ctypes.data,
    )
    if rc:
        raise GraphModelError("a state-table row has fewer points than states")
    num_tx, num_edges, dcs_levels = out.tolist()
    return tx_ptr, tx_k0, seg, col, act, num_edges, dcs_levels


def _segment_entries(node_base, comp_ptr, a, b) -> int:
    """The length of every node's segment lists together: over the
    components, the points in their runs ``[a, b)`` where a component of
    their node starts or ends, counted in one prefix sum over every
    node's points (node ``i``'s point ``l`` at ``node_base[i] + l``)."""
    live = a < b
    base = np.repeat(node_base[:-1], np.diff(comp_ptr))[live]
    lo, hi = base + a[live], base + b[live]
    marks = np.zeros(int(node_base[-1]) + 2, dtype=np.int32)
    marks[lo + 1] = 1
    marks[hi + 1] = 1
    np.cumsum(marks, out=marks)  # marks[x]: change points before x
    return int(np.subtract(marks[hi], marks[lo], dtype=np.int64).sum())


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
    read straight from the build's arrays, in place: a level's cost and
    its receivers from its state's segment list
    (:class:`NumpyAuxGraph`).

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
    or any index the search follows (row pointers, segment lists,
    components, neighbor rows, columns, receivers, node ids) is out of
    range, and
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


#: (attribute, dtype, ndim) of every array the compiled search reads,
#: in the order it takes them
_SEARCH_ARRAYS = (
    ("tx_ptr", np.int64, 1), ("tx_k0", np.int32, 1), ("seg", np.int64, 1),
    ("col", np.int32, 1), ("act", np.int32, 1), ("cost", np.float64, 1),
    ("nbr", np.int64, 1), ("state", np.int32, 2),
)


def _need_array(what: str, name: str, arr, dtype, ndim: int = 1) -> None:
    """Raise :class:`GraphModelError` unless C code can read ``arr`` as a
    C-contiguous ``ndim``-dimensional array of ``dtype``."""
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype
            and arr.ndim == ndim and arr.flags.c_contiguous):
        raise GraphModelError(
            f"{what} needs {name} as a C-contiguous {ndim}-d "
            f"{np.dtype(dtype)} array, got {getattr(arr, 'dtype', arr)!r}"
        )


def _within(arr, n: int) -> bool:
    return arr.size == 0 or (int(arr.min()) >= 0 and int(arr.max()) < n)


def _check_search_arrays(graph: NumpyAuxGraph, ids: List[int]) -> None:
    """Raise :class:`GraphModelError` unless the compiled search can read
    ``graph``'s arrays and the node ids ``ids`` as they are: it trusts
    no index that is not checked here."""
    if not isinstance(graph.wait, bytes):
        raise GraphModelError("the search needs wait as bytes")
    S = len(graph.wait)
    for name, dtype, ndim in _SEARCH_ARRAYS:
        _need_array("the search", name, getattr(graph, name), dtype, ndim)
    tx_ptr, act, (rows, width) = graph.tx_ptr, graph.act, graph.state.shape
    # The last state has no waiting edge: the search reads dist[u + 1].
    if not (len(tx_ptr) == S + 1 and tx_ptr[0] == 0
            and len(graph.tx_k0) == len(graph.seg) == len(graph.col) == S
            and len(graph.cost) == len(graph.nbr)
            and graph.wait[-1:] in (b"", b"\0")):
        raise GraphModelError(f"inconsistent aux-graph arrays for {S} states")
    T = int(tx_ptr[-1])
    if S + T >= 2**31:
        raise GraphModelError(f"{S + T} aux nodes exceed the heap's int32 ids")
    ends = np.diff(tx_ptr)  # then where each state's list ends in act
    ok = (_within(ends, T + 1) and _within(graph.tx_k0, 2**31)
          and _within(graph.seg, len(act) + 1))
    if ok:
        ends += graph.tx_k0
        ends += graph.seg
    if not (ok and _within(ends, len(act) + 1)
            and _within(act, len(graph.cost)) and _within(graph.nbr, rows)
            and _within(graph.col, width)
            and int(graph.state.max(initial=-1)) < S):
        raise GraphModelError("aux-graph index out of range")
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
        len(graph.wait), int(graph.tx_ptr[-1]), graph.wait,
        *(getattr(graph, name).ctypes.data for name, *_ in _SEARCH_ARRAYS),
        graph.state.shape[1], root_i, terminals.ctypes.data,
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
