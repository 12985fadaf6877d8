"""Reference auxiliary-graph chain: the networkx build of Section VI-A.

The production planner builds the implicit auxiliary graph
(:func:`repro.compute.numpy_backend.build_numpy_aux_graph`) from per-node
component arrays and searches it with the compiled greedy kernel.  This
is the chain it replaced, kept verbatim as the independent side of the
aux-graph parity tests, of :func:`tests.conftest.reference_pipeline` and
(through ``tests/dts_oracle.py``) of ``tools/scale_smoke.py``'s dict leg:

* :func:`adjacency_events` and :class:`NodeSweep` — one forward sweep over
  a node's contact boundaries, answering "who is adjacent, and since which
  contact?" at ascending times;
* :func:`discrete_cost_sets` — the DCS of one node at many ascending times,
  from one sweep;
* :func:`build_aux_graph` — the graph as a :class:`networkx.DiGraph`
  (:class:`AuxGraph`), one DCS per (node, DTS point);
* :func:`greedy_incremental_dst` — the stdlib incremental multi-source
  Dijkstra over a networkx graph, and :func:`solve_memt`, the facade that
  dispatches ``method="greedy"`` on a networkx graph to it;
* :func:`extract_schedule` — a tree of tuple nodes decoded into rows.

The spans and counters (``auxgraph.build``, ``auxgraph.builds``,
``auxgraph.nodes`` / ``.edges`` / ``.dcs_levels``, ``tveg.sweep_points``,
``tveg.dcs_built``, ``steiner.expansions`` / ``.grafts``) are kept, so
the tests that check them run here.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro import obs
from repro.auxgraph.model import (
    AuxNode,
    is_tx,
    level_of,
    node_of,
    point_index_of,
    state_node,
    tx_node,
)
from repro.dts.dts import DiscreteTimeSet, build_dts
from repro.errors import GraphModelError, InfeasibleError
from repro.schedule.schedule import Schedule, Transmission
from repro.steiner import memt
from repro.tveg.costsets import DiscreteCostSet, canonical
from repro.tveg.graph import TVEG

Node = Hashable
Edge = Tuple[AuxNode, AuxNode]

# ----------------------------------------------------------------------
# per-node timeline sweeps
# ----------------------------------------------------------------------

#: (time, delta, neighbor, contact_start); delta is +1 (start) or -1 (end)
Event = Tuple[float, int, Node, float]


def adjacency_events(tvg, node: Node) -> Tuple[Event, ...]:
    """The node's adjacency-change events, sorted ascending by time.

    One ``+1`` / ``−1`` pair per τ-eroded presence component of every
    incident edge, in incident-list order before the (stable) time sort;
    ``contact_start`` is the start of the un-eroded presence component
    (erosion preserves starts), the TVEG cost-cache key.
    """
    events: List[Event] = []
    for other in tvg.incident(node):
        for s, e in tvg.adjacency_set(node, other).pairs:
            events.append((s, 1, other, s))
            events.append((e, -1, other, s))
    # Interval sets are normalized (disjoint, non-adjacent), so one neighbor
    # never starts and ends at the same instant; plain time order suffices.
    events.sort(key=lambda ev: ev[0])
    return tuple(events)


class NodeSweep:
    """Forward cursor over one node's adjacency events.

    ``advance(t)`` applies every event with ``time <= t`` and returns the
    active neighbor map — with half-open adjacency components ``[s, e)``
    this yields exactly the neighbors adjacent at ``t`` (a start at ``s = t``
    is active, an end at ``e = t`` is not).  Query times must be
    non-decreasing; create a fresh sweep to rewind.
    """

    __slots__ = ("_events", "_pos", "_active", "_last_t", "_points")

    def __init__(self, events: Tuple[Event, ...]):
        self._events = events
        self._pos = 0
        #: neighbor → contact (presence-interval) start of the active contact
        self._active: Dict[Node, float] = {}
        self._last_t = float("-inf")
        self._points = 0

    @property
    def points_swept(self) -> int:
        """Number of query points answered so far."""
        return self._points

    @property
    def position(self) -> int:
        """Events applied so far.  Unchanged across two :meth:`advance`
        calls ⇔ the active set is unchanged between them — consumers use
        this to reuse derived per-point results across event-free gaps."""
        return self._pos

    def advance(self, t: float) -> Dict[Node, float]:
        """Active ``neighbor → contact_start`` map at time ``t`` (``t`` must
        not decrease between calls)."""
        if t < self._last_t:
            raise ValueError(
                f"sweep queries must be non-decreasing ({t!r} after "
                f"{self._last_t!r}); build a new NodeSweep to rewind"
            )
        self._last_t = t
        events, active = self._events, self._active
        pos, n = self._pos, len(events)
        while pos < n and events[pos][0] <= t:
            _, delta, neighbor, start = events[pos]
            if delta > 0:
                active[neighbor] = start
            else:
                # Only the contact that started this component may end it.
                if active.get(neighbor) == start:
                    del active[neighbor]
            pos += 1
        self._pos = pos
        self._points += 1
        return active

    def finish(self) -> None:
        """Report this sweep's query count to the ``tveg.sweep_points``
        counter."""
        obs.counter("tveg.sweep_points", self._points)


# ----------------------------------------------------------------------
# discrete cost sets at many ascending times
# ----------------------------------------------------------------------
def discrete_cost_sets(
    tveg: TVEG, node: Node, times: Sequence[float]
) -> List[DiscreteCostSet]:
    """The DCS of ``node`` at every time in ascending ``times``.

    One forward sweep over the node's contact boundaries answers all the
    queries — ``O(points + events)`` instead of ``O(points × incident
    edges)`` repeated interval scans.  Produces exactly the cost sets
    :func:`repro.tveg.costsets.discrete_cost_set` would (same costs, same
    ordering); a repeated time is answered from a local memo.
    """
    memo: Dict[float, DiscreteCostSet] = {}
    out: List[DiscreteCostSet] = []
    sweep = None
    built = levels = 0
    # When link costs are constant within contacts, the entries only change
    # when the active set does — i.e. when the sweep applies an event.  Two
    # consecutive computed points with no event between them share one
    # entries tuple verbatim, skipping the cost lookups and the sort.
    reusable = tveg.cost_cacheable
    last_pos = -1
    last_entries: Tuple[Tuple[float, Node], ...] = ()
    for t in times:
        cached = memo.get(t)
        if cached is not None:
            out.append(cached)
            continue
        if sweep is None:
            sweep = NodeSweep(adjacency_events(tveg.tvg, node))
        active = sweep.advance(t)
        if reusable and sweep.position == last_pos:
            entries = last_entries
        else:
            entries = tuple(canonical(
                (tveg.contact_cost(node, other, t), other)
                for other in active
            ))
            last_pos, last_entries = sweep.position, entries
        dcs = DiscreteCostSet(node=node, time=t, entries=entries)
        memo[t] = dcs
        out.append(dcs)
        built += 1
        levels += len(entries)
    if sweep is not None:
        sweep.finish()
    if built:
        obs.counter("tveg.dcs_built", built)
        obs.counter("tveg.dcs_levels", levels)
    return out


# ----------------------------------------------------------------------
# the networkx auxiliary graph (Section VI-A, Fig. 3)
# ----------------------------------------------------------------------
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
    this is exactly Liang's original MEMT problem.  The edges are those
    :mod:`repro.auxgraph.model` describes.
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
    # comes from a single timeline sweep (see discrete_cost_sets).
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


# ----------------------------------------------------------------------
# the stdlib greedy Steiner search
# ----------------------------------------------------------------------
def greedy_incremental_dst(
    graph: nx.DiGraph,
    root: AuxNode,
    terminals: Sequence[AuxNode],
    stats: Optional[Dict[str, int]] = None,
) -> Set[Edge]:
    """Grow a Steiner tree by repeatedly grafting the cheapest path.

    Implemented as ONE incremental multi-source Dijkstra: the tree is the
    source set, and every time a path to the closest uncovered terminal is
    grafted, the path's nodes re-enter the heap at distance 0.  Source-set
    growth only ever lowers distances, so stale heap entries are skipped by
    the usual lazy-deletion check and the total work stays near a single
    Dijkstra pass instead of one per terminal.

    ``graph`` is a weighted :class:`networkx.DiGraph`, indexed to flat
    int adjacency once per call.  The production kernel
    :func:`~repro.compute.numpy_backend.greedy_incremental_dst_numpy` runs
    the identical search on the implicit graph.

    ``stats``, when given, receives ``expansions`` (settled heap pops) and
    ``grafts`` (paths attached to the tree) — the same numbers the obs
    counters ``steiner.expansions`` / ``steiner.grafts`` record.
    """
    # Index the graph once: tuple keys → ints, adjacency as flat lists.
    nodes = list(graph.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for u, v, data in graph.edges(data=True):
        adj[index[u]].append((index[v], float(data.get("weight", 0.0))))
    root_i = index[root]
    uncovered = {index[t] for t in terminals if t != root}
    uncovered.discard(root_i)

    n = len(nodes)

    INF = math.inf
    dist = [INF] * n
    pred = [-1] * n
    in_tree = [False] * n
    tree_edges: Set[Edge] = set()

    heap: List[Tuple[float, int]] = []
    expansions = 0
    grafts = 0

    def enter_tree(i: int, parent: int) -> None:
        if in_tree[i]:
            return
        in_tree[i] = True
        if parent >= 0:
            tree_edges.add((nodes[parent], nodes[i]))
        dist[i] = 0.0
        heapq.heappush(heap, (0.0, i))
        uncovered.discard(i)

    enter_tree(root_i, -1)

    while uncovered:
        # Pop until an uncovered terminal settles.
        target = -1
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue  # stale entry
            expansions += 1
            if u in uncovered:
                target = u
                break
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
        if target < 0:
            first = nodes[next(iter(uncovered))]
            raise InfeasibleError(
                f"{len(uncovered)} terminal(s) unreachable from the tree "
                f"(first: {first!r})"
            )
        # Graft the pred-chain back to the nearest tree node.
        chain: List[int] = []
        v = target
        while v >= 0 and not in_tree[v]:
            chain.append(v)
            v = pred[v]
        for i in reversed(chain):
            enter_tree(i, pred[i])
        grafts += 1
    if stats is not None:
        stats["expansions"] = stats.get("expansions", 0) + expansions
        stats["grafts"] = stats.get("grafts", 0) + grafts
    obs.counter("steiner.expansions", expansions)
    obs.counter("steiner.grafts", grafts)
    return tree_edges


def solve_memt(graph, root, terminals, method: str = "greedy", **kwargs):
    """:func:`repro.steiner.solve_memt` with its greedy dispatch for
    networkx graphs: ``method="greedy"`` on a :class:`networkx.DiGraph`
    returns :func:`greedy_incremental_dst`'s tree (a union of grafted
    root→terminal chains, so unpruned); every other call goes to the
    production facade."""
    if method == "greedy" and isinstance(graph, nx.DiGraph):
        return greedy_incremental_dst(graph, root, terminals,
                                      stats=kwargs.get("stats"))
    return memt.solve_memt(graph, root, terminals, method=method, **kwargs)


# ----------------------------------------------------------------------
# schedule extraction from a tree of tuple nodes
# ----------------------------------------------------------------------
def extract_schedule(aux: AuxGraph, tree_edges) -> Schedule:
    """Decode a Steiner tree (edge set) of ``aux`` into a relay schedule.

    Duplicate transmissions of one node at one instant collapse to the
    highest cost level (whose coverage is a superset — Property 6.1(i));
    transmission nodes without an outgoing coverage edge in the tree are
    dropped.
    """
    edges = list(tree_edges)
    used_tx: Set[AuxNode] = set()
    has_coverage: Set[AuxNode] = set()
    for u, v in edges:
        if is_tx(v):
            used_tx.add(v)
        if is_tx(u):
            has_coverage.add(u)

    # (node, point index) → best level actually used
    best_level: Dict[Tuple[Node, int], int] = {}
    for x in used_tx:
        if x not in has_coverage:
            continue  # informs nobody in the tree — drop
        key = (node_of(x), point_index_of(x))
        k = level_of(x)
        if key not in best_level or k > best_level[key]:
            best_level[key] = k

    rows = []
    for (node, l), k in best_level.items():
        dcs = aux.cost_sets[(node, l)]
        w = dcs.entries[k][0]
        rows.append(Transmission(node, aux.time_of(node, l), w))
    return Schedule(rows)
