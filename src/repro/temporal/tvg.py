"""Deterministic continuous-time time-varying graphs (Section III-A).

A TVG is the tuple ``G = (V, E, T, ρ, ζ)`` of Casteigts et al. [7]: a node
set, a possible-edge set, a time span, a presence function and a latency
function.  Following the paper we restrict to *deterministic* TVGs
(``ρ : E × T → {0, 1}``) with a *constant* latency ``ζ(e, t) = τ``.

The presence function of each edge is stored as an
:class:`~repro.core.intervals.IntervalSet`, so ``ρ(e, t)`` is an ``O(log k)``
binary search and the paper's windowed presence ``ρ_τ(e, t)`` (connectivity
throughout ``[t, t + τ]``) is an exact interval-containment query — no time
discretization is introduced at the model layer.

Edges are undirected (a contact joins both endpoints), matching the contact
traces of Section VII; the *auxiliary graph* built later for the scheduler is
directed, but directionality arises there from time, not from the TVG.

Every bulk consumer — the status points and DTS of Section V, the TVEG's
contact costs and per-node components, the event schedulers' boundaries —
reads the TVG's contacts as one :class:`ContactTable` of columns, built
once per :attr:`TVG.version`, instead of walking the presence sets.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Optional,
    Sequence, Tuple,
)

import numpy as np

from ..core.intervals import IntervalSet, least_reaching
from ..errors import GraphModelError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["TVG", "ContactTable", "edge_key"]

Node = Hashable
EdgeKey = Tuple[Node, Node]

#: the presence set of a pair that never meets, shared: ``IntervalSet`` is
#: immutable, and a ``dict.get`` default is built on every call
_NO_PRESENCE = IntervalSet.empty()


def edge_key(u: Node, v: Node) -> EdgeKey:
    """Canonical undirected edge key (order-normalized endpoint pair)."""
    if u == v:
        raise GraphModelError(f"self-loop contact on node {u!r}")
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        # Mixed / unorderable node types: fall back to a stable repr order.
        return (u, v) if repr(u) <= repr(v) else (v, u)


class ContactTable:
    """Every contact of a TVG as columns, one row per presence interval.

    Edges come in the order they were added (which is each node's
    :meth:`TVG.incident` order), each edge's contacts by start.  ``a`` and
    ``b`` are the endpoints' positions in :attr:`TVG.nodes` (``a < b``);
    the edge is present on ``[start, end)`` and adjacent (``ρ_τ``) on
    ``[start, adj_end)``, the interval :meth:`IntervalSet.erode` keeps,
    which is empty unless ``adj_end > start``.  The arrays are read-only.
    """

    __slots__ = ("a", "b", "start", "end", "adj_end", "_boundaries")

    def __init__(self, a: "np.ndarray", b: "np.ndarray", start: "np.ndarray",
                 end: "np.ndarray", tau: float) -> None:
        self.a = a
        self.b = b
        self.start = start
        self.end = end
        self.adj_end = end if tau == 0 else np.array(
            [least_reaching(e, tau) for e in end.tolist()], dtype=np.float64
        )
        for arr in (a, b, start, end, self.adj_end):
            arr.flags.writeable = False
        self._boundaries: Optional[Tuple[float, ...]] = None

    def adjacent(self) -> "np.ndarray":
        """The rows whose adjacency interval is not empty."""
        return np.flatnonzero(self.adj_end > self.start)

    def boundaries(self) -> Tuple[float, ...]:
        """Every adjacency interval's start and end, sorted, distinct
        (built on first use)."""
        if self._boundaries is None:
            rows = self.adjacent()
            self._boundaries = tuple(np.unique(np.concatenate(
                (self.start[rows], self.adj_end[rows])
            )).tolist())
        return self._boundaries


class TVG:
    """A deterministic continuous-time time-varying graph.

    Parameters
    ----------
    nodes:
        The node set ``V``.  Nodes are arbitrary hashables (ints in all the
        paper's experiments).
    horizon:
        The end of the time span ``T = [0, horizon]``.
    tau:
        The uniform edge traversal time ``τ ≥ 0``.  The paper's evaluation
        uses the ``τ ≈ 0`` approximation appropriate for contact traces whose
        transmission delay is far below contact durations; the full model is
        supported throughout.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        horizon: float,
        tau: float = 0.0,
    ) -> None:
        self._nodes: Tuple[Node, ...] = tuple(dict.fromkeys(nodes))
        if len(self._nodes) < 1:
            raise GraphModelError("a TVG needs at least one node")
        if horizon <= 0:
            raise GraphModelError("horizon must be positive")
        if tau < 0:
            raise GraphModelError("tau must be non-negative")
        # node → its position in ``nodes`` (and the membership test)
        self._position: Dict[Node, int] = {
            n: i for i, n in enumerate(self._nodes)
        }
        self._horizon = float(horizon)
        self._tau = float(tau)
        self._presence: Dict[EdgeKey, IntervalSet] = {}
        # Incident-edge index: node → other endpoints of its possible edges.
        # Keeps neighbor queries O(deg) instead of O(|E|).
        self._incident: Dict[Node, List[Node]] = {n: [] for n in self._nodes}
        # A version stamp consumers key their derived caches on.
        self._version = 0
        # (version, table): contact_table(), published whole
        self._table: Optional[Tuple[int, ContactTable]] = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def horizon(self) -> float:
        return self._horizon

    @property
    def tau(self) -> float:
        return self._tau

    def has_node(self, node: Node) -> bool:
        return node in self._position

    def _check_node(self, node: Node) -> None:
        if node not in self._position:
            raise GraphModelError(f"unknown node {node!r}")

    def position(self, node: Node) -> int:
        """``node``'s position in :attr:`nodes`, the index the
        :class:`ContactTable` uses; :class:`GraphModelError` if unknown."""
        self._check_node(node)
        return self._position[node]

    def edges(self) -> Tuple[EdgeKey, ...]:
        """All edges that are present at some time (non-empty presence)."""
        return tuple(k for k, s in self._presence.items() if not s.is_empty)

    def num_edges(self) -> int:
        return len(self.edges())

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_contact(self, u: Node, v: Node, start: float, end: float) -> None:
        """Record that edge ``(u, v)`` is present throughout ``[start, end)``.

        Contacts may overlap or abut previously recorded ones; the presence
        set is kept normalized.  Contacts are clamped to ``[0, horizon]``.
        """
        self._check_node(u)
        self._check_node(v)
        if start > end:
            raise GraphModelError(f"contact start {start} exceeds end {end}")
        key = edge_key(u, v)
        clamped = IntervalSet(((start, end),)).clamp(0.0, self._horizon)
        existing = self._presence.get(key)
        if existing is None:
            self._incident[key[0]].append(key[1])
            self._incident[key[1]].append(key[0])
        self._presence[key] = clamped if existing is None else existing | clamped
        self._version += 1

    def set_presence(self, u: Node, v: Node, presence: IntervalSet) -> None:
        """Replace an edge's whole presence function at once."""
        self._check_node(u)
        self._check_node(v)
        key = edge_key(u, v)
        if key not in self._presence:
            self._incident[key[0]].append(key[1])
            self._incident[key[1]].append(key[0])
        self._presence[key] = presence.clamp(0.0, self._horizon)
        self._version += 1

    def _load(self, edges: Sequence[Tuple[EdgeKey, IntervalSet]],
              table: ContactTable) -> None:
        """Add new edges in bulk, with the contact table they make.

        The bulk :meth:`set_presence` of
        :meth:`~repro.traces.model.ContactTrace.to_tvg`, for a TVG with no
        edges yet: ``edges`` are distinct, their presence already clamped
        to the span, and ``table`` lists exactly their contacts.
        """
        for key, presence in edges:
            self._incident[key[0]].append(key[1])
            self._incident[key[1]].append(key[0])
            self._presence[key] = presence
        self._version += 1
        self._table = (self._version, table)

    # ------------------------------------------------------------------
    # presence queries (ρ and ρ_τ of the paper)
    # ------------------------------------------------------------------
    def presence(self, u: Node, v: Node) -> IntervalSet:
        """The presence set ``{t : ρ(e_{u,v}, t) = 1}`` of an edge."""
        return self._presence.get(edge_key(u, v), _NO_PRESENCE)

    def rho(self, u: Node, v: Node, t: float) -> bool:
        """The presence function ``ρ(e, t)``."""
        return self.presence(u, v).contains_point(t)

    def rho_tau(self, u: Node, v: Node, t: float, tau: Optional[float] = None) -> bool:
        """Windowed presence ``ρ_τ(e, t)``: the edge is up on ``[t, t + τ]``.

        This is the paper's transmission-completion predicate (Section IV);
        ``v_i`` is *adjacent* to ``v_j`` at ``t`` iff ``ρ_τ(e_{i,j}, t) = 1``.
        """
        tt = self._tau if tau is None else tau
        return self.presence(u, v).covers(t, t + tt)

    def adjacency_set(self, u: Node, v: Node, tau: Optional[float] = None) -> IntervalSet:
        """All times at which ``u`` is adjacent to ``v``: ``erode(presence, τ)``."""
        tt = self._tau if tau is None else tau
        return self.presence(u, v).erode(tt)

    def incident(self, node: Node) -> Tuple[Node, ...]:
        """Other endpoints of every possible edge at ``node``."""
        self._check_node(node)
        return tuple(self._incident[node])

    def neighbors(self, node: Node, t: float) -> Tuple[Node, ...]:
        """Nodes adjacent (in the ``ρ_τ`` sense) to ``node`` at time ``t``."""
        self._check_node(node)
        out: List[Node] = []
        for other in self._incident[node]:
            if self._presence[edge_key(node, other)].covers(t, t + self._tau):
                out.append(other)
        return tuple(out)

    def degree(self, node: Node, t: float) -> int:
        """Instantaneous degree of ``node`` at time ``t``."""
        return len(self.neighbors(node, t))

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every contact/presence change.

        Consumers that cache derived structures (the contact table, the
        TVEG's priced components with their cost sets, its replay and
        aux-graph caches) key them on this stamp to stay correct across
        mutation.
        """
        return self._version

    def contact_table(self) -> ContactTable:
        """Every contact as one :class:`ContactTable`, built once per
        :attr:`version`.

        A TVG made by :meth:`~repro.traces.model.ContactTrace.to_tvg`
        comes with its table; any other is tabled from its presence sets
        on first use, and again after each mutation.  The table is
        published only when complete.
        """
        memo = self._table
        if memo is None or memo[0] != self._version:
            memo = self._table = (self._version, self._tabled())
        return memo[1]

    def _tabled(self) -> ContactTable:
        """The contact table of the presence sets as they stand."""
        index = self._position
        a: List[int] = []
        b: List[int] = []
        spans: List[Tuple[float, float]] = []
        for (u, v), pres in self._presence.items():
            i, j = sorted((index[u], index[v]))
            a += [i] * len(pres)
            b += [j] * len(pres)
            spans += pres.pairs
        times = np.array(spans, dtype=np.float64).reshape(-1, 2)
        return ContactTable(
            np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
            times[:, 0].copy(), times[:, 1].copy(), self._tau,
        )

    # ------------------------------------------------------------------
    # snapshots and events
    # ------------------------------------------------------------------
    def snapshot(self, t: float) -> nx.Graph:
        """The static graph of edges adjacent (``ρ_τ``) at time ``t``."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._nodes)
        for (a, b), pres in self._presence.items():
            if pres.covers(t, t + self._tau):
                g.add_edge(a, b)
        return g

    def event_times(self) -> Tuple[float, ...]:
        """All presence boundaries across all edges, sorted, deduplicated.

        These are the only instants at which the topology can change; they
        seed the adjacent partitions of Section V.
        """
        points = {0.0, self._horizon}
        for pres in self._presence.values():
            points.update(pres.boundaries_within(0.0, self._horizon))
        return tuple(sorted(points))

    def adjacency_boundaries(self) -> Tuple[float, ...]:
        """Every boundary of every edge's adjacency set, sorted, deduplicated.

        The union over edges of ``adjacency_set(u, v).boundaries()``: the
        instants at which some ``ρ_τ`` adjacency begins or ends.  Kept with
        the :meth:`contact_table`, so built once per :attr:`version`, and
        callers bisect their window out of it.
        """
        return self.contact_table().boundaries()

    # ------------------------------------------------------------------
    # iteration helpers
    # ------------------------------------------------------------------
    def edges_with_presence(self) -> Iterator[Tuple[EdgeKey, IntervalSet]]:
        for key, pres in self._presence.items():
            if not pres.is_empty:
                yield key, pres

    def contacts(self) -> Iterator[Tuple[Node, Node, float, float]]:
        """All maximal contacts as ``(u, v, start, end)`` tuples."""
        for (a, b), pres in self.edges_with_presence():
            for iv in pres:
                yield (a, b, iv.start, iv.end)

    def total_contact_time(self) -> float:
        """Sum of contact durations over all edges (a trace statistic)."""
        return sum(p.measure for _, p in self.edges_with_presence())

    def subgraph(self, nodes: Sequence[Node]) -> "TVG":
        """The TVG induced on a subset of nodes (presence restricted)."""
        keep = set(nodes)
        unknown = keep - self._position.keys()
        if unknown:
            raise GraphModelError(f"unknown nodes {sorted(map(repr, unknown))}")
        out = TVG(nodes, self._horizon, self._tau)
        for (a, b), pres in self._presence.items():
            if a in keep and b in keep:
                out.set_presence(a, b, pres)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TVG(|V|={self.num_nodes}, |E|={self.num_edges()}, "
            f"horizon={self._horizon:g}, tau={self._tau:g})"
        )
