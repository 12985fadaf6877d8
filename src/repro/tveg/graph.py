"""Time-varying energy-demand graphs (Definition 3.2).

A TVEG extends a TVG by embedding an ED-function on every edge at every
time: ``G_F = (V, E, T, F, ρ, ζ, ψ)``.  Concretely the cost function ``ψ`` is
realized by composing a :class:`~repro.channels.models.ChannelModel` (which
turns a link distance into an ED-function) with a *distance provider* (which
answers ``d_{i,j,t}`` for any time inside a contact).  Querying an edge that
is not adjacent at ``t`` yields :class:`~repro.channels.base.AbsentED`
(Property 3.1(iii)).

A node's discrete cost sets (Prop. 6.1) are its adjacency components
sorted by cost, so the TVEG keeps every node's components as one
:class:`Components` table per TVG version, read from the TVG's contact
table and, when costs are constant within contacts, priced once per
contact.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional, Tuple

import numpy as np

from ..channels.base import AbsentED, EDFunction
from ..channels.models import ChannelModel
from ..params import PhyParams
from ..temporal.tvg import TVG

__all__ = ["TVEG", "Components", "DistanceProvider"]

Node = Hashable
#: Anything answering ``distance(u, v, t) -> float`` for in-contact queries.
DistanceProvider = Callable[[Node, Node, float], float]


class Components:
    """Every node's adjacency components: one row per (node, contact)
    whose τ-eroded interval is not empty, grouped by node.

    Node ``i``'s rows are ``ptr[i]:ptr[i + 1]``; in each, neighbor
    ``nbr`` (a position in :attr:`TVEG.nodes`) is adjacent on ``[start,
    end)``.  When ``costed`` (costs constant within contacts) the link
    costs ``cost`` there — one float per contact, shared by its two rows —
    and a node's rows are in :func:`~repro.tveg.costsets.canonical` order:
    by cost, ties by ``repr`` of the neighbor, then in incident order;
    rows of non-finite cost are left out.  Otherwise ``cost`` is NaN and
    the rows are in incident order.  The arrays are read-only.
    """

    __slots__ = ("ptr", "cost", "nbr", "start", "end", "costed")

    def __init__(self, ptr, cost, nbr, start, end, costed: bool) -> None:
        self.ptr = ptr
        self.cost = cost
        self.nbr = nbr
        self.start = start
        self.end = end
        self.costed = costed
        for arr in (ptr, cost, nbr, start, end):
            arr.flags.writeable = False


class TVEG:
    """A TVG whose edges carry energy-demand functions.

    Parameters
    ----------
    tvg:
        The underlying time-varying graph (topology over time).
    channel:
        The channel model providing ``ψ``: distance → ED-function.
    distances:
        A distance provider; must answer for every (pair, time) at which the
        pair is in contact.  See :class:`~repro.traces.enrich.DistanceModel`
        and :mod:`repro.mobility` for the two standard sources.
    """

    def __init__(
        self,
        tvg: TVG,
        channel: ChannelModel,
        distances: DistanceProvider,
    ) -> None:
        self._tvg = tvg
        self._channel = channel
        self._distances = distances
        # Costs constant within each contact (the default trace pipeline)
        # are priced once per contact, in components().
        self._cost_cacheable = bool(
            getattr(distances, "constant_within_contacts", False)
        )
        # Every memo below derives from the TVG at version ``_version``;
        # _current() drops them all once the TVG has moved on.
        self._version = tvg.version
        # components(), built under the lock so concurrent plans on a
        # shared graph share one build
        self._components: Optional[Components] = None
        self._lock = threading.Lock()
        # One node's components as python rows (repro.tveg.costsets), read
        # by its DCS queries.
        self._compute_cache: dict = {}
        # Auxiliary-graph cache: (deadline, targets) → aux graph.
        # The Section VI-A construction is source-independent, so one build
        # serves every source via NumpyAuxGraph.retarget; bounded LRU.
        self._aux_cache: "OrderedDict" = OrderedDict()
        # Replay memo: one (receiver, failure factor) tuple per distinct
        # schedule row, read by the feasibility checker's causal replay
        # and by the reduce session, whose candidates re-cost the same
        # rows over and over.
        self._replay_cache: dict = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # passthrough topology accessors
    # ------------------------------------------------------------------
    @property
    def tvg(self) -> TVG:
        return self._tvg

    @property
    def channel(self) -> ChannelModel:
        return self._channel

    @property
    def params(self) -> PhyParams:
        return self._channel.params

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self._tvg.nodes

    @property
    def num_nodes(self) -> int:
        return self._tvg.num_nodes

    @property
    def horizon(self) -> float:
        return self._tvg.horizon

    @property
    def tau(self) -> float:
        return self._tvg.tau

    @property
    def is_fading(self) -> bool:
        return self._channel.is_fading

    def adjacent(self, u: Node, v: Node, t: float) -> bool:
        """The paper's adjacency predicate ``ρ_τ(e_{u,v}, t) = 1``."""
        return self._tvg.rho_tau(u, v, t)

    def neighbors(self, node: Node, t: float) -> Tuple[Node, ...]:
        return self._tvg.neighbors(node, t)

    # ------------------------------------------------------------------
    # energy-demand queries (ψ of Definition 3.2)
    # ------------------------------------------------------------------
    def distance(self, u: Node, v: Node, t: float) -> float:
        """Link distance ``d_{u,v,t}``; only defined while in contact."""
        return self._distances(u, v, t)

    def ed(self, u: Node, v: Node, t: float) -> EDFunction:
        """The ED-function ``φ_t^{e_{u,v}}`` (AbsentED when not adjacent)."""
        if not self.adjacent(u, v, t):
            return AbsentED()
        return self._channel.ed_from_distance(self.distance(u, v, t))

    def failure(self, u: Node, v: Node, t: float, w: float) -> float:
        """``φ_t^{e_{u,v}}(w)`` — single-transmission failure probability."""
        return self.ed(u, v, t).failure(w)

    def min_cost(self, u: Node, v: Node, t: float) -> float:
        """The link's backbone cost at ``t`` (Section VI), ``inf`` if absent.

        For static channels this is Eq. (2)'s minimum cost
        ``N0·B·γ_th / h``; for fading channels it is ``w0``, the cost that
        pins single-hop failure at the acceptable error rate ε.
        """
        if not self.adjacent(u, v, t):
            return math.inf
        return self.contact_cost(u, v, t)

    def contact_cost(self, u: Node, v: Node, t: float) -> float:
        """Backbone cost of a link known to be in contact at ``t``: the
        channel's ``backbone_weight`` at the link's distance then."""
        return self._channel.backbone_weight(self._distances(u, v, t))

    def components(self) -> Components:
        """Every node's adjacency :class:`Components`, built once per TVG
        version from its :meth:`~repro.temporal.tvg.TVG.contact_table`.

        When :attr:`cost_cacheable`, each contact is priced once, at its
        start, with :meth:`contact_cost`, and one ``lexsort`` over both
        directions of every contact, by (node, cost, ``repr`` rank of
        the neighbor, table row), puts every node's rows in canonical
        order: the table lists each edge's contacts by start, edges in
        incident order.  Concurrent callers share one build, and the
        components are published only when complete.
        """
        self._current()
        comps = self._components
        if comps is None:
            with self._lock:
                comps = self._components
                if comps is None:
                    comps = self._components = self._components_now()
        return comps

    def _components_now(self) -> Components:
        tvg = self._tvg
        table = tvg.contact_table()
        rows = table.adjacent()
        a, b, start = table.a[rows], table.b[rows], table.start[rows]
        node = np.concatenate((a, b))
        nbr = np.concatenate((b, a))
        row = np.tile(rows, 2)
        if self._cost_cacheable:
            nodes, weight = tvg.nodes, self._channel.backbone_weight
            distance = self._distances
            cost = np.tile(np.array([  # contact_cost, inlined
                weight(distance(nodes[i], nodes[j], s))
                for i, j, s in zip(a.tolist(), b.tolist(), start.tolist())
            ], dtype=np.float64), 2)
            reprs = [repr(n) for n in nodes]
            rank = {r: k for k, r in enumerate(sorted(set(reprs)))}
            repr_rank = np.array([rank[r] for r in reprs], dtype=np.int64)
            live = np.flatnonzero(np.isfinite(cost))
            order = live[np.lexsort((row[live], repr_rank[nbr[live]],
                                     cost[live], node[live]))]
        else:
            cost = np.full(len(node), np.nan)
            order = np.lexsort((row, node))
        return Components(
            np.searchsorted(node[order], np.arange(tvg.num_nodes + 1)),
            cost[order], nbr[order], np.tile(start, 2)[order],
            np.tile(table.adj_end[rows], 2)[order], self._cost_cacheable,
        )

    def compute_cache(self) -> dict:
        """Memo of per-node contact components (version-checked).

        Maps each node to its :class:`~repro.tveg.costsets.NodeComponents`
        (its rows of :meth:`components` as python values), with the DCS
        segments derived from them.  Accessing it after the underlying TVG
        mutated clears it, so stale components are never served.
        """
        self._current()
        return self._compute_cache

    def _current(self) -> None:
        """Drop every memo made from an older version of the TVG."""
        if self._version != self._tvg.version:
            self.clear_caches()
            self._version = self._tvg.version

    def replay_cache(self) -> dict:
        """Memo for the feasibility replay's pure lookups (version-checked).

        Holds ``("fan", relay, t, w) → ((receiver index, failure
        factor), ...)`` entries, one per distinct schedule row
        (:func:`repro.schedule.feasibility.fanout`): the relay's
        neighbors at ``t`` as positions in :attr:`nodes`, each with
        ``failure(relay, v, t, w)``, leaving out those at factor 1.0.
        They are deterministic functions of the current topology, so
        caching them only skips recomputation (each cached float is the
        one the first evaluation produced); the reduce session fills the
        memo and the final
        :func:`~repro.schedule.feasibility.check_feasibility` reuses it.
        Dropped automatically when the underlying TVG mutates.
        """
        self._current()
        return self._replay_cache

    #: retained auxiliary-graph builds per TVEG (one per (deadline,
    #: targets) pair); small because each graph can be large
    AUX_CACHE_CAPACITY = 4

    def aux_cache(self) -> "OrderedDict":
        """Bounded LRU of auxiliary-graph builds (version-checked).

        Keyed by ``(deadline, targets)`` — *not* the source, because
        the construction is source-independent and consumers re-root via
        :meth:`~repro.compute.numpy_backend.NumpyAuxGraph.retarget`.  Like
        every other TVEG cache this is pure memoization: entries never
        change results, only skip rebuilds (the batch-planning and
        service amortization).
        """
        self._current()
        return self._aux_cache

    @property
    def cost_cacheable(self) -> bool:
        """True when link costs are constant within each contact, so one
        cost per contact (and per contact component in the
        auxiliary-graph build) is sound."""
        return self._cost_cacheable

    def clear_caches(self) -> None:
        """Drop every layer of memoized state derived from the topology.

        Covers the priced :meth:`components`, the per-node python rows
        (with their DCS segments), the replay memo and retained
        auxiliary-graph builds.  Results are unaffected (the caches are
        pure memoization); used by the benchmark suite to time cold
        builds.  The TVG's own contact table and sorted adjacency
        boundaries stay; they are rebuilt whenever its version moves.
        """
        self._components = None
        self._compute_cache.clear()
        self._aux_cache.clear()
        self._replay_cache.clear()

    def fingerprint(self) -> str:
        """Short content hash of the *realized* energy-demand graph.

        Covers the topology (every contact interval), the channel's
        :meth:`~repro.channels.models.ChannelModel.describe` (model, shape
        parameters, gain model, physical-layer parameters), ``τ``, and the
        link geometry (each contact's distance sampled at its interval
        start — where :meth:`components` prices a contact whose cost is
        constant).  Two TVEGs built
        from the same trace with the same channel/params/seed hash
        identically; changing any of those changes the hash.  Memoized per
        TVG version, so repeated cache lookups cost one dict read.
        """
        version = self._tvg.version
        memo = getattr(self, "_fingerprint", None)
        if memo is not None and memo[0] == version:
            return memo[1]
        h = hashlib.sha256()
        h.update(
            repr(
                (
                    self._channel.describe(),
                    self._tvg.nodes,
                    self._tvg.horizon,
                    self._tvg.tau,
                )
            ).encode("utf-8")
        )
        for u, v, start, end in self._tvg.contacts():
            d = self._distances(u, v, start)
            h.update(repr((u, v, start, end, d)).encode("utf-8"))
        fp = h.hexdigest()[:16]
        self._fingerprint = (version, fp)
        return fp

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TVEG({self._tvg!r}, channel={self._channel!r})"
