"""Time-varying energy-demand graphs (Definition 3.2).

A TVEG extends a TVG by embedding an ED-function on every edge at every
time: ``G_F = (V, E, T, F, ρ, ζ, ψ)``.  Concretely the cost function ``ψ`` is
realized by composing a :class:`~repro.channels.models.ChannelModel` (which
turns a link distance into an ED-function) with a *distance provider* (which
answers ``d_{i,j,t}`` for any time inside a contact).  Querying an edge that
is not adjacent at ``t`` yields :class:`~repro.channels.base.AbsentED`
(Property 3.1(iii)).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from typing import Callable, Hashable, Tuple

from ..channels.base import AbsentED, EDFunction
from ..channels.models import ChannelModel
from ..params import PhyParams
from ..temporal.tvg import TVG, edge_key

__all__ = ["TVEG", "DistanceProvider"]

Node = Hashable
#: Anything answering ``distance(u, v, t) -> float`` for in-contact queries.
DistanceProvider = Callable[[Node, Node, float], float]


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
        # Per-contact cost cache: valid only when the provider certifies the
        # distance constant across each contact (the default trace pipeline);
        # keyed by (edge, presence-interval start).
        self._cost_cacheable = bool(
            getattr(distances, "constant_within_contacts", False)
        )
        self._cost_cache: dict = {}
        # Per-node contact components (repro.tveg.costsets), read by the
        # aux build and every DCS query; valid for one TVG version, and
        # dropped with the cost cache when it changes.
        self._compute_cache: dict = {}
        self._compute_cache_version = tvg.version
        # Auxiliary-graph cache: (deadline, targets) → aux graph.
        # The Section VI-A construction is source-independent, so one build
        # serves every source via NumpyAuxGraph.retarget; bounded LRU.
        self._aux_cache: "OrderedDict" = OrderedDict()
        self._aux_cache_version = tvg.version
        # Replay memo: one (receiver, failure factor) tuple per distinct
        # schedule row, read by the feasibility checker's causal replay
        # and by the reduce session, whose candidates re-cost the same
        # rows over and over.
        self._replay_cache: dict = {}
        self._replay_cache_version = tvg.version

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
        self.compute_cache()  # drops the contact costs of an old topology
        start = self._tvg.presence(u, v).interval_at(t).start
        return self.contact_cost(u, v, t, start)

    def compute_cache(self) -> dict:
        """Memo of per-node contact components (version-checked).

        Maps each node to its :class:`~repro.tveg.costsets.NodeComponents`,
        with the DCS segments derived from them.  Accessing it after the
        underlying TVG mutated clears it, and the per-contact cost cache
        with it (its contact keys may no longer exist), so stale
        components and costs are never served.
        """
        if self._compute_cache_version != self._tvg.version:
            self._compute_cache.clear()
            self._cost_cache.clear()
            self._compute_cache_version = self._tvg.version
        return self._compute_cache

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
        if self._replay_cache_version != self._tvg.version:
            self._replay_cache.clear()
            self._replay_cache_version = self._tvg.version
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
        if self._aux_cache_version != self._tvg.version:
            self._aux_cache.clear()
            self._aux_cache_version = self._tvg.version
        return self._aux_cache

    @property
    def cost_cacheable(self) -> bool:
        """True when link costs are constant within each contact, so
        per-contact caching (and one cost per contact component in the
        auxiliary-graph build) is sound."""
        return self._cost_cacheable

    def clear_caches(self) -> None:
        """Drop every layer of memoized state derived from the topology.

        Covers the per-contact cost cache, the per-node contact components
        (with their DCS segments), the replay memo and retained
        auxiliary-graph builds.  Results are unaffected (the caches are
        pure memoization); used by the benchmark suite to time cold
        builds.  The TVG's own memo of sorted adjacency boundaries
        (:meth:`~repro.temporal.tvg.TVG.adjacency_boundaries`) stays; it
        is rebuilt whenever the TVG's version moves.
        """
        self._cost_cache.clear()
        self._compute_cache.clear()
        self._aux_cache.clear()
        self._replay_cache.clear()

    def contact_cost(self, node: Node, other: Node, t: float,
                     contact_start: float) -> float:
        """Backbone cost of a link known to be in contact at ``t``, within
        the presence interval starting at ``contact_start``.

        Every backbone cost goes through this: the contact components of
        :mod:`repro.tveg.costsets` (so the aux build and every DCS) and
        :meth:`min_cost`.  When costs are constant within contacts it is
        cached per ``(edge, presence-interval start)``, so each contact's
        cost is one float object.  The cache is dropped by
        :meth:`compute_cache` when the TVG mutates, and those callers go
        through that first.
        """
        if not self._cost_cacheable:
            return self._channel.backbone_weight(self.distance(node, other, t))
        key = (edge_key(node, other), contact_start)
        cached = self._cost_cache.get(key)
        if cached is None:
            cached = self._channel.backbone_weight(
                self.distance(node, other, t)
            )
            self._cost_cache[key] = cached
        return cached

    def fingerprint(self) -> str:
        """Short content hash of the *realized* energy-demand graph.

        Covers the topology (every contact interval), the channel's
        :meth:`~repro.channels.models.ChannelModel.describe` (model, shape
        parameters, gain model, physical-layer parameters), ``τ``, and the
        link geometry (each contact's distance sampled at its interval
        start — the value the constant-within-contact cost cache keys
        on).  Two TVEGs built
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
