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
from typing import Callable, Hashable, List, Optional, Tuple

from ..channels.base import AbsentED, EDFunction
from ..channels.models import ChannelModel
from ..errors import GraphModelError
from ..params import PhyParams
from ..temporal.tvg import TVG, edge_key

__all__ = ["TVEG", "DistanceProvider"]

Node = Hashable
#: Anything answering ``distance(u, v, t) -> float`` for in-contact queries.
DistanceProvider = Callable[[Node, Node, float], float]


class _BoundedDCSMemo(OrderedDict):
    """A DCS memo with an entry cap: least-recently-hit cost sets evict.

    Serves the exact plain-``dict`` interface :mod:`repro.tveg.costsets`
    drives (``get`` / item assignment / ``clear``), so it can replace the
    unbounded memo transparently.  Eviction is parity-safe by construction:
    the memo is pure memoization, so a dropped entry is simply recomputed —
    same floats, same ordering — on the next query.  This is what keeps
    full-trace planning on million-contact stores from pinning one
    ``DiscreteCostSet`` per (node, time-point) in memory for the whole run.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__()
        if capacity < 1:
            raise GraphModelError("dcs_capacity must be a positive integer")
        self.capacity = int(capacity)

    def get(self, key, default=None):
        found = super().get(key, default)
        if found is not default:
            self.move_to_end(key)
        return found

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        if len(self) > self.capacity:
            self.popitem(last=False)


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
    dcs_capacity:
        Optional cap on retained :class:`DiscreteCostSet` memo entries.
        ``None`` (the default) memoizes every ``(node, t)`` cost set for
        the TVG version's lifetime; a positive integer bounds the memo
        with LRU eviction instead — identical results (evicted entries are
        recomputed bit-for-bit on demand), bounded memory.  The scale
        pipeline sets this when planning on million-contact stores.
    """

    def __init__(
        self,
        tvg: TVG,
        channel: ChannelModel,
        distances: DistanceProvider,
        dcs_capacity: Optional[int] = None,
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
        # DCS memo: (node, t) → DiscreteCostSet, valid for one TVG version.
        # Populated by repro.tveg.costsets so the event schedulers, the
        # oracle and the reduction passes share one computation per
        # (node, point).
        self._dcs_memo: dict = (
            {} if dcs_capacity is None else _BoundedDCSMemo(dcs_capacity)
        )
        self._dcs_memo_version = tvg.version
        # Derived-array memo for the numpy compute backend (per-node contact
        # component arrays etc.), same version discipline as the DCS memo.
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

    def _backbone_weight_at(self, u: Node, v: Node, t: float) -> float:
        """Backbone cost of an adjacent link, with per-contact caching."""
        if not self._cost_cacheable:
            return self._channel.backbone_weight(self.distance(u, v, t))
        key = edge_key(u, v)
        start = self._tvg.presence(u, v).interval_at(t).start
        cached = self._cost_cache.get((key, start))
        if cached is None:
            cached = self._channel.backbone_weight(self.distance(u, v, t))
            self._cost_cache[(key, start)] = cached
        return cached

    def min_cost(self, u: Node, v: Node, t: float) -> float:
        """The link's backbone cost at ``t`` (Section VI), ``inf`` if absent.

        For static channels this is Eq. (2)'s minimum cost
        ``N0·B·γ_th / h``; for fading channels it is ``w0``, the cost that
        pins single-hop failure at the acceptable error rate ε.
        """
        if not self.adjacent(u, v, t):
            return math.inf
        return self._backbone_weight_at(u, v, t)

    def dcs_memo(self) -> dict:
        """The live ``(node, t) → DiscreteCostSet`` memo (version-checked).

        Accessing the memo after the underlying TVG mutated clears it, so
        stale cost sets are never served.  The cost cache is dropped with it
        (its contact keys may no longer exist).
        """
        if self._dcs_memo_version != self._tvg.version:
            self._dcs_memo.clear()
            self._cost_cache.clear()
            self._dcs_memo_version = self._tvg.version
        return self._dcs_memo

    def compute_cache(self) -> dict:
        """The numpy backend's derived-array memo (version-checked).

        Holds per-node contact-component arrays and similar pure
        derivations of the current topology; dropped automatically when
        the underlying TVG mutates, like :meth:`dcs_memo`.
        """
        if self._compute_cache_version != self._tvg.version:
            self._compute_cache.clear()
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

        Covers the DCS memo, the per-contact cost cache, the compute
        backend's derived arrays, the replay memo and retained
        auxiliary-graph builds.  Results are unaffected (the caches are
        pure memoization); used by the benchmark suite to time cold
        builds.
        """
        self._dcs_memo.clear()
        self._cost_cache.clear()
        self._compute_cache.clear()
        self._aux_cache.clear()
        self._replay_cache.clear()

    def contact_cost(self, node: Node, other: Node, t: float,
                     contact_start: float) -> float:
        """Backbone cost of a link known to be in contact at ``t``, within
        the presence interval starting at ``contact_start``.

        The auxiliary-graph build costs its contact components through
        this (:func:`~repro.compute.numpy_backend.node_components`).  It
        shares :attr:`_cost_cache` with the point-query path — keyed by
        the same ``(edge, presence-interval start)`` — so component costs
        and point-query costs are the same float objects bit-for-bit.
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

        Covers the topology (every contact interval), the channel model
        class, the physical-layer parameters, ``τ``, and the link geometry
        (each contact's distance sampled at its interval start — the value
        the constant-within-contact cost cache keys on).  Two TVEGs built
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
                    type(self._channel).__name__,
                    self._channel.params,
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

    def neighbor_costs(self, node: Node, t: float) -> List[Tuple[Node, float]]:
        """``(neighbor, backbone cost)`` for all nodes adjacent at ``t``,
        sorted ascending by cost — the raw material of the DCS."""
        out = [
            (v, self._backbone_weight_at(node, v, t))
            for v in self.neighbors(node, t)
        ]
        out.sort(key=lambda item: (item[1], repr(item[0])))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TVEG({self._tvg!r}, channel={self._channel!r})"
