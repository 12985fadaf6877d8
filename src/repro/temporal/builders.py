"""Convenience constructors for TVGs.

Builds TVGs from contact tuples, from a sequence of static snapshots
(discrete-time traces), or from a networkx graph with per-edge interval
annotations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Mapping, Sequence, Tuple

from ..core.intervals import IntervalSet
from ..errors import GraphModelError
from .tvg import TVG

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["from_contacts", "from_snapshots", "from_networkx"]

Node = Hashable
Contact = Tuple[Node, Node, float, float]


def from_contacts(
    contacts: Iterable[Contact],
    horizon: float = None,
    nodes: Sequence[Node] = None,
    tau: float = 0.0,
) -> TVG:
    """Build a TVG from ``(u, v, start, end)`` contact tuples.

    When ``horizon`` is omitted it defaults to the latest contact end; when
    ``nodes`` is omitted the node set is inferred from the contacts.
    """
    contact_list = list(contacts)
    if horizon is None:
        if not contact_list:
            raise GraphModelError("cannot infer horizon from an empty trace")
        horizon = max(end for _, _, _, end in contact_list)
    if nodes is None:
        seen = []
        seen_set = set()
        for u, v, _, _ in contact_list:
            for n in (u, v):
                if n not in seen_set:
                    seen.append(n)
                    seen_set.add(n)
        nodes = seen
    tvg = TVG(nodes, horizon, tau)
    for u, v, start, end in contact_list:
        tvg.add_contact(u, v, start, end)
    return tvg


def from_snapshots(
    snapshots: Sequence[nx.Graph],
    slot_duration: float,
    tau: float = 0.0,
) -> TVG:
    """Build a TVG from equal-length discrete-time snapshots.

    Snapshot ``k`` describes the topology over
    ``[k · slot_duration, (k+1) · slot_duration)``; an edge present in
    consecutive snapshots yields one merged contact.
    """
    if not snapshots:
        raise GraphModelError("from_snapshots() requires at least one snapshot")
    if slot_duration <= 0:
        raise GraphModelError("slot_duration must be positive")
    nodes = []
    seen = set()
    for g in snapshots:
        for n in g.nodes:
            if n not in seen:
                nodes.append(n)
                seen.add(n)
    horizon = slot_duration * len(snapshots)
    tvg = TVG(nodes, horizon, tau)
    for k, g in enumerate(snapshots):
        t0 = k * slot_duration
        for u, v in g.edges:
            tvg.add_contact(u, v, t0, t0 + slot_duration)
    return tvg


def from_networkx(
    graph: nx.Graph,
    horizon: float,
    presence_attr: str = "presence",
    tau: float = 0.0,
) -> TVG:
    """Build a TVG from a networkx graph with interval-list edge attributes.

    Each edge must carry ``presence_attr``: an iterable of ``(start, end)``
    pairs (or an :class:`IntervalSet`).
    """
    tvg = TVG(list(graph.nodes), horizon, tau)
    for u, v, data in graph.edges(data=True):
        pres = data.get(presence_attr)
        if pres is None:
            raise GraphModelError(
                f"edge ({u!r}, {v!r}) lacks the {presence_attr!r} attribute"
            )
        if not isinstance(pres, IntervalSet):
            pres = IntervalSet(pres)
        tvg.set_presence(u, v, pres)
    return tvg
