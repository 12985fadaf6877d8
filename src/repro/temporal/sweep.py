"""Per-node timeline sweeps over contact boundaries.

The batch discrete-cost-set query
(:func:`repro.tveg.costsets.discrete_cost_sets`, which the networkx
reference auxiliary-graph build uses) asks the same question at thousands
of (node, time) pairs: *who is adjacent to this node at this instant, and
since which contact?*  Answering each query independently rescans the
node's presence intervals — O(points × incident edges) repeated interval
searches.  But a node's adjacency only changes at the boundaries of its
(τ-eroded) contact intervals, so all queries at ascending times are
answered by ONE forward sweep over those boundaries: index the timeline
once, then advance a cursor.  (The DTS build needs only *whether* a node
is adjacent, which one ``searchsorted`` over its merged components
answers for every point at once; see :mod:`repro.dts.dts`.  The
sweep-based DTS is the test reference, ``tests/dts_oracle.py``.)

:class:`NodeSweep` is that cursor.  It is built from a node's adjacency
events — ``(time, +1/−1, neighbor, contact_start)`` tuples sorted by time —
and maintains the active neighbor set as :meth:`advance` moves forward.
``contact_start`` is the start of the underlying *presence* interval (the
erosion keeps interval starts), which is exactly the key the TVEG's
per-contact cost cache uses, so sweep consumers can share cached link costs
with the point-query path bit-for-bit.

Events are cached on the :class:`~repro.temporal.tvg.TVG` (invalidated on
mutation); build them with :meth:`TVG.adjacency_events` and expect
``O(deg · intervals)`` construction plus ``O(log)`` sorting once per node.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from .. import obs

__all__ = ["NodeSweep", "adjacency_events"]

Node = Hashable

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
