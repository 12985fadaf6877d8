"""Journeys in time-varying graphs (Definition 3.1) and foremost search.

A *journey* is a temporal path: a sequence of (edge, departure-time) couples
whose hops chain spatially (the head of hop ``l`` is the tail of hop
``l+1``), whose edges are present throughout each traversal window
``[t_l, t_l + τ]``, and whose departures respect causality
(``t_{l+1} ≥ t_l + τ``).  This module provides:

* :class:`Journey` — the value object, with full Definition 3.1 validation
  against a TVG, the non-stop / circle-free predicates, and the precedence
  relation ``≺_J``.
* :func:`foremost_journey` / :func:`earliest_arrivals` — the classic
  temporal-Dijkstra computation of earliest-arrival times, used by tests as
  the reachability ground truth and by schedulers as a feasibility filter
  (a node no journey can reach by ``T`` makes the instance infeasible).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import GraphModelError
from .tvg import TVG

__all__ = ["Hop", "Journey", "earliest_arrivals", "foremost_journey"]

Node = Hashable


@dataclass(frozen=True)
class Hop:
    """One hop of a journey: traverse edge ``(tail → head)`` departing at ``t``."""

    tail: Node
    head: Node
    time: float


class Journey:
    """An immutable journey ``J = {(e_1, t_1), ..., (e_k, t_k)}``."""

    __slots__ = ("_hops",)

    def __init__(self, hops: Sequence[Hop]) -> None:
        if not hops:
            raise GraphModelError("a journey needs at least one hop")
        self._hops = tuple(hops)

    @property
    def hops(self) -> Tuple[Hop, ...]:
        return self._hops

    @property
    def topological_length(self) -> int:
        """``|J|`` — the number of hops."""
        return len(self._hops)

    @property
    def departure(self) -> float:
        """``departure(J) = t_1``."""
        return self._hops[0].time

    def arrival(self, tau: float) -> float:
        """``arrival(J) = t_k + τ``."""
        return self._hops[-1].time + tau

    @property
    def source(self) -> Node:
        return self._hops[0].tail

    @property
    def destination(self) -> Node:
        return self._hops[-1].head

    def nodes(self) -> Tuple[Node, ...]:
        """Visited nodes in order of first arrival."""
        out: List[Node] = [self._hops[0].tail]
        for hop in self._hops:
            out.append(hop.head)
        return tuple(out)

    # ------------------------------------------------------------------
    # Definition 3.1 predicates
    # ------------------------------------------------------------------
    def is_valid(self, tvg: TVG) -> bool:
        """Check conditions (i)–(iii) of Definition 3.1 against ``tvg``."""
        tau = tvg.tau
        prev: Optional[Hop] = None
        for hop in self._hops:
            if prev is not None:
                if prev.head != hop.tail:  # (i) spatial chaining
                    return False
                if hop.time < prev.time + tau:  # (iii) causal departure
                    return False
            # (ii) presence throughout the traversal window
            if not tvg.rho_tau(hop.tail, hop.head, hop.time):
                return False
            prev = hop
        return True

    def is_non_stop(self, tau: float) -> bool:
        """True iff every hop departs exactly at the previous arrival."""
        for a, b in zip(self._hops, self._hops[1:]):
            if not math.isclose(b.time, a.time + tau, rel_tol=0.0, abs_tol=1e-12):
                return False
        return True

    def is_circle_free(self) -> bool:
        """True iff no node repeats (the paper considers only such journeys)."""
        visited = self.nodes()
        return len(set(visited)) == len(visited)

    def precedes(self, u: Node, v: Node) -> bool:
        """The precedence relation ``u ≺_J v`` (``J`` reaches u before v)."""
        order = self.nodes()
        try:
            return order.index(u) < order.index(v)
        except ValueError:
            return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = " → ".join(
            f"{h.tail!r}@{h.time:g}→{h.head!r}" for h in self._hops
        )
        return f"Journey({body})"


def _earliest_departure(tvg: TVG, u: Node, v: Node, ready: float) -> float:
    """Earliest ``t ≥ ready`` with ``ρ_τ(e_{u,v}, t) = 1``, or ``inf``.

    The adjacency set is the τ-eroded presence; the earliest feasible
    departure is either ``ready`` itself (if inside a component) or the next
    component start after ``ready``.
    """
    adj = tvg.adjacency_set(u, v)
    if adj.contains_point(ready):
        return ready
    nxt = adj.next_start_after(ready)
    return nxt


#: ``_foremost_search``'s "no destination": node labels are arbitrary
#: hashables, so ``None`` could be a node.
_NO_DESTINATION = object()


def _foremost_search(
    tvg: TVG, source: Node, start_time: float, destination: Node,
    pred: Optional[Dict[Node, Hop]],
) -> Dict[Node, float]:
    """The temporal Dijkstra of :func:`earliest_arrivals`, stopping once
    ``destination`` settles; a ``pred`` dict receives each improved
    node's last hop."""
    tau = tvg.tau
    arrival: Dict[Node, float] = {n: math.inf for n in tvg.nodes}
    arrival[source] = start_time
    heap: List[Tuple[float, int, Node]] = [(start_time, 0, source)]
    counter = 1
    settled = set()
    while heap:
        t, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == destination:
            break
        for v in tvg.incident(u):
            if v in settled:
                continue
            dep = _earliest_departure(tvg, u, v, t)
            if dep == math.inf:
                continue
            arr = dep + tau
            if arr < arrival[v] and arr <= tvg.horizon:
                arrival[v] = arr
                if pred is not None:
                    pred[v] = Hop(u, v, dep)
                heapq.heappush(heap, (arr, counter, v))
                counter += 1
    # One bump per search, not per settle — keeps the hot loop clean.
    obs.counter("temporal.journeys_expanded", len(settled))
    return arrival


def earliest_arrivals(
    tvg: TVG, source: Node, start_time: float = 0.0
) -> Dict[Node, float]:
    """Earliest arrival time at every node for journeys departing ≥ start.

    This is temporal Dijkstra: arrival times only improve monotonically, and
    relaxing an edge from a settled node uses the earliest feasible departure
    after that node's arrival.  Unreachable nodes map to ``math.inf``.
    """
    if not tvg.has_node(source):
        raise GraphModelError(f"unknown source {source!r}")
    return _foremost_search(tvg, source, start_time, _NO_DESTINATION, None)


def foremost_journey(
    tvg: TVG, source: Node, destination: Node, start_time: float = 0.0
) -> Optional[Journey]:
    """A foremost (earliest-arrival) journey from source to destination.

    Returns ``None`` when the destination is unreachable by the horizon.
    Runs the same temporal Dijkstra as :func:`earliest_arrivals` but records
    predecessor hops so the journey can be reconstructed.
    """
    if not tvg.has_node(destination):
        raise GraphModelError(f"unknown destination {destination!r}")
    if source == destination:
        raise GraphModelError("source and destination coincide")
    pred: Dict[Node, Hop] = {}
    arrival = _foremost_search(tvg, source, start_time, destination, pred)
    if arrival[destination] == math.inf:
        return None
    hops: List[Hop] = []
    node = destination
    while node != source:
        hop = pred[node]
        hops.append(hop)
        node = hop.tail
    hops.reverse()
    return Journey(hops)
