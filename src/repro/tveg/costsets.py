"""Discrete cost sets (Section VI-A).

At a time ``t`` a node ``v_i`` with ``m`` adjacent nodes has minimum costs
``w¹ ≤ w² ≤ ... ≤ w^m``; Proposition 6.1 shows an optimal schedule
only ever transmits at one of these values, so the continuous cost set
collapses to the *discrete cost set* ``W^di_{i,t} = {w¹, ..., w^m}``.
Property 6.1(i) — the broadcast nature — says transmitting at ``w^k``
informs every neighbor whose minimum cost is ≤ ``w^k``.

A node's DCS changes only where one of its own adjacency components starts
or ends.  Every DCS consumer reads those components, which the TVEG keeps
for all nodes as one priced table per TVG version
(:meth:`~repro.tveg.graph.TVEG.components`) in the canonical DCS order
that :func:`canonical` defines:

* the auxiliary-graph build
  (:func:`~repro.compute.numpy_backend.build_numpy_aux_graph`) takes from
  :func:`point_runs` every node's components as arrays, each with the run
  of DTS points where it is active;
* :func:`discrete_cost_set` answers one (node, time) query — for the
  event-driven schedulers, the exact oracle and the reduction passes — by
  bisecting the time into the node's sorted component boundaries
  (:class:`NodeComponents`, the node's rows as python values, cached on
  the TVEG).  The active entries of each segment between two boundaries
  are cached with them, so no (node, time) pair is ever memoized.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import ScheduleError
from .graph import TVEG

if TYPE_CHECKING:
    from ..dts.dts import DiscreteTimeSet

__all__ = [
    "DiscreteCostSet",
    "discrete_cost_set",
    "NodeComponents",
    "point_runs",
    "canonical",
]

Node = Hashable


@dataclass(frozen=True)
class DiscreteCostSet:
    """The DCS of one node at one time: per-neighbor minimum costs.

    ``entries`` are ``(cost, neighbor)`` sorted ascending by cost.
    """

    node: Node
    time: float
    entries: Tuple[Tuple[float, Node], ...]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    @property
    def costs(self) -> Tuple[float, ...]:
        """The discrete cost levels ``w¹ ≤ ... ≤ w^m``.

        Memoized per instance: :meth:`round_down` / :meth:`level_index`
        bisect this tuple on every reduction query.
        """
        cached = self.__dict__.get("_costs")
        if cached is None:
            cached = tuple(c for c, _ in self.entries)
            object.__setattr__(self, "_costs", cached)
        return cached

    @property
    def neighbors(self) -> Tuple[Node, ...]:
        return tuple([n for _, n in self.entries])

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    def coverage(self, w: float) -> Tuple[Node, ...]:
        """Neighbors informed by transmitting at cost ``w`` (Property 6.1(i))."""
        return tuple(n for c, n in self.entries if c <= w)

    def round_down(self, w: float) -> float:
        """The largest DCS level ≤ ``w`` (Property 6.1(ii)'s rounding).

        Raises :class:`ScheduleError` if ``w`` is below every level (the
        transmission would inform nobody).
        """
        i = bisect_right(self.costs, w)
        if i == 0:
            raise ScheduleError(
                f"cost {w!r} is below the smallest DCS level of node "
                f"{self.node!r} at t={self.time!r}"
            )
        return self.entries[i - 1][0]

    def cost_to_cover(self, targets: Iterable[Node]) -> float:
        """Smallest DCS level informing all ``targets``; ``inf`` if any
        target is not adjacent at this time."""
        targets = set(targets)
        if not targets:
            return 0.0
        need = -math.inf
        seen = set()
        for c, n in self.entries:
            if n in targets:
                need = max(need, c)
                seen.add(n)
        if seen != targets:
            return math.inf
        return need

    def level_index(self, w: float) -> int:
        """Index ``k`` (0-based) of an exact DCS level ``w``."""
        costs = self.costs
        k = bisect_left(costs, w)
        if k < len(costs) and costs[k] == w:
            return k
        raise ScheduleError(f"{w!r} is not a DCS level of node {self.node!r}")


def canonical(rows: Iterable[Sequence]) -> List[Sequence]:
    """``(cost, neighbor, ...)`` rows in the canonical DCS order.

    Rows whose cost is not finite are dropped; the rest sort by ascending
    cost, ties broken by ``repr(neighbor)`` (the sort is stable).  This is
    the one definition of the order: the per-query costs of contacts whose
    cost varies are sorted here, and the priced
    :meth:`~repro.tveg.graph.TVEG.components` reproduce it with one
    ``lexsort``.
    """
    out = [r for r in rows if math.isfinite(r[0])]
    out.sort(key=lambda r: (r[0], repr(r[1])))
    return out


class NodeComponents:
    """One node's adjacency components: every τ-eroded ``[start, end)``
    on which a neighbor is adjacent, one ``(cost, neighbor, start, end)``
    row each — the node's rows of
    :meth:`~repro.tveg.graph.TVEG.components` as python values.

    When link costs are constant within contacts (``costed``, from
    ``tveg.cost_cacheable``) the rows are in :func:`canonical` order.  At
    any time at most one component per neighbor is active (interval sets
    are normalized) and distinct neighbors have distinct ``repr``, so the
    rows active at ``t``, in row order, are the DCS at ``t``.  Otherwise
    every ``cost`` is ``None`` and the rows stay in incident order: each
    query costs its active rows at its own time.

    The active rows change only at a component start or end, so they are
    constant on each *segment* between two consecutive ``bounds``; segment
    ``bisect_right(bounds, t)`` holds ``t``, and ``segments`` caches what
    :meth:`active` returns for it (at most ``2 × len(rows) + 1`` segments).
    """

    __slots__ = ("rows", "costed", "bounds", "segments")

    def __init__(self, rows: List[tuple], costed: bool) -> None:
        self.rows = rows
        self.costed = costed
        self.bounds = None  # sorted by the first DCS query, not the aux build
        self.segments: Dict[int, tuple] = {}

    def active(self, t: float) -> tuple:
        """The rows active at ``t``: ``(cost, neighbor)`` entries when
        ``costed``, else whole rows."""
        active = [r for r in self.rows if r[2] <= t < r[3]]
        if self.costed:
            return tuple([(c, v) for c, v, _, _ in active])
        return tuple(active)


def _components(tveg: TVEG, node: Node) -> NodeComponents:
    """The node's :class:`NodeComponents`, built once per TVG version."""
    cache = tveg.compute_cache()
    comps = cache.get(node)
    if comps is None:
        i = tveg.tvg.position(node)
        every = tveg.components()
        lo, hi = int(every.ptr[i]), int(every.ptr[i + 1])
        labels = tveg.nodes
        comps = cache[node] = NodeComponents(
            list(zip(
                every.cost[lo:hi].tolist() if every.costed
                else [None] * (hi - lo),
                [labels[j] for j in every.nbr[lo:hi].tolist()],
                every.start[lo:hi].tolist(),
                every.end[lo:hi].tolist(),
            )),
            every.costed,
        )
    return comps


def point_runs(
    tveg: TVEG, dts: "DiscreteTimeSet"
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray",
           "np.ndarray"]:
    """Every node's components as runs of its DTS points, as the
    auxiliary-graph build reads them.

    Returns ``(ptr, cost, nbr, a, b)``: node ``i``'s components are
    ``ptr[i]:ptr[i + 1]``, in canonical order, and its neighbor
    ``nbr[j]`` (a position in ``tveg.nodes``) is adjacent at its
    ``dts`` point ``l`` at ``cost[j]`` exactly when ``a[j] <= l < b[j]``.

    With ``tveg.cost_cacheable`` these are the priced
    :meth:`~repro.tveg.graph.TVEG.components`.  Otherwise each active
    (neighbor, point) cell is a one-point component costed by the same
    ``contact_cost(node, other, t)`` call :func:`discrete_cost_set` makes
    at that point.
    """
    every = tveg.components()
    labels = tveg.nodes
    bounds = every.ptr.tolist()
    if every.costed:
        a = np.empty(len(every.start), dtype=np.int64)
        b = np.empty(len(every.start), dtype=np.int64)
        for i, node in enumerate(labels):
            pts, run = dts.points(node), slice(bounds[i], bounds[i + 1])
            a[run] = np.searchsorted(pts, every.start[run])
            b[run] = np.searchsorted(pts, every.end[run])
        return every.ptr, every.cost, every.nbr, a, b
    ptr, cost, nbr, at = [0], [], [], []
    for i, node in enumerate(labels):
        pts = dts.points(node).tolist()
        run = slice(bounds[i], bounds[i + 1])
        cells = canonical(
            (tveg.contact_cost(node, labels[j], pts[l]), labels[j], j, l)
            for j, s, e in zip(every.nbr[run].tolist(),
                               every.start[run].tolist(),
                               every.end[run].tolist())
            for l in range(bisect_left(pts, s), bisect_left(pts, e))
        )
        ptr.append(ptr[-1] + len(cells))
        for c, _, j, l in cells:
            cost.append(c)
            nbr.append(j)
            at.append(l)
    a = np.array(at, dtype=np.int64)
    return (np.array(ptr, dtype=np.int64), np.array(cost, dtype=np.float64),
            np.array(nbr, dtype=np.int64), a, a + 1)


def discrete_cost_set(tveg: TVEG, node: Node, t: float) -> DiscreteCostSet:
    """The DCS of ``node`` at time ``t``, read from its components.

    Bisects ``t`` into the node's component boundaries and takes the
    segment's entries, cached on the first query that lands in the
    segment (:meth:`NodeComponents.active`).  When costs vary within
    contacts, the segment's active components are costed at ``t``
    through :meth:`~repro.tveg.graph.TVEG.contact_cost` and sorted
    canonically.  Neighbors whose cost is infinite (should not happen for
    adjacent links) are dropped defensively.  Raises
    :class:`~repro.errors.GraphModelError` for a node not in the graph.
    """
    comps = tveg.compute_cache().get(node) or _components(tveg, node)
    if comps.bounds is None:
        comps.bounds = sorted({x for r in comps.rows for x in r[2:]})
    k = bisect_right(comps.bounds, t)
    entries = comps.segments.get(k)
    if entries is None:
        entries = comps.segments[k] = comps.active(t)
        obs.counter("tveg.dcs_built")
        obs.counter("tveg.dcs_levels", len(entries))
    if not comps.costed:
        entries = tuple(canonical(
            (tveg.contact_cost(node, v, t), v) for _, v, _, _ in entries
        ))
    return DiscreteCostSet(node, t, entries)
