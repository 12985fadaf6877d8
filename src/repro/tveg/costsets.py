"""Discrete cost sets (Section VI-A).

At a time ``t`` a node ``v_i`` with ``m`` adjacent nodes has minimum costs
``w¹ ≤ w² ≤ ... ≤ w^m``; Proposition 6.1 shows an optimal schedule
only ever transmits at one of these values, so the continuous cost set
collapses to the *discrete cost set* ``W^di_{i,t} = {w¹, ..., w^m}``.
Property 6.1(i) — the broadcast nature — says transmitting at ``w^k``
informs every neighbor whose minimum cost is ≤ ``w^k``.

:func:`discrete_cost_set` answers one (node, time) pair through the TVEG's
point queries.  It shares the TVEG's per-contact cost cache and memoizes
results on the TVEG (``(node, t)`` keyed), so the event-driven schedulers,
the exact oracle and the reduction passes never recompute a DCS.  The
auxiliary-graph build
(:func:`~repro.compute.numpy_backend.build_numpy_aux_graph`) costs whole
contact components and never asks for a DCS.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Hashable, Iterable, List, Tuple

from .. import obs
from ..errors import ScheduleError
from .graph import TVEG

__all__ = ["DiscreteCostSet", "discrete_cost_set"]

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
        return tuple(n for _, n in self.entries)

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


def _sorted_entries(
    raw: List[Tuple[float, Node]]
) -> Tuple[Tuple[float, Node], ...]:
    """Finite ``(cost, neighbor)`` pairs in the canonical DCS order."""
    raw.sort(key=lambda item: (item[0], repr(item[1])))
    return tuple((c, v) for c, v in raw if math.isfinite(c))


def discrete_cost_set(tveg: TVEG, node: Node, t: float) -> DiscreteCostSet:
    """Compute (or recall) the DCS of ``node`` at time ``t``.

    Results are memoized on the TVEG keyed by the exact ``(node, t)`` pair;
    repeated queries — schedule extraction, the reduction passes, the
    FR-EEDCB backbone stage — hit the memo.  Neighbors whose backbone cost
    is infinite (should not happen for adjacent links) are dropped
    defensively.
    """
    memo = tveg.dcs_memo()
    key = (node, t)
    cached = memo.get(key)
    if cached is not None:
        obs.counter("tveg.dcs_memo_hits")
        return cached
    entries = _sorted_entries(
        [(c, v) for v, c in tveg.neighbor_costs(node, t)]
    )
    obs.counter("tveg.dcs_built")
    obs.counter("tveg.dcs_levels", len(entries))
    dcs = DiscreteCostSet(node=node, time=t, entries=entries)
    memo[key] = dcs
    return dcs

