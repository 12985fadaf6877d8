"""Exhaustive optimal TMEDB-S solver for tiny instances.

Dijkstra over the joint state space ``(time-point index, informed set)``:
at each DTS time an informed node may transmit at any DCS level (cost =
that level, effect = union the covered nodes into the informed set), or time
advances for free.  With ``τ = 0`` a node informed at the current instant
may itself relay at the same instant (Eq. 6 admits ``t_j ≤ t_k``), which the
state encoding captures because transmissions at one time compose within the
same time index.

Exact for step ED-functions and τ = 0; combined with Theorem 5.2 (optimal
schedules live on the DTS) it is an exact TMEDB-S solver.  Exponential in
``N`` — the test suite uses it as ground truth for EEDCB on ≤ 6-node
instances, and the ablation bench measures approximation gaps against it.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

import numpy as np

from .. import obs
from ..dts.dts import build_dts
from ..errors import InfeasibleError, SolverError
from ..schedule.schedule import Schedule, Transmission
from ..tveg.costsets import discrete_cost_set
from ..tveg.graph import TVEG
from .base import Scheduler, SchedulerResult, record_schedule, register

__all__ = ["OracleExact"]

Node = Hashable
State = Tuple[int, FrozenSet[Node]]  # (time index, informed set)


@register("oracle")
class OracleExact(Scheduler):
    """Exact minimum-cost broadcast via state-space Dijkstra (tiny N only)."""

    def __init__(self, max_nodes: int = 8):
        self._max_nodes = max_nodes

    def run(
        self,
        tveg: TVEG,
        source: Node,
        deadline: float,
        start_time: float = 0.0,
    ) -> SchedulerResult:
        if tveg.num_nodes > self._max_nodes:
            raise SolverError(
                f"oracle limited to {self._max_nodes} nodes "
                f"(instance has {tveg.num_nodes}); it is exponential in N"
            )
        if tveg.tau != 0.0:
            raise SolverError("oracle supports τ = 0 instances only")
        if start_time != 0.0:
            raise SolverError("oracle assumes the broadcast starts at t = 0")

        stage_seconds: Dict[str, float] = {}
        with obs.span("scheduler.run", algorithm="oracle"), obs.stage(
            stage_seconds, "search", "oracle.search"
        ):
            goal, dist, prev, dts = self._search(tveg, source, deadline)
        obs.counter("oracle.states_expanded", len(dist))

        if goal is None:
            raise InfeasibleError(
                f"no schedule informs all nodes from {source!r} by {deadline:g}"
            )

        rows: List[Transmission] = []
        state = goal
        while state in prev:
            state, tx = prev[state]
            if tx is not None:
                rows.append(tx)
        rows.reverse()
        schedule = Schedule(rows)
        record_schedule(schedule, "oracle")
        return SchedulerResult(
            schedule=schedule,
            info={
                "optimal_cost": dist[goal],
                "states_expanded": len(dist),
                "dts_points": dts.total_points(),
                "stage_seconds": stage_seconds,
            },
        )

    def _search(self, tveg: TVEG, source: Node, deadline: float):
        """Dijkstra over (time index, informed set); returns search state."""
        # Global candidate transmission times: union of all DTS points,
        # as python floats.
        dts = build_dts(tveg.tvg, deadline)
        times = np.unique(dts.values).tolist()
        all_nodes = frozenset(tveg.nodes)

        start: State = (0, frozenset([source]))
        dist: Dict[State, float] = {start: 0.0}
        prev: Dict[State, Tuple[State, Optional[Transmission]]] = {}
        heap: List[Tuple[float, int, State]] = [(0.0, 0, start)]
        counter = 1
        goal: Optional[State] = None

        while heap:
            cost, _, state = heapq.heappop(heap)
            if cost > dist.get(state, math.inf):
                continue
            t_idx, informed = state
            if informed == all_nodes:
                goal = state
                break
            # Advance time for free.
            if t_idx + 1 < len(times):
                nxt: State = (t_idx + 1, informed)
                if cost < dist.get(nxt, math.inf):
                    dist[nxt] = cost
                    prev[nxt] = (state, None)
                    heapq.heappush(heap, (cost, counter, nxt))
                    counter += 1
            # Transmit from any informed node at any DCS level.
            t = times[t_idx]
            for relay in informed:
                dcs = discrete_cost_set(tveg, relay, t)
                for k, (w, _) in enumerate(dcs.entries):
                    covered = dcs.coverage(w)
                    new_informed = informed | set(covered)
                    if new_informed == informed:
                        continue
                    nxt = (t_idx, frozenset(new_informed))
                    new_cost = cost + w
                    if new_cost < dist.get(nxt, math.inf):
                        dist[nxt] = new_cost
                        prev[nxt] = (state, Transmission(relay, t, w))
                        heapq.heappush(heap, (new_cost, counter, nxt))
                        counter += 1

        return goal, dist, prev, dts
