"""GREED and FR-GREED baselines (Section VII).

GREED selects, at each step, the informed node that can inform the largest
number of currently uninformed nodes, and lets it transmit immediately — a
locally optimal (set-cover-style) policy with no look-ahead across time.
FR-GREED uses the same backbone and then recomputes the cost vector with the
Section VI-B NLP, exactly as the paper describes its comparison setup.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from .. import obs
from ..allocation.nlp import solve_allocation
from ..allocation.problem import build_allocation_problem
from ..errors import SolverError
from ..schedule.feasibility import check_feasibility
from ..tveg.graph import TVEG
from .base import Scheduler, SchedulerResult, record_schedule, register
from .eventsim import Candidate, run_event_scheduler

__all__ = ["Greed", "FRGreed"]

Node = Hashable


def _greedy_select(cands: List[Candidate]) -> Candidate:
    """Most newly-informed nodes; cheapest transmission breaks ties."""
    return max(cands, key=lambda c: (len(c[2]), -c[1]))


@register("greed")
class Greed(Scheduler):
    """The greedy most-coverage baseline."""

    def __init__(self, power_policy: str = "cover"):
        self._policy = power_policy

    def run(
        self,
        tveg: TVEG,
        source: Node,
        deadline: float,
        start_time: float = 0.0,
    ) -> SchedulerResult:
        stage_seconds: Dict[str, float] = {}
        with obs.span("scheduler.run", algorithm="greed"):
            with obs.stage(stage_seconds, "event_sim", "greed.event_sim"):
                schedule, informed = run_event_scheduler(
                    tveg, source, deadline, _greedy_select, self._policy,
                    start_time, algorithm="greed",
                )
        record_schedule(schedule, "greed")
        return SchedulerResult(
            schedule=schedule,
            info={
                "informed": len(informed),
                "num_nodes": tveg.num_nodes,
                "power_policy": self._policy,
                "stage_seconds": stage_seconds,
            },
        )


@register("fr-greed")
class FRGreed(Scheduler):
    """GREED backbone + NLP energy allocation (the paper's FR-GREED)."""

    def __init__(self, power_policy: str = "cover", use_slsqp: bool = True):
        self._inner = Greed(power_policy)
        self._use_slsqp = use_slsqp

    def run(
        self,
        tveg: TVEG,
        source: Node,
        deadline: float,
        start_time: float = 0.0,
    ) -> SchedulerResult:
        if not tveg.is_fading:
            raise SolverError(
                "FR-GREED targets fading channels; use GREED on static ones"
            )
        base = self._inner.run(tveg, source, deadline, start_time)
        info = dict(base.info)
        if base.schedule.is_empty or base.info["informed"] < tveg.num_nodes:
            # Partial backbone: allocation constraints would be infeasible
            # for the unreached nodes; keep w0 costs for the reached part.
            info["allocation_method"] = "backbone (partial coverage)"
            return SchedulerResult(schedule=base.schedule, info=info)
        stage_seconds: Dict[str, float] = dict(info.get("stage_seconds", {}))
        with obs.stage(stage_seconds, "allocation", "fr_greed.allocation"):
            backbone_ok = check_feasibility(
                tveg, base.schedule, source, deadline, start_time=start_time
            ).feasible
            problem = build_allocation_problem(tveg, base.schedule, source)
            alloc = solve_allocation(
                problem,
                use_slsqp=self._use_slsqp,
                fallback=base.schedule.cost_array() if backbone_ok else None,
            )
        info.update(
            {
                "allocation_method": alloc.method,
                "backbone_cost": base.schedule.total_cost,
                "allocated_cost": alloc.total,
                "nlp_iterations": alloc.nlp_iterations,
                "stage_seconds": stage_seconds,
            }
        )
        schedule = base.schedule.with_costs(alloc.costs)
        record_schedule(schedule, "fr-greed")
        return SchedulerResult(schedule=schedule, info=info)
