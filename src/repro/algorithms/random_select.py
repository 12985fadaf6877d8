"""RAND and FR-RAND baselines (Section VII).

RAND picks a *random* informed node (among those that could inform someone)
as the next relay at each step; FR-RAND reuses the RAND backbone and
recomputes costs with the Section VI-B NLP.  Seeded for reproducibility.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from .. import obs
from ..allocation.nlp import solve_allocation
from ..allocation.problem import build_allocation_problem
from ..core.rng import SeedLike, as_generator
from ..errors import SolverError
from ..schedule.feasibility import check_feasibility
from ..tveg.graph import TVEG
from .base import Scheduler, SchedulerResult, record_schedule, register
from .eventsim import Candidate, run_event_scheduler

__all__ = ["Rand", "FRRand"]

Node = Hashable


@register("rand")
class Rand(Scheduler):
    """The random-relay baseline."""

    def __init__(self, power_policy: str = "cover", seed: SeedLike = None):
        self._policy = power_policy
        self._rng = as_generator(seed)

    def run(
        self,
        tveg: TVEG,
        source: Node,
        deadline: float,
        start_time: float = 0.0,
    ) -> SchedulerResult:
        def select(cands: List[Candidate]) -> Candidate:
            return cands[int(self._rng.integers(len(cands)))]

        stage_seconds: Dict[str, float] = {}
        with obs.span("scheduler.run", algorithm="rand"):
            with obs.stage(stage_seconds, "event_sim", "rand.event_sim"):
                schedule, informed = run_event_scheduler(
                    tveg, source, deadline, select, self._policy, start_time,
                    algorithm="rand",
                )
        record_schedule(schedule, "rand")
        return SchedulerResult(
            schedule=schedule,
            info={
                "informed": len(informed),
                "num_nodes": tveg.num_nodes,
                "power_policy": self._policy,
                "stage_seconds": stage_seconds,
            },
        )


@register("fr-rand")
class FRRand(Scheduler):
    """RAND backbone + NLP energy allocation (the paper's FR-RAND)."""

    def __init__(
        self,
        power_policy: str = "cover",
        seed: SeedLike = None,
        use_slsqp: bool = True,
    ):
        self._inner = Rand(power_policy, seed)
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
                "FR-RAND targets fading channels; use RAND on static ones"
            )
        base = self._inner.run(tveg, source, deadline, start_time)
        info = dict(base.info)
        if base.schedule.is_empty or base.info["informed"] < tveg.num_nodes:
            info["allocation_method"] = "backbone (partial coverage)"
            return SchedulerResult(schedule=base.schedule, info=info)
        stage_seconds: Dict[str, float] = dict(info.get("stage_seconds", {}))
        with obs.stage(stage_seconds, "allocation", "fr_rand.allocation"):
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
        record_schedule(schedule, "fr-rand")
        return SchedulerResult(schedule=schedule, info=info)
