"""GREED and FR-GREED baselines (Section VII).

GREED selects, at each step, the informed node that can inform the largest
number of currently uninformed nodes, and lets it transmit immediately — a
locally optimal (set-cover-style) policy with no look-ahead across time.
FR-GREED uses the same backbone and then recomputes the cost vector with the
Section VI-B NLP, exactly as the paper describes its comparison setup.

:class:`Greed` is the event-driven scheduler RAND subclasses with its own
``_select``; ``perfbench/spans.py`` times the ``algorithms.event_sim`` layer
by wrapping this module's ``run_event_scheduler``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from .. import obs
from ..tveg.graph import TVEG
from .base import Scheduler, SchedulerResult, record_schedule, register
from .eventsim import Candidate, run_event_scheduler
from .fr_eedcb import FadingResistant

__all__ = ["Greed", "FRGreed"]

Node = Hashable


@register("greed")
class Greed(Scheduler):
    """The greedy most-coverage baseline."""

    def __init__(self, power_policy: str = "cover"):
        self._policy = power_policy

    def _select(self, cands: List[Candidate]) -> Candidate:
        """Most newly-informed nodes; cheapest transmission breaks ties."""
        return max(cands, key=lambda c: (len(c[2]), -c[1]))

    def run(
        self,
        tveg: TVEG,
        source: Node,
        deadline: float,
        start_time: float = 0.0,
    ) -> SchedulerResult:
        stage_seconds: Dict[str, float] = {}
        with obs.span("scheduler.run", algorithm=self.name):
            with obs.stage(stage_seconds, "event_sim", f"{self.name}.event_sim"):
                schedule, informed = run_event_scheduler(
                    tveg, source, deadline, self._select, self._policy,
                    start_time, algorithm=self.name,
                )
        record_schedule(schedule, self.name)
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
class FRGreed(FadingResistant):
    """GREED backbone + NLP energy allocation (the paper's FR-GREED)."""

    def __init__(self, power_policy: str = "cover"):
        super().__init__(Greed(power_policy))
