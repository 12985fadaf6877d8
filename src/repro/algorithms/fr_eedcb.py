"""FR-EEDCB — fading-resistant EEDCB (Section VI-B) — and the allocation
stage FR-GREED and FR-RAND share with it.

Two stages, exactly as the paper decomposes TMEDB-R:

1. **Broadcast backbone selection** — run the static-channel machinery on
   the fading TVEG; the auxiliary-graph weights are automatically the
   single-hop costs ``w0 = β / ln(1/(1−ε))`` because the DCS queries the
   fading channel's ``min_cost(ε)``.  This fixes the relay vector ``R`` and
   time vector ``T``.
2. **Optimal energy allocation** — solve the NLP of Eqs. (14)–(17) for the
   cost vector ``W`` given ``[R, T]``, accounting for the fact that under
   fading every transmission contributes probabilistically to every node it
   touches (so costs can drop below ``w0`` where coverage overlaps).

FR-GREED and FR-RAND (Section VII) run :class:`FadingResistant`, this
stage 2, on their own backbones.  It lives here, not in
:mod:`repro.allocation`, because ``perfbench/spans.py`` times the
``allocation.solve`` layer by wrapping this module's imported names.
"""

from __future__ import annotations

from typing import Dict, Hashable

from .. import obs
from ..allocation.nlp import solve_allocation
from ..allocation.problem import build_allocation_problem
from ..errors import SolverError
from ..schedule.feasibility import check_feasibility
from ..tveg.graph import TVEG
from .base import Scheduler, SchedulerResult, record_schedule, register
from .eedcb import EEDCB

__all__ = ["FadingResistant", "FREEDCB"]

Node = Hashable


class FadingResistant(Scheduler):
    """A static ``backbone`` scheduler + the NLP energy allocation.

    ``targets`` is the multicast subset the allocation must reach (None =
    broadcast).  A backbone that reports ``informed`` (GREED, RAND) and
    leaves nodes uninformed, or schedules nothing, is returned as is.
    """

    def __init__(self, backbone: Scheduler, targets=None):
        self._backbone = backbone
        self._targets = tuple(targets) if targets is not None else None

    def run(
        self,
        tveg: TVEG,
        source: Node,
        deadline: float,
        start_time: float = 0.0,
    ) -> SchedulerResult:
        if not tveg.is_fading:
            raise SolverError(
                f"{self.name.upper()} targets fading channels; "
                f"use {self._backbone.name.upper()} on static ones"
            )
        base = self._backbone.run(tveg, source, deadline, start_time)
        backbone, info = base.schedule, dict(base.info)
        informed = info.get("informed")
        if informed is not None and (backbone.is_empty
                                     or informed < tveg.num_nodes):
            # Partial backbone: allocation constraints would be infeasible
            # for the unreached nodes; keep w0 costs for the reached part.
            info["allocation_method"] = "backbone (partial coverage)"
            record_schedule(backbone, self.name)
            return SchedulerResult(schedule=backbone, info=info)
        stage_seconds: Dict[str, float] = dict(info.get("stage_seconds", {}))
        span = self.name.replace("-", "_") + ".allocation"
        with obs.stage(stage_seconds, "allocation", span):
            # The ε-exact backbone is a valid allocation whenever it is
            # itself feasible — in that case the margin-tightened NLP must
            # never return anything more expensive.  (Rare extraction
            # corners can yield an infeasible backbone; the NLP then has to
            # spend more than w0 to repair it, so no fallback applies.)
            backbone_ok = check_feasibility(
                tveg, backbone, source, deadline,
                start_time=start_time, targets=self._targets,
            ).feasible
            problem = build_allocation_problem(
                tveg, backbone, source, targets=self._targets
            )
            alloc = solve_allocation(
                problem, fallback=backbone.cost_array() if backbone_ok else None
            )
        schedule = backbone.with_costs(alloc.costs)
        record_schedule(schedule, self.name)
        info.update(
            allocation_method=alloc.method,
            slsqp_converged=alloc.slsqp_converged,
            backbone_feasible=backbone_ok,
            backbone_cost=backbone.total_cost,
            allocated_cost=alloc.total,
            num_constraints=len(problem.constraints),
            nlp_iterations=alloc.nlp_iterations,
            stage_seconds=stage_seconds,
        )
        return SchedulerResult(schedule=schedule, info=info)


@register("fr-eedcb")
class FREEDCB(FadingResistant):
    """Backbone selection via EEDCB + NLP energy allocation.

    Parameters mirror :class:`~repro.algorithms.eedcb.EEDCB`.
    """

    def __init__(self, memt_method: str = "greedy", charikar_level: int = 2,
                 targets=None):
        super().__init__(EEDCB(memt_method, charikar_level, targets=targets),
                         targets)
