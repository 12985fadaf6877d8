"""EEDCB — energy-efficient delay-constrained broadcast (Section VI-A).

The paper's main algorithm for static channels:

1. build the DTS of the instance over ``[start_time, deadline]``;
2. build the Section VI-A auxiliary graph (states, transmissions, DCS
   weights);
3. solve the resulting minimum-energy multicast tree problem with a directed
   Steiner approximation (Liang's reduction [3]);
4. decode the tree back into a broadcast relay schedule;
5. reduce: drop redundant transmissions (the level-merge extraction can
   strand coverage the merged level already provides) and round costs down
   to the lowest feasible DCS levels — both passes re-verify feasibility.

On a fading TVEG the DCS weights are the ``w0`` single-hop costs, so the
identical pipeline doubles as FR-EEDCB's backbone-selection stage.

The auxiliary graph is always the implicit numpy graph
(:mod:`repro.compute.numpy_backend`), searched by the greedy Steiner
kernel that reads its rows in place.  It is byte-identical to the
networkx construction the tests keep as the reference
(``tests/aux_oracle.py``), whether link costs are constant within each
contact or vary within one.  The auxiliary graph itself is
source-independent, so built graphs are retained on the TVEG's
:meth:`~repro.tveg.graph.TVEG.aux_cache` and re-rooted per source — the
amortization behind :func:`repro.api.plan_broadcast_many`.
"""

from __future__ import annotations

from typing import Dict, Hashable

from .. import obs
from ..auxgraph.extract import extract_schedule
from ..compute import numpy_backend
from ..dts.dts import build_dts
from ..errors import InfeasibleError
from ..schedule.reduce import lower_costs, remove_redundant, upgrade_and_prune
from ..schedule.schedule import Schedule
from ..steiner.memt import solve_memt
from ..steiner.sptree import tree_cost
from ..tveg.graph import TVEG
from .base import Scheduler, SchedulerResult, record_schedule, register

__all__ = ["EEDCB"]

Node = Hashable


@register("eedcb")
class EEDCB(Scheduler):
    """The auxiliary-graph + Steiner-tree scheduler.

    Parameters
    ----------
    memt_method:
        Steiner solver: ``"greedy"`` (default), ``"sptree"``, or
        ``"charikar"`` (small instances).
    charikar_level:
        Recursion level when ``memt_method="charikar"``.
    """

    def __init__(
        self,
        memt_method: str = "greedy",
        charikar_level: int = 2,
        reduce: bool = True,
        targets=None,
    ):
        self._method = memt_method
        self._level = charikar_level
        self._reduce = reduce
        #: multicast terminal subset; None = broadcast (the paper's case)
        self._targets = tuple(targets) if targets is not None else None

    def _cached_aux(self, tveg: TVEG, source: Node, deadline: float):
        """The retained auxiliary graph for ``deadline``, re-rooted at
        ``source``, or ``None``.

        The construction depends only on (TVEG, deadline, targets), so
        builds are kept on the TVEG's LRU
        :meth:`~repro.tveg.graph.TVEG.aux_cache` and re-rooted with
        :meth:`~repro.compute.numpy_backend.NumpyAuxGraph.retarget` — a
        hit skips the DTS and the aux build, the graph carrying the DTS
        it was built on.
        """
        cache = tveg.aux_cache()
        key = (float(deadline), self._targets)
        hit = cache.get(key)
        if hit is None:
            return None
        cache.move_to_end(key)
        if hit.source == source:
            return hit
        return hit.retarget(source, self._targets)

    def _build_aux(self, tveg: TVEG, source: Node, deadline: float, dts):
        """Build the auxiliary graph and retain it on the aux cache."""
        aux = numpy_backend.build_numpy_aux_graph(
            tveg, source, deadline, dts, targets=self._targets
        )
        cache = tveg.aux_cache()
        cache[(float(deadline), self._targets)] = aux
        while len(cache) > TVEG.AUX_CACHE_CAPACITY:
            cache.popitem(last=False)
        return aux

    def run(
        self,
        tveg: TVEG,
        source: Node,
        deadline: float,
        start_time: float = 0.0,
    ) -> SchedulerResult:
        if start_time != 0.0:
            raise InfeasibleError(
                "EEDCB assumes the broadcast starts at t=0; shift the trace "
                "window instead (ContactTrace.restrict_window().shift())"
            )
        from ..temporal.reachability import reachable_set

        stage_seconds: Dict[str, float] = {}
        steiner_stats: Dict[str, int] = {}
        with obs.span("scheduler.run", algorithm="eedcb"):
            with obs.stage(stage_seconds, "reachability", "eedcb.reachability"):
                required = (
                    self._targets if self._targets is not None else tveg.nodes
                )
                reached = reachable_set(tveg.tvg, source, start_time, deadline)
                missing = [n for n in required if n not in reached]
            if missing:
                raise InfeasibleError(
                    f"no journey reaches {missing!r} from {source!r} by {deadline:g}"
                )
            if all(n == source for n in required):
                # Nothing to inform: no DTS, aux graph or search.
                return SchedulerResult(schedule=Schedule.empty(), info={
                    "aux_nodes": 0, "aux_edges": 0, "dts_points": 0,
                    "dcs_levels": 0, "steiner_expansions": 0,
                    "tree_cost": 0.0, "raw_cost": 0.0,
                    "memt_method": self._method,
                    "stage_seconds": stage_seconds,
                })
            aux = self._cached_aux(tveg, source, deadline)
            with obs.stage(stage_seconds, "dts", "eedcb.dts"):
                if aux is None:
                    dts = build_dts(tveg.tvg, deadline)
                else:
                    dts = aux.dts
            with obs.stage(stage_seconds, "auxgraph", "eedcb.auxgraph"):
                if aux is None:
                    aux = self._build_aux(tveg, source, deadline, dts)
            with obs.stage(
                stage_seconds, "steiner", "eedcb.steiner", method=self._method
            ):
                edges = solve_memt(
                    aux,
                    aux.root,
                    aux.terminals,
                    method=self._method,
                    level=self._level,
                    stats=steiner_stats,
                )
            with obs.stage(stage_seconds, "extract", "eedcb.extract"):
                schedule = extract_schedule(aux, edges)
            raw_cost = schedule.total_cost
            if self._reduce:
                targets = self._targets
                with obs.stage(stage_seconds, "reduce", "eedcb.reduce"):
                    schedule = remove_redundant(
                        tveg, schedule, source, deadline, targets=targets
                    )
                    schedule = upgrade_and_prune(
                        tveg, schedule, source, deadline, targets=targets
                    )
                    schedule = lower_costs(
                        tveg, schedule, source, deadline, targets=targets
                    )
        record_schedule(schedule, "eedcb")
        return SchedulerResult(
            schedule=schedule,
            info={
                "aux_nodes": aux.num_nodes,
                "aux_edges": aux.num_edges,
                "dts_points": dts.total_points(),
                "dcs_levels": aux.dcs_levels,
                "steiner_expansions": steiner_stats.get("expansions", 0),
                "tree_cost": tree_cost(aux, edges),
                "raw_cost": raw_cost,
                "memt_method": self._method,
                "stage_seconds": stage_seconds,
            },
        )
