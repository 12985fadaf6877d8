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

Stages 2–3 run on one of the interchangeable compute kernels selected by
``compute=`` (see :mod:`repro.compute`): the pure-stdlib path (the
bit-for-bit oracle, and the default when nothing is requested) or the
numpy array kernels.  The auxiliary graph itself is source-independent,
so built graphs are retained on the TVEG's
:meth:`~repro.tveg.graph.TVEG.aux_cache` and re-rooted per source — the
amortization behind :func:`repro.api.plan_broadcast_many`.
"""

from __future__ import annotations

import warnings
from typing import Dict, Hashable, Optional

from .. import obs
from ..auxgraph.build import build_aux_graph
from ..auxgraph.compact import build_compact_aux_graph
from ..auxgraph.extract import extract_schedule
from ..compute import canonical_compute_name, resolve_compute
from ..dts.dts import build_dts
from ..errors import InfeasibleError, SolverError
from ..schedule.reduce import lower_costs, remove_redundant, upgrade_and_prune
from ..steiner.memt import solve_memt
from ..steiner.sptree import tree_cost
from ..tveg.graph import TVEG
from .base import Scheduler, SchedulerResult, record_schedule, register

__all__ = ["EEDCB"]

Node = Hashable

#: execution mode → the representation label reported in result ``info``
_BACKEND_LABEL = {"python": "compact", "numpy": "numpy", "nx": "nx"}


def _resolve_mode(backend: Optional[str], compute) -> str:
    """Resolve the (deprecated) ``backend=`` / ``compute=`` pair to a mode.

    Returns ``"nx"``, ``"python"``, or ``"numpy"``.  ``backend=`` keeps
    working for callers that predate the compute layer, with a
    :class:`DeprecationWarning`; an explicit ``backend="compact"`` or
    ``backend="nx"`` without a compute spec pins the stdlib kernels, so
    pre-existing call sites stay byte-identical run-for-run.  So does a
    bare ``EEDCB()``: the ``"auto"`` preference for numpy is applied by
    the API/CLI layer (:func:`repro.api.plan_broadcast`), never sprung on
    direct constructor calls.
    """
    if backend is not None:
        warnings.warn(
            "the backend= parameter is deprecated; select kernels with "
            "compute='python'|'numpy'|'auto' instead (backend='nx' remains "
            "available for cross-checking the networkx construction)",
            DeprecationWarning,
            stacklevel=3,
        )
        if backend not in ("compact", "nx"):
            raise SolverError(
                f"unknown auxgraph backend {backend!r}; "
                "choose 'compact' or 'nx'"
            )
    spec = None if compute is None else canonical_compute_name(compute)
    if backend == "nx":
        if spec == "numpy":
            raise SolverError(
                "backend='nx' cannot run with compute='numpy'; the networkx "
                "construction is the stdlib parity oracle"
            )
        return "nx"
    return "python" if spec is None else resolve_compute(spec)


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
    compute:
        Kernel selection — ``"python"``, ``"numpy"``, or ``"auto"`` (see
        :mod:`repro.compute`).  ``None`` (the default) runs the stdlib
        kernels.  Every choice produces byte-identical schedules, info
        counters, and work counts; the switch is purely about speed.
    backend:
        Deprecated spelling of the same choice (``"compact"`` = stdlib
        CSR, ``"nx"`` = the networkx construction kept for
        cross-checking); superseded by ``compute=``.
    """

    def __init__(
        self,
        memt_method: str = "greedy",
        charikar_level: int = 2,
        reduce: bool = True,
        targets=None,
        backend: Optional[str] = None,
        compute: Optional[str] = None,
    ):
        self._mode = _resolve_mode(backend, compute)
        self._method = memt_method
        self._level = charikar_level
        self._reduce = reduce
        self._backend = _BACKEND_LABEL[self._mode]
        #: multicast terminal subset; None = broadcast (the paper's case)
        self._targets = tuple(targets) if targets is not None else None

    def _build_aux(self, tveg: TVEG, source: Node, deadline: float, dts):
        """Build (or fetch and re-root) the auxiliary graph for ``source``.

        The construction depends only on (TVEG, deadline, targets), so
        compact and implicit builds are kept on the TVEG's LRU
        :meth:`~repro.tveg.graph.TVEG.aux_cache` and re-rooted with
        :meth:`~repro.auxgraph.compact.RowGraph.retarget` — a hit
        skips the single most expensive stage of the pipeline.  The nx
        mode is exempt (it exists to exercise the construction itself).
        """
        if self._mode == "nx":
            return build_aux_graph(
                tveg, source, deadline, dts, targets=self._targets
            )
        cache = tveg.aux_cache()
        key = (self._mode, float(deadline), self._targets)
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            if hit.source == source:
                return hit
            return hit.retarget(source, self._targets)
        if self._mode == "numpy":
            from ..compute.numpy_backend import build_numpy_aux_graph

            builder = build_numpy_aux_graph
        else:
            builder = build_compact_aux_graph
        aux = builder(tveg, source, deadline, dts, targets=self._targets)
        cache[key] = aux
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
            with obs.stage(stage_seconds, "dts", "eedcb.dts"):
                dts = build_dts(tveg.tvg, deadline)
            with obs.stage(stage_seconds, "auxgraph", "eedcb.auxgraph"):
                aux = self._build_aux(tveg, source, deadline, dts)
                solver_graph = aux if self._mode != "nx" else aux.graph
            with obs.stage(
                stage_seconds, "steiner", "eedcb.steiner", method=self._method
            ):
                edges = solve_memt(
                    solver_graph,
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
                # Pin the replay kernel to the scheduler's resolved mode so
                # a compute="python" run stays numpy-free end to end.
                kw = {
                    "targets": self._targets,
                    "compute": "numpy" if self._mode == "numpy" else "python",
                }
                with obs.stage(stage_seconds, "reduce", "eedcb.reduce"):
                    schedule = remove_redundant(
                        tveg, schedule, source, deadline, **kw
                    )
                    schedule = upgrade_and_prune(
                        tveg, schedule, source, deadline, **kw
                    )
                    schedule = lower_costs(tveg, schedule, source, deadline, **kw)
        record_schedule(schedule, "eedcb")
        return SchedulerResult(
            schedule=schedule,
            info={
                "aux_nodes": aux.num_nodes,
                "aux_edges": aux.num_edges,
                "dts_points": dts.total_points(),
                "dcs_levels": aux.dcs_levels,
                "steiner_expansions": steiner_stats.get("expansions", 0),
                "tree_cost": tree_cost(solver_graph, edges),
                "raw_cost": raw_cost,
                "memt_method": self._method,
                "backend": self._backend,
                "compute": "numpy" if self._mode == "numpy" else "python",
                "stage_seconds": stage_seconds,
            },
        )
