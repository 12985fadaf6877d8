"""Ablations of the design choices DESIGN.md calls out.

Four studies, each isolating one component swap while everything else stays
fixed (run standalone: ``python -m repro.experiments.ablation``):

* ``steiner_ablation``    — Steiner solver (greedy / sptree / charikar)
                            vs the exact oracle on small instances;
* ``allocation_ablation`` — closed form vs coordinate descent vs full NLP
                            on one fading backbone;
* ``pruning_ablation``    — auxiliary-graph size and schedule cost with and
                            without DTS point pruning;
* ``policy_ablation``     — GREED's "cover" vs paper-literal "min" power
                            policy.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..algorithms.base import make_scheduler
from ..allocation import (
    build_allocation_problem,
    closed_form_allocation,
    solve_allocation,
)
from ..auxgraph import extract_schedule
from ..compute.numpy_backend import build_numpy_aux_graph
from ..dts import build_dts
from ..errors import InfeasibleError
from ..schedule import check_feasibility
from ..steiner import solve_memt
from ..temporal.reachability import broadcast_feasible_sources
from ..traces import HaggleLikeConfig, haggle_like_trace, uniform_trace
from ..tveg import tveg_from_trace

__all__ = [
    "steiner_ablation",
    "allocation_ablation",
    "pruning_ablation",
    "policy_ablation",
]


def _window_instance(num_nodes: int, channel: str, trace_seed: int, dist_seed: int):
    """A 2000 s broadcast instance on a fresh Haggle-like trace."""
    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=num_nodes), seed=trace_seed)
    window = trace.restrict_window(9000.0, 11000.0).shift(-9000.0)
    tveg = tveg_from_trace(window, channel, seed=dist_seed)
    sources = sorted(broadcast_feasible_sources(tveg.tvg, 0.0, 2000.0))
    if not sources:
        raise InfeasibleError("ablation window infeasible; change the seed")
    return tveg, sources[0]


def steiner_ablation(
    num_instances: int = 6, num_nodes: int = 6, horizon: float = 250.0
) -> Dict[str, float]:
    """Mean cost/optimal ratio per Steiner method on oracle-solvable
    instances (small N — the oracle is exponential)."""
    gaps: Dict[str, List[float]] = {m: [] for m in ("greedy", "sptree", "charikar")}
    for seed in range(num_instances):
        trace = uniform_trace(num_nodes, horizon, 70.0, 40.0, seed=seed)
        tveg = tveg_from_trace(trace, "static", seed=seed)
        try:
            opt = make_scheduler("oracle").run(tveg, 0, horizon)
        except InfeasibleError:
            continue
        for method in gaps:
            sched = make_scheduler("eedcb", memt_method=method).schedule(
                tveg, 0, horizon
            )
            gaps[method].append(sched.total_cost / opt.schedule.total_cost)
    return {m: float(np.mean(v)) for m, v in gaps.items() if v}


def allocation_ablation(
    num_nodes: int = 15, trace_seed: int = 31, dist_seed: int = 4
) -> Dict[str, float]:
    """Total allocated energy per solver tier on one fading backbone."""
    fading, source = _window_instance(num_nodes, "rayleigh", trace_seed, dist_seed)
    backbone = make_scheduler("eedcb").schedule(fading, source, 2000.0)
    problem = build_allocation_problem(fading, backbone, source)
    return {
        "closed_form": float(closed_form_allocation(problem).sum()),
        "coordinate": solve_allocation(problem, use_slsqp=False).total,
        "nlp": solve_allocation(problem, use_slsqp=True).total,
    }


def pruning_ablation(
    num_nodes: int = 15, trace_seed: int = 77, dist_seed: int = 9
) -> Dict[str, float]:
    """Auxiliary-graph size and schedule cost with/without DTS pruning."""
    tveg, source = _window_instance(num_nodes, "static", trace_seed, dist_seed)
    out: Dict[str, float] = {}
    for label, prune in (("pruned", True), ("unpruned", False)):
        dts = build_dts(tveg.tvg, 2000.0, prune=prune)
        aux = build_numpy_aux_graph(tveg, source, 2000.0, dts)
        sched = extract_schedule(aux, solve_memt(aux, aux.root, aux.terminals))
        assert check_feasibility(tveg, sched, source, 2000.0).feasible
        out[f"{label}_aux_nodes"] = aux.num_nodes
        out[f"{label}_cost"] = sched.total_cost
    return out


def policy_ablation(
    num_nodes: int = 15, trace_seed: int = 55, dist_seed: int = 2
) -> Dict[str, float]:
    """GREED with "cover" vs the paper-literal "min" power policy."""
    tveg, source = _window_instance(num_nodes, "static", trace_seed, dist_seed)
    out: Dict[str, float] = {}
    for policy in ("cover", "min"):
        res = make_scheduler("greed", power_policy=policy).run(tveg, source, 2000.0)
        out[f"{policy}_cost"] = res.schedule.total_cost
        out[f"{policy}_transmissions"] = len(res.schedule)
        out[f"{policy}_informed"] = res.info["informed"]
    return out


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    print("Steiner solver (mean cost / optimal):", steiner_ablation())
    print("Allocation tiers (total energy):", allocation_ablation())
    print("DTS pruning:", pruning_ablation())
    print("GREED power policy:", policy_ablation())
