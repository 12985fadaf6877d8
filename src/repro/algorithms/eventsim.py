"""Shared event-driven machinery for the GREED and RAND baselines.

Both baselines walk the topology-change event times of the trace and, at
each instant, let informed nodes transmit until no transmission would inform
anyone new; they differ only in *which* eligible relay acts next (the
selection function).  The power policy resolves the paper's Section VII
ambiguity (see DESIGN.md):

* ``"cover"`` (default) — the smallest DCS level reaching every currently
  uninformed adjacent node of the relay;
* ``"min"`` — the paper-literal smallest DCS level (``w¹``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Hashable, List, Optional, Set, Tuple

from .. import obs
from ..errors import SolverError
from ..schedule.schedule import Schedule, Transmission
from ..tveg.costsets import discrete_cost_set
from ..tveg.graph import TVEG

__all__ = ["Candidate", "event_times", "run_event_scheduler", "POWER_POLICIES"]

Node = Hashable
POWER_POLICIES = ("cover", "min")

#: (relay, cost, newly-informed nodes) — one possible transmission
Candidate = Tuple[Node, float, Tuple[Node, ...]]
#: picks the next transmission among candidates
Selector = Callable[[List[Candidate]], Candidate]


def event_times(tveg: TVEG, start_time: float, deadline: float) -> List[float]:
    """Topology-change instants in ``[start_time, deadline − τ]``.

    Coverage opportunities change only when some contact begins or ends (or
    when a node becomes informed — which itself happens at such an instant
    under τ = 0), so these are the only times the baselines need to act at.
    The boundaries are :meth:`~repro.temporal.tvg.TVG.adjacency_boundaries`,
    sorted once per TVG version; each run bisects its window out of them.
    """
    end = min(deadline - tveg.tau, tveg.horizon)
    bounds = tveg.tvg.adjacency_boundaries()
    lo = bisect_right(bounds, start_time)
    return [start_time, *bounds[lo:bisect_right(bounds, end)]]


def _candidates(
    tveg: TVEG,
    informed: Set[Node],
    t: float,
    power_policy: str,
) -> List[Candidate]:
    out: List[Candidate] = []
    for r in informed:
        dcs = discrete_cost_set(tveg, r, t)
        if dcs.is_empty:
            continue
        uninformed = [v for v in dcs.neighbors if v not in informed]
        if not uninformed:
            continue
        if power_policy == "cover":
            w = dcs.cost_to_cover(uninformed)
        else:
            w = dcs.costs[0]
        newly = tuple(v for v in dcs.coverage(w) if v not in informed)
        if newly:
            out.append((r, w, newly))
    return out


def run_event_scheduler(
    tveg: TVEG,
    source: Node,
    deadline: float,
    select: Selector,
    power_policy: str = "cover",
    start_time: float = 0.0,
    algorithm: Optional[str] = None,
) -> Tuple[Schedule, Set[Node]]:
    """Run the event-driven baseline; returns (schedule, informed set).

    The schedule may be partial when the instance is infeasible within the
    deadline — callers decide whether that is an error (the experiment
    harness measures the resulting delivery ratio instead).  ``algorithm``
    tags each selection's ledger event with the caller's name.
    """
    if power_policy not in POWER_POLICIES:
        raise SolverError(
            f"unknown power policy {power_policy!r}; choose from {POWER_POLICIES}"
        )
    informed: Set[Node] = {source}
    rows: List[Transmission] = []
    n = tveg.num_nodes
    led = obs.get_ledger()
    recording = led.enabled

    for t in event_times(tveg, start_time, deadline):
        while len(informed) < n:
            cands = _candidates(tveg, informed, t, power_policy)
            if not cands:
                break
            relay, w, newly = select(cands)
            rows.append(Transmission(relay, t, w))
            informed.update(newly)
            if recording:
                led.emit(
                    obs.EV_RELAY_SELECTED, t=t, relay=relay, cost=w,
                    newly_informed=len(newly), candidates=len(cands),
                    algorithm=algorithm,
                )
        if len(informed) == n:
            break
    obs.counter("eventsim.selections", len(rows))
    return Schedule(rows), informed
