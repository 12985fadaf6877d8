"""Schedule reduction: drop redundant transmissions, lower excess costs.

Steiner-tree extraction can leave artifacts: when two cost levels of the
same (relay, time) are merged to the higher one, transmissions grafted for
receivers the merged level now covers become pure waste.  Both passes here
only ever *remove* energy and re-verify the full Section IV feasibility
conditions after every candidate change, so they are safe for any channel
model:

* :func:`remove_redundant` — try deleting each transmission, most expensive
  first; keep deletions that preserve feasibility.
* :func:`lower_costs` — try rounding each transmission down to lower DCS
  levels (static-channel semantics: coverage shrinks level by level).
"""

from __future__ import annotations

from typing import Hashable, Optional

from ..tveg.costsets import discrete_cost_set
from ..tveg.graph import TVEG
from .feasibility import check_feasibility
from .schedule import Schedule

__all__ = ["remove_redundant", "lower_costs", "upgrade_and_prune"]

Node = Hashable


def remove_redundant(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    deadline: float,
    eps: Optional[float] = None,
    targets=None,
) -> Schedule:
    """Greedily delete transmissions whose removal keeps the schedule
    feasible, trying the most expensive ones first.

    If the input schedule is itself infeasible it is returned unchanged —
    reduction is defined relative to a feasible baseline.
    """
    if not check_feasibility(tveg, schedule, source, deadline, eps=eps, targets=targets).feasible:
        return schedule
    current = list(schedule.transmissions)
    # Most expensive first: dropping a big transmission saves the most and
    # is most often enabled by the level-merge artifact.
    order = sorted(range(len(current)), key=lambda i: -current[i].cost)
    removed = set()
    for i in order:
        trial = Schedule(
            s for j, s in enumerate(current) if j != i and j not in removed
        )
        if check_feasibility(tveg, trial, source, deadline, eps=eps, targets=targets).feasible:
            removed.add(i)
    if not removed:
        return schedule
    return Schedule(s for j, s in enumerate(current) if j not in removed)


def upgrade_and_prune(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    deadline: float,
    eps: Optional[float] = None,
    max_rounds: int = 3,
    targets=None,
) -> Schedule:
    """Local search: raise one transmission's DCS level, drop what becomes
    redundant, keep the move iff total cost falls.

    This repairs the characteristic weakness of path-based Steiner
    heuristics on broadcast instances: paying two medium transmissions where
    one higher level (the wireless multicast advantage) covers both.  Each
    accepted move strictly decreases cost, so the search terminates; rounds
    are bounded for predictable runtime.
    """
    if not check_feasibility(tveg, schedule, source, deadline, eps=eps, targets=targets).feasible:
        return schedule
    current = schedule
    for _ in range(max_rounds):
        improved = False
        for i, s in enumerate(current.transmissions):
            dcs = discrete_cost_set(tveg, s.relay, s.time)
            if dcs.is_empty:
                continue
            for level in (c for c in dcs.costs if c > s.cost):
                rows = list(current.transmissions)
                rows[i] = s.with_cost(level)
                trial = remove_redundant(
                    tveg, Schedule(rows), source, deadline, eps=eps,
                    targets=targets,
                )
                if trial.total_cost < current.total_cost * (1 - 1e-12):
                    current = trial
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return current


def lower_costs(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    deadline: float,
    eps: Optional[float] = None,
    targets=None,
) -> Schedule:
    """Round each transmission down to the lowest DCS level that keeps the
    schedule feasible (Property 6.1(ii) in reverse, re-verified per step)."""
    if not check_feasibility(tveg, schedule, source, deadline, eps=eps, targets=targets).feasible:
        return schedule
    rows = list(schedule.transmissions)
    for i, s in enumerate(rows):
        dcs = discrete_cost_set(tveg, s.relay, s.time)
        if dcs.is_empty:
            continue
        # Candidate levels strictly below the current cost, cheapest first.
        for level in [c for c in dcs.costs if c < s.cost]:
            trial_rows = list(rows)
            trial_rows[i] = s.with_cost(level)
            trial = Schedule(trial_rows)
            if check_feasibility(tveg, trial, source, deadline, eps=eps, targets=targets).feasible:
                rows = trial_rows
                break
    return Schedule(rows)
