"""Reference reduce passes: one full feasibility replay per candidate.

The production passes in :mod:`repro.schedule.reduce` run on a reduce
session that replays only the timestamp groups a candidate changes.  These
are the passes it replaced, kept verbatim as the independent side of the
reduce parity tests, of :func:`tests.conftest.reference_pipeline` and of
``tools/scale_smoke.py``'s dict leg.  Every candidate is re-checked by
:func:`check_feasibility` below, a copy of the production checker's
causal replay that does not share its group-firing function: a full
replay from ``t = 0`` over dicts of every node, conditions (i)–(iii).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Dict, Hashable, List, Optional, Tuple

from repro.schedule.schedule import Schedule, Transmission
from repro.tveg.costsets import discrete_cost_set
from repro.tveg.graph import TVEG

Node = Hashable


def _causal_replay(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    eps: float,
    start_time: float,
):
    """Fire the schedule causally; return (informed times, unfired rows).

    Maintains each node's uninformed probability as the product of failure
    factors of *fired* transmissions only.  Within one timestamp,
    transmissions fire in fixpoint rounds: a relay informed by an
    already-fired same-instant transmission may itself fire (Eq. 6 admits
    ``t_j ≤ t_k``), but mutually dependent pairs never do.
    """
    probs: Dict[Node, float] = {n: 1.0 for n in tveg.nodes}
    informed_at: Dict[Node, float] = {n: math.inf for n in tveg.nodes}
    probs[source] = 0.0
    informed_at[source] = start_time

    def is_informed(node: Node) -> bool:
        return probs[node] <= eps

    # Neighbor sets and failure probabilities are pure functions of the
    # topology, and the reduce passes replay near-identical schedules once
    # per candidate — memoize the lookups on the TVEG (version-checked
    # there; the cached float is exactly the first evaluation's).
    cache_fn = getattr(tveg, "replay_cache", None)
    cache: Dict = cache_fn() if cache_fn is not None else {}

    unfired: List[Transmission] = []
    rows = list(schedule)
    i = 0
    while i < len(rows):
        j = i
        while j < len(rows) and rows[j].time == rows[i].time:
            j += 1
        pending = rows[i:j]
        progress = True
        while pending and progress:
            progress = False
            still = []
            for s in pending:
                if s.time >= start_time and is_informed(s.relay):
                    nkey = ("nbr", s.relay, s.time)
                    nbrs = cache.get(nkey)
                    if nbrs is None:
                        nbrs = tveg.neighbors(s.relay, s.time)
                        cache[nkey] = nbrs
                    for v in nbrs:
                        if v == s.relay:
                            continue
                        if probs[v] > 0.0:
                            fkey = ("fail", s.relay, v, s.time, s.cost)
                            f = cache.get(fkey)
                            if f is None:
                                f = tveg.failure(s.relay, v, s.time, s.cost)
                                cache[fkey] = f
                            probs[v] *= f
                        if probs[v] <= eps and informed_at[v] == math.inf:
                            informed_at[v] = s.time
                    progress = True
                else:
                    still.append(s)
            pending = still
        unfired.extend(pending)
        i = j
    return informed_at, unfired


def check_feasibility(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    deadline: float,
    eps: Optional[float] = None,
    targets: Optional[Tuple[Node, ...]] = None,
) -> SimpleNamespace:
    """Conditions (i)–(iii) of Section IV on the replay above; ``.feasible``
    is the production checker's verdict for a schedule without a budget."""
    e = tveg.params.epsilon if eps is None else eps
    tau = tveg.tau
    informed_at, unfired = _causal_replay(tveg, schedule, source, e, 0.0)
    relays_ok = not unfired
    required = tveg.nodes if targets is None else targets
    all_ok = True
    for node in required:
        informed = informed_at[node]
        if informed == math.inf or not informed <= deadline - tau:
            all_ok = False
    latency_ok = schedule.latency(tau) <= deadline
    return SimpleNamespace(feasible=relays_ok and all_ok and latency_ok)


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
