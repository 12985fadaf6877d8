"""The four TMEDB feasibility conditions (Section IV, decision version).

A schedule ``S`` is *feasible* for instance ``(TVEG, v_s, T, C, ε)`` iff:

(i)   every relay is informed by the time it forwards:
      ``p_{r_k, t_k} ≤ ε`` for all rows;
(ii)  every node is eventually informed in time:
      ``∃ t ≤ T − τ`` with ``p_{i,t} ≤ ε`` for all ``v_i``;
(iii) broadcast latency is bounded: ``max_k t_k + τ ≤ T``;
(iv)  the budget holds: ``Σ_k w_k ≤ C`` (only checked when a budget is
      given — the optimization version minimizes this quantity instead).

**Causal semantics.**  Eq. (6) taken literally admits a τ ≈ 0 artifact:
two relays transmitting at the same instant could each count the *other's*
transmission as what informed them — a cycle no physical execution can
realize (and the Monte-Carlo simulator rightly refuses).  This checker
therefore *replays* the schedule causally: transmissions at one timestamp
fire in information-flow order (a fixpoint, so same-instant chains are
fine), and only transmissions whose relay is already informed contribute to
anyone's probability.  For any cycle-free schedule the causal and literal
probabilities coincide, so this is a strict refinement, never a relaxation,
of the paper's conditions.

:func:`check_feasibility` evaluates all four and returns a structured
:class:`FeasibilityReport` naming every violation, which the tests and the
experiment harness use to assert scheduler correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from .. import obs
from ..tveg.graph import TVEG
from .schedule import Schedule, Transmission

__all__ = ["FeasibilityReport", "check_feasibility"]

Node = Hashable


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the four-condition feasibility check."""

    relays_informed: bool            # condition (i)
    all_informed: bool               # condition (ii)
    latency_ok: bool                 # condition (iii)
    budget_ok: bool                  # condition (iv) — True when no budget
    violations: Tuple[str, ...] = field(default=())
    #: per-node informed times (inf = never informed)
    informed_times: Tuple[Tuple[Node, float], ...] = field(default=())

    @property
    def feasible(self) -> bool:
        return (
            self.relays_informed
            and self.all_informed
            and self.latency_ok
            and self.budget_ok
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.feasible:
            return "FeasibilityReport(feasible)"
        return "FeasibilityReport(infeasible: " + "; ".join(self.violations) + ")"


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
    budget: Optional[float] = None,
    eps: Optional[float] = None,
    start_time: float = 0.0,
    targets: Optional[Tuple[Node, ...]] = None,
    record: Optional[str] = None,
) -> FeasibilityReport:
    """Evaluate conditions (i)–(iv) for ``schedule`` on ``tveg``.

    ``deadline`` is the absolute time ``T`` (not a duration); ``start_time``
    is when the source acquires the packet.  ``targets`` restricts condition
    (ii) to a multicast terminal set (default: every node — broadcast).
    See the module docstring for the causal same-instant semantics.

    ``record`` names this check on the event ledger (e.g. ``"final"``):
    per-node ε-crossing times and every violation are then emitted as
    domain events.  The default ``None`` stays silent — the reduce passes
    call this checker in tight candidate loops, and only the authoritative
    end-of-pipeline check should land in the ledger.  The cheap
    ``feasibility.checks`` / ``feasibility.failed`` counters are bumped
    either way.
    """
    e = tveg.params.epsilon if eps is None else eps
    tau = tveg.tau
    violations: List[str] = []

    with obs.span("feasibility.check", rows=len(schedule)):
        informed_at, unfired = _causal_replay(
            tveg, schedule, source, e, start_time
        )

        # (i) every relay informed when it transmits (causally)
        relays_ok = not unfired
        for s in unfired:
            violations.append(
                f"relay {s.relay!r} uninformed at its transmission time "
                f"{s.time:g} (no causal firing order exists)"
            )

        # (ii) every target informed by T − τ (all nodes in the broadcast case)
        required = tveg.nodes if targets is None else targets
        all_ok = True
        for node in required:
            # A never-informed node (inf) fails whatever T is, even
            # T = inf; ``not <=`` also fails a NaN T.
            informed = informed_at[node]
            if informed == math.inf or not informed <= deadline - tau:
                all_ok = False
                violations.append(
                    f"node {node!r} not informed by T−τ={deadline - tau:g} "
                    f"(informed at {informed:g})"
                )

        # (iii) latency bound
        latency_ok = schedule.latency(tau) <= deadline
        if not latency_ok:
            violations.append(
                f"latency {schedule.latency(tau):g} exceeds deadline {deadline:g}"
            )

        # (iv) budget — over the full scheduled cost, fired or not
        budget_ok = True
        if budget is not None and schedule.total_cost > budget:
            budget_ok = False
            violations.append(
                f"total cost {schedule.total_cost:.4g} exceeds budget {budget:.4g}"
            )

    report = FeasibilityReport(
        relays_informed=relays_ok,
        all_informed=all_ok,
        latency_ok=latency_ok,
        budget_ok=budget_ok,
        violations=tuple(violations),
        informed_times=tuple(sorted(informed_at.items(), key=lambda kv: repr(kv[0]))),
    )
    obs.counter("feasibility.checks")
    if not report.feasible:
        obs.counter("feasibility.failed")
    if record is not None:
        _record_report(tveg, report, unfired, budget, deadline, record, required)
    return report


def _record_report(
    tveg: TVEG,
    report: FeasibilityReport,
    unfired: List[Transmission],
    budget: Optional[float],
    deadline: float,
    label: str,
    required,
) -> None:
    """Emit one feasibility evaluation as typed ledger events."""
    led = obs.get_ledger()
    if not led.enabled:
        return
    for node, t in report.informed_times:
        if math.isfinite(t):
            led.emit(
                obs.EV_NODE_INFORMED, t=t, node=node, check=label,
                eps=tveg.params.epsilon,
            )
    for s in unfired:
        led.emit(
            obs.EV_CONSTRAINT_VIOLATED, t=s.time, constraint="relay_informed",
            relay=s.relay, check=label,
            detail=f"relay {s.relay!r} uninformed at its transmission time",
        )
    if not report.all_informed:
        required_set = set(required)
        for node, t in report.informed_times:
            if node in required_set and t > deadline - tveg.tau:
                led.emit(
                    obs.EV_CONSTRAINT_VIOLATED, constraint="all_informed",
                    node=node, check=label,
                    detail=f"node {node!r} not informed by T−τ",
                )
    if not report.latency_ok:
        led.emit(
            obs.EV_CONSTRAINT_VIOLATED, constraint="latency", check=label,
            detail=f"latency exceeds deadline {deadline:g}",
        )
    if not report.budget_ok:
        led.emit(
            obs.EV_CONSTRAINT_VIOLATED, constraint="budget", check=label,
            budget=budget, detail="total cost exceeds budget",
        )
    led.emit(
        obs.EV_FEASIBILITY_CHECKED,
        feasible=report.feasible,
        num_violations=len(report.violations),
        check=label,
    )
