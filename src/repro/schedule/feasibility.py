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
experiment harness use to assert scheduler correctness.  Its replay fires
each timestamp group with :func:`fire_group`, the one copy of the firing
rule; the reduce session (:mod:`repro.schedule.reduce`) fires its groups
with the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import GraphModelError, ScheduleError
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


def replay_eps(tveg: TVEG, eps: Optional[float]) -> float:
    """The ε of a check: ``tveg.params.epsilon``, or an explicit ``eps``.

    An explicit ε must lie in (0, 1), as :class:`~repro.params.PhyParams`
    requires of ``epsilon``: at ε ≥ 1 a node that nothing reached
    (``p = 1``) would count as informed, and a NaN ε fails every
    comparison.
    """
    if eps is None:
        return tveg.params.epsilon
    if not 0.0 < eps < 1.0:
        raise ScheduleError(f"eps must lie in (0, 1), got {eps!r}")
    return eps


def node_index(tveg: TVEG, source: Node, targets=()) -> Dict[Node, int]:
    """Each node's position in ``tveg.nodes``, the replay's node index.

    Raises :class:`~repro.errors.GraphModelError` when ``source`` or one
    of ``targets`` is not a node of ``tveg``.
    """
    index = {n: i for i, n in enumerate(tveg.nodes)}
    if source not in index:
        raise GraphModelError(
            f"unknown source {source!r}: not a node of the TVEG"
        )
    for node in targets:
        if node not in index:
            raise GraphModelError(
                f"unknown target {node!r}: not a node of the TVEG"
            )
    return index


def fanout(
    tveg: TVEG, index: Dict[Node, int], cache: Dict,
    relay: Node, t: float, w: float,
) -> Tuple[Tuple[int, float], ...]:
    """A row's ``(receiver index, failure factor)`` pairs, memoized.

    The receivers are ``relay``'s neighbors at ``t`` (itself excluded) in
    :meth:`~repro.tveg.graph.TVEG.neighbors` order, and each factor is
    ``tveg.failure(relay, v, t, w)``.  A neighbor the row misses for sure
    (factor 1.0) is left out: multiplying by 1.0 changes no probability,
    and a node at or below ε is already marked informed (ε < 1), so the
    firing rule would do nothing with it.  Both are pure functions of the
    topology, so ``cache`` (:meth:`~repro.tveg.graph.TVEG.replay_cache`)
    keeps one tuple per distinct ``(relay, t, w)``, shared by every check
    and reduce candidate on the TVEG.
    """
    key = ("fan", relay, t, w)
    fan = cache.get(key)
    if fan is None:
        pairs = (
            (index[v], tveg.failure(relay, v, t, w))
            for v in tveg.neighbors(relay, t)
            if v != relay
        )
        fan = tuple((v, f) for v, f in pairs if f != 1.0)
        cache[key] = fan
    return fan


def time_groups(rows: Sequence[Transmission]) -> Iterator[range]:
    """The positions of each run of equal-time rows of a time-sorted
    schedule, in order: the groups the replay fires one at a time."""
    i = 0
    while i < len(rows):
        j = i + 1
        while j < len(rows) and rows[j].time == rows[i].time:
            j += 1
        yield range(i, j)
        i = j


def fire_group(
    units: Sequence[Tuple[int, Tuple[Tuple[int, float], ...]]],
    probs,
    eps: float,
    informed: Optional[List[float]] = None,
    t: float = 0.0,
) -> List[int]:
    """Fire one equal-time group of rows causally; the firing rule.

    ``units`` holds the group's rows in schedule order as ``(relay index,
    fanout)`` pairs, and ``probs`` maps a node index to its uninformed
    probability (a list over every node, or a dict over the nodes the
    group touches); it is updated in place.  Rows fire in fixpoint
    rounds: a relay informed by an already-fired same-instant row may
    itself fire (Eq. 6 admits ``t_j ≤ t_k``), but mutually dependent
    rows never do.  A fired row multiplies each receiver's probability
    by its failure factor, in fan-out order.  When ``informed`` is given,
    a receiver whose probability is at or below ε and whose entry is
    still ``inf`` is marked informed at ``t``.  Returns the positions
    (into ``units``) of the rows that never fire.
    """
    pending = list(range(len(units)))
    progress = True
    while pending and progress:
        progress = False
        still = []
        for i in pending:
            relay, fan = units[i]
            if probs[relay] <= eps:
                for v, f in fan:
                    if probs[v] > 0.0:
                        probs[v] *= f
                    if (informed is not None and probs[v] <= eps
                            and informed[v] == math.inf):
                        informed[v] = t
                progress = True
            else:
                still.append(i)
        pending = still
    return pending


def _causal_replay(
    tveg: TVEG,
    schedule: Schedule,
    index: Dict[Node, int],
    source: Node,
    eps: float,
    start_time: float,
):
    """Fire the schedule causally; return (informed times, unfired rows).

    Maintains each node's uninformed probability as the product of failure
    factors of *fired* transmissions only, one :func:`fire_group` per
    timestamp.  Rows before ``start_time`` never fire.  The informed times
    are a list in ``tveg.nodes`` order.
    """
    probs = [1.0] * len(index)
    informed = [math.inf] * len(index)
    probs[index[source]] = 0.0
    informed[index[source]] = start_time
    cache = tveg.replay_cache()

    unfired: List[Transmission] = []
    rows = list(schedule)
    for positions in time_groups(rows):
        group = [rows[k] for k in positions]
        t = group[0].time
        if t < start_time:
            unfired.extend(group)
            continue
        units = [
            (index[s.relay],
             fanout(tveg, index, cache, s.relay, s.time, s.cost))
            for s in group
        ]
        left = fire_group(units, probs, eps, informed, t)
        unfired.extend(group[k] for k in left)
    return informed, unfired


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
    See the module docstring for the causal same-instant semantics.  An
    explicit ``eps`` outside (0, 1) (or NaN) raises
    :class:`~repro.errors.ScheduleError`; a ``source`` or target that is
    not a node of ``tveg`` raises :class:`~repro.errors.GraphModelError`.

    ``record`` names this check on the event ledger (e.g. ``"final"``):
    per-node ε-crossing times and every violation are then emitted as
    domain events.  The default ``None`` stays silent: only the
    authoritative end-of-pipeline check should land in the ledger.  The
    cheap ``feasibility.checks`` / ``feasibility.failed`` counters are
    bumped either way, once per call; the reduce passes' candidates do
    not call this checker (:mod:`repro.schedule.reduce`).
    """
    e = replay_eps(tveg, eps)
    required = tveg.nodes if targets is None else tuple(targets)
    index = node_index(tveg, source, () if targets is None else required)
    tau = tveg.tau
    violations: List[str] = []

    with obs.span("feasibility.check", rows=len(schedule)):
        informed_at, unfired = _causal_replay(
            tveg, schedule, index, source, e, start_time
        )

        # (i) every relay informed when it transmits (causally)
        relays_ok = not unfired
        for s in unfired:
            violations.append(
                f"relay {s.relay!r} uninformed at its transmission time "
                f"{s.time:g} (no causal firing order exists)"
            )

        # (ii) every target informed by T − τ (all nodes in the broadcast case)
        all_ok = True
        for node in required:
            # A never-informed node (inf) fails whatever T is, even
            # T = inf; ``not <=`` also fails a NaN T.
            informed = informed_at[index[node]]
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
        informed_times=tuple(
            sorted(zip(tveg.nodes, informed_at), key=lambda kv: repr(kv[0]))
        ),
    )
    obs.counter("feasibility.checks")
    if not report.feasible:
        obs.counter("feasibility.failed")
    if record is not None:
        _record_report(tveg, report, unfired, budget, deadline, record,
                       required, e)
    return report


def _record_report(
    tveg: TVEG,
    report: FeasibilityReport,
    unfired: List[Transmission],
    budget: Optional[float],
    deadline: float,
    label: str,
    required,
    eps: float,
) -> None:
    """Emit one feasibility evaluation as typed ledger events; each
    ``node_informed`` event carries ``eps``, the ε the check ran with."""
    led = obs.get_ledger()
    if not led.enabled:
        return
    for node, t in report.informed_times:
        if math.isfinite(t):
            led.emit(
                obs.EV_NODE_INFORMED, t=t, node=node, check=label, eps=eps,
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
