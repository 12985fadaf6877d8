"""Monte-Carlo execution of broadcast schedules on a TVEG.

The analytic feasibility machinery (Eq. 6) computes *probabilities*; this
simulator samples *outcomes*: each scheduled transmission actually happens
only if its relay has truly received the packet by then, and each adjacent
receiver independently decodes with probability ``1 − φ(w)``.  Running a
schedule designed for the static channel on a fading TVEG is exactly the
paper's Fig. 6 experiment — the static trio's packets are lost on links
whose instantaneous fade exceeds the deterministic margin.

Energy accounting: only transmissions that actually occur consume energy
(an uninformed relay stays silent).  ``count_scheduled_energy`` switches to
the scheduled total instead, for comparing against analytic costs.

**Interference** (the paper's second future-work item, Section VIII): with
``interference="collision"`` transmissions firing in the same causal round
of one timestamp are simultaneous, and a receiver adjacent to two or more
of them decodes nothing that round — the classic protocol-model collision.
The default ``"none"`` reproduces the paper's interference-free analysis.

**What a trial shares with the others.**  A row's *fan-out* — the relay's
neighbours at ``t`` in :meth:`~repro.tveg.graph.TVEG.neighbors` order,
each paired with ``tveg.failure(relay, v, t, w)`` — and the schedule's
equal-time groups are the same in every trial, so :class:`ScheduleTrials`
computes each once: the groups when it is made, a row's fan-out the first
time the row fires in any of its trials.  Only the draws differ between
trials.  A fan-out keeps the receivers the row misses for sure (factor
1.0): each still consumes one ``rng.random()`` draw when it is drawn for,
so leaving it out (as the feasibility replay's fan-outs do) would shift
every later draw of the trial.  The memo lives as long as the
:class:`ScheduleTrials` (one :func:`~repro.sim.runner.run_trials` call, or
one worker chunk of it), not on the TVEG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from .. import obs
from ..core.rng import SeedLike, as_generator
from ..schedule.feasibility import time_groups
from ..schedule.schedule import Schedule
from ..tveg.graph import TVEG

__all__ = ["TrialOutcome", "simulate_schedule"]

Node = Hashable
#: a row's receivers, each with its failure factor, in ``neighbors`` order
Fanout = Tuple[Tuple[Node, float], ...]


@dataclass(frozen=True)
class TrialOutcome:
    """One Monte-Carlo trial of a schedule."""

    #: nodes that actually received the packet (includes the source)
    received: FrozenSet[Node]
    #: energy actually radiated (silent relays excluded)
    energy: float
    #: number of transmissions that actually happened
    transmissions: int
    #: per-node reception time (absent = never received)
    reception_times: Tuple[Tuple[Node, float], ...]

    def delivery_ratio(self, num_nodes: int) -> float:
        """Fraction of all nodes that received the packet."""
        return len(self.received) / num_nodes


class ScheduleTrials:
    """The trials of one schedule from one source, sharing per-row physics.

    Holds the schedule's equal-time groups and a lazily filled fan-out per
    row (see the module docstring); :meth:`run` executes one trial.
    ``interference``: ``"none"`` (paper model) or ``"collision"``
    (protocol model).  :attr:`fanouts_built` counts the fan-outs computed
    so far, at most one per row.
    """

    def __init__(
        self,
        tveg: TVEG,
        schedule: Schedule,
        source: Node,
        count_scheduled_energy: bool = False,
        interference: str = "none",
    ) -> None:
        if interference not in ("none", "collision"):
            raise ValueError(f"unknown interference model {interference!r}")
        self._tveg = tveg
        self._rows = schedule.transmissions
        self._groups = list(time_groups(self._rows))
        self._fanouts: List[Optional[Fanout]] = [None] * len(self._rows)
        self._source = source
        self._count_scheduled = count_scheduled_energy
        self._collision = interference == "collision"
        self.fanouts_built = 0

    def _fanout(self, k: int) -> Fanout:
        """Row ``k``'s fan-out, computed on its first firing."""
        fan = self._fanouts[k]
        if fan is None:
            tveg = self._tveg
            s = self._rows[k]
            fan = tuple(
                (v, tveg.failure(s.relay, v, s.time, s.cost))
                for v in tveg.neighbors(s.relay, s.time)
            )
            self._fanouts[k] = fan
            self.fanouts_built += 1
        return fan

    def run(self, seed: SeedLike = None,
            trial_id: Optional[int] = None) -> TrialOutcome:
        """Execute one randomized trial; ``trial_id`` tags its ledger
        events (the multi-trial runner passes the trial index)."""
        rng = as_generator(seed)
        rows = self._rows
        tau = self._tveg.tau
        collision = self._collision
        received: Set[Node] = {self._source}
        reception: Dict[Node, float] = {self._source: 0.0}
        energy = 0.0
        fired = 0
        # Hoisted once: per-transmission event emission must cost nothing
        # when the ledger is off (the runner calls this in a tight loop).
        led = obs.get_ledger()
        recording = led.enabled

        # Same-time rows resolve to a causal fixpoint: under the paper's
        # τ ≈ 0 idealization (Eq. 6 admits t_j ≤ t_k) a relay informed at
        # instant t may itself forward at t, so rows at one timestamp fire
        # in information-flow order, not storage order.  All rows enabled
        # in the same fixpoint round are simultaneous: one causal round.
        for group in self._groups:
            pending = list(group)
            while pending:
                ready = [k for k in pending if rows[k].relay in received]
                if not ready:
                    break
                pending = [k for k in pending if rows[k].relay not in received]
                # Who can hear whom this round (collision detection needs
                # counts).  Keyed by row value, so equal rows in one round
                # share one audience.
                audiences = {}
                for k in ready:
                    s = rows[k]
                    energy += s.cost
                    fired += 1
                    if recording:
                        led.emit(
                            obs.EV_ENERGY_DEBITED, t=s.time, relay=s.relay,
                            cost=s.cost, context="sim", trial=trial_id,
                        )
                    audiences[s] = [
                        vf for vf in self._fanout(k) if vf[0] not in received
                    ]
                if collision:
                    heard_by: Dict[Node, int] = {}
                    for vs in audiences.values():
                        for v, _ in vs:
                            heard_by[v] = heard_by.get(v, 0) + 1
                for s, vs in audiences.items():
                    for v, p_fail in vs:
                        if v in received:
                            continue  # informed earlier within this round
                        if collision and heard_by[v] > 1:
                            continue  # simultaneous adjacent senders collide
                        if rng.random() >= p_fail:
                            received.add(v)
                            reception[v] = s.time + tau
                            if recording:
                                led.emit(
                                    obs.EV_SIM_RECEPTION, t=s.time + tau,
                                    node=v, relay=s.relay, trial=trial_id,
                                )
            if self._count_scheduled:
                energy += sum(rows[k].cost for k in pending)  # silent relays

        return TrialOutcome(
            received=frozenset(received),
            energy=energy,
            transmissions=fired,
            reception_times=tuple(
                sorted(reception.items(), key=lambda kv: kv[1])
            ),
        )


def simulate_schedule(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    seed: SeedLike = None,
    count_scheduled_energy: bool = False,
    interference: str = "none",
    trial_id: Optional[int] = None,
) -> TrialOutcome:
    """Execute one randomized trial of ``schedule`` on ``tveg``.

    ``interference``: ``"none"`` (paper model) or ``"collision"`` (protocol
    model — see module docstring).  ``trial_id`` tags this trial's ledger
    events (the multi-trial runner passes the trial index).  Runs one
    trial of a fresh :class:`ScheduleTrials`; repeated trials of one
    schedule should share one (as :func:`~repro.sim.runner.run_trials`
    does).
    """
    trials = ScheduleTrials(
        tveg, schedule, source, count_scheduled_energy, interference
    )
    return trials.run(seed, trial_id)
