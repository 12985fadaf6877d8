"""Reference Monte-Carlo simulator: every row's physics per trial.

The production simulator (:mod:`repro.sim.simulator`) builds each fired
row's fan-out (receivers in ``TVEG.neighbors`` order with their failure
factors) once per run and equal-time groups once per schedule, and shares
them across trials.  This is the per-trial simulator it replaced, kept
verbatim as the independent side of the simulator parity tests and of
``tools/protocol_smoke.py``: every trial re-derives each fired row's
neighbours and calls ``tveg.failure`` for every receiver it draws for.
:func:`run_trials` is the serial aggregation of
:func:`repro.sim.run_trials` over it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

import numpy as np

from repro import obs
from repro.core.rng import SeedLike, as_generator, spawn
from repro.schedule.schedule import Schedule
from repro.sim.runner import SimulationSummary
from repro.sim.simulator import TrialOutcome
from repro.tveg.graph import TVEG

Node = Hashable


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
    model — see :mod:`repro.sim.simulator`).  ``trial_id`` tags this trial's ledger
    events (the multi-trial runner passes the trial index).
    """
    if interference not in ("none", "collision"):
        raise ValueError(f"unknown interference model {interference!r}")
    rng = as_generator(seed)
    received: Set[Node] = {source}
    reception: Dict[Node, float] = {source: 0.0}
    energy = 0.0
    fired = 0
    # Hoisted once: per-transmission event emission must cost nothing when
    # the ledger is off (the Monte-Carlo runner calls this in a tight loop).
    led = obs.get_ledger()
    recording = led.enabled

    def fire_round(senders) -> None:
        """Fire a set of simultaneous transmissions (one causal round)."""
        nonlocal energy, fired
        # Who can hear whom this round (collision detection needs counts).
        audiences = {}
        for s in senders:
            energy += s.cost
            fired += 1
            if recording:
                led.emit(
                    obs.EV_ENERGY_DEBITED, t=s.time, relay=s.relay,
                    cost=s.cost, context="sim", trial=trial_id,
                )
            audiences[s] = [
                v for v in tveg.neighbors(s.relay, s.time) if v not in received
            ]
        if interference == "collision":
            heard_by: Dict[Node, int] = {}
            for s, vs in audiences.items():
                for v in vs:
                    heard_by[v] = heard_by.get(v, 0) + 1
        for s, vs in audiences.items():
            for v in vs:
                if v in received:
                    continue  # informed earlier within this round's loop
                if interference == "collision" and heard_by[v] > 1:
                    continue  # simultaneous adjacent senders collide
                p_fail = tveg.failure(s.relay, v, s.time, s.cost)
                if rng.random() >= p_fail:
                    received.add(v)
                    reception[v] = s.time + tveg.tau
                    if recording:
                        led.emit(
                            obs.EV_SIM_RECEPTION, t=s.time + tveg.tau,
                            node=v, relay=s.relay, trial=trial_id,
                        )

    # Group same-time transmissions and resolve them to a causal fixpoint:
    # under the paper's τ ≈ 0 idealization (Eq. 6 admits t_j ≤ t_k) a relay
    # informed at instant t may itself forward at t, so rows at one
    # timestamp fire in information-flow order, not storage order.  All
    # transmissions enabled in the same fixpoint round are simultaneous.
    rows = list(schedule)
    i = 0
    while i < len(rows):
        j = i
        while j < len(rows) and rows[j].time == rows[i].time:
            j += 1
        group = rows[i:j]
        pending = list(group)
        while pending:
            ready = [s for s in pending if s.relay in received]
            if not ready:
                break
            pending = [s for s in pending if s.relay not in received]
            fire_round(ready)
        if count_scheduled_energy:
            energy += sum(s.cost for s in pending)  # silent relays
        i = j

    return TrialOutcome(
        received=frozenset(received),
        energy=energy,
        transmissions=fired,
        reception_times=tuple(sorted(reception.items(), key=lambda kv: kv[1])),
    )


def run_trials(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    num_trials: int = 100,
    seed: SeedLike = None,
    count_scheduled_energy: bool = False,
    interference: str = "none",
) -> SimulationSummary:
    """The serial trial loop and aggregation of :func:`repro.sim.run_trials`
    over :func:`simulate_schedule` above."""
    deliveries = np.empty(num_trials)
    energies = np.empty(num_trials)
    txs = np.empty(num_trials)
    n = tveg.num_nodes
    rng = as_generator(seed)
    children = spawn(rng, num_trials)
    for i, child in enumerate(children):
        out = simulate_schedule(
            tveg, schedule, source, child, count_scheduled_energy,
            interference, trial_id=i,
        )
        deliveries[i] = out.delivery_ratio(n)
        energies[i] = out.energy
        txs[i] = out.transmissions
    return SimulationSummary(
        num_trials=num_trials,
        num_nodes=n,
        mean_delivery=float(deliveries.mean()),
        std_delivery=float(deliveries.std(ddof=1)) if num_trials > 1 else 0.0,
        mean_energy=float(energies.mean()),
        std_energy=float(energies.std(ddof=1)) if num_trials > 1 else 0.0,
        mean_transmissions=float(txs.mean()),
    )
