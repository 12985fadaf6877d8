"""Multi-trial Monte-Carlo runner with seeded child streams.

Aggregates delivery ratio and consumed energy over independent trials; each
trial gets its own child generator so results do not depend on evaluation
order (a property the determinism tests pin down).  That same property is
what makes ``workers > 1`` safe: child seeds are derived up front with the
exact stream :func:`repro.core.rng.spawn` draws, so a parallel run fills
the result arrays with bit-for-bit the numbers the serial loop produces.

All trials of one call share one
:class:`~repro.sim.simulator.ScheduleTrials`, so each row's fan-out (its
receivers and their failure factors) is computed once per call, the first
time the row fires; with ``workers > 1`` each worker chunk computes its
own.  The ``sim.fanouts`` counter adds up the fan-outs computed, next to
``sim.trials``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.rng import SeedLike, as_generator, spawn
from ..errors import ReproError
from ..parallel import chunk_indices, derive_seeds, parallel_map, resolve_workers
from ..schedule.schedule import Schedule
from ..tveg.graph import TVEG
from .simulator import ScheduleTrials

__all__ = ["SimulationSummary", "run_trials"]

Node = Hashable


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregated Monte-Carlo statistics for one schedule."""

    num_trials: int
    num_nodes: int
    mean_delivery: float
    std_delivery: float
    mean_energy: float
    std_energy: float
    mean_transmissions: float

    def delivery_ci95(self) -> Tuple[float, float]:
        """Normal-approximation 95 % confidence interval on delivery."""
        half = 1.96 * self.std_delivery / math.sqrt(max(self.num_trials, 1))
        return (self.mean_delivery - half, self.mean_delivery + half)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationSummary(delivery={self.mean_delivery:.3f}±"
            f"{self.std_delivery:.3f}, energy={self.mean_energy:.4g}, "
            f"trials={self.num_trials})"
        )


def _simulate_chunk(
    payload,
) -> Tuple[List[Tuple[float, float, int]], int]:
    """Worker-process body: simulate one contiguous block of trials.

    Returns each trial's ``(delivery, energy, transmissions)`` and the
    number of fan-outs the block computed.
    """
    (
        tveg, schedule, source, seeds, start,
        count_scheduled_energy, interference, n,
    ) = payload
    trials = ScheduleTrials(
        tveg, schedule, source, count_scheduled_energy, interference
    )
    out = []
    for j, s in enumerate(seeds):
        res = trials.run(np.random.default_rng(s), trial_id=start + j)
        out.append((res.delivery_ratio(n), res.energy, res.transmissions))
    return out, trials.fanouts_built


def run_trials(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    num_trials: int = 100,
    seed: SeedLike = None,
    count_scheduled_energy: bool = False,
    interference: str = "none",
    workers: Optional[int] = None,
) -> SimulationSummary:
    """Run ``num_trials`` independent trials and aggregate the outcomes.

    ``workers > 1`` fans the trials out over that many processes.  Child
    seeds are derived up front (:func:`repro.parallel.derive_seeds` draws
    the exact stream ``spawn`` would), and results land in the arrays by
    global trial index, so the summary is bit-for-bit identical to the
    serial run for the same ``seed``.  When the obs ledger is recording,
    the runner falls back to serial so no per-trial events are lost in
    worker processes.  ``num_trials`` below 1 raises
    :class:`~repro.errors.ReproError`: no trial, no estimate.
    """
    if num_trials < 1:
        raise ReproError(f"num_trials must be at least 1, got {num_trials!r}")
    w = resolve_workers(workers)
    if w > 1 and obs.ledger_enabled():
        obs.counter("parallel.ledger_fallback")
        w = 1
    deliveries = np.empty(num_trials)
    energies = np.empty(num_trials)
    txs = np.empty(num_trials)
    n = tveg.num_nodes
    with obs.span(
        "sim.run_trials", trials=num_trials, transmissions=len(schedule),
        workers=w,
    ):
        if w > 1 and num_trials > 1:
            seeds = derive_seeds(seed, num_trials)
            payloads = [
                (
                    tveg, schedule, source, seeds[r.start:r.stop], r.start,
                    count_scheduled_energy, interference, n,
                )
                for r in chunk_indices(num_trials, w)
            ]
            i = fanouts = 0
            for chunk, built in parallel_map(_simulate_chunk, payloads,
                                             workers=w):
                fanouts += built
                for d, e, t in chunk:
                    deliveries[i] = d
                    energies[i] = e
                    txs[i] = t
                    i += 1
        else:
            trials = ScheduleTrials(
                tveg, schedule, source, count_scheduled_energy, interference
            )
            children = spawn(as_generator(seed), num_trials)
            for i, child in enumerate(children):
                out = trials.run(child, trial_id=i)
                deliveries[i] = out.delivery_ratio(n)
                energies[i] = out.energy
                txs[i] = out.transmissions
            fanouts = trials.fanouts_built
    obs.counter("sim.trials", num_trials)
    obs.counter("sim.fanouts", fanouts)
    return SimulationSummary(
        num_trials=num_trials,
        num_nodes=n,
        mean_delivery=float(deliveries.mean()),
        std_delivery=float(deliveries.std(ddof=1)) if num_trials > 1 else 0.0,
        mean_energy=float(energies.mean()),
        std_energy=float(energies.std(ddof=1)) if num_trials > 1 else 0.0,
        mean_transmissions=float(txs.mean()),
    )
