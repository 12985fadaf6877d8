"""Seeded Monte-Carlo over independent protocol runs.

Same determinism discipline as :func:`repro.sim.run_trials`: every
trial's seed is derived up front with :func:`repro.parallel.derive_seeds`
(the exact integer stream :func:`repro.core.rng.spawn` draws), results
land by global trial index, and a recording obs ledger forces the serial
path so no per-message events are lost in worker processes.  Because the
executor takes an *integer* entropy per trial, serial and parallel runs
are not merely statistically equivalent — trial ``i`` is the same
:class:`~repro.protosim.executor.ProtocolResult` object value for any
worker count, which :func:`run_protocol_trials` exposes directly via
``keep_outcomes`` (the byte-identity tests compare those tuples with
``==``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, List, Optional, Tuple

from .. import obs
from ..core.rng import SeedLike
from ..errors import ReproError
from ..parallel import chunk_indices, derive_seeds, parallel_map, resolve_workers
from ..schedule.schedule import Schedule
from ..tveg.graph import TVEG
from .executor import PlanExecutor, ProtocolConfig, ProtocolResult

__all__ = ["ProtocolSummary", "run_protocol_trials"]

Node = Hashable


@dataclass(frozen=True)
class ProtocolSummary:
    """Aggregated statistics over independent protocol trials."""

    num_trials: int
    num_nodes: int
    mean_delivery: float
    std_delivery: float
    mean_energy: float
    std_energy: float
    mean_data_sent: float
    mean_retransmits: float
    #: per-trial results, trial order (empty unless ``keep_outcomes``)
    outcomes: Tuple[ProtocolResult, ...] = ()

    def delivery_ci95(self) -> Tuple[float, float]:
        """Normal-approximation 95 % confidence interval on delivery."""
        half = 1.96 * self.std_delivery / math.sqrt(max(self.num_trials, 1))
        return (self.mean_delivery - half, self.mean_delivery + half)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProtocolSummary(delivery={self.mean_delivery:.3f}±"
            f"{self.std_delivery:.3f}, energy={self.mean_energy:.4g}, "
            f"retx={self.mean_retransmits:.2f}, trials={self.num_trials})"
        )


def _protocol_chunk(payload) -> List[ProtocolResult]:
    """Worker-process body: run one contiguous block of trials."""
    tveg, schedule, source, deadline, config, seeds, start = payload
    ex = PlanExecutor(tveg, schedule, source, deadline, config)
    return [
        ex.run(seed, trial_id=start + j) for j, seed in enumerate(seeds)
    ]


def _mean_std(values: List[float], n: int) -> Tuple[float, float]:
    mean = sum(values) / n
    if n <= 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def run_protocol_trials(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    deadline: Optional[float] = None,
    num_trials: int = 100,
    seed: SeedLike = None,
    config: Optional[ProtocolConfig] = None,
    workers: Optional[int] = None,
    keep_outcomes: bool = False,
) -> ProtocolSummary:
    """Run ``num_trials`` independent protocol executions and aggregate.

    ``workers > 1`` fans trials out over processes; the summary — and,
    with ``keep_outcomes=True``, every individual
    :class:`~repro.protosim.executor.ProtocolResult` — is identical to
    the serial run for the same ``seed``.  ``num_trials`` below 1 raises
    :class:`~repro.errors.ReproError`.
    """
    if num_trials < 1:
        raise ReproError(f"num_trials must be at least 1, got {num_trials!r}")
    w = resolve_workers(workers)
    if w > 1 and obs.ledger_enabled():
        obs.counter("parallel.ledger_fallback")
        w = 1
    seeds = derive_seeds(seed, num_trials)
    results: List[Optional[ProtocolResult]] = [None] * num_trials
    with obs.span(
        "protosim.run_trials", trials=num_trials,
        transmissions=len(schedule), workers=w,
    ):
        if w > 1 and num_trials > 1:
            payloads = [
                (tveg, schedule, source, deadline, config,
                 seeds[r.start:r.stop], r.start)
                for r in chunk_indices(num_trials, w)
            ]
            i = 0
            for chunk in parallel_map(_protocol_chunk, payloads, workers=w):
                for res in chunk:
                    results[i] = res
                    i += 1
        else:
            ex = PlanExecutor(tveg, schedule, source, deadline, config)
            for i, s in enumerate(seeds):
                results[i] = ex.run(s, trial_id=i)
    obs.counter("protosim.trials", num_trials)

    n = num_trials
    mean_d, std_d = _mean_std([r.delivery_ratio for r in results], n)
    mean_e, std_e = _mean_std([r.energy for r in results], n)
    return ProtocolSummary(
        num_trials=num_trials,
        num_nodes=tveg.num_nodes,
        mean_delivery=mean_d,
        std_delivery=std_d,
        mean_energy=mean_e,
        std_energy=std_e,
        mean_data_sent=sum(r.counts.data_sent for r in results) / n,
        mean_retransmits=sum(r.counts.retransmits for r in results) / n,
        outcomes=tuple(results) if keep_outcomes else (),
    )
