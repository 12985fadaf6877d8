"""Shared experiment machinery: instance sampling and algorithm evaluation.

Every figure reproduction follows the same trace-driven protocol the paper
describes: generate (or load) a contact trace, pick a broadcast window and a
random source from which the broadcast is temporally feasible, build static
and fading TVEGs *sharing the same link geometry*, run each algorithm, and
measure normalized energy (scheduled cost) plus Monte-Carlo delivery ratio
in the execution environment.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..algorithms.base import make_scheduler
from ..parallel import parallel_map, resolve_workers
from ..channels.models import RayleighChannel, StaticChannel
from ..core.rng import SeedLike, as_generator
from ..errors import InfeasibleError
from ..sim.runner import run_trials
from ..temporal.reachability import broadcast_feasible_sources
from ..traces.enrich import DistanceModel
from ..traces.model import ContactTrace
from ..traces.synthetic import HaggleLikeConfig, haggle_like_trace
from ..tveg.graph import TVEG
from .config import ExperimentConfig

__all__ = [
    "Instance",
    "AlgorithmOutcome",
    "EvalJob",
    "default_trace",
    "sample_instance",
    "evaluate_algorithm",
    "evaluate_many",
    "mean_or_nan",
]

Node = Hashable


@dataclass(frozen=True)
class Instance:
    """One sampled broadcast problem: paired TVEGs + source + deadline."""

    static: TVEG
    fading: TVEG
    source: Node
    deadline: float
    window_start: float

    def design_graph(self, channel: str) -> TVEG:
        return self.static if channel == "static" else self.fading


@dataclass(frozen=True)
class AlgorithmOutcome:
    """One algorithm's result on one instance."""

    name: str
    normalized_energy: float
    delivery: float
    num_transmissions: int
    wall_time: float


def default_trace(
    num_nodes: int, config: ExperimentConfig, trace_seed: SeedLike
) -> ContactTrace:
    """The standard Haggle-like trace for a given network size."""
    return haggle_like_trace(
        HaggleLikeConfig(num_nodes=num_nodes, horizon=config.horizon),
        seed=trace_seed,
    )


def sample_instance(
    trace: ContactTrace,
    config: ExperimentConfig,
    rng: np.random.Generator,
    delay: Optional[float] = None,
    window_start: Optional[float] = None,
) -> Optional[Instance]:
    """Sample a feasible (window, source) pair and build paired TVEGs.

    Returns ``None`` when ``max_sample_attempts`` windows yield no source
    that can temporally reach every node within the delay constraint.
    """
    d = config.delay if delay is None else delay
    for _ in range(config.max_sample_attempts):
        if window_start is not None:
            t0 = window_start
        else:
            t0 = float(rng.uniform(0.0, max(trace.horizon - d, 0.0)))
        sub = trace.restrict_window(t0, t0 + d).shift(-t0)
        tvg = sub.to_tvg(horizon=d)
        feasible = broadcast_feasible_sources(tvg, 0.0, d)
        if not feasible:
            if window_start is not None:
                return None  # fixed window cannot be resampled
            continue
        source = sorted(feasible)[int(rng.integers(len(feasible)))]
        dist_seed = int(rng.integers(2**31 - 1))
        provider = DistanceModel().attach(sub, seed=dist_seed)
        static = TVEG(tvg, StaticChannel(config.params), provider)
        fading = TVEG(tvg, RayleighChannel(config.params), provider)
        return Instance(
            static=static,
            fading=fading,
            source=source,
            deadline=d,
            window_start=t0,
        )
    return None


def evaluate_algorithm(
    name: str,
    instance: Instance,
    config: ExperimentConfig,
    sim_seed: SeedLike,
    execution_channel: str = "match",
    **scheduler_kwargs,
) -> Optional[AlgorithmOutcome]:
    """Run one algorithm on one instance and measure both metrics.

    ``execution_channel`` selects the environment the schedule is executed
    in: ``"match"`` uses the channel the algorithm designs for (static for
    EEDCB/GREED/RAND, fading for FR-*), ``"fading"`` forces the Rayleigh
    environment — the paper's Fig. 6 setting where static-channel schedules
    lose packets.  Returns ``None`` when the scheduler proves the instance
    infeasible.
    """
    is_fr = name.startswith("fr-")
    design = instance.fading if is_fr else instance.static
    if execution_channel == "match":
        exec_graph = design
    elif execution_channel == "fading":
        exec_graph = instance.fading
    elif execution_channel == "static":
        exec_graph = instance.static
    else:
        raise ValueError(f"unknown execution channel {execution_channel!r}")

    scheduler = make_scheduler(name, **scheduler_kwargs)
    t0 = time.perf_counter()
    try:
        with obs.span("experiment.schedule", algorithm=name):
            result = scheduler.run(design, instance.source, instance.deadline)
    except InfeasibleError:
        obs.counter("experiment.infeasible")
        return None
    wall = time.perf_counter() - t0

    with obs.span("experiment.simulate", algorithm=name):
        summary = run_trials(
            exec_graph,
            result.schedule,
            instance.source,
            num_trials=config.trials,
            seed=sim_seed,
            count_scheduled_energy=True,
            workers=config.workers,
        )
    obs.counter("experiment.evaluations")
    return AlgorithmOutcome(
        name=name,
        normalized_energy=config.params.normalize_energy(
            result.schedule.total_cost
        ),
        delivery=summary.mean_delivery,
        num_transmissions=len(result.schedule),
        wall_time=wall,
    )


@dataclass(frozen=True)
class EvalJob:
    """One deferred :func:`evaluate_algorithm` call.

    The figure drivers build their job lists *serially* — instance sampling
    and seed derivation consume the experiment's random stream, and the
    stream's draw order is the reproducibility contract — then hand the
    whole list to :func:`evaluate_many` for (optional) parallel execution.
    """

    name: str
    instance: Instance
    sim_seed: int
    execution_channel: str = "match"
    scheduler_kwargs: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def make(
        name: str,
        instance: Instance,
        sim_seed: int,
        execution_channel: str = "match",
        **scheduler_kwargs,
    ) -> "EvalJob":
        return EvalJob(
            name=name,
            instance=instance,
            sim_seed=sim_seed,
            execution_channel=execution_channel,
            scheduler_kwargs=tuple(sorted(scheduler_kwargs.items())),
        )


def _run_eval_job(
    payload: Tuple[EvalJob, ExperimentConfig]
) -> Optional[AlgorithmOutcome]:
    """Module-level so ProcessPoolExecutor can pickle it."""
    job, config = payload
    return evaluate_algorithm(
        job.name, job.instance, config, job.sim_seed,
        job.execution_channel, **dict(job.scheduler_kwargs),
    )


def evaluate_many(
    jobs: Sequence[EvalJob], config: ExperimentConfig
) -> List[Optional[AlgorithmOutcome]]:
    """Evaluate a batch of jobs, across ``config.workers`` processes.

    Results come back in job order, so aggregation is independent of
    completion order, and each job is self-contained (its own sim seed,
    drawn serially by the caller) — together that makes the output
    bit-identical to a serial loop for any worker count.

    ``workers > 1`` moves the parallelism *up* from the Monte-Carlo trials
    inside one evaluation to whole evaluations (scheduling **and**
    simulation overlap across figure points); the inner trial loops then
    run serially so worker processes don't nest pools.  Like
    :func:`repro.sim.runner.run_trials`, a recording ledger forces the
    serial path — events emitted in worker processes would be lost.
    """
    w = resolve_workers(config.workers)
    if w > 1 and obs.ledger_enabled():
        obs.counter("parallel.ledger_fallback")
        w = 1
    inner = config.with_(workers=1) if w > 1 else config
    payloads = [(job, inner) for job in jobs]
    with obs.span("experiment.evaluate_many", jobs=len(jobs), workers=w):
        return parallel_map(_run_eval_job, payloads, workers=w)


def sample_paired_starts(
    trace: ContactTrace,
    config: ExperimentConfig,
    rng: np.random.Generator,
    min_delay: float,
    max_delay: float,
    count: int,
) -> List[float]:
    """Window starts usable across a whole delay sweep.

    Each start is drawn so the *largest* delay's window still fits inside
    the trace horizon, and is kept only if a broadcast-feasible source
    exists at the *smallest* delay — then every delay in the sweep shares
    the same starts, isolating the delay effect from window placement.
    """
    starts: List[float] = []
    hi = max(trace.horizon - max_delay, 0.0)
    for _ in range(count):
        for _ in range(config.max_sample_attempts):
            t0 = float(rng.uniform(0.0, hi))
            inst = sample_instance(
                trace, config, rng, delay=min_delay, window_start=t0
            )
            if inst is not None:
                starts.append(t0)
                break
    return starts


def mean_or_nan(values: Sequence[float]) -> float:
    """Mean of a possibly empty sequence (NaN when empty)."""
    return float(np.mean(values)) if values else math.nan
