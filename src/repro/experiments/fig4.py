"""Figure 4 — delay–energy tradeoff of EEDCB / FR-EEDCB.

Panel (a): normalized energy vs delay constraint for EEDCB (static channel)
with N ∈ {10, 15, 20}.  Panel (b): the same for FR-EEDCB (Rayleigh fading).
The delay constraint sweeps 2000→6000 s in 500 s steps, as in the paper.

Expected shape: energy decreases monotonically (statistically) with the
delay constraint — a looser deadline lets the scheduler wait for cheaper
contacts — and increases with N.
"""

from __future__ import annotations

from typing import Sequence

from ..core.rng import as_generator
from .config import ExperimentConfig, FAST_CONFIG
from .harness import (
    EvalJob,
    default_trace,
    evaluate_many,
    mean_or_nan,
    sample_instance,
    sample_paired_starts,
)
from .reporting import SweepResult, print_sweep

__all__ = ["run_fig4", "DELAYS", "NODE_COUNTS"]

DELAYS = tuple(float(d) for d in range(2000, 6001, 500))
NODE_COUNTS = (10, 15, 20)


def run_fig4(
    channel: str = "static",
    config: ExperimentConfig = FAST_CONFIG,
    delays: Sequence[float] = DELAYS,
    node_counts: Sequence[int] = NODE_COUNTS,
) -> SweepResult:
    """Reproduce Fig. 4(a) (``channel="static"``) or 4(b) (``"rayleigh"``)."""
    algo = "eedcb" if channel == "static" else "fr-eedcb"
    panel = "a" if channel == "static" else "b"
    result = SweepResult(
        title=f"Fig. 4({panel}) — normalized energy vs delay constraint ({algo.upper()})",
        x_label="delay (s)",
    )
    rng = as_generator(config.seed)
    traces = {
        n: default_trace(n, config, int(rng.integers(2**31 - 1)))
        for n in node_counts
    }
    # Pair the window start across the delay sweep: each repetition samples
    # one start feasible at the tightest delay, then every delay extends the
    # same window.  This isolates the delay-constraint effect from
    # window-placement noise (the paper's curves compare like with like).
    starts = {
        n: sample_paired_starts(
            traces[n], config, rng, min(delays), max(delays), config.repetitions
        )
        for n in node_counts
    }
    # Sampling draws from the experiment's random stream, so it stays
    # serial; the (expensive) evaluations are deferred as jobs and run
    # through evaluate_many — parallel across config.workers processes,
    # bit-identical to the serial loop either way.
    jobs, points = [], []
    for delay in delays:
        for n in node_counts:
            for t0 in starts[n]:
                inst = sample_instance(
                    traces[n], config, rng, delay=delay, window_start=t0
                )
                if inst is None:
                    continue
                jobs.append(
                    EvalJob.make(algo, inst, int(rng.integers(2**31 - 1)))
                )
                points.append((delay, n))
    outcomes = evaluate_many(jobs, config)

    energies = {(d, n): [] for d in delays for n in node_counts}
    for point, out in zip(points, outcomes):
        if out is not None:
            energies[point].append(out.normalized_energy)
    for delay in delays:
        result.add_point(
            delay,
            {f"N={n}": mean_or_nan(energies[delay, n]) for n in node_counts},
        )
    return result


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    for ch in ("static", "rayleigh"):
        print_sweep(run_fig4(channel=ch))
