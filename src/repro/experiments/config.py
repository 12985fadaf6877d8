"""Experiment configuration shared by the Fig. 4–7 reproductions.

Defaults mirror Section VII: 20 nodes, 2000 s delay constraint, ~17000 s
experiments, ε = 0.01, α = 2, γ_th = 25.9 dB, N0 = 4.32e−21 W/Hz.  ``fast``
presets shrink repetition counts so the benchmark suite stays responsive;
``full()`` restores paper-scale sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from ..params import PAPER_PARAMS, PhyParams

__all__ = ["ExperimentConfig", "FAST_CONFIG", "FULL_CONFIG"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs common to every figure reproduction."""

    params: PhyParams = PAPER_PARAMS
    #: trace horizon in seconds (the paper's ≈17000 s experiment)
    horizon: float = 17000.0
    #: default delay constraint ``T`` (s)
    delay: float = 2000.0
    #: default network size
    num_nodes: int = 20
    #: repetitions (window + source resamples) per data point
    repetitions: int = 3
    #: Monte-Carlo trials per delivery-ratio estimate
    trials: int = 100
    #: attempts to find a broadcast-feasible (window, source) sample
    max_sample_attempts: int = 25
    #: master seed; every derived stream is spawned from it
    seed: int = 2015  # the paper's year — an arbitrary but memorable default
    #: Monte-Carlo worker processes (1 = serial; -1 = one per CPU); results
    #: are bit-identical for any value (see repro.parallel)
    workers: int = 1

    def with_(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)


#: quick preset used by the benchmark suite and CI
FAST_CONFIG = ExperimentConfig(repetitions=2, trials=40)
#: paper-scale preset
FULL_CONFIG = ExperimentConfig(repetitions=10, trials=300)
