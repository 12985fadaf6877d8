"""Evaluation metrics (Section VII).

* **Normalized energy consumption** — total energy divided by the unit-gain
  decoding energy ``N0·B·γ_th`` (the paper normalizes "by the decoding
  threshold" following [14]).
* **Packet delivery ratio** — fraction of nodes that received the packet.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..params import PhyParams
from ..schedule.schedule import Schedule
from .simulator import TrialOutcome

__all__ = ["normalized_energy", "schedule_normalized_energy", "delivery_ratio"]


def normalized_energy(energy: float, params: PhyParams) -> float:
    """Absolute energy → the paper's normalized energy metric."""
    return params.normalize_energy(energy)


def schedule_normalized_energy(schedule: Schedule, params: PhyParams) -> float:
    """Normalized scheduled cost ``Σ w_k / (N0·B·γ_th)``."""
    return params.normalize_energy(schedule.total_cost)


def delivery_ratio(outcomes: Sequence[TrialOutcome], num_nodes: int) -> float:
    """Mean delivery ratio over Monte-Carlo trials."""
    if not outcomes:
        return 0.0
    return float(np.mean([o.delivery_ratio(num_nodes) for o in outcomes]))
