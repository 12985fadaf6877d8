"""RAND and FR-RAND baselines (Section VII).

RAND picks a *random* informed node (among those that could inform someone)
as the next relay at each step; FR-RAND reuses the RAND backbone and
recomputes costs with the Section VI-B NLP.  Seeded for reproducibility.
"""

from __future__ import annotations

from typing import List

from ..core.rng import SeedLike, as_generator
from .base import register
from .eventsim import Candidate
from .fr_eedcb import FadingResistant
from .greedy import Greed

__all__ = ["Rand", "FRRand"]


@register("rand")
class Rand(Greed):
    """The random-relay baseline."""

    def __init__(self, power_policy: str = "cover", seed: SeedLike = None):
        super().__init__(power_policy)
        self._rng = as_generator(seed)

    def _select(self, cands: List[Candidate]) -> Candidate:
        return cands[int(self._rng.integers(len(cands)))]


@register("fr-rand")
class FRRand(FadingResistant):
    """RAND backbone + NLP energy allocation (the paper's FR-RAND)."""

    def __init__(self, power_policy: str = "cover", seed: SeedLike = None):
        super().__init__(Rand(power_policy, seed))
