"""Seeded random-number helpers.

Every stochastic component of the library (trace generators, mobility
models, fading simulator, RAND schedulers) takes a ``seed`` or a
``numpy.random.Generator``; this module centralizes the coercion so results
are reproducible end-to-end from a single integer.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["as_generator", "spawn"]

SeedLike = Union[None, int, np.random.Generator]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh OS-entropy generator; an ``int`` yields a
    deterministic PCG64 stream; an existing generator passes through.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list:
    """Derive ``n`` independent child generators from ``rng``.

    Used to give each Monte-Carlo trial its own stream so trials are
    reproducible independently of execution order.
    """
    return [np.random.default_rng(s) for s in rng.integers(0, 2**63 - 1, size=n)]
