"""Nakagami-m fading ED-function (the footnote-1 extension of the paper).

Under Nakagami-m fading the normalized channel power ``Z`` is Gamma
distributed with shape ``m`` and unit mean, so with mean SNR ``γ_th·w/β``
the outage probability is the regularized lower incomplete gamma function:

    φ(w) = P(m, m·β / w)

``m = 1`` recovers the Rayleigh ED-function exactly (verified in tests);
``m → ∞`` approaches the step function, interpolating between the paper's
two channel regimes.

``scipy.special`` is imported by the first :meth:`NakagamiED.failure` or
:meth:`NakagamiED.min_cost` call, so planners on the other channels never
load it.
"""

from __future__ import annotations

import math

from ..errors import ChannelModelError
from .base import EDFunction

__all__ = ["NakagamiED"]


class NakagamiED(EDFunction):
    """Nakagami-m outage ED-function with scale ``beta`` and shape ``m``."""

    __slots__ = ("_beta", "_m")

    def __init__(self, beta: float, m: float) -> None:
        if beta <= 0 or math.isnan(beta):
            raise ChannelModelError(f"beta must be positive, got {beta!r}")
        if m < 0.5 or math.isnan(m):
            raise ChannelModelError(
                f"Nakagami shape must be >= 0.5, got {m!r}"
            )
        self._beta = float(beta)
        self._m = float(m)

    @property
    def beta(self) -> float:
        return self._beta

    @property
    def m(self) -> float:
        return self._m

    def failure(self, w: float) -> float:
        self._check_cost(w)
        if w == 0.0:
            return 1.0
        from scipy.special import gammainc

        return float(gammainc(self._m, self._m * self._beta / w))

    def min_cost(self, target_failure: float) -> float:
        if target_failure >= 1.0:
            return 0.0
        if target_failure <= 0.0:
            return math.inf
        from scipy.special import gammaincinv

        q = float(gammaincinv(self._m, target_failure))
        if q <= 0.0:
            return math.inf
        return self._m * self._beta / q

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NakagamiED(beta={self._beta:g}, m={self._m:g})"
