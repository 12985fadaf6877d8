"""Rician fading ED-function (the footnote-1 extension of the paper).

With a line-of-sight component of factor ``K`` (ratio of LOS power to
scattered power) the normalized channel power ``Z = |h|² / E[|h|²]`` follows
a scaled non-central chi-square law with 2 degrees of freedom:
``2(1+K)·Z ~ χ'²(df=2, nc=2K)``.  With mean SNR ``x̄ = w / β · γ_th`` the
outage probability becomes

    φ(w) = P(x̄·Z < γ_th) = F_{χ'²(2, 2K)}( 2(1+K)·β / w )

where ``β = N0·B·γ_th / d^{-α}`` as in the Rayleigh model.  ``K = 0``
recovers the Rayleigh ED-function exactly (verified by the test suite).

``scipy.stats`` is imported by the first :meth:`RicianED.failure` or
:meth:`RicianED.min_cost` call, so planners on the other channels never
load it.
"""

from __future__ import annotations

import math

from ..errors import ChannelModelError
from .base import EDFunction

__all__ = ["RicianED"]


class RicianED(EDFunction):
    """Rician-outage ED-function with scale ``beta`` and K-factor ``k``."""

    __slots__ = ("_beta", "_k")

    def __init__(self, beta: float, k_factor: float) -> None:
        if beta <= 0 or math.isnan(beta):
            raise ChannelModelError(f"beta must be positive, got {beta!r}")
        if k_factor < 0 or math.isnan(k_factor):
            raise ChannelModelError(
                f"Rician K-factor must be >= 0, got {k_factor!r}"
            )
        self._beta = float(beta)
        self._k = float(k_factor)

    @property
    def beta(self) -> float:
        return self._beta

    @property
    def k_factor(self) -> float:
        return self._k

    def failure(self, w: float) -> float:
        self._check_cost(w)
        if w == 0.0:
            return 1.0
        from scipy.stats import ncx2

        arg = 2.0 * (1.0 + self._k) * self._beta / w
        return float(ncx2.cdf(arg, df=2, nc=2.0 * self._k))

    def min_cost(self, target_failure: float) -> float:
        if target_failure >= 1.0:
            return 0.0
        if target_failure <= 0.0:
            return math.inf
        from scipy.stats import ncx2

        q = float(ncx2.ppf(target_failure, df=2, nc=2.0 * self._k))
        if q <= 0.0:
            return math.inf
        return 2.0 * (1.0 + self._k) * self._beta / q

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RicianED(beta={self._beta:g}, K={self._k:g})"
