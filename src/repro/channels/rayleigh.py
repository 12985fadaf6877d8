"""Rayleigh fading ED-function (Eq. 5).

With a frequency-flat Rayleigh channel the squared channel coefficient is
exponential with mean ``σ² = w·d^{-α}`` (Eq. 3), so the received SNR is
exponential and the failure (outage) probability is

    φ(w) = 1 − exp(−β / w),     β = N0·B·γ_th / d^{-α}.

The generalized inverse gives the paper's Section VI-B backbone weight:
``φ(w0) = ε  ⟺  w0 = β / ln(1 / (1 − ε))``.
"""

from __future__ import annotations

import math

from ..errors import ChannelModelError
from .base import EDFunction

__all__ = ["RayleighED"]


class RayleighED(EDFunction):
    """Rayleigh-outage ED-function with scale ``beta``."""

    __slots__ = ("_beta",)

    def __init__(self, beta: float) -> None:
        if beta <= 0 or math.isnan(beta):
            raise ChannelModelError(f"beta must be positive, got {beta!r}")
        self._beta = float(beta)

    @property
    def beta(self) -> float:
        """``β = N0·B·γ_th · d^α`` — the outage scale of Eq. (5)."""
        return self._beta

    def failure(self, w: float) -> float:
        self._check_cost(w)
        if w == 0.0:
            return 1.0
        return -math.expm1(-self._beta / w)

    def min_cost(self, target_failure: float) -> float:
        if target_failure >= 1.0:
            return 0.0
        if target_failure <= 0.0:
            return math.inf
        # φ(w) ≤ ε  ⟺  w ≥ β / ln(1/(1−ε))
        return self._beta / math.log(1.0 / (1.0 - target_failure))

    def log_failure(self, w: float) -> float:
        """``log φ(w)`` — numerically stable for the log-domain NLP."""
        if w <= 0.0:
            return 0.0
        return math.log(-math.expm1(-self._beta / w))

    def dlog_failure_dw(self, w: float) -> float:
        """Analytic ``d log φ / dw = −(β/w²)·e^{−β/w} / (1 − e^{−β/w})``."""
        if w <= 0.0:
            return 0.0
        e = math.exp(-self._beta / w)
        denom = -math.expm1(-self._beta / w)
        if denom <= 0.0:
            return 0.0
        return -(self._beta / (w * w)) * e / denom

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RayleighED(beta={self._beta:g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RayleighED):
            return NotImplemented
        return self._beta == other._beta

    def __hash__(self) -> int:
        return hash(("RayleighED", self._beta))
