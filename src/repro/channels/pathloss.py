"""Radio propagation gain models.

The paper uses the simple power-law path loss ``h = d^{-α}`` (Eq. 3); this
module also provides a log-distance variant with a reference distance, and a
constant-gain model for unit tests.  A gain model is any callable
``gain(distance) -> float`` returning a positive linear power gain.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ChannelModelError

__all__ = ["PowerLawPathLoss", "LogDistancePathLoss", "ConstantGain"]


@dataclass(frozen=True)
class PowerLawPathLoss:
    """``h(d) = d^{-α}`` — the paper's propagation model."""

    exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ChannelModelError("path-loss exponent must be positive")

    def __call__(self, distance: float) -> float:
        if distance <= 0:
            raise ChannelModelError(f"distance must be positive, got {distance!r}")
        return distance ** (-self.exponent)


@dataclass(frozen=True)
class LogDistancePathLoss:
    """``h(d) = g0 · (d0 / d)^α`` — gain ``g0`` at reference distance ``d0``."""

    reference_distance: float = 1.0
    reference_gain: float = 1.0
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.reference_distance <= 0:
            raise ChannelModelError("reference distance must be positive")
        if self.reference_gain <= 0:
            raise ChannelModelError("reference gain must be positive")
        if self.exponent <= 0:
            raise ChannelModelError("path-loss exponent must be positive")

    def __call__(self, distance: float) -> float:
        if distance <= 0:
            raise ChannelModelError(f"distance must be positive, got {distance!r}")
        return self.reference_gain * (self.reference_distance / distance) ** self.exponent


@dataclass(frozen=True)
class ConstantGain:
    """A distance-independent gain — handy for analytic unit tests."""

    gain: float = 1.0

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise ChannelModelError("gain must be positive")

    def __call__(self, distance: float) -> float:
        if distance <= 0:
            raise ChannelModelError(f"distance must be positive, got {distance!r}")
        return self.gain
