"""Physical-layer and problem parameters.

:class:`PhyParams` bundles the constants of Section VII's evaluation setup so
every model, algorithm, and experiment draws from a single validated source:

* noise power density ``N0 = 4.32e-21 W/Hz``,
* decoding threshold ``γ_th = 25.9 dB`` (stored linear),
* data rate 1 Mbit/s (which fixes the 1 MHz noise bandwidth),
* path-loss exponent ``α = 2``,
* acceptable error rate ``ε = 0.01``,
* transmit-cost bounds ``[w_min, w_max]``.

Derived quantities — noise power, the single-hop decoding energy used to
normalize reported energies, and the closed-form minimum costs for both
channel models — live here too, so the formulas of Eqs. (2) and (5) appear
exactly once in the code base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core.units import db_to_linear
from .errors import ChannelModelError

__all__ = ["PhyParams", "PAPER_PARAMS"]


@dataclass(frozen=True)
class PhyParams:
    """Immutable physical-layer parameter set (paper Section VII defaults).

    Attributes
    ----------
    noise_density:
        Noise power density ``N0`` in W/Hz.
    gamma_th_db:
        Decoding SNR threshold in dB.
    data_rate:
        Data rate in bit/s; the noise bandwidth is taken equal to the rate
        (1 Mbit/s → 1 MHz), the convention of [14].
    path_loss_exponent:
        ``α`` in the ``d^{-α}`` propagation model.
    epsilon:
        Acceptable error rate ``ε``: a node is *informed* once its uninformed
        probability is ≤ ε (Section IV).
    w_min, w_max:
        Bounds of the continuous cost set ``W`` in joules-per-packet
        equivalents (the paper's abstract "cost"); ``w_max = inf`` means
        unbounded.
    """

    noise_density: float = 4.32e-21
    gamma_th_db: float = 25.9
    data_rate: float = 1e6
    path_loss_exponent: float = 2.0
    epsilon: float = 0.01
    w_min: float = 0.0
    w_max: float = math.inf

    def __post_init__(self) -> None:
        if self.noise_density <= 0:
            raise ChannelModelError("noise_density must be positive")
        if self.data_rate <= 0:
            raise ChannelModelError("data_rate must be positive")
        if self.path_loss_exponent <= 0:
            raise ChannelModelError("path_loss_exponent must be positive")
        if not (0 < self.epsilon < 1):
            raise ChannelModelError("epsilon must lie in (0, 1)")
        if self.w_min < 0:
            raise ChannelModelError("w_min must be non-negative")
        if self.w_max <= self.w_min:
            raise ChannelModelError("w_max must exceed w_min")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def gamma_th(self) -> float:
        """Decoding threshold as a linear SNR ratio."""
        return db_to_linear(self.gamma_th_db)

    @property
    def noise_power(self) -> float:
        """Noise power ``N0 × B`` in watts (bandwidth = data rate)."""
        return self.noise_density * self.data_rate

    @property
    def decode_energy(self) -> float:
        """``N0·B·γ_th`` — the unit-gain single-hop decoding cost.

        Reported energies are divided by this to obtain the paper's
        *normalized energy consumption* metric.
        """
        return self.noise_power * self.gamma_th

    # ------------------------------------------------------------------
    # channel-model closed forms (Eqs. 2, 5 and Section VI-B)
    # ------------------------------------------------------------------
    def gain_from_distance(self, distance: float) -> float:
        """Path-loss gain ``d^{-α}`` for a link of length ``distance``."""
        if distance <= 0:
            raise ChannelModelError("distance must be positive")
        return distance ** (-self.path_loss_exponent)

    def static_min_cost(self, gain: float) -> float:
        """Minimum cost for guaranteed decoding on a static channel (Eq. 2).

        ``w = N0·B·γ_th / h`` — the step ED-function's threshold.
        """
        if gain <= 0:
            raise ChannelModelError("channel gain must be positive")
        return self.noise_power * self.gamma_th / gain

    def rayleigh_beta(self, distance: float) -> float:
        """The Rayleigh ED-function scale ``β = N0·B·γ_th / d^{-α}`` (Eq. 5)."""
        return self.noise_power * self.gamma_th / self.gain_from_distance(distance)

    def rayleigh_single_hop_cost(self, distance: float, eps: float = None) -> float:
        """Cost making single-hop Rayleigh failure equal ``eps`` (Sec. VI-B).

        ``w0 = β / ln(1/(1−ε))`` — the backbone edge weight of FR-EEDCB.
        """
        e = self.epsilon if eps is None else eps
        if not (0 < e < 1):
            raise ChannelModelError("eps must lie in (0, 1)")
        return self.rayleigh_beta(distance) / math.log(1.0 / (1.0 - e))

    def normalize_energy(self, energy: float) -> float:
        """Express an absolute energy as the paper's normalized metric."""
        return energy / self.decode_energy

    # ------------------------------------------------------------------
    def with_(self, **changes) -> "PhyParams":
        """A copy with the given fields replaced (dataclass ``replace``)."""
        return replace(self, **changes)


#: The exact parameterization of the paper's evaluation (Section VII).
PAPER_PARAMS = PhyParams()
