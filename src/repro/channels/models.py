"""Channel models: the ``ψ`` factory mapping link state to ED-functions.

A :class:`ChannelModel` turns a link's physical state (its distance at time
``t``) into the ED-function embedded on that edge (the paper's cost function
``ψ : E × T → F``, Definition 3.2).  Two concrete models reproduce the
paper's evaluation:

* :class:`StaticChannel` → step ED-functions (Eq. 2);
* :class:`RayleighChannel` → Rayleigh ED-functions (Eq. 5);

plus the footnote extensions :class:`RicianChannel` and
:class:`NakagamiChannel`.

Each model also exposes :meth:`ChannelModel.backbone_weight` — the per-link
cost used as the auxiliary-graph edge weight during backbone selection:
the Eq. (2) minimum cost for the static channel, and Section VI-B's
``w0 = β / ln(1/(1−ε))`` for fading channels.  Both are simply
``ed.min_cost(ε')`` with ``ε' = ε`` (fading) or ``ε' = 0⁺`` (static, where
any sub-ε target yields the same threshold).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from ..errors import ChannelModelError
from ..params import PhyParams
from .base import EDFunction
from .nakagami import NakagamiED
from .pathloss import PowerLawPathLoss
from .rayleigh import RayleighED
from .rician import RicianED
from .step import StepED

__all__ = [
    "ChannelModel",
    "StaticChannel",
    "RayleighChannel",
    "RicianChannel",
    "NakagamiChannel",
]

GainModel = Callable[[float], float]


class ChannelModel(ABC):
    """Factory of ED-functions from link distances (Definition 3.2's ψ)."""

    def __init__(self, params: PhyParams, gain_model: GainModel = None) -> None:
        self._params = params
        self._gain = gain_model or PowerLawPathLoss(params.path_loss_exponent)

    @property
    def params(self) -> PhyParams:
        return self._params

    def gain(self, distance: float) -> float:
        return self._gain(distance)

    def beta(self, distance: float) -> float:
        """The common outage scale ``N0·B·γ_th / h(d)``."""
        g = self._gain(distance)
        if g <= 0:
            raise ChannelModelError("gain model returned a non-positive gain")
        return self._params.noise_power * self._params.gamma_th / g

    @abstractmethod
    def ed_from_distance(self, distance: float) -> EDFunction:
        """The ED-function of a present link at distance ``distance``."""

    @property
    @abstractmethod
    def is_fading(self) -> bool:
        """True iff single transmissions can fail at any finite cost."""

    def backbone_weight(self, distance: float) -> float:
        """Per-link cost used for backbone selection (Section VI).

        The smallest cost driving single-hop failure to the acceptable error
        rate ε: the step threshold for static channels, ``w0`` for fading.
        """
        return self.ed_from_distance(distance).min_cost(self._params.epsilon)


class StaticChannel(ChannelModel):
    """Static (non-fading) channel → step ED-functions (Eq. 2)."""

    @property
    def is_fading(self) -> bool:
        return False

    def ed_from_distance(self, distance: float) -> EDFunction:
        return StepED(self._params.static_min_cost(self._gain(distance)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "StaticChannel()"


class RayleighChannel(ChannelModel):
    """Rayleigh fading channel → Rayleigh ED-functions (Eq. 5)."""

    @property
    def is_fading(self) -> bool:
        return True

    def ed_from_distance(self, distance: float) -> EDFunction:
        return RayleighED(self.beta(distance))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "RayleighChannel()"


class RicianChannel(ChannelModel):
    """Rician fading channel with a fixed K-factor (footnote-1 extension)."""

    def __init__(
        self, params: PhyParams, k_factor: float = 3.0, gain_model: GainModel = None
    ) -> None:
        super().__init__(params, gain_model)
        if k_factor < 0:
            raise ChannelModelError("Rician K-factor must be >= 0")
        self._k = float(k_factor)

    @property
    def k_factor(self) -> float:
        return self._k

    @property
    def is_fading(self) -> bool:
        return True

    def ed_from_distance(self, distance: float) -> EDFunction:
        return RicianED(self.beta(distance), self._k)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RicianChannel(K={self._k:g})"


class NakagamiChannel(ChannelModel):
    """Nakagami-m fading channel (footnote-1 extension)."""

    def __init__(
        self, params: PhyParams, m: float = 2.0, gain_model: GainModel = None
    ) -> None:
        super().__init__(params, gain_model)
        if m < 0.5:
            raise ChannelModelError("Nakagami shape must be >= 0.5")
        self._m = float(m)

    @property
    def m(self) -> float:
        return self._m

    @property
    def is_fading(self) -> bool:
        return True

    def ed_from_distance(self, distance: float) -> EDFunction:
        return NakagamiED(self.beta(distance), self._m)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NakagamiChannel(m={self._m:g})"
