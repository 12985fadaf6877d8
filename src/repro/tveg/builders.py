"""One-call TVEG construction from traces and mobility models."""

from __future__ import annotations

from typing import Optional, Union

from ..channels.models import (
    ChannelModel,
    NakagamiChannel,
    RayleighChannel,
    RicianChannel,
    StaticChannel,
)
from ..core.rng import SeedLike
from ..errors import GraphModelError
from ..params import PAPER_PARAMS, PhyParams
from ..traces.enrich import DistanceModel
from ..traces.model import ContactTrace
from .graph import TVEG

__all__ = ["tveg_from_trace", "make_channel"]

_CHANNELS = {
    "static": StaticChannel,
    "rayleigh": RayleighChannel,
    "rician": RicianChannel,
    "nakagami": NakagamiChannel,
}


def make_channel(
    channel: Union[str, ChannelModel],
    params: PhyParams = PAPER_PARAMS,
) -> ChannelModel:
    """Resolve a channel spec (name or instance) to a :class:`ChannelModel`."""
    if isinstance(channel, ChannelModel):
        return channel
    return channel_class(channel)(params)


def channel_class(name: str) -> type:
    """The :class:`ChannelModel` subclass a channel name selects.

    Raises :class:`GraphModelError` for an unknown name.
    """
    try:
        return _CHANNELS[name]
    except KeyError:
        raise GraphModelError(
            f"unknown channel {name!r}; choose from {sorted(_CHANNELS)}"
        ) from None


def tveg_from_trace(
    trace: ContactTrace,
    channel: Union[str, ChannelModel] = "static",
    params: PhyParams = PAPER_PARAMS,
    distance_model: Optional[DistanceModel] = None,
    tau: float = 0.0,
    seed: SeedLike = None,
) -> TVEG:
    """Build a TVEG from a contact trace in one call.

    This is the standard experiment pipeline: trace → TVG (topology),
    :class:`~repro.traces.enrich.DistanceModel` → distances, channel model →
    ED-functions.  The same ``seed`` always yields the same distances, so
    static and fading runs over one trace see identical geometry — the
    paper's Figs. 5/6 comparisons rely on this.

    ``trace`` is a :class:`~repro.traces.model.ContactTrace`, or any
    object with its ``to_tvg`` / ``pair_presence`` surface.
    """
    tvg = trace.to_tvg(tau=tau)
    dm = distance_model or DistanceModel()
    provider = dm.attach(trace, seed=seed)
    return TVEG(tvg, make_channel(channel, params), provider)
