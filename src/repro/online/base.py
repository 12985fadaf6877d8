"""Online forwarding protocols: the non-clairvoyant counterpart.

The paper's schedulers are *offline*: they see the whole TVEG (all future
contacts) and optimize globally.  Real opportunistic networks run *online*
protocols — at each contact the nodes decide, with no knowledge of future
contacts, whether to hand the packet over.  This subpackage implements the
classic protocols of the literature the paper's trace citation ([12],
"Impact of human mobility on opportunistic forwarding algorithms")
evaluates, so the offline optimum can be put in context:

* how much energy does clairvoyance save (EEDCB vs epidemic)?
* how much delivery does thrift cost (spray-and-wait vs epidemic)?

A protocol is a policy object: at each contact between a carrier and a
non-carrier it returns a :class:`ForwardDecision` (whether to transmit and
at which cost); the engine in :mod:`repro.online.engine` handles time,
channel randomness, and bookkeeping.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Hashable, Optional

__all__ = ["ForwardDecision", "NodeView", "OnlineProtocol"]

Node = Hashable


@dataclass(frozen=True)
class ForwardDecision:
    """What a carrier does at one contact opportunity."""

    transmit: bool
    #: transmit cost; None = the link's single-hop cost for the channel
    #: (static minimum / fading w0) chosen by the engine
    cost: Optional[float] = None
    #: copy tokens handed to the receiver on success (spray protocols);
    #: None = unlimited replication (epidemic semantics)
    tokens_given: Optional[int] = None


@dataclass
class NodeView:
    """What a node is allowed to know when deciding — no future contacts.

    ``tokens`` is the replication budget the node carries (None =
    unlimited); ``received_at`` is when it got its copy; ``forwards`` counts
    its own successful handovers so far.
    """

    node: Node
    received_at: float
    tokens: Optional[int] = None
    forwards: int = 0


class OnlineProtocol(ABC):
    """Decision policy for contact-by-contact forwarding."""

    name: str = "abstract"

    @abstractmethod
    def on_contact(
        self,
        carrier: NodeView,
        other: Node,
        time: float,
        rng,
    ) -> ForwardDecision:
        """Decide whether ``carrier`` forwards to ``other`` at ``time``.

        Called once per (contact, direction) where exactly the carrier side
        holds the packet.  ``rng`` is the trial's random stream — protocols
        must draw randomness only from it (reproducibility).
        """

    def initial_tokens(self) -> Optional[int]:
        """Replication budget installed at the source (None = unlimited)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
