"""Reference DCS point query: the discrete cost set from adjacency tests.

The production :func:`repro.tveg.costsets.discrete_cost_set` reads a
node's contact components, bisected by time and cached per segment.  This
is the per-(node, time) query it replaced, kept as the independent side of
the DCS property tests (``tests/test_dcs.py``): the node's neighbors at
``t`` through :meth:`~repro.tveg.graph.TVEG.neighbors` (the ``ρ_τ``
predicate, ``IntervalSet.covers``, in incident order), each link's
backbone cost at ``t`` straight from the distance provider and the channel
(no cost cache), then the canonical sort: ascending cost, ties by
``repr(neighbor)``, non-finite costs dropped.
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.tveg.costsets import DiscreteCostSet
from repro.tveg.graph import TVEG

Node = Hashable


def discrete_cost_set(tveg: TVEG, node: Node, t: float) -> DiscreteCostSet:
    """The DCS of ``node`` at ``t``, one adjacency test per incident edge."""
    raw = [
        (tveg.channel.backbone_weight(tveg.distance(node, v, t)), v)
        for v in tveg.neighbors(node, t)
    ]
    raw.sort(key=lambda item: (item[0], repr(item[1])))
    return DiscreteCostSet(
        node=node, time=t,
        entries=tuple((c, v) for c, v in raw if math.isfinite(c)),
    )
