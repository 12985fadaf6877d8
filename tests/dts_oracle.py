"""Reference DTS construction: the sweep-based build of Definition 5.2.

The production :func:`repro.dts.build_dts` computes every node's points as
one membership mask over a shared grid.  This is the construction it
replaced, kept as the independent side of the DTS parity tests, of
:func:`tests.conftest.reference_pipeline` and of ``tools/scale_smoke.py``'s
dict leg: it builds every node's adjacent partition (Eq. 9) and the status
points, merges them per node, and prunes each node's candidates with a
forward :class:`~repro.temporal.sweep.NodeSweep` over its contact
boundaries.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.core.partitions import Partition
from repro.dts import DiscreteTimeSet, all_adjacent_partitions, status_points
from repro.temporal.tvg import TVG

Node = Hashable


def dts_points(
    tvg: TVG,
    deadline: Optional[float] = None,
    prune: bool = True,
    max_depth: Optional[int] = None,
) -> Dict[Node, Tuple[float, ...]]:
    """Every node's DTS points over ``[0, deadline]``, as python floats."""
    end = tvg.horizon if deadline is None else min(tvg.horizon, deadline)
    if end == 0.0:
        # A one-point span: no two-point partition exists, and every node
        # keeps the anchor 0 alone.
        return {node: (0.0,) for node in tvg.nodes}
    adjacent = all_adjacent_partitions(tvg, end)
    stat = status_points(tvg, end, max_depth)

    out: Dict[Node, Tuple[float, ...]] = {}
    for node in tvg.nodes:
        pts = set(adjacent[node].points)
        pts.update(p for p in stat if p <= end)
        ordered = sorted(pts)
        if prune:
            # Keep a point iff the node could act there: transmit (it has a
            # neighbor at t) or receive (some neighbor transmitted at t − τ;
            # for τ = 0 the two coincide).  Span endpoints always stay.
            tau = tvg.tau
            tx_sweep = tvg.sweep(node)
            rx_sweep = tvg.sweep(node) if tau > 0.0 else None
            kept = []
            for t in ordered:
                if (
                    t in (0.0, end)
                    or tx_sweep.advance(t)
                    or (rx_sweep is not None and rx_sweep.advance(t - tau))
                ):
                    kept.append(t)
            tx_sweep.finish()
            if rx_sweep is not None:
                rx_sweep.finish()
        else:
            kept = ordered
        final = set(kept)
        final.add(0.0)
        final.add(end)
        out[node] = Partition(sorted(final)).points
    return out


def build_dts(
    tvg: TVG,
    deadline: Optional[float] = None,
    prune: bool = True,
    max_depth: Optional[int] = None,
) -> DiscreteTimeSet:
    """:func:`dts_points` as a :class:`~repro.dts.DiscreteTimeSet`, with
    :func:`repro.dts.build_dts`'s signature."""
    end = tvg.horizon if deadline is None else min(tvg.horizon, deadline)
    return DiscreteTimeSet.from_points(
        dts_points(tvg, deadline, prune, max_depth), end, tvg.tau
    )
