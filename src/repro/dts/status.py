"""Status partitions: the time points at which node status can change.

Under the ET-law every transmission departs either at the start of an
adjacent-partition interval or at the instant its relay became informed.
Receptions therefore happen at *triggered* times: an adjacency boundary
shifted by up to ``|journey| ≤ N − 1`` multiples of ``τ`` (the paper's
``O(N³L)`` bound; Fig. 2 illustrates the triggering).  With the contact-trace
approximation ``τ = 0`` every triggered time collapses onto its base
boundary, giving the paper's ``O(N²L)`` bound.

Any refinement of a status partition is itself a status partition (status
still cannot change inside the smaller intervals), so we use one *global*
status point set for all nodes — exactness is preserved while the
construction stays a single pass over the trace.
"""

from __future__ import annotations

from typing import Hashable, Optional, Set, Tuple

import numpy as np

from ..temporal.tvg import TVG

__all__ = ["status_points"]

Node = Hashable


def status_points(
    tvg: TVG,
    deadline: Optional[float] = None,
    max_depth: Optional[int] = None,
) -> Tuple[float, ...]:
    """All time points at which any node's status could change.

    Base points are the adjacency boundaries of every pair (plus 0), read
    from the TVG's :meth:`~repro.temporal.tvg.TVG.contact_table`; with
    ``τ > 0`` each base point additionally triggers ``t + kτ`` for
    ``k = 1 .. max_depth`` (default ``N − 1``, the maximal circle-free
    journey length).  Points beyond ``deadline`` are dropped.
    """
    end = tvg.horizon if deadline is None else min(tvg.horizon, deadline)
    table = tvg.contact_table()
    rows = table.adjacent()
    points = np.concatenate(([0.0], table.start[rows], table.adj_end[rows]))
    # ``+ 0.0`` turns a boundary at -0.0 into the 0.0 every set starts with
    base = np.unique(points[(points >= 0.0) & (points <= end)] + 0.0).tolist()

    tau = tvg.tau
    if tau == 0.0:
        return tuple(base)

    depth = (tvg.num_nodes - 1) if max_depth is None else max_depth
    triggered: Set[float] = set(base)
    for t in base:
        shifted = t
        for _ in range(depth):
            # Iterative addition (not t + k·τ) so a reception computed as
            # "sender's point + τ" reproduces the stored float EXACTLY —
            # the auxiliary graph matches reception points by equality.
            shifted = shifted + tau
            if shifted > end:
                break
            triggered.add(shifted)
    return tuple(sorted(triggered))
