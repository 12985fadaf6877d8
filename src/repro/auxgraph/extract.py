"""Schedule extraction from auxiliary-graph Steiner trees.

A directed Steiner tree in the auxiliary graph is a set of edges connecting
the root state node to every terminal.  Each transmission node it enters
corresponds to one schedule row ``[v_i, t_{i,l}, w^k]``; waiting and coverage
edges carry no cost and no action.  Two defensive clean-ups are applied:

* duplicate transmissions of one node at one instant collapse to the highest
  cost level (whose coverage is a superset — Property 6.1(i));
* transmission nodes without any outgoing coverage edge in the tree are
  dropped (they inform nobody and only waste energy).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..schedule.schedule import Schedule, Transmission
from .model import AuxNode

__all__ = ["extract_schedule"]

Edge = Tuple[AuxNode, AuxNode]


def extract_schedule(aux, tree_edges: Iterable[Edge]) -> Schedule:
    """Decode a Steiner tree (edge set) into a broadcast relay schedule.

    ``aux`` is the implicit
    :class:`~repro.compute.numpy_backend.NumpyAuxGraph`, whose trees are
    read as node ids.  Transmission ``j`` (id ``num_states + j``) is used
    when the tree enters it and it has a coverage child.  Within a state,
    ids rise with the level, so the highest used id per state is its best
    level, and its cost is its :meth:`level_costs
    <repro.compute.numpy_backend.NumpyAuxGraph.level_costs>` entry.
    """
    ids = aux.tree_ids(tree_edges)
    S = aux.num_states
    parents, children = ids[0::2], ids[1::2]
    used = np.intersect1d(parents[parents >= S], children[children >= S]) - S
    owners = np.searchsorted(aux.tx_ptr, used, "right") - 1
    best = np.ones(len(used), dtype=bool)
    best[:-1] = owners[1:] != owners[:-1]
    return Schedule(
        Transmission(node, aux.time_of(node, l), w)
        for (_, node, l), w in zip(aux.aux_nodes.decode(owners[best]),
                                   aux.level_costs(used[best]).tolist())
    )
