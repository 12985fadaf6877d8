"""Discrete time sets (Definition 5.2).

Each node's *discrete time partition* ``P^di_i`` combines its adjacent
partition with a status partition; the DTS ``D_V`` collects them for all
nodes.  Theorem 5.2 guarantees an optimal continuous-time schedule exists
whose transmissions all occur at DTS points, so the schedulers of Section VI
search only these finitely many instants.

Every node's adjacent-partition points are adjacency boundaries, and every
adjacency boundary is a status point, so all nodes share one candidate
*grid*: the global status points (:func:`~repro.dts.status.status_points`)
plus the deadline.  A node's DTS is a membership mask over that grid.

Construction applies one correctness-preserving optimization: a point at
which a node has *no* adjacent neighbor is useless to that node (it can
neither receive nor usefully transmit), so ``prune=True`` (the default)
drops such points — except the span anchors ``0`` and ``T``, which the
auxiliary graph needs as source/terminal anchors.  A node keeps a grid
point ``t`` when ``t`` lies in one of its merged half-open adjacency
components (it can transmit), or, for ``τ > 0``, when ``t − τ`` does (a
neighbor can have transmitted to it).  Every ET-law transmission time
survives pruning because a transmitting (or receiving) node is by
definition adjacent to someone at that instant.  One ``searchsorted`` of
the grid against a node's component boundaries answers each predicate for
all points at once.

The result is stored in columns (:class:`DiscreteTimeSet`): the grid, the
per-node membership masks, one ``float64`` array of every node's points,
node-major, and per-node offsets.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.partitions import Partition
from ..temporal.tvg import TVG
from .status import status_points

__all__ = ["DiscreteTimeSet", "build_dts"]

Node = Hashable


def _read_only(arr: "np.ndarray") -> "np.ndarray":
    arr.flags.writeable = False
    return arr


class DiscreteTimeSet:
    """The DTS ``D_V = {P^di_1, ..., P^di_N}`` over ``[0, deadline]``.

    Held in columns: ``grid`` is the sorted candidate grid every node
    draws from, and row ``i`` of the boolean ``mask`` marks the grid
    points node ``nodes[i]`` keeps.  Its points are ``values[offsets[i] :
    offsets[i + 1]]``, ascending (``grid[mask[i]]``).  All arrays are
    read-only.
    """

    __slots__ = ("nodes", "grid", "mask", "values", "offsets", "deadline",
                 "tau", "_row")

    def __init__(
        self,
        nodes: Sequence[Node],
        grid: "np.ndarray",
        mask: "np.ndarray",
        deadline: float,
        tau: float,
    ) -> None:
        self.nodes: Tuple[Node, ...] = tuple(nodes)
        self.grid = _read_only(np.asarray(grid, dtype=np.float64))
        #: (N, G) bool — the grid points each node keeps
        self.mask = _read_only(np.asarray(mask, dtype=bool))
        #: (P,) float64 — every node's points, node-major
        self.values = _read_only(
            np.broadcast_to(self.grid, self.mask.shape)[self.mask]
        )
        #: (N+1,) int64 — first point of each node in ``values``
        self.offsets = _read_only(
            np.concatenate([[0], np.cumsum(self.mask.sum(axis=1))])
        )
        self.deadline = float(deadline)
        self.tau = float(tau)
        self._row: Dict[Node, int] = {n: i for i, n in enumerate(self.nodes)}

    @classmethod
    def from_points(
        cls,
        points: Mapping[Node, Sequence[float]],
        deadline: float,
        tau: float,
    ) -> "DiscreteTimeSet":
        """The DTS holding the given per-node points (each ascending and
        distinct); its grid is their union."""
        arrays = [np.asarray(p, dtype=np.float64) for p in points.values()]
        grid = np.unique(np.concatenate(arrays)) if arrays else np.empty(0)
        mask = np.zeros((len(arrays), len(grid)), dtype=bool)
        for row, pts in zip(mask, arrays):
            row[np.searchsorted(grid, pts)] = True
        return cls(points, grid, mask, deadline, tau)

    def points(self, node: Node) -> "np.ndarray":
        """The discrete time points of one node: a read-only view."""
        i = self._row[node]
        return self.values[self.offsets[i]:self.offsets[i + 1]]

    def grid_mask(self, node: Node) -> "np.ndarray":
        """The grid points one node keeps, as a read-only boolean row."""
        return self.mask[self._row[node]]

    def partition(self, node: Node) -> Partition:
        """The node's discrete time partition ``P^di_i`` (needs at least two
        points, so a zero-length span has none)."""
        return Partition(self.points(node).tolist())

    @property
    def partitions(self) -> Dict[Node, Partition]:
        return {n: self.partition(n) for n in self.nodes}

    def total_points(self) -> int:
        """Σ_i |P^di_i| — the auxiliary graph's state-node count."""
        return len(self.values)

    def contains(self, node: Node, t: float, tol: float = 1e-9) -> bool:
        """True iff ``t`` is (within tolerance) a DTS point of ``node``."""
        pts = self.points(node)
        i = int(np.searchsorted(pts, t, side="right"))
        return any(abs(float(pts[j]) - t) <= tol
                   for j in (i - 1, i) if 0 <= j < len(pts))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DiscreteTimeSet(|V|={len(self.nodes)}, "
            f"points={self.total_points()}, deadline={self.deadline:g})"
        )


def _components(tvg: TVG) -> Dict[Node, List[Tuple[float, float]]]:
    """Every node's τ-eroded adjacency components ``[s, e)``, one pass
    over the edges."""
    pairs: Dict[Node, List[Tuple[float, float]]] = {n: [] for n in tvg.nodes}
    for (a, b), pres in tvg.edges_with_presence():
        adj = pres.erode(tvg.tau).pairs
        pairs[a].extend(adj)
        pairs[b].extend(adj)
    return pairs


def _boundaries(pairs: List[Tuple[float, float]]) -> "np.ndarray":
    """The merged components of non-empty half-open ``pairs``, as their
    strictly increasing boundaries ``[s₀, e₀, s₁, e₁, …]``: ``t`` lies in
    the union exactly when an odd number of boundaries are ``<= t``."""
    if not pairs:
        return np.empty(0)
    arr = np.array(pairs, dtype=np.float64)
    arr = arr[np.argsort(arr[:, 0], kind="stable")]
    reach = np.maximum.accumulate(arr[:, 1])
    # A component starts where no earlier pair reaches it; abutting
    # pairs merge, so the boundaries strictly increase.
    first = np.flatnonzero(np.r_[True, arr[1:, 0] > reach[:-1]])
    out = np.empty(2 * len(first))
    out[0::2] = arr[first, 0]
    out[1::2] = reach[np.r_[first[1:] - 1, len(arr) - 1]]
    return out


def build_dts(
    tvg: TVG,
    deadline: Optional[float] = None,
    prune: bool = True,
    max_depth: Optional[int] = None,
) -> DiscreteTimeSet:
    """Build the DTS of ``tvg`` over ``[0, deadline]`` (Definition 5.2).

    Parameters
    ----------
    deadline:
        The delay constraint ``T``; defaults to the TVG horizon.  ``T = 0``
        gives every node the single point ``0``.
    prune:
        Drop per-node points at which the node has no neighbor (see module
        docstring).  Disable to obtain the unpruned textbook construction.
    max_depth:
        Maximum τ-trigger chain length for ``τ > 0`` (default ``N − 1``).
    """
    end = tvg.horizon if deadline is None else min(tvg.horizon, deadline)
    grid = np.unique(
        np.array(status_points(tvg, end, max_depth) + (end,), dtype=np.float64)
    )
    nodes = tvg.nodes
    if not prune:
        mask = np.ones((len(nodes), len(grid)), dtype=bool)
        return DiscreteTimeSet(nodes, grid, mask, end, tvg.tau)
    anchors = (grid == 0.0) | (grid == end)
    # Receptions test each point minus τ, computed as ``t - tau``.
    queries = [grid] if tvg.tau == 0.0 else [grid, grid - tvg.tau]
    comps = _components(tvg)
    mask = np.empty((len(nodes), len(grid)), dtype=bool)
    for row, node in zip(mask, nodes):
        bounds = _boundaries(comps[node])
        row[:] = anchors
        for x in queries:
            row |= np.searchsorted(bounds, x, side="right") % 2 == 1
    return DiscreteTimeSet(nodes, grid, mask, end, tvg.tau)
