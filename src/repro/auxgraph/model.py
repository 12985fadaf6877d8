"""Auxiliary-graph node vocabulary (Section VI-A).

The auxiliary graph has two node kinds:

* **state nodes** ``u_{i,l}`` — "``v_i`` holds the packet at its ``l``-th DTS
  point"; encoded as ``("state", i, l)``.
* **transmission nodes** ``x_{i,l,k}`` — "``v_i`` transmits at its ``l``-th
  DTS point using its ``k``-th DCS level"; encoded as ``("tx", i, l, k)``.

Transmission nodes realize the wireless broadcast advantage (Property
6.1(i)): entering ``x_{i,l,k}`` costs ``w^k`` once, and 0-weight edges then
fan out to *every* receiver state that cost level covers — so a Steiner tree
pays for each transmission exactly once however many children it informs.
This is the encoding Liang's MEMT reduction uses.

The edges are the 0-weight waiting edges ``u_{i,l} → u_{i,l+1}``, the
transmit edges ``u_{i,l} → x_{i,l,k}`` weighted ``w^k``, and the 0-weight
coverage edges ``x_{i,l,k} → u_{j,f}`` to every ``v_j`` whose minimum cost
at ``t_{i,l}`` is ≤ ``w^k``, where ``t_{j,f} = t_{i,l} + τ`` (the paper
prints ``−τ``, a typo: decoding completes *after* traversal; with the
paper's own ``τ ≈ 0`` the two coincide).  No edge moves back in time, so
TMEDB-S is the directed Steiner tree problem rooted at the source's first
state node with the terminals ``u_{i, last}``.
"""

from __future__ import annotations

from typing import Hashable, Tuple, Union

__all__ = [
    "state_node",
    "tx_node",
    "is_state",
    "is_tx",
    "node_of",
    "point_index_of",
    "level_of",
]

Node = Hashable
AuxNode = Tuple  # ("state", node, l) | ("tx", node, l, k)


def state_node(node: Node, point_index: int) -> AuxNode:
    """The state node ``u_{node, point_index}``."""
    return ("state", node, point_index)


def tx_node(node: Node, point_index: int, level: int) -> AuxNode:
    """The transmission node ``x_{node, point_index, level}``."""
    return ("tx", node, point_index, level)


def is_state(aux: AuxNode) -> bool:
    return aux[0] == "state"


def is_tx(aux: AuxNode) -> bool:
    return aux[0] == "tx"


def node_of(aux: AuxNode) -> Node:
    """The real network node behind an auxiliary node."""
    return aux[1]


def point_index_of(aux: AuxNode) -> int:
    """The DTS point index of an auxiliary node."""
    return aux[2]


def level_of(aux: AuxNode) -> int:
    """The DCS level of a transmission node."""
    if not is_tx(aux):
        raise ValueError(f"{aux!r} is not a transmission node")
    return aux[3]
