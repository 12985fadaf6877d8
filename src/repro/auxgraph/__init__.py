"""Auxiliary graph (Section VI-A): construction and schedule extraction."""

from .build import AuxGraph, build_aux_graph
from .extract import extract_schedule
from .model import (
    is_state,
    is_tx,
    level_of,
    node_of,
    point_index_of,
    state_node,
    tx_node,
)

__all__ = [
    "AuxGraph",
    "build_aux_graph",
    "extract_schedule",
    "state_node",
    "tx_node",
    "is_state",
    "is_tx",
    "node_of",
    "point_index_of",
    "level_of",
]
