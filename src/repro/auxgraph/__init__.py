"""Auxiliary graph (Section VI-A): node vocabulary and schedule extraction.

The graph itself is built in implicit form by
:func:`repro.compute.numpy_backend.build_numpy_aux_graph`.
"""

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
    "extract_schedule",
    "state_node",
    "tx_node",
    "is_state",
    "is_tx",
    "node_of",
    "point_index_of",
    "level_of",
]
