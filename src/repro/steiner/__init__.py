"""Directed Steiner tree / minimum-energy multicast tree solvers."""

from .dst import charikar_dst
from .memt import MEMT_METHODS, solve_memt
from .prune import prune_tree
from .sptree import shortest_path_tree, tree_cost

__all__ = [
    "charikar_dst",
    "shortest_path_tree",
    "tree_cost",
    "prune_tree",
    "solve_memt",
    "MEMT_METHODS",
]
