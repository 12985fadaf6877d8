"""Directed Steiner solvers: correctness on known graphs, pruning, facade."""

import math

import networkx as nx
import pytest

from repro.errors import InfeasibleError, SolverError
from repro.steiner import (
    charikar_dst,
    prune_tree,
    shortest_path_tree,
    solve_memt,
    tree_cost,
)

from .aux_oracle import greedy_incremental_dst


def _covers(edges, root, terminals):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen, stack = {root}, [root]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return all(t in seen for t in terminals)


@pytest.fixture
def diamond():
    """root→a (1), root→b (1), a→t1 (1), b→t2 (1), root→hub (1.5),
    hub→t1 (0), hub→t2 (0): hub is the shared-transmission shape."""
    g = nx.DiGraph()
    g.add_edge("r", "a", weight=1.0)
    g.add_edge("r", "b", weight=1.0)
    g.add_edge("a", "t1", weight=1.0)
    g.add_edge("b", "t2", weight=1.0)
    g.add_edge("r", "hub", weight=1.5)
    g.add_edge("hub", "t1", weight=0.0)
    g.add_edge("hub", "t2", weight=0.0)
    return g


class TestGreedyIncremental:
    def test_prefers_shared_hub(self, diamond):
        edges = greedy_incremental_dst(diamond, "r", ["t1", "t2"])
        assert _covers(edges, "r", ["t1", "t2"])
        # hub route costs 1.5 total; separate paths cost 4.
        assert tree_cost(diamond, edges) <= 2.0

    def test_single_terminal_is_shortest_path(self):
        g = nx.DiGraph()
        g.add_edge("r", "m", weight=1.0)
        g.add_edge("m", "t", weight=1.0)
        g.add_edge("r", "t", weight=5.0)
        edges = greedy_incremental_dst(g, "r", ["t"])
        assert tree_cost(g, edges) == 2.0

    def test_unreachable_raises(self):
        g = nx.DiGraph()
        g.add_node("island")
        g.add_edge("r", "a", weight=1.0)
        with pytest.raises(InfeasibleError):
            greedy_incremental_dst(g, "r", ["island"])

    def test_root_terminal_ignored(self, diamond):
        edges = greedy_incremental_dst(diamond, "r", ["r", "t1"])
        assert _covers(edges, "r", ["t1"])

    def test_zero_cost_chain_absorbed_free(self):
        # Once the paid edge into the chain is grafted, the second terminal
        # must ride the 0-weight chain instead of paying its direct edge.
        g = nx.DiGraph()
        g.add_edge("r", "x", weight=3.0)
        g.add_edge("x", "t1", weight=0.0)
        g.add_edge("t1", "t2", weight=0.0)
        g.add_edge("r", "t2", weight=3.1)
        edges = greedy_incremental_dst(g, "r", ["t1", "t2"])
        assert _covers(edges, "r", ["t1", "t2"])
        assert tree_cost(g, edges) == pytest.approx(3.0)


class TestShortestPathTree:
    def test_union_of_paths(self, diamond):
        edges = shortest_path_tree(diamond, "r", ["t1", "t2"])
        assert _covers(edges, "r", ["t1", "t2"])
        # SPT picks hub paths here: d(t1) = d(t2) = 1.5 via hub vs 2.0
        assert tree_cost(diamond, edges) == pytest.approx(1.5)

    def test_missing_terminal(self):
        g = nx.DiGraph()
        g.add_edge("r", "a", weight=1.0)
        g.add_node("island")
        with pytest.raises(InfeasibleError):
            shortest_path_tree(g, "r", ["island"])


class TestCharikar:
    def test_level1_equals_sptree_cost(self, diamond):
        c = charikar_dst(diamond, "r", ["t1", "t2"], level=1)
        s = shortest_path_tree(diamond, "r", ["t1", "t2"])
        assert tree_cost(diamond, c) == pytest.approx(tree_cost(diamond, s))

    def test_level2_finds_hub(self, diamond):
        edges = charikar_dst(diamond, "r", ["t1", "t2"], level=2)
        assert _covers(edges, "r", ["t1", "t2"])
        assert tree_cost(diamond, edges) == pytest.approx(1.5)

    def test_level2_beats_level1_on_dense_star(self):
        # One expensive hub covering k terminals vs direct medium edges.
        g = nx.DiGraph()
        k = 5
        g.add_edge("r", "hub", weight=3.0)
        for i in range(k):
            g.add_edge("hub", f"t{i}", weight=0.0)
            g.add_edge("r", f"t{i}", weight=1.0)
        terms = [f"t{i}" for i in range(k)]
        l2 = charikar_dst(g, "r", terms, level=2)
        assert tree_cost(g, l2) <= 3.0 + 1e-9

    def test_invalid_level(self, diamond):
        with pytest.raises(SolverError):
            charikar_dst(diamond, "r", ["t1"], level=0)

    def test_infeasible(self):
        g = nx.DiGraph()
        g.add_node("island")
        g.add_edge("r", "a", weight=1.0)
        with pytest.raises(InfeasibleError):
            charikar_dst(g, "r", ["island"], level=2)


class TestPrune:
    def test_removes_stubs(self):
        edges = {("r", "a"), ("a", "t"), ("a", "dead"), ("dead", "end")}
        pruned = prune_tree(edges, "r", ["t"])
        assert pruned == {("r", "a"), ("a", "t")}

    def test_keeps_everything_needed(self, diamond):
        edges = greedy_incremental_dst(diamond, "r", ["t1", "t2"])
        pruned = prune_tree(edges, "r", ["t1", "t2"])
        assert _covers(pruned, "r", ["t1", "t2"])
        assert pruned <= edges


class TestFacade:
    @pytest.mark.parametrize("method", ["sptree", "charikar"])
    def test_all_methods_cover(self, diamond, method):
        edges = solve_memt(diamond, "r", ["t1", "t2"], method=method)
        assert _covers(edges, "r", ["t1", "t2"])

    def test_greedy_searches_only_the_implicit_graph(self, diamond):
        # The greedy search is the compiled kernel over the implicit
        # auxiliary graph; a networkx graph gets the reference search in
        # tests/aux_oracle.py, never a second production path.
        with pytest.raises(SolverError, match="implicit auxiliary graph"):
            solve_memt(diamond, "r", ["t1", "t2"], method="greedy")

    def test_unknown_method(self, diamond):
        with pytest.raises(SolverError):
            solve_memt(diamond, "r", ["t1"], method="magic")
