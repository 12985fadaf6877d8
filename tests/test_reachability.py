"""Temporal reachability (the Section II substrate)."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import plan_broadcast, plan_broadcast_many
from repro.errors import InfeasibleError
from repro.temporal import (
    broadcast_feasible_sources,
    is_broadcastable,
    reachability_graph,
    reachable_set,
)
from repro.temporal.tvg import TVG
from repro.traces.model import Contact, ContactTrace
from repro.tveg import tveg_from_trace


@pytest.fixture
def one_way_tvg():
    """Temporal one-way street: 0→1→2 works, 2→1→0 does not.

    Contact (0,1) at [0,10), contact (1,2) at [20,30): journeys 0→2 exist,
    but from 2 the (1,2) contact leads to 1 at 20, after the (0,1) contact
    is gone — temporal asymmetry that static graphs cannot express.
    """
    g = TVG([0, 1, 2], 50.0)
    g.add_contact(0, 1, 0.0, 10.0)
    g.add_contact(1, 2, 20.0, 30.0)
    return g


class TestReachableSet:
    def test_asymmetric(self, one_way_tvg):
        assert reachable_set(one_way_tvg, 0) == frozenset({0, 1, 2})
        assert reachable_set(one_way_tvg, 2) == frozenset({1, 2})

    def test_deadline_truncates(self, one_way_tvg):
        assert reachable_set(one_way_tvg, 0, deadline=15.0) == frozenset({0, 1})

    def test_start_time_truncates(self, one_way_tvg):
        # departing after the (0,1) contact, node 0 reaches nobody
        assert reachable_set(one_way_tvg, 0, start_time=12.0) == frozenset({0})

    def test_source_always_included(self, one_way_tvg):
        assert 2 in reachable_set(one_way_tvg, 2, deadline=0.0)


class TestBroadcastability:
    def test_is_broadcastable(self, one_way_tvg):
        assert is_broadcastable(one_way_tvg, 0)
        assert not is_broadcastable(one_way_tvg, 2)
        assert not is_broadcastable(one_way_tvg, 0, deadline=15.0)

    def test_feasible_sources(self, one_way_tvg):
        assert broadcast_feasible_sources(one_way_tvg) == frozenset({0, 1})

    def test_det_trace_all_sources(self, det_tvg):
        assert broadcast_feasible_sources(det_tvg, 0.0, 100.0) == frozenset(
            {0, 1, 2, 3}
        )


class TestSourceAutoPick:
    def test_first_feasible_source(self, one_way_tvg):
        from repro.temporal import first_feasible_source

        assert first_feasible_source(one_way_tvg) == 0
        assert first_feasible_source(one_way_tvg, deadline=15.0) is None
        # the other way round, node 0 is the one that cannot broadcast
        g = TVG([0, 1, 2], 50.0)
        g.add_contact(1, 2, 0.0, 10.0)
        g.add_contact(0, 1, 20.0, 30.0)
        assert first_feasible_source(g) == 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), deadline=st.floats(0.0, 120.0))
    def test_pick_is_the_smallest_feasible_source(self, data, deadline):
        from repro.temporal import first_feasible_source

        # Sparse random contacts, so that some instances have no feasible
        # source and some pick a node other than the smallest.
        n = data.draw(st.integers(2, 6), label="nodes")
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.floats(0.0, 90.0), st.floats(1.0, 30.0)),
            max_size=12,
        ), label="contacts")
        trace = ContactTrace(
            [Contact(t, min(t + d, 100.0), u, v)
             for u, v, t, d in rows if u != v],
            nodes=list(range(n)), horizon=100.0,
        )
        tveg = tveg_from_trace(trace, "static", seed=1)
        feasible = broadcast_feasible_sources(tveg.tvg, 0.0, deadline)
        expected = min(feasible) if feasible else None
        assert first_feasible_source(tveg.tvg, 0.0, deadline) == expected
        if expected is None:
            for plan in (lambda: plan_broadcast(tveg, None, deadline),
                         lambda: plan_broadcast_many(tveg, [None], deadline)):
                with pytest.raises(InfeasibleError) as err:
                    plan()
                assert str(err.value) == (
                    "no broadcast-feasible source in this window; try "
                    "another window or a larger deadline"
                )
        else:
            assert plan_broadcast(tveg, None, deadline).source == expected
            many = plan_broadcast_many(tveg, [None, None], deadline)
            assert [p.source for p in many] == [expected, expected]


class TestReachabilityGraph:
    def test_edges_carry_arrivals(self, one_way_tvg):
        g = reachability_graph(one_way_tvg)
        assert g.has_edge(0, 2)
        assert not g.has_edge(2, 0)
        assert g[0][1]["arrival"] == 0.0
        assert g[0][2]["arrival"] == 20.0

    def test_window(self, one_way_tvg):
        g = reachability_graph(one_way_tvg, start_time=0.0, deadline=5.0)
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 2)

    def test_is_digraph_over_all_nodes(self, one_way_tvg):
        g = reachability_graph(one_way_tvg)
        assert isinstance(g, nx.DiGraph)
        assert set(g.nodes) == {0, 1, 2}
