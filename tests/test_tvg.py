"""Deterministic TVGs: presence, ρ_τ, neighbors, snapshots, events."""

import math

import pytest

from repro.core.intervals import IntervalSet
from repro.errors import GraphModelError
from repro.temporal.tvg import TVG, edge_key


class TestEdgeKey:
    def test_normalizes_order(self):
        assert edge_key(2, 1) == (1, 2)
        assert edge_key("a", "b") == ("a", "b")

    def test_rejects_self_loop(self):
        with pytest.raises(GraphModelError):
            edge_key(1, 1)


class TestTVGConstruction:
    def test_validation(self):
        with pytest.raises(GraphModelError):
            TVG([], 10.0)
        with pytest.raises(GraphModelError):
            TVG([1, 2], -5.0)
        with pytest.raises(GraphModelError):
            TVG([1, 2], 10.0, tau=-1.0)

    def test_unknown_node_rejected(self):
        tvg = TVG([1, 2], 10.0)
        with pytest.raises(GraphModelError):
            tvg.add_contact(1, 3, 0, 1)

    def test_contacts_clamped_to_horizon(self):
        tvg = TVG([1, 2], 10.0)
        tvg.add_contact(1, 2, 5.0, 50.0)
        assert tvg.presence(1, 2).pairs == ((5.0, 10.0),)

    def test_overlapping_contacts_merge(self):
        tvg = TVG([1, 2], 10.0)
        tvg.add_contact(1, 2, 0.0, 3.0)
        tvg.add_contact(1, 2, 2.0, 5.0)
        assert tvg.presence(1, 2).pairs == ((0.0, 5.0),)


class TestPresenceQueries:
    @pytest.fixture
    def tvg(self):
        g = TVG([0, 1, 2], 100.0, tau=2.0)
        g.add_contact(0, 1, 10.0, 20.0)
        g.add_contact(1, 2, 15.0, 30.0)
        return g

    def test_rho(self, tvg):
        assert tvg.rho(0, 1, 10.0)
        assert tvg.rho(1, 0, 15.0)  # undirected
        assert not tvg.rho(0, 1, 20.0)
        assert not tvg.rho(0, 2, 12.0)

    def test_rho_tau_window(self, tvg):
        # transmission at t needs presence over the CLOSED window [t, t+τ]
        assert tvg.rho_tau(0, 1, 17.0)
        assert not tvg.rho_tau(0, 1, 18.0)  # t+τ = 20 ∉ [10, 20)
        assert not tvg.rho_tau(0, 1, 18.5)
        assert not tvg.rho_tau(0, 1, 19.9)

    def test_absent_pair_presence_is_one_shared_empty_set(self, tvg):
        absent = tvg.presence(0, 2)
        assert absent.is_empty and absent == IntervalSet()
        assert tvg.presence(2, 0) is absent
        assert not tvg.rho_tau(0, 2, 12.0)
        assert tvg.adjacency_set(0, 2).is_empty

    def test_adjacency_set_is_eroded_presence(self, tvg):
        adj = tvg.adjacency_set(0, 1)
        assert adj.pairs == ((10.0, 18.0),)

    def test_neighbors_and_degree(self, tvg):
        assert set(tvg.neighbors(1, 16.0)) == {0, 2}
        assert tvg.degree(1, 16.0) == 2
        assert tvg.neighbors(1, 25.0) == (2,)
        assert tvg.neighbors(0, 50.0) == ()

    def test_incident(self, tvg):
        assert set(tvg.incident(1)) == {0, 2}
        assert tvg.incident(0) == (1,)

    def test_snapshot(self, tvg):
        g = tvg.snapshot(16.0)
        assert set(g.edges) == {(0, 1), (1, 2)}
        g2 = tvg.snapshot(50.0)
        assert len(g2.edges) == 0
        assert len(g2.nodes) == 3

    def test_event_times(self, tvg):
        events = tvg.event_times()
        assert 10.0 in events and 20.0 in events and 15.0 in events and 30.0 in events
        assert events[0] == 0.0 and events[-1] == 100.0


class TestBulkAccessors:
    def test_contacts_iteration(self):
        tvg = TVG([0, 1], 10.0)
        tvg.add_contact(0, 1, 1.0, 2.0)
        tvg.add_contact(0, 1, 4.0, 5.0)
        assert list(tvg.contacts()) == [(0, 1, 1.0, 2.0), (0, 1, 4.0, 5.0)]

    def test_total_contact_time(self):
        tvg = TVG([0, 1, 2], 10.0)
        tvg.add_contact(0, 1, 0.0, 2.0)
        tvg.add_contact(1, 2, 0.0, 3.0)
        assert tvg.total_contact_time() == 5.0

    def test_num_edges_excludes_empty(self):
        tvg = TVG([0, 1, 2], 10.0)
        tvg.set_presence(0, 1, IntervalSet())
        assert tvg.num_edges() == 0

    def test_subgraph(self):
        tvg = TVG([0, 1, 2], 10.0)
        tvg.add_contact(0, 1, 0.0, 1.0)
        tvg.add_contact(1, 2, 0.0, 1.0)
        sub = tvg.subgraph([0, 1])
        assert sub.num_nodes == 2
        assert sub.presence(0, 1).pairs == ((0.0, 1.0),)
        with pytest.raises(GraphModelError):
            tvg.subgraph([0, 99])

    def test_subgraph_neighbors_work(self):
        # regression: the incident index must be rebuilt in subgraphs
        tvg = TVG([0, 1, 2], 10.0)
        tvg.add_contact(0, 1, 0.0, 5.0)
        sub = tvg.subgraph([0, 1])
        assert sub.neighbors(0, 1.0) == (1,)
