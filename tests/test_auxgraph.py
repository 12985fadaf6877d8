"""Auxiliary graph (Section VI-A): structure, DAG-ness, schedule extraction."""

import networkx as nx
import pytest

from repro.auxgraph import (
    is_state,
    is_tx,
    level_of,
    node_of,
    point_index_of,
    state_node,
    tx_node,
)
from repro.errors import GraphModelError
from repro.schedule import check_feasibility

from .aux_oracle import build_aux_graph, extract_schedule, solve_memt


class TestModel:
    def test_node_vocabulary(self):
        s = state_node(3, 2)
        x = tx_node(3, 2, 1)
        assert is_state(s) and not is_tx(s)
        assert is_tx(x) and not is_state(x)
        assert node_of(s) == 3 and node_of(x) == 3
        assert point_index_of(s) == 2 and point_index_of(x) == 2
        assert level_of(x) == 1
        with pytest.raises(ValueError):
            level_of(s)


class TestBuild:
    def test_edges_never_go_back_in_time(self, det_static):
        # With τ = 0 same-instant relay chains are legal (Eq. 6 admits
        # t_j ≤ t_k), so the graph may contain equal-time cycles — but no
        # edge may ever decrease time.
        aux = build_aux_graph(det_static, 0, 100.0)
        for u, v in aux.graph.edges:
            assert aux.graph.nodes[v]["time"] >= aux.graph.nodes[u]["time"]

    def test_is_dag_with_positive_tau(self, det_trace):
        from repro.tveg import tveg_from_trace

        tveg = tveg_from_trace(det_trace, "static", tau=1.0, seed=1)
        aux = build_aux_graph(tveg, 0, 100.0)
        assert nx.is_directed_acyclic_graph(aux.graph)

    def test_waiting_edges_zero_weight(self, det_static):
        aux = build_aux_graph(det_static, 0, 100.0)
        for u, v, data in aux.graph.edges(data=True):
            if is_state(u) and is_state(v):
                assert node_of(u) == node_of(v)
                assert point_index_of(v) == point_index_of(u) + 1
                assert data["weight"] == 0.0

    def test_tx_edges_carry_dcs_weight(self, det_static):
        aux = build_aux_graph(det_static, 0, 100.0)
        for u, v, data in aux.graph.edges(data=True):
            if is_tx(v):
                key = (node_of(v), point_index_of(v))
                dcs = aux.cost_sets[key]
                assert data["weight"] == dcs.entries[level_of(v)][0]

    def test_coverage_edges_zero_weight_and_broadcast_nature(self, det_static):
        aux = build_aux_graph(det_static, 0, 100.0)
        for u in aux.graph.nodes:
            if is_tx(u):
                dcs = aux.cost_sets[(node_of(u), point_index_of(u))]
                receivers = {node_of(v) for v in aux.graph[u]}
                expected = set(dcs.coverage(dcs.entries[level_of(u)][0]))
                assert receivers == expected
                for v, data in aux.graph[u].items():
                    assert data["weight"] == 0.0

    def test_root_and_terminals(self, det_static):
        aux = build_aux_graph(det_static, 0, 100.0)
        assert aux.root == state_node(0, 0)
        assert len(aux.terminals) == 3  # everyone but the source
        for t in aux.terminals:
            assert point_index_of(t) == len(aux.dts.points(node_of(t))) - 1

    def test_unknown_source_rejected(self, det_static):
        with pytest.raises(GraphModelError):
            build_aux_graph(det_static, 99, 100.0)

    def test_deadline_shrinks_graph(self, det_static):
        big = build_aux_graph(det_static, 0, 100.0)
        small = build_aux_graph(det_static, 0, 50.0)
        assert small.num_nodes < big.num_nodes


class TestExtract:
    def test_steiner_tree_roundtrip(self, det_static):
        aux = build_aux_graph(det_static, 0, 100.0)
        edges = solve_memt(aux.graph, aux.root, aux.terminals)
        sched = extract_schedule(aux, edges)
        rep = check_feasibility(det_static, sched, 0, 100.0)
        assert rep.feasible

    def test_duplicate_levels_merge(self, det_static):
        # Entering two tx levels of the same (node, point) must collapse to
        # the higher level (whose coverage is a superset).
        aux = build_aux_graph(det_static, 0, 100.0)
        key = next(k for k, v in aux.cost_sets.items() if len(v) >= 2)
        node, l = key
        dcs = aux.cost_sets[key]
        s = state_node(node, l)
        fake_tree = {
            (s, tx_node(node, l, 0)),
            (s, tx_node(node, l, 1)),
            (tx_node(node, l, 0), state_node(dcs.entries[0][1], 0)),
            (tx_node(node, l, 1), state_node(dcs.entries[1][1], 0)),
        }
        sched = extract_schedule(aux, fake_tree)
        assert len(sched) == 1
        assert sched[0].cost == dcs.entries[1][0]

    def test_coverage_less_tx_dropped(self, det_static):
        aux = build_aux_graph(det_static, 0, 100.0)
        key = next(iter(aux.cost_sets))
        node, l = key
        s = state_node(node, l)
        fake_tree = {(s, tx_node(node, l, 0))}  # tx with no receivers
        sched = extract_schedule(aux, fake_tree)
        assert sched.is_empty
