"""Multicast (terminal-subset) scheduling — Liang's original MEMT setting."""

import math

import pytest

from repro.algorithms import make_scheduler
from repro.auxgraph import node_of
from repro.errors import GraphModelError, InfeasibleError
from repro.schedule import check_feasibility, informed_time

from .aux_oracle import build_aux_graph


class TestAuxGraphTargets:
    def test_terminals_restricted(self, det_static):
        aux = build_aux_graph(det_static, 0, 100.0, targets=(1, 3))
        assert {node_of(t) for t in aux.terminals} == {1, 3}

    def test_source_excluded_from_targets(self, det_static):
        aux = build_aux_graph(det_static, 0, 100.0, targets=(0, 1))
        assert {node_of(t) for t in aux.terminals} == {1}

    def test_unknown_target_rejected(self, det_static):
        with pytest.raises(GraphModelError):
            build_aux_graph(det_static, 0, 100.0, targets=(99,))


class TestMulticastEEDCB:
    def test_multicast_cheaper_than_broadcast(self, det_static):
        multicast = make_scheduler("eedcb", targets=(1,)).schedule(
            det_static, 0, 100.0
        )
        broadcast = make_scheduler("eedcb").schedule(det_static, 0, 100.0)
        assert multicast.total_cost <= broadcast.total_cost
        assert len(multicast) <= len(broadcast)

    def test_targets_informed(self, det_static):
        sched = make_scheduler("eedcb", targets=(2,)).schedule(det_static, 0, 100.0)
        rep = check_feasibility(det_static, sched, 0, 100.0, targets=(2,))
        assert rep.feasible
        assert math.isfinite(informed_time(det_static, sched, 2, 0))

    def test_broadcast_feasibility_may_fail_for_multicast_plan(self, det_static):
        # a plan for {1} need not inform 2
        sched = make_scheduler("eedcb", targets=(1,)).schedule(det_static, 0, 100.0)
        full = check_feasibility(det_static, sched, 0, 100.0)
        sub = check_feasibility(det_static, sched, 0, 100.0, targets=(1,))
        assert sub.feasible
        assert not full.all_informed

    def test_multicast_reachability_filter(self, det_static):
        # node 2 only becomes reachable from 0 at t=20; by deadline 15 a
        # multicast to {1} is fine but to {2} is infeasible
        ok = make_scheduler("eedcb", targets=(1,)).schedule(det_static, 0, 15.0)
        assert check_feasibility(det_static, ok, 0, 15.0, targets=(1,)).feasible
        with pytest.raises(InfeasibleError):
            make_scheduler("eedcb", targets=(2,)).run(det_static, 0, 15.0)


class TestMulticastFREEDCB:
    def test_fading_multicast(self, det_fading):
        sched = make_scheduler("fr-eedcb", targets=(1, 3)).schedule(
            det_fading, 0, 100.0
        )
        rep = check_feasibility(det_fading, sched, 0, 100.0, targets=(1, 3))
        assert rep.feasible

    def test_fading_multicast_vs_broadcast(self, det_fading):
        # Under fading, multicast need NOT be cheaper than broadcast: the
        # broadcast backbone touches node 1 with several transmissions whose
        # failure probabilities multiply, so each can run weak, while the
        # single-target backbone must hit ε in one shot (w0).  We only
        # require both to be feasible and within a small factor.
        multicast = make_scheduler("fr-eedcb", targets=(1,)).schedule(
            det_fading, 0, 100.0
        )
        broadcast = make_scheduler("fr-eedcb").schedule(det_fading, 0, 100.0)
        assert len(multicast) <= len(broadcast)
        assert multicast.total_cost <= 2.0 * broadcast.total_cost
