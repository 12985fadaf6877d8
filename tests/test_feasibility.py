"""The four TMEDB feasibility conditions (Section IV)."""

import math

import pytest

from repro.errors import GraphModelError, ScheduleError
from repro.schedule import (
    Schedule,
    Transmission,
    check_feasibility,
    informed_time,
    is_informed,
    lower_costs,
    remove_redundant,
    upgrade_and_prune,
)


def _w(tveg, u, v, t):
    return tveg.min_cost(u, v, t)


def full_schedule(tveg):
    """A hand-built feasible broadcast on the deterministic trace: 0→{1,3}
    then 1→2 (0 covers 3 directly during their [10,25) contact)."""
    return Schedule(
        [
            Transmission(0, 15.0, max(_w(tveg, 0, 1, 15.0), _w(tveg, 0, 3, 15.0))),
            Transmission(1, 25.0, _w(tveg, 1, 2, 25.0)),
        ]
    )


class TestConditions:
    def test_feasible_schedule(self, det_static):
        rep = check_feasibility(det_static, full_schedule(det_static), 0, 100.0)
        assert rep.feasible
        assert rep.violations == ()
        times = dict(rep.informed_times)
        assert times[0] == 0.0 and times[1] == 15.0 and times[2] == 25.0

    def test_condition_i_uninformed_relay(self, det_static):
        # relay 1 transmits before anyone informed it
        sched = Schedule([Transmission(1, 25.0, _w(det_static, 1, 2, 25.0))])
        rep = check_feasibility(det_static, sched, 0, 100.0)
        assert not rep.relays_informed
        assert any("relay" in v for v in rep.violations)

    def test_condition_ii_node_never_informed(self, det_static):
        sched = Schedule([Transmission(0, 15.0, _w(det_static, 0, 1, 15.0))])
        rep = check_feasibility(det_static, sched, 0, 100.0)
        assert not rep.all_informed
        assert not rep.feasible

    def test_condition_iii_latency(self, det_static):
        rep = check_feasibility(det_static, full_schedule(det_static), 0, 20.0)
        assert not rep.latency_ok  # transmission at 25 > deadline 20

    def test_condition_iv_budget(self, det_static):
        sched = full_schedule(det_static)
        ok = check_feasibility(det_static, sched, 0, 100.0, budget=sched.total_cost)
        tight = check_feasibility(
            det_static, sched, 0, 100.0, budget=sched.total_cost * 0.99
        )
        assert ok.budget_ok
        assert not tight.budget_ok
        assert not tight.feasible

    def test_no_budget_means_ok(self, det_static):
        rep = check_feasibility(det_static, full_schedule(det_static), 0, 100.0)
        assert rep.budget_ok

    def test_empty_schedule_single_node(self, det_static):
        # only the source itself informed → conditions (i), (iii), (iv) hold
        rep = check_feasibility(det_static, Schedule.empty(), 0, 100.0)
        assert rep.relays_informed and rep.latency_ok and rep.budget_ok
        assert not rep.all_informed

    def test_never_informed_fails_at_infinite_deadline(self, det_static):
        # inf > inf is false: a never-informed node must fail (ii) anyway
        rep = check_feasibility(det_static, Schedule.empty(), 0, math.inf)
        assert not rep.all_informed
        assert not rep.feasible
        assert any("not informed" in v for v in rep.violations)

    def test_tau_tightens_deadline(self, det_trace):
        from repro.tveg import tveg_from_trace

        tveg = tveg_from_trace(det_trace, "static", tau=2.0, seed=1)
        # same structure but τ = 2: latency bound uses max t_k + τ
        sched = Schedule(
            [
                Transmission(
                    0, 15.0, max(tveg.min_cost(0, 1, 15.0), tveg.min_cost(0, 3, 15.0))
                ),
                Transmission(1, 25.0, tveg.min_cost(1, 2, 25.0)),
            ]
        )
        rep = check_feasibility(tveg, sched, 0, 26.0)
        assert not rep.latency_ok  # 25 + 2 > 26

    def test_custom_eps(self, det_fading):
        # with ε = 0.999 even a feeble transmission informs
        w = 0.05 * _w(det_fading, 0, 1, 15.0)
        sched = Schedule(
            [
                Transmission(0, 15.0, w),
                Transmission(0, 16.0, 0.05 * _w(det_fading, 0, 3, 16.0)),
                Transmission(1, 25.0, 0.05 * _w(det_fading, 1, 2, 25.0)),
            ]
        )
        loose = check_feasibility(det_fading, sched, 0, 100.0, eps=0.999)
        strict = check_feasibility(det_fading, sched, 0, 100.0, eps=1e-6)
        assert loose.feasible
        assert not strict.feasible


class TestReplayKernelParity:
    """The causal-replay kernel against hand-derived outcomes: the full
    report and every node's informed time, including the same-instant
    fixpoint and fractional fading failure factors."""

    @staticmethod
    def _assert_report(rep, flags, times, violations=()):
        assert (rep.relays_informed, rep.all_informed, rep.latency_ok,
                rep.budget_ok) == flags
        assert rep.feasible == all(flags)
        assert rep.informed_times == times
        assert rep.violations == violations

    def test_feasible_schedule(self, det_static):
        rep = check_feasibility(det_static, full_schedule(det_static), 0,
                                100.0)
        self._assert_report(rep, (True, True, True, True),
                            ((0, 0.0), (1, 15.0), (2, 25.0), (3, 15.0)))

    def test_infeasible_and_unfired(self, det_static):
        sched = Schedule([Transmission(1, 25.0, _w(det_static, 1, 2, 25.0))])
        rep = check_feasibility(det_static, sched, 0, 100.0)
        inf = float("inf")
        self._assert_report(
            rep, (False, False, True, True),
            ((0, 0.0), (1, inf), (2, inf), (3, inf)),
            ("relay 1 uninformed at its transmission time 25 "
             "(no causal firing order exists)",)
            + tuple(f"node {n} not informed by T−τ=100 (informed at inf)"
                    for n in (1, 2, 3)),
        )

    def test_same_instant_chain(self, det_static):
        # From source 3, the chain 3→0→1→2 fires entirely at t=20.  Rows
        # sort by relay within an instant, so relay 0's row comes up
        # before relay 3's, which informs it: only a second fixpoint round
        # fires 0, and 1 after it.
        sched = Schedule([
            Transmission(3, 20.0, _w(det_static, 3, 0, 20.0)),
            Transmission(0, 20.0, _w(det_static, 0, 1, 20.0)),
            Transmission(1, 20.0, _w(det_static, 1, 2, 20.0)),
        ])
        assert [s.relay for s in sched] == [0, 1, 3]
        rep = check_feasibility(det_static, sched, 3, 100.0)
        self._assert_report(rep, (True, True, True, True),
                            ((0, 20.0), (1, 20.0), (2, 20.0), (3, 0.0)))
        # a mutually dependent same-instant pair never fires
        cycle = Schedule([
            Transmission(0, 20.0, _w(det_static, 0, 1, 20.0)),
            Transmission(1, 20.0, _w(det_static, 1, 0, 20.0)),
        ])
        rep = check_feasibility(det_static, cycle, 3, 100.0)
        assert not rep.relays_informed
        assert rep.violations[:2] == tuple(
            f"relay {r} uninformed at its transmission time 20 "
            "(no causal firing order exists)" for r in (0, 1)
        )

    def test_fading_probabilities(self, det_fading):
        # Each row spends 0.4·w0, so one firing leaves its receivers a
        # fractional failure factor (0.0248 for 0→1, 0.0067 for 0→3 at
        # t=15); an ε between a single factor and a product of two makes
        # the second firing the one that informs.
        sched = Schedule([
            Transmission(0, 15.0, 0.4 * _w(det_fading, 0, 1, 15.0)),
            Transmission(0, 16.0, 0.4 * _w(det_fading, 0, 1, 16.0)),
            Transmission(0, 17.0, 0.4 * _w(det_fading, 0, 3, 17.0)),
            Transmission(1, 25.0, 0.4 * _w(det_fading, 1, 2, 25.0)),
        ])
        inf = float("inf")
        never = (False, False, True, True)
        partial = (True, False, True, True)
        expected = {
            1e-6: (never, ((0, 0.0), (1, inf), (2, inf), (3, inf))),
            1e-3: (partial, ((0, 0.0), (1, 16.0), (2, inf), (3, 16.0))),
            1e-2: (partial, ((0, 0.0), (1, 16.0), (2, inf), (3, 15.0))),
            0.2: ((True, True, True, True),
                  ((0, 0.0), (1, 15.0), (2, 25.0), (3, 15.0))),
        }
        for eps, (flags, times) in expected.items():
            rep = check_feasibility(det_fading, sched, 0, 100.0, eps=eps)
            assert (rep.relays_informed, rep.all_informed, rep.latency_ok,
                    rep.budget_ok) == flags, eps
            assert rep.informed_times == times, eps

    def test_scheduler_reduce_parity_across_kernels(self):
        # full pipeline: EEDCB on the implicit numpy graph, reduced by the
        # replay passes, equals the networkx reference pipeline
        from repro.algorithms import make_scheduler
        from repro.tveg import tveg_from_trace
        from repro.traces import HaggleLikeConfig, haggle_like_trace

        from .conftest import assert_matches_reference, reference_pipeline

        trace = haggle_like_trace(HaggleLikeConfig(num_nodes=10), seed=4)
        window = trace.restrict_window(8000.0, 11000.0).shift(-8000.0)
        tveg = tveg_from_trace(window, "static", seed=4)
        result = make_scheduler("eedcb").run(tveg, 0, 2500.0)
        assert_matches_reference(result, reference_pipeline(tveg, 0, 2500.0))
        assert check_feasibility(tveg, result.schedule, 0, 2500.0).feasible


class TestInputValidation:
    """An ε the Eq. 6 rule cannot interpret and nodes the TVEG does not
    have are rejected by every entry point that reads them."""

    # relay 2 is never informed from source 0: at ε = 1 its p = 1 counted
    # as informed, and the report said so
    SCHED = Schedule([Transmission(2, 25.0, 1e-6)])

    ENTRY_POINTS = {
        "check_feasibility": lambda tv, src, node, eps: check_feasibility(
            tv, TestInputValidation.SCHED, src, 100.0, eps=eps,
            targets=(node,)),
        "remove_redundant": lambda tv, src, node, eps: remove_redundant(
            tv, TestInputValidation.SCHED, src, 100.0, eps=eps,
            targets=(node,)),
        "upgrade_and_prune": lambda tv, src, node, eps: upgrade_and_prune(
            tv, TestInputValidation.SCHED, src, 100.0, eps=eps,
            targets=(node,)),
        "lower_costs": lambda tv, src, node, eps: lower_costs(
            tv, TestInputValidation.SCHED, src, 100.0, eps=eps,
            targets=(node,)),
        "is_informed": lambda tv, src, node, eps: is_informed(
            tv, TestInputValidation.SCHED, node, 100.0, src, eps=eps),
        "informed_time": lambda tv, src, node, eps: informed_time(
            tv, TestInputValidation.SCHED, node, src, eps=eps),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("eps", [1.0, 1.5, 0.0, -0.01, math.nan])
    def test_eps_outside_unit_interval(self, det_static, entry, eps):
        with pytest.raises(ScheduleError, match="eps must lie in"):
            self.ENTRY_POINTS[entry](det_static, 0, 1, eps)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("role", ["source", "target"])
    def test_unknown_node(self, det_static, entry, role):
        src, node = (99, 1) if role == "source" else (0, 99)
        with pytest.raises(GraphModelError, match=f"unknown {role} 99"):
            self.ENTRY_POINTS[entry](det_static, src, node, None)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_valid_input_accepted(self, det_static, entry):
        self.ENTRY_POINTS[entry](det_static, 0, 1, 0.5)
