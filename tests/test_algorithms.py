"""Schedulers: EEDCB, baselines, registry, oracle cross-checks."""

import math

import pytest

from repro.algorithms import SCHEDULERS, make_scheduler
from repro.algorithms.eventsim import event_times
from repro.errors import InfeasibleError, SolverError
from repro.schedule import check_feasibility
from repro.tveg import tveg_from_trace

from .conftest import make_random_instance


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        for name in ("eedcb", "fr-eedcb", "greed", "fr-greed", "rand", "fr-rand"):
            assert name in SCHEDULERS

    def test_unknown_name(self):
        with pytest.raises(SolverError):
            make_scheduler("nope")

    def test_case_insensitive(self):
        assert make_scheduler("EEDCB").name == "eedcb"


class TestEEDCB:
    def test_feasible_on_det_trace(self, det_static):
        res = make_scheduler("eedcb").run(det_static, 0, 100.0)
        assert check_feasibility(det_static, res.schedule, 0, 100.0).feasible

    def test_every_source(self, det_static):
        for src in det_static.nodes:
            res = make_scheduler("eedcb").run(det_static, src, 100.0)
            assert check_feasibility(det_static, res.schedule, src, 100.0).feasible

    def test_infeasible_deadline_raises(self, det_static):
        with pytest.raises(InfeasibleError):
            # by t=15 node 2 is unreachable (its first contact starts at 20)
            make_scheduler("eedcb").run(det_static, 0, 15.0)

    def test_nonzero_start_rejected(self, det_static):
        with pytest.raises(InfeasibleError):
            make_scheduler("eedcb").run(det_static, 0, 100.0, start_time=5.0)

    def test_tighter_deadline_never_cheaper(self, det_static):
        loose = make_scheduler("eedcb").run(det_static, 0, 100.0).schedule
        tight = make_scheduler("eedcb").run(det_static, 0, 60.0).schedule
        assert check_feasibility(det_static, tight, 0, 60.0).feasible
        # heuristic, so allow equality but the tight run must not be cheaper
        # by more than solver noise
        assert loose.total_cost <= tight.total_cost * 1.0 + 1e-18

    def test_matches_oracle_on_small_instances(self):
        matched = 0
        for seed in range(6):
            trace, tveg = make_random_instance(num_nodes=5, horizon=200.0, seed=seed)
            try:
                opt = make_scheduler("oracle").run(tveg, 0, 200.0)
            except InfeasibleError:
                continue
            res = make_scheduler("eedcb").run(tveg, 0, 200.0)
            assert check_feasibility(tveg, res.schedule, 0, 200.0).feasible
            # approximation: never better than optimal, never absurdly worse
            assert res.schedule.total_cost >= opt.schedule.total_cost - 1e-18
            assert res.schedule.total_cost <= 4.0 * opt.schedule.total_cost
            matched += 1
        assert matched >= 3  # enough instances actually exercised

    def test_solver_method_selectable(self, det_static):
        for method in ("greedy", "sptree", "charikar"):
            res = make_scheduler("eedcb", memt_method=method).run(det_static, 0, 100.0)
            assert check_feasibility(det_static, res.schedule, 0, 100.0).feasible


class TestBaselines:
    def test_greed_feasible(self, det_static):
        res = make_scheduler("greed").run(det_static, 0, 100.0)
        assert check_feasibility(det_static, res.schedule, 0, 100.0).feasible
        assert res.info["informed"] == 4

    def test_rand_feasible_and_seeded(self, det_static):
        a = make_scheduler("rand", seed=42).run(det_static, 0, 100.0).schedule
        b = make_scheduler("rand", seed=42).run(det_static, 0, 100.0).schedule
        assert a == b
        assert check_feasibility(det_static, a, 0, 100.0).feasible

    def test_eedcb_never_worse_than_baselines(self):
        wins = 0
        total = 0
        for seed in range(5):
            _, tveg = make_random_instance(num_nodes=8, horizon=300.0, seed=seed + 10)
            try:
                e = make_scheduler("eedcb").run(tveg, 0, 300.0).schedule
            except InfeasibleError:
                continue
            g = make_scheduler("greed").run(tveg, 0, 300.0).schedule
            r = make_scheduler("rand", seed=seed).run(tveg, 0, 300.0).schedule
            total += 1
            if e.total_cost <= g.total_cost + 1e-18 and e.total_cost <= r.total_cost + 1e-18:
                wins += 1
        assert total >= 3
        assert wins == total  # EEDCB must dominate on every solvable instance

    def test_greedy_min_policy(self, det_static):
        res = make_scheduler("greed", power_policy="min").run(det_static, 0, 100.0)
        # min policy still eventually informs everyone on this trace
        assert res.info["informed"] == 4

    def test_unknown_policy(self, det_static):
        with pytest.raises(SolverError):
            make_scheduler("greed", power_policy="max").run(det_static, 0, 100.0)

    def test_partial_coverage_reported(self, det_static):
        res = make_scheduler("greed").run(det_static, 0, 15.0)
        assert res.info["informed"] < 4  # node 2 unreachable by 15

    def test_event_times_restricted_to_window(self, det_static):
        ts = event_times(det_static, 0.0, 50.0)
        assert all(0.0 <= t <= 50.0 for t in ts)
        assert 0.0 in ts and 20.0 in ts


class TestFadingSchedulers:
    def test_fr_eedcb_feasible(self, det_fading):
        res = make_scheduler("fr-eedcb").run(det_fading, 0, 100.0)
        rep = check_feasibility(det_fading, res.schedule, 0, 100.0)
        assert rep.feasible
        assert res.info["allocated_cost"] <= res.info["backbone_cost"] * 1.001

    def test_fr_on_static_rejected(self, det_static):
        texts = {
            "fr-eedcb": "FR-EEDCB targets fading channels; use EEDCB on static ones",
            "fr-greed": "FR-GREED targets fading channels; use GREED on static ones",
            "fr-rand": "FR-RAND targets fading channels; use RAND on static ones",
        }
        for name, text in texts.items():
            with pytest.raises(SolverError) as err:
                make_scheduler(name).run(det_static, 0, 100.0)
            assert str(err.value) == text

    def test_fr_eedcb_source_only_targets(self):
        # EEDCB reports no ``informed``, so a source-only multicast is no
        # partial backbone: its empty schedule goes through the allocation.
        _, fading = make_random_instance(seed=2, channel="rayleigh")
        res = make_scheduler("fr-eedcb", targets=(0,)).run(fading, 0, 300.0)
        assert len(res.schedule) == 0
        assert res.info["allocation_method"] == "closed_form"
        assert res.info["allocated_cost"] == 0.0

    def test_fr_family_shares_one_info_schema(self):
        _, fading = make_random_instance(seed=2, channel="rayleigh")
        added = {}
        for name, backbone in (("fr-eedcb", "eedcb"), ("fr-greed", "greed"),
                               ("fr-rand", "rand")):
            kwargs = {"seed": 4} if "rand" in name else {}
            fr = make_scheduler(name, **kwargs).run(fading, 0, 300.0)
            base = make_scheduler(backbone, **kwargs).run(fading, 0, 300.0)
            rows = [(s.relay, s.time) for s in fr.schedule]
            assert rows == [(s.relay, s.time) for s in base.schedule], name
            assert fr.info["backbone_cost"] == base.schedule.total_cost, name
            added[name] = set(fr.info) - set(base.info)
            assert set(fr.info["stage_seconds"]) == (
                set(base.info["stage_seconds"]) | {"allocation"}
            ), name
        assert added["fr-eedcb"] == added["fr-greed"] == added["fr-rand"] == {
            "allocation_method", "slsqp_converged", "backbone_feasible",
            "backbone_cost", "allocated_cost", "num_constraints",
            "nlp_iterations",
        }

    def test_fr_greed_and_rand_feasible(self, det_fading):
        for name in ("fr-greed", "fr-rand"):
            kwargs = {"seed": 1} if name == "fr-rand" else {}
            res = make_scheduler(name, **kwargs).run(det_fading, 0, 100.0)
            rep = check_feasibility(det_fading, res.schedule, 0, 100.0)
            assert rep.feasible, (name, rep.violations)

    def test_fr_costs_exceed_static(self, paired_tvegs):
        static, fading = paired_tvegs
        e = make_scheduler("eedcb").run(static, 0, 100.0).schedule
        f = make_scheduler("fr-eedcb").run(fading, 0, 100.0).schedule
        # guaranteeing ε under fading costs much more than the static minimum
        assert f.total_cost > e.total_cost

    def test_fr_partial_coverage_keeps_backbone_costs(self, det_fading):
        res = make_scheduler("fr-greed").run(det_fading, 0, 15.0)
        assert res.info["allocation_method"] == "backbone (partial coverage)"


class TestOracle:
    def test_optimal_on_det_trace(self, det_static):
        res = make_scheduler("oracle").run(det_static, 0, 100.0)
        rep = check_feasibility(det_static, res.schedule, 0, 100.0)
        assert rep.feasible
        assert res.schedule.total_cost == pytest.approx(res.info["optimal_cost"])

    def test_size_guard(self):
        _, tveg = make_random_instance(num_nodes=12, horizon=100.0, seed=0)
        with pytest.raises(SolverError):
            make_scheduler("oracle").run(tveg, 0, 100.0)

    def test_infeasible(self, det_static):
        with pytest.raises(InfeasibleError):
            make_scheduler("oracle").run(det_static, 0, 15.0)

    def test_oracle_beats_or_ties_every_heuristic(self, det_static):
        opt = make_scheduler("oracle").run(det_static, 0, 100.0).schedule
        for name in ("eedcb", "greed"):
            h = make_scheduler(name).run(det_static, 0, 100.0).schedule
            assert opt.total_cost <= h.total_cost + 1e-18
