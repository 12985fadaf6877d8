"""TVEG (Definition 3.2): ψ, min costs, discrete cost sets (Prop. 6.1)."""

import math

import pytest

from repro.channels import AbsentED, RayleighED, StepED
from repro.errors import ScheduleError
from repro.params import PAPER_PARAMS
from repro.traces import deterministic_trace
from repro.tveg import discrete_cost_set, tveg_from_trace
from repro.tveg.costsets import DiscreteCostSet


class TestTVEGQueries:
    def test_ed_absent_when_not_adjacent(self, det_static):
        # nodes 0 and 2 never share a contact
        assert isinstance(det_static.ed(0, 2, 15.0), AbsentED)
        # node 0 and 1 in contact at 15 → step ED
        assert isinstance(det_static.ed(0, 1, 15.0), StepED)

    def test_ed_outside_contact_window(self, det_static):
        assert isinstance(det_static.ed(0, 1, 45.0), AbsentED)

    def test_fading_ed(self, det_fading):
        assert isinstance(det_fading.ed(0, 1, 15.0), RayleighED)

    def test_min_cost_static_matches_eq2(self, det_static):
        d = det_static.distance(0, 1, 15.0)
        assert det_static.min_cost(0, 1, 15.0) == pytest.approx(
            PAPER_PARAMS.static_min_cost(d ** -2.0)
        )

    def test_min_cost_fading_matches_w0(self, det_fading):
        d = det_fading.distance(0, 1, 15.0)
        assert det_fading.min_cost(0, 1, 15.0) == pytest.approx(
            PAPER_PARAMS.rayleigh_single_hop_cost(d)
        )

    def test_min_cost_infinite_when_absent(self, det_static):
        assert det_static.min_cost(0, 2, 15.0) == math.inf

    def test_failure(self, det_static):
        w = det_static.min_cost(0, 1, 15.0)
        assert det_static.failure(0, 1, 15.0, w) == 0.0
        assert det_static.failure(0, 1, 15.0, w * 0.99) == 1.0

    def test_shared_geometry(self, paired_tvegs):
        static, fading = paired_tvegs
        assert static.distance(0, 1, 15.0) == fading.distance(0, 1, 15.0)

    def test_passthrough_properties(self, det_static):
        assert det_static.num_nodes == 4
        assert det_static.horizon == 100.0
        assert det_static.tau == 0.0
        assert not det_static.is_fading


class TestDiscreteCostSet:
    def test_construction(self, det_static):
        dcs = discrete_cost_set(det_static, 0, 15.0)
        assert dcs.node == 0
        assert len(dcs) == 2
        assert set(dcs.neighbors) == {1, 3}
        assert dcs.costs == tuple(sorted(dcs.costs))

    def test_empty_when_isolated(self, det_static):
        dcs = discrete_cost_set(det_static, 2, 5.0)
        assert dcs.is_empty

    def test_coverage_broadcast_nature(self, det_static):
        # Property 6.1(i): cost w^k informs every neighbor with cost ≤ w^k
        dcs = discrete_cost_set(det_static, 0, 15.0)
        w1, w2 = dcs.costs
        assert len(dcs.coverage(w1)) == 1
        assert set(dcs.coverage(w2)) == {1, 3}
        assert dcs.coverage(0.0) == ()

    def test_round_down(self):
        dcs = DiscreteCostSet(node=0, time=0.0, entries=((1.0, "a"), (3.0, "b")))
        assert dcs.round_down(2.5) == 1.0
        assert dcs.round_down(3.0) == 3.0
        assert dcs.round_down(99.0) == 3.0
        with pytest.raises(ScheduleError):
            dcs.round_down(0.5)

    def test_round_down_preserves_coverage(self):
        # Property 6.1(ii): rounding w down to a DCS level keeps coverage
        dcs = DiscreteCostSet(node=0, time=0.0, entries=((1.0, "a"), (3.0, "b")))
        for w in (1.0, 1.5, 2.9, 3.0, 10.0):
            assert dcs.coverage(dcs.round_down(w)) == dcs.coverage(w)

    def test_cost_to_cover(self):
        dcs = DiscreteCostSet(node=0, time=0.0, entries=((1.0, "a"), (3.0, "b")))
        assert dcs.cost_to_cover(["a"]) == 1.0
        assert dcs.cost_to_cover(["a", "b"]) == 3.0
        assert dcs.cost_to_cover([]) == 0.0
        assert dcs.cost_to_cover(["z"]) == math.inf

    def test_level_index(self):
        dcs = DiscreteCostSet(node=0, time=0.0, entries=((1.0, "a"), (3.0, "b")))
        assert dcs.level_index(3.0) == 1
        with pytest.raises(ScheduleError):
            dcs.level_index(2.0)


class TestBuilders:
    def test_same_seed_same_distances(self):
        tr = deterministic_trace()
        a = tveg_from_trace(tr, "static", seed=7)
        b = tveg_from_trace(tr, "rayleigh", seed=7)
        assert a.distance(0, 1, 5.0) == b.distance(0, 1, 5.0)

    def test_unknown_channel_rejected(self):
        from repro.errors import GraphModelError

        with pytest.raises(GraphModelError):
            tveg_from_trace(deterministic_trace(), "quantum")

    def test_channel_instance_passthrough(self):
        from repro.channels import NakagamiChannel

        ch = NakagamiChannel(PAPER_PARAMS, m=3.0)
        tveg = tveg_from_trace(deterministic_trace(), ch, seed=1)
        assert tveg.channel is ch
