"""Mobility: random waypoint generation and position-trace queries."""

import numpy as np
import pytest

from repro.errors import GraphModelError
from repro.mobility import PositionTrace, RandomWaypoint

from .conftest import assert_matches_reference, reference_pipeline


class TestPositionTrace:
    @pytest.fixture
    def linear_trace(self):
        # two nodes closing from distance 10 to 0 over 10 s
        times = np.array([0.0, 10.0])
        pos = np.array(
            [
                [[0.0, 0.0], [10.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0]],
            ]
        )
        return PositionTrace(times, pos)

    def test_validation(self):
        with pytest.raises(GraphModelError):
            PositionTrace(np.array([0.0]), np.zeros((1, 2, 2)))
        with pytest.raises(GraphModelError):
            PositionTrace(np.array([0.0, 0.0]), np.zeros((2, 2, 2)))
        with pytest.raises(GraphModelError):
            PositionTrace(np.array([0.0, 1.0]), np.zeros((2, 2, 3)))

    def test_interpolated_positions(self, linear_trace):
        p = linear_trace.position(1, 5.0)
        assert p == pytest.approx([5.0, 0.0])

    def test_distance(self, linear_trace):
        assert linear_trace.distance(0, 1, 0.0) == pytest.approx(10.0)
        assert linear_trace.distance(0, 1, 5.0) == pytest.approx(5.0)

    def test_distance_provider_floor(self, linear_trace):
        provider = linear_trace.distance_provider(min_distance=0.5)
        assert provider(0, 1, 10.0) == 0.5

    def test_extract_contacts(self, linear_trace):
        # refine sampling so thresholding at 4 m catches the approach
        times = np.linspace(0, 10, 11)
        pos = np.stack(
            [
                np.stack([linear_trace.position(0, t) for t in times]),
                np.stack([linear_trace.position(1, t) for t in times]),
            ],
            axis=1,
        )
        tr = PositionTrace(times, pos).extract_contacts(radio_range=4.0)
        assert tr.num_contacts == 1
        c = tr.contacts[0]
        assert c.start == pytest.approx(6.0)  # first sample with d ≤ 4

    def test_extract_contacts_invalid_range(self, linear_trace):
        with pytest.raises(GraphModelError):
            linear_trace.extract_contacts(0.0)


class TestRandomWaypoint:
    def test_validation(self):
        with pytest.raises(GraphModelError):
            RandomWaypoint(num_nodes=1)
        with pytest.raises(GraphModelError):
            RandomWaypoint(speed_range=(0.0, 1.0))
        with pytest.raises(GraphModelError):
            RandomWaypoint(pause_range=(5.0, 1.0))

    def test_positions_in_area(self):
        rw = RandomWaypoint(num_nodes=5, area=(50.0, 30.0))
        trace = rw.generate(horizon=600.0, sample_dt=10.0, seed=0)
        for node in trace.nodes:
            for t in (0.0, 100.0, 599.0):
                x, y = trace.position(node, t)
                assert -1e-9 <= x <= 50.0 + 1e-9
                assert -1e-9 <= y <= 30.0 + 1e-9

    def test_speed_bounded(self):
        rw = RandomWaypoint(num_nodes=3, speed_range=(1.0, 2.0), pause_range=(0.0, 0.0))
        trace = rw.generate(horizon=300.0, sample_dt=5.0, seed=1)
        for node in trace.nodes:
            for k in range(len(trace.times) - 1):
                d = np.linalg.norm(
                    trace.position(node, trace.times[k + 1])
                    - trace.position(node, trace.times[k])
                )
                dt = trace.times[k + 1] - trace.times[k]
                assert d <= 2.0 * dt + 1e-6  # never faster than max speed

    def test_reproducible(self):
        rw = RandomWaypoint(num_nodes=4)
        a = rw.generate(200.0, 10.0, seed=9)
        b = rw.generate(200.0, 10.0, seed=9)
        assert np.allclose(
            [a.position(0, 150.0), a.position(3, 150.0)],
            [b.position(0, 150.0), b.position(3, 150.0)],
        )

    def test_end_to_end_tveg_pipeline(self):
        # mobility → contacts → TVEG → scheduler (the second TVEG source)
        from repro.algorithms import make_scheduler
        from repro.channels import StaticChannel
        from repro.errors import InfeasibleError
        from repro.params import PAPER_PARAMS
        from repro.schedule import check_feasibility
        from repro.temporal.reachability import broadcast_feasible_sources
        from repro.tveg import TVEG

        rw = RandomWaypoint(num_nodes=6, area=(40.0, 40.0), speed_range=(1.0, 3.0))
        ptrace = rw.generate(horizon=900.0, sample_dt=5.0, seed=12)
        contacts = ptrace.extract_contacts(radio_range=12.0)
        tvg = contacts.to_tvg(horizon=900.0)
        feasible = broadcast_feasible_sources(tvg, 0.0, 900.0)
        if not feasible:
            pytest.skip("mobility draw produced no feasible source")
        src = sorted(feasible)[0]
        tveg = TVEG(tvg, StaticChannel(PAPER_PARAMS), ptrace.distance_provider())
        assert not tveg.cost_cacheable  # distances vary within contacts
        result = make_scheduler("eedcb").run(tveg, src, 900.0)
        assert_matches_reference(result, reference_pipeline(tveg, src, 900.0))
        assert check_feasibility(tveg, result.schedule, src, 900.0).feasible
