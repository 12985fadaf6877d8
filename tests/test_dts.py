"""DTS theory (Section V): partitions, status points, DTS construction."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dts import (
    adjacent_partition,
    all_adjacent_partitions,
    build_dts,
    pair_partition,
    status_points,
)
from repro.temporal.tvg import TVG
from repro.traces import Contact, ContactTrace
from repro.tveg import tveg_from_trace

from .dts_oracle import dts_points


class TestPairPartition:
    def test_deterministic_trace(self, det_tvg):
        # edge (0,1): presence [0,30) ∪ [60,100) → boundaries 0,30,60,100
        p = pair_partition(det_tvg, 0, 1)
        assert p.points == (0.0, 30.0, 60.0, 100.0)

    def test_alternating_intervals(self, det_tvg):
        # each interval is fully adjacent or fully non-adjacent
        p = pair_partition(det_tvg, 0, 1)
        adj = det_tvg.adjacency_set(0, 1)
        for iv in p.intervals():
            mid = (iv.start + iv.end) / 2
            inside = adj.contains_point(mid)
            assert adj.contains_point(iv.start + 1e-9) == inside

    def test_never_adjacent_pair(self, det_tvg):
        p = pair_partition(det_tvg, 0, 2)
        assert p.points == (0.0, 100.0)

    def test_deadline_clips(self, det_tvg):
        p = pair_partition(det_tvg, 0, 1, deadline=50.0)
        assert p.points == (0.0, 30.0, 50.0)


class TestAdjacentPartition:
    def test_matches_paper_eq9(self, det_tvg):
        # P^ad_0 = P^ad_{0,1} ∪ P^ad_{0,2} ∪ P^ad_{0,3}
        p0 = adjacent_partition(det_tvg, 0)
        assert p0.points == (0.0, 10.0, 25.0, 30.0, 60.0, 100.0)

    def test_neighbor_set_constant_inside_intervals(self, det_tvg):
        for node in det_tvg.nodes:
            p = adjacent_partition(det_tvg, node)
            for iv in p.intervals():
                probes = [iv.start + f * (iv.end - iv.start) for f in (1e-6, 0.5, 1 - 1e-6)]
                sets = [frozenset(det_tvg.neighbors(node, t)) for t in probes]
                assert len(set(sets)) == 1

    def test_all_adjacent_partitions_consistent(self, det_tvg):
        allp = all_adjacent_partitions(det_tvg)
        for node in det_tvg.nodes:
            assert allp[node] == adjacent_partition(det_tvg, node)


class TestStatusPoints:
    def test_tau_zero_is_boundary_union(self, det_tvg):
        pts = status_points(det_tvg)
        assert set(pts) == {0.0, 10.0, 20.0, 25.0, 30.0, 40.0, 50.0, 60.0, 80.0, 100.0}

    def test_tau_positive_triggers_shifts(self):
        g = TVG([0, 1, 2], 100.0, tau=5.0)
        g.add_contact(0, 1, 10.0, 30.0)
        g.add_contact(1, 2, 10.0, 30.0)
        pts = status_points(g)
        assert 10.0 in pts
        assert 15.0 in pts  # 10 + τ
        assert 20.0 in pts  # 10 + 2τ (journey depth 2)

    def test_deadline_clips(self, det_tvg):
        pts = status_points(det_tvg, deadline=35.0)
        assert max(pts) <= 35.0

    def test_max_depth_limits_triggers(self):
        g = TVG([0, 1, 2, 3, 4], 1000.0, tau=7.0)
        g.add_contact(0, 1, 0.0, 1000.0)
        pts1 = status_points(g, max_depth=1)
        pts4 = status_points(g, max_depth=4)
        assert len(pts4) > len(pts1)


class TestBuildDTS:
    def test_points_contain_adjacency_starts(self, det_tvg):
        dts = build_dts(det_tvg)
        # node 0's contact starts must be transmission opportunities
        pts = dts.points(0)
        for t in (0.0, 10.0, 60.0):
            assert t in pts

    def test_pruning_drops_isolated_points(self, det_tvg):
        dts = build_dts(det_tvg, prune=True)
        # node 2 has contacts only during [20,50) and [40,80) → [20,80);
        # e.g. the global point 10.0 is useless for node 2
        assert 10.0 not in dts.points(2)
        unpruned = build_dts(det_tvg, prune=False)
        assert 10.0 in unpruned.points(2)

    def test_pruned_subset_of_unpruned(self, det_tvg):
        pruned = build_dts(det_tvg, prune=True)
        unpruned = build_dts(det_tvg, prune=False)
        for n in det_tvg.nodes:
            assert set(pruned.points(n)) <= set(unpruned.points(n))

    def test_span_endpoints_always_present(self, det_tvg):
        dts = build_dts(det_tvg, deadline=70.0)
        for n in det_tvg.nodes:
            assert dts.points(n)[0] == 0.0
            assert dts.points(n)[-1] == 70.0

    def test_contains(self, det_tvg):
        dts = build_dts(det_tvg)
        assert dts.contains(0, 10.0)
        assert dts.contains(0, 10.0 + 1e-12)
        assert not dts.contains(0, 11.0)

    def test_total_points(self, det_tvg):
        dts = build_dts(det_tvg)
        assert dts.total_points() == sum(len(dts.points(n)) for n in det_tvg.nodes)

    def test_points_are_read_only_views(self, det_tvg):
        dts = build_dts(det_tvg)
        pts = dts.points(0)
        assert pts.base is not None and not pts.flags.writeable
        assert np.array_equal(dts.grid[dts.grid_mask(0)], pts)
        assert dts.partition(0).points == tuple(pts.tolist())
        assert type(dts.contains(0, 10.0)) is bool

    def test_zero_deadline_is_one_point(self, det_tvg):
        dts = build_dts(det_tvg, deadline=0.0)
        for n in det_tvg.nodes:
            assert dts.points(n).tolist() == [0.0]
            assert dts.contains(n, 0.0)
            assert not dts.contains(n, 1.0)
        assert dts.total_points() == det_tvg.num_nodes


HORIZON = 120.0


@st.composite
def random_tvgs(draw):
    """Random 5-node traces on a 120 s horizon, as the TVG of a static or
    Rayleigh TVEG with τ ∈ {0, 1, 5}."""
    contacts = []
    for _ in range(draw(st.integers(0, 14))):
        u, v = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        if u == v:
            continue
        start = draw(st.floats(0.0, HORIZON - 10.0))
        end = min(start + draw(st.floats(0.5, 50.0)), HORIZON)
        contacts.append(Contact(start, end, u, v))
    trace = ContactTrace(contacts, nodes=tuple(range(5)), horizon=HORIZON)
    return tveg_from_trace(
        trace, draw(st.sampled_from(("static", "rayleigh"))),
        seed=draw(st.integers(0, 2**16)),
        tau=draw(st.sampled_from((0.0, 1.0, 5.0))),
    ).tvg


@given(
    random_tvgs(),
    st.one_of(st.just(0.0), st.floats(1e-3, HORIZON - 1e-3),
              st.just(HORIZON), st.floats(HORIZON + 1e-3, 4 * HORIZON)),
    st.booleans(),
    st.sampled_from((None, 1, 2)),
)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_dts_matches_sweep_reference(tvg, deadline, prune, max_depth):
    """Every node's points, byte for byte, equal the sweep-based
    construction's (``tests/dts_oracle.py``)."""
    dts = build_dts(tvg, deadline, prune=prune, max_depth=max_depth)
    ref = dts_points(tvg, deadline, prune=prune, max_depth=max_depth)
    assert dts.nodes == tvg.nodes
    for node in tvg.nodes:
        expected = np.array(ref[node], dtype=np.float64)
        assert dts.points(node).tobytes() == expected.tobytes()
    assert dts.total_points() == sum(len(p) for p in ref.values())
