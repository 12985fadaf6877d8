"""Contact traces: model, parser round-trips, synthesis, enrichment, stats."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphModelError, TraceFormatError
from repro.traces import (
    Contact,
    ContactTrace,
    DistanceModel,
    HaggleLikeConfig,
    deterministic_trace,
    haggle_like_trace,
    parse_crawdad,
    parse_csv,
    summarize,
    uniform_trace,
    write_crawdad,
    write_csv,
)
from repro.traces.enrich import ContactDistanceProvider


class TestContactModel:
    def test_validation(self):
        with pytest.raises(TraceFormatError):
            Contact(5.0, 1.0, 0, 1)
        with pytest.raises(TraceFormatError):
            Contact(0.0, 1.0, 2, 2)

    def test_pair_and_duration(self):
        c = Contact(1.0, 3.0, 5, 2)
        assert c.pair == (2, 5)
        assert c.duration == 2.0

    def test_trace_sorted_and_inferred(self):
        tr = ContactTrace([Contact(5.0, 6.0, 1, 2), Contact(0.0, 1.0, 0, 1)])
        assert tr.contacts[0].start == 0.0
        assert set(tr.nodes) == {0, 1, 2}
        assert tr.horizon == 6.0

    def test_explicit_nodes_kept(self):
        tr = ContactTrace([Contact(0.0, 1.0, 0, 1)], nodes=(0, 1, 2, 3))
        assert tr.num_nodes == 4

    def test_restrict_nodes(self, det_trace):
        sub = det_trace.restrict_nodes([0, 1, 2])
        assert sub.num_nodes == 3
        assert all(c.u in (0, 1, 2) and c.v in (0, 1, 2) for c in sub)

    def test_restrict_window_clips(self, det_trace):
        sub = det_trace.restrict_window(15.0, 45.0)
        for c in sub:
            assert 15.0 <= c.start < c.end <= 45.0
        # the (0,1) contact [0,30) must clip to [15,30)
        pairs = {(c.pair, c.start, c.end) for c in sub}
        assert ((0, 1), 15.0, 30.0) in pairs

    def test_restrict_window_invalid(self, det_trace):
        with pytest.raises(TraceFormatError):
            det_trace.restrict_window(10.0, 10.0)

    @pytest.mark.parametrize(
        "start, end",
        [(15.0, math.nan), (math.nan, math.nan), (-math.inf, 45.0),
         (15.0, math.inf)],
    )
    def test_restrict_window_non_finite(self, det_trace, start, end):
        # a NaN bound made ``start >= end`` False and slipped through
        with pytest.raises(TraceFormatError, match="finite"):
            det_trace.restrict_window(start, end)

    def test_shift(self, det_trace):
        sub = det_trace.restrict_window(10.0, 30.0).shift(-10.0)
        assert min(c.start for c in sub) == 0.0

    def test_pair_presence_merges(self):
        tr = ContactTrace([Contact(0.0, 2.0, 0, 1), Contact(1.0, 3.0, 0, 1)])
        assert tr.pair_presence()[(0, 1)].pairs == ((0.0, 3.0),)

    def test_to_tvg(self, det_trace):
        tvg = det_trace.to_tvg()
        assert tvg.num_nodes == 4
        assert tvg.rho(0, 1, 5.0)


class TestParsers:
    def test_crawdad_round_trip(self, det_trace):
        buf = io.StringIO()
        write_crawdad(det_trace, buf)
        buf.seek(0)
        back = parse_crawdad(buf)
        assert back.num_contacts == det_trace.num_contacts
        assert {(c.pair, c.start, c.end) for c in back} == {
            (c.pair, c.start, c.end) for c in det_trace
        }

    def test_csv_round_trip(self, det_trace):
        buf = io.StringIO()
        write_csv(det_trace, buf)
        buf.seek(0)
        back = parse_csv(io.StringIO(buf.getvalue()))
        assert back.num_contacts == det_trace.num_contacts

    def test_crawdad_comments_and_extras(self):
        text = "# comment\n\n1 2 0.0 5.0 extra cols ignored\n3 3 0 1\n"
        tr = parse_crawdad(io.StringIO(text))
        assert tr.num_contacts == 1  # self-sighting dropped

    def test_crawdad_bad_line(self):
        for text in ["1 2 0.0\n", "1 2 5.0 1.0\n", "a b 0.0 1.0\n",
                     "1 2 nan 5.0\n", "1 2 0.0 inf\n", "1 2 -inf 1.0\n"]:
            with pytest.raises(TraceFormatError, match="line 2"):
                parse_crawdad(io.StringIO("0 1 0.0 1.0\n" + text))
            csv_text = "u,v,start,end\n" + text.replace(" ", ",")
            with pytest.raises(TraceFormatError, match="line 2"):
                parse_csv(io.StringIO(csv_text))

    def test_csv_missing_columns(self):
        with pytest.raises(TraceFormatError):
            parse_csv(io.StringIO("u,v,start\n1,2,0\n"))

    def test_csv_empty(self):
        with pytest.raises(TraceFormatError):
            parse_csv(io.StringIO(""))

    def test_load_trace_dispatch(self, det_trace, tmp_path):
        from repro.traces import load_trace

        p1 = tmp_path / "t.csv"
        p2 = tmp_path / "t.dat"
        write_csv(det_trace, p1)
        write_crawdad(det_trace, p2)
        assert load_trace(p1).num_contacts == det_trace.num_contacts
        assert load_trace(p2).num_contacts == det_trace.num_contacts
        for bad in (tmp_path / "bad.csv", tmp_path / "bad.dat"):
            bad.write_bytes(b"u,v,start,end\n0,1,0,1\n\xff,2,0,1\n")
            with pytest.raises(TraceFormatError, match="UTF-8"):
                load_trace(bad)


class TestSynthetic:
    def test_config_validation(self):
        with pytest.raises(TraceFormatError):
            HaggleLikeConfig(num_nodes=1)
        with pytest.raises(TraceFormatError):
            HaggleLikeConfig(gap_shape=0.9)
        with pytest.raises(TraceFormatError):
            HaggleLikeConfig(social_fraction=0.0)

    def test_reproducible(self):
        cfg = HaggleLikeConfig(num_nodes=8, horizon=3000)
        a = haggle_like_trace(cfg, seed=3)
        b = haggle_like_trace(cfg, seed=3)
        assert a.num_contacts == b.num_contacts
        assert {(c.pair, c.start) for c in a} == {(c.pair, c.start) for c in b}

    def test_horizon_respected(self):
        tr = haggle_like_trace(HaggleLikeConfig(num_nodes=8, horizon=2000), seed=1)
        assert all(c.end <= 2000 for c in tr)

    def test_degree_ramp(self):
        cfg = HaggleLikeConfig(num_nodes=15, horizon=17000, ramp_end=8000)
        stats = summarize(haggle_like_trace(cfg, seed=5))
        # the warm-up ramp: early degree well below late degree
        assert stats.mean_degree_early < 0.7 * stats.mean_degree_late

    def test_no_ramp_when_level_one(self):
        cfg = HaggleLikeConfig(
            num_nodes=15,
            horizon=17000,
            ramp_start_level=1.0,
            ramp_start=0.0,
            ramp_end=0.0,
        )
        stats = summarize(haggle_like_trace(cfg, seed=5))
        assert stats.mean_degree_early > 0.5 * stats.mean_degree_late

    def test_gap_statistics_near_target(self):
        cfg = HaggleLikeConfig(
            num_nodes=12,
            horizon=30000,
            ramp_start_level=1.0,
            ramp_start=0.0,
            ramp_end=0.0,
            mean_gap=500.0,
            rate_dispersion=1e6,  # ≈ homogeneous pairs
        )
        stats = summarize(haggle_like_trace(cfg, seed=2))
        # heavy tail but finite mean: pooled mean gap in the right ballpark
        assert 200.0 < stats.mean_inter_contact < 1500.0

    def test_uniform_trace(self):
        tr = uniform_trace(6, 1000.0, 100.0, 50.0, seed=0)
        assert tr.num_nodes == 6
        assert all(c.end <= 1000.0 for c in tr)


class TestDistanceModel:
    def test_validation(self):
        with pytest.raises(TraceFormatError):
            DistanceModel(d_min=5.0, d_max=2.0)
        with pytest.raises(TraceFormatError):
            DistanceModel(profile="teleport")

    @pytest.mark.parametrize("profile", ["constant", "approach", "wander"])
    def test_within_bounds(self, det_trace, profile):
        dm = DistanceModel(d_min=2.0, d_max=10.0, profile=profile)
        provider = dm.attach(det_trace, seed=0)
        for c in det_trace:
            for f in (0.0, 0.25, 0.5, 0.99):
                t = c.start + f * c.duration
                d = provider(c.u, c.v, t)
                assert 2.0 <= d <= 10.0

    def test_constant_profile_really_constant(self, det_trace):
        provider = DistanceModel(profile="constant").attach(det_trace, seed=0)
        c = det_trace.contacts[0]
        ds = {provider(c.u, c.v, c.start + f * c.duration) for f in (0.0, 0.5, 0.9)}
        assert len(ds) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.floats(-1e6, 1e6),
        length=st.one_of(st.just(0.0), st.floats(0.0, 1e5)),
        frac=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        d=st.floats(2.0, 10.0),
    )
    def test_constant_profile_is_the_two_knot_interpolation(
        self, start, length, frac, d
    ):
        # the drawn float, returned as is, is what np.interp over the
        # two equal knots [(start, d), (end, d)] returns at every t in
        # [start, end], endpoints and zero-length spans included
        end = start + length
        t = min(max(start + frac * (end - start), start), end)
        knots = np.interp(t, np.array([start, end]), np.array([d, d]))
        provider = ContactDistanceProvider({(0, 1): (0, 1)}, [start], [end],
                                           [d], constant_within_contacts=True)
        assert provider(0, 1, t).hex() == float(knots).hex()

    def test_outside_contact_raises(self, det_trace):
        provider = DistanceModel().attach(det_trace, seed=0)
        with pytest.raises(GraphModelError):
            provider(0, 1, 45.0)  # gap between the two (0,1) contacts

    def test_seeded_reproducible(self, det_trace):
        a = DistanceModel().attach(det_trace, seed=4)
        b = DistanceModel().attach(det_trace, seed=4)
        c = det_trace.contacts[0]
        assert a(c.u, c.v, c.start) == b(c.u, c.v, c.start)


class TestStats:
    def test_summary_fields(self):
        tr = deterministic_trace()
        s = summarize(tr)
        assert s.num_nodes == 4
        assert s.num_contacts == 5
        assert s.possible_pairs == 6
        assert s.social_pairs == 4
        assert s.mean_contact_duration > 0
        assert 0 < s.temporal_density < 1
        d = s.as_dict()
        assert set(d) >= {"num_nodes", "mean_inter_contact", "temporal_density"}
