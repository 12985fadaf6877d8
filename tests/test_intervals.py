"""Interval algebra: unit behaviour + hypothesis laws."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval, IntervalSet, merge_all
from repro.errors import IntervalError

# ----------------------------------------------------------------------
# Interval
# ----------------------------------------------------------------------
class TestInterval:
    def test_basic_properties(self):
        iv = Interval(1.0, 3.0)
        assert iv.length == 2.0
        assert not iv.empty
        assert 1.0 in iv
        assert 2.999 in iv
        assert 3.0 not in iv  # half-open
        assert 0.999 not in iv

    def test_degenerate_is_empty(self):
        assert Interval(2.0, 2.0).empty
        assert Interval(2.0, 2.0).length == 0.0

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(IntervalError):
            Interval(3.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(IntervalError):
            Interval(math.nan, 1.0)

    def test_overlaps(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))
        assert not Interval(0, 2).overlaps(Interval(2, 3))  # adjacency ≠ overlap
        assert not Interval(0, 1).overlaps(Interval(2, 3))

    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 8)) == Interval(3, 5)
        assert Interval(0, 2).intersection(Interval(3, 4)).empty

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 5))
        assert not Interval(0, 10).contains_interval(Interval(5, 11))
        assert Interval(0, 1).contains_interval(Interval(5, 5))  # empty always

    def test_shift_and_clamp(self):
        assert Interval(1, 2).shift(3) == Interval(4, 5)
        assert Interval(0, 10).clamp(2, 5) == Interval(2, 5)


# ----------------------------------------------------------------------
# IntervalSet — unit behaviour
# ----------------------------------------------------------------------
class TestIntervalSet:
    def test_normalization_merges_overlaps(self):
        s = IntervalSet([(0, 2), (1, 3), (5, 6)])
        assert s.pairs == ((0.0, 3.0), (5.0, 6.0))

    def test_normalization_merges_adjacent(self):
        s = IntervalSet([(0, 1), (1, 2)])
        assert s.pairs == ((0.0, 2.0),)

    def test_empties_dropped(self):
        s = IntervalSet([(1, 1), (2, 2)])
        assert s.is_empty

    def test_membership(self):
        s = IntervalSet([(0, 1), (2, 3)])
        assert s.contains_point(0.5)
        assert not s.contains_point(1.5)
        assert s.contains_point(2.0)
        assert not s.contains_point(3.0)

    def test_covers_window(self):
        s = IntervalSet([(0, 10)])
        assert s.covers(2, 5)
        assert not s.covers(8, 12)
        assert s.covers(3, 3)  # degenerate → point membership

    def test_covers_rejects_reversed(self):
        with pytest.raises(IntervalError):
            IntervalSet([(0, 1)]).covers(2, 1)

    def test_interval_at(self):
        s = IntervalSet([(0, 1), (2, 3)])
        assert s.interval_at(2.5) == Interval(2, 3)
        with pytest.raises(IntervalError):
            s.interval_at(1.5)

    def test_next_start_after(self):
        s = IntervalSet([(0, 1), (5, 6)])
        assert s.next_start_after(0.0) == 5.0
        assert s.next_start_after(5.0) == math.inf

    def test_measure_and_span(self):
        s = IntervalSet([(0, 1), (2, 4)])
        assert s.measure == 3.0
        assert s.span == Interval(0, 4)

    def test_erode_is_rho_tau(self):
        s = IntervalSet([(0, 10), (20, 22)])
        e = s.erode(3.0)
        # [20,22) too short for τ=3.  The float before 7 is out too: its
        # sum with 3 is a tie between 10 and the float before 10, which
        # rounds to even, 10, so covers() rejects its window.
        assert e.pairs == ((0.0, math.nextafter(7.0, 0.0)),)
        # t in erode(τ) ⟺ [t, t+τ] ⊆ presence
        assert e.contains_point(7.0 - 1e-9)
        assert not e.contains_point(7.0)

    def test_erode_zero_identity(self):
        s = IntervalSet([(0, 1)])
        assert s.erode(0.0) == s

    def test_erode_negative_rejected(self):
        with pytest.raises(IntervalError):
            IntervalSet([(0, 1)]).erode(-1.0)

    def test_complement(self):
        s = IntervalSet([(1, 2), (4, 5)])
        c = s.complement(0, 6)
        assert c.pairs == ((0.0, 1.0), (2.0, 4.0), (5.0, 6.0))

    def test_complement_of_empty(self):
        assert IntervalSet().complement(0, 3).pairs == ((0.0, 3.0),)

    def test_boundaries(self):
        s = IntervalSet([(0, 1), (3, 5)])
        assert s.boundaries() == (0.0, 1.0, 3.0, 5.0)
        assert s.boundaries_within(0.5, 4.0) == (1.0, 3.0)

    def test_merge_all(self):
        sets = [IntervalSet([(0, 1)]), IntervalSet([(1, 2)]), IntervalSet([(5, 6)])]
        assert merge_all(sets).pairs == ((0.0, 2.0), (5.0, 6.0))


# ----------------------------------------------------------------------
# IntervalSet — hypothesis laws
# ----------------------------------------------------------------------
finite = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)


@st.composite
def interval_sets(draw, max_components=6):
    k = draw(st.integers(0, max_components))
    pairs = []
    for _ in range(k):
        a = draw(finite)
        b = draw(finite)
        pairs.append((min(a, b), max(a, b)))
    return IntervalSet(pairs)


@given(interval_sets(), interval_sets())
def test_union_commutative(a, b):
    assert a | b == b | a


@given(interval_sets(), interval_sets(), interval_sets())
@settings(max_examples=50)
def test_union_associative(a, b, c):
    assert (a | b) | c == a | (b | c)


@given(interval_sets(), interval_sets())
def test_intersection_commutative(a, b):
    assert (a & b) == (b & a)


@given(interval_sets())
def test_union_idempotent(a):
    assert a | a == a


@given(interval_sets(), interval_sets(), finite)
def test_union_membership(a, b, t):
    assert (a | b).contains_point(t) == (a.contains_point(t) or b.contains_point(t))


@given(interval_sets(), interval_sets(), finite)
def test_intersection_membership(a, b, t):
    assert (a & b).contains_point(t) == (a.contains_point(t) and b.contains_point(t))


@given(interval_sets(), finite)
def test_complement_membership(a, t):
    c = a.complement(0.0, 1000.0)
    if t < 1000.0:
        assert c.contains_point(t) == (not a.contains_point(t))


@given(interval_sets())
def test_measure_additive_under_complement(a):
    c = a.complement(0.0, 1000.0)
    clamped = a.clamp(0.0, 1000.0)
    assert clamped.measure + c.measure == pytest.approx(1000.0)


def _ulps_from(x, k):
    """The float ``k`` steps from ``x`` in the order of the floats."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def erode_probes(draw):
    """``(set, τ, t)``: ``t`` anywhere, or within a few ulps of some
    component's ``end − τ``, where the two predicates round.  Half the
    near probes first add a component whose start is itself a few ulps
    from its ``end − τ``, and probe at that start."""
    a = draw(interval_sets())
    tau = draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
    if not a.pairs or not draw(st.booleans()):
        return a, tau, draw(finite)
    if draw(st.booleans()):
        end = draw(finite)
        start = _ulps_from(end - tau, draw(st.integers(-3, 3)))
        if start < end:
            a = a | IntervalSet([(start, end)])
            return a, tau, start
    end = draw(st.sampled_from([e for _, e in a.pairs]))
    return a, tau, _ulps_from(end - tau, draw(st.integers(-3, 3)))


@given(erode_probes())
@example(probe=(
    IntervalSet([(float.fromhex("0x1.1ecd6cba2aa4ap+4"),
                  float.fromhex("0x1.000fe0ec9dd54p+7"))]),
    1.5,
    float.fromhex("0x1.fa1fc1d93baa7p+6"),
))
def test_erode_definition(probe):
    a, tau, t = probe
    eroded = a.erode(tau)
    # Eroded membership ⟺ the closed window [t, t+τ] fits in the set.
    expected = a.covers(t, t + tau) if tau > 0 else a.contains_point(t)
    assert eroded.contains_point(t) == expected


@given(interval_sets(), interval_sets())
def test_normal_form_invariants(a, b):
    u = a | b
    pairs = u.pairs
    for s, e in pairs:
        assert s < e
    for (s1, e1), (s2, e2) in zip(pairs, pairs[1:]):
        assert e1 < s2  # disjoint AND non-adjacent
