"""GREED/RAND event times from the TVG's cached adjacency boundaries.

:func:`repro.algorithms.eventsim.event_times` bisects its window out of
:meth:`repro.temporal.tvg.TVG.adjacency_boundaries`, which erodes every
edge's presence set once per TVG version.  These properties hold it to
the per-edge union it replaced — erode each edge, keep its boundaries in
``[start_time, deadline − τ]``, add ``start_time`` — bit for bit, at
τ = 0 and τ > 0, on windows around every boundary and across a mutation
that bumps the version.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.eventsim import event_times
from repro.traces import Contact, ContactTrace
from repro.tveg import tveg_from_trace

HORIZON = 60.0

props = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def per_edge_union(tveg, start_time, deadline):
    """The event times as every run computed them before the cache."""
    end = min(deadline - tveg.tau, tveg.horizon)
    points = {start_time}
    for _, pres in tveg.tvg.edges_with_presence():
        points.update(pres.erode(tveg.tau).boundaries_within(start_time, end))
    return sorted(points)


def contacts(n):
    """``(u, v, start, end)`` of one contact among ``n`` nodes."""
    return st.tuples(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True),
        st.floats(0.0, HORIZON - 1.0),
        st.floats(0.5, 25.0),
    ).map(lambda c: (*c[0], c[1], min(c[1] + c[2], HORIZON)))


@st.composite
def instances(draw):
    n = draw(st.integers(2, 6))
    rows = draw(st.lists(contacts(n), min_size=0, max_size=12))
    trace = ContactTrace(
        [Contact(s, e, u, v) for u, v, s, e in rows],
        nodes=tuple(range(n)), horizon=HORIZON,
    )
    return trace, draw(contacts(n))


def windows(tveg, data):
    """``(start_time, deadline)`` pairs: on and an ulp around every
    adjacency boundary, the span ends, and a few arbitrary ones."""
    anchors = sorted({0.0, HORIZON, *tveg.tvg.adjacency_boundaries()})
    near = [math.nextafter(x, d)
            for x in anchors for d in (-math.inf, math.inf)]
    times = st.sampled_from(anchors + near) | st.floats(-5.0, HORIZON + 10.0)
    return data.draw(st.lists(st.tuples(times, times), min_size=1,
                              max_size=8))


def assert_matches(tveg, pairs):
    for start_time, deadline in pairs:
        got = event_times(tveg, start_time, deadline)
        want = per_edge_union(tveg, start_time, deadline)
        assert [t.hex() for t in got] == [t.hex() for t in want], (
            start_time, deadline,
        )


@pytest.mark.parametrize("tau", [0.0, 1.5, 3.7])
@given(inst=instances(), data=st.data())
@props
def test_event_times_match_per_edge_union(tau, inst, data):
    trace, (u, v, start, end) = inst
    tveg = tveg_from_trace(trace, "static", tau=tau, seed=1)
    tvg = tveg.tvg
    assert_matches(tveg, windows(tveg, data))
    bounds = tvg.adjacency_boundaries()
    assert tvg.adjacency_boundaries() is bounds  # one build per version

    version = tvg.version
    tvg.add_contact(u, v, start, end)
    assert tvg.version > version
    assert_matches(tveg, windows(tveg, data))
    assert list(tvg.adjacency_boundaries()) == sorted(
        {b for _, pres in tvg.edges_with_presence()
         for b in pres.erode(tau).boundaries()}
    )
