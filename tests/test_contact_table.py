"""The contact table, held to the per-edge builds it replaced.

A trace merges its rows per pair in one numpy pass; its TVG carries one
:class:`~repro.temporal.tvg.ContactTable` per version; the status points,
the DTS, the adjacency boundaries and the TVEG's priced components
(:meth:`~repro.tveg.graph.TVEG.components`) all read that table.  On
small random traces — int, str and mixed labels, overlapping, abutting
and zero-length rows, rows past the horizon and windows cut past it,
τ ∈ {0, 1.5}, every distance profile plus one with tied costs, four
channels — every one of them must equal the per-edge construction of
``tests/table_oracle.py`` to the bit.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dts import build_dts, status_points
from repro.traces import ContactTrace, DistanceModel
from repro.tveg import TVEG, make_channel
from repro.tveg.costsets import _components, point_runs

from . import dts_oracle, table_oracle

CHANNELS = ("static", "rayleigh", "rician", "nakagami")
#: distance sources: the three profiles, and constant distances rounded to
#: 2, 6 or 10 m or all equal, so that costs tie across neighbors and within
#: one pair and the order of the components turns on its tie-breaks
SOURCES = DistanceModel.PROFILES + ("rounded", "tied")


class Rounded:
    """A constant-profile provider with distances rounded to 2, 6 or 10 m,
    or with ``step=0`` all at 6 m."""

    constant_within_contacts = True

    def __init__(self, provider, step=4.0):
        self._provider = provider
        self._step = step

    def __call__(self, u, v, t):
        d = self._provider(u, v, t)
        return 6.0 + (self._step * round((d - 6.0) / self._step)
                      if self._step else 0.0)


@st.composite
def labels(draw):
    n = draw(st.integers(2, 6))
    ints = st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True)
    kind = draw(st.sampled_from(("int", "str", "mixed")))
    if kind == "int":
        return draw(ints)
    if kind == "str":
        return [f"n{i}" for i in draw(ints)]
    return [i if i % 2 else f"n{i}" for i in draw(ints)]


@st.composite
def traces(draw):
    """A small trace, possibly windowed: ``(trace, horizon for to_tvg)``."""
    nodes = draw(labels())
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        u, v = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2,
                             unique=True))
        # a coarse grid of starts and lengths makes rows overlap and abut
        start = draw(st.integers(0, 50).map(lambda k: k * 2.5)
                     | st.floats(0.0, 125.0))
        length = draw(st.sampled_from((0.0, 0.5, 2.5, 5.0, 12.5, 30.0))
                      | st.floats(0.0, 40.0))
        rows.append((u, v, start, start + length))
    horizon = draw(st.sampled_from((60.0, 100.0, 150.0)))
    trace = ContactTrace.from_rows(rows, nodes=nodes, horizon=horizon)
    if draw(st.booleans()):
        start = draw(st.sampled_from((0.0, 10.0, 25.0)))
        end = start + draw(st.sampled_from((20.0, 50.0, 200.0)))
        trace = trace.restrict_window(start, end).shift(-start)
    return trace, draw(st.sampled_from((None, 40.0)))


def hexes(values):
    return [float(x).hex() for x in values]


@given(traces(), st.sampled_from((0.0, 1.5)), st.sampled_from(SOURCES),
       st.sampled_from(CHANNELS), st.integers(0, 2**16),
       st.sampled_from((None, 30.0, 1000.0)))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_table_fed_builds_equal_the_per_edge_builds(
    recipe, tau, source, channel, seed, deadline
):
    trace, horizon = recipe
    assert list(trace.pair_presence().items()) == list(
        table_oracle.pair_presence(trace).items()
    )

    # the TVG: presence, edge order, incident order, and its table equal
    # the one tabled from those presence sets
    tvg = trace.to_tvg(tau=tau, horizon=horizon)
    ref = table_oracle.to_tvg(trace, tau=tau, horizon=horizon)
    assert list(tvg._presence.items()) == list(ref._presence.items())
    assert [tvg.incident(n) for n in tvg.nodes] == [
        ref.incident(n) for n in ref.nodes
    ]
    seeded, tabled = tvg.contact_table(), ref.contact_table()
    for column in ("a", "b", "start", "end", "adj_end"):
        assert getattr(seeded, column).tobytes() == getattr(
            tabled, column).tobytes()
    assert hexes(tvg.adjacency_boundaries()) == hexes(
        table_oracle.adjacency_boundaries(ref))

    # distances, one draw per contact, and the generator after them
    model = DistanceModel(profile=source if source in DistanceModel.PROFILES
                          else "constant")
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    provider = model.attach(trace, seed=rng)
    for (u, v), s, e, profile in table_oracle.distances(model, trace,
                                                        ref_rng):
        for t in (s, 0.5 * (s + e), e):
            want = (profile if isinstance(profile, float)
                    else float(np.interp(t, *profile)))
            assert provider(u, v, t).hex() == want.hex()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if source not in DistanceModel.PROFILES:
        provider = Rounded(provider, 4.0 if source == "rounded" else 0.0)

    # every node's priced components, and the runs the aux build reads
    ch = make_channel(channel)
    tveg, ref_tveg = TVEG(tvg, ch, provider), TVEG(ref, ch, provider)
    end = tvg.horizon if deadline is None else min(tvg.horizon, deadline)
    dts = build_dts(tvg, end)
    for node in tvg.nodes:
        got = _components(tveg, node).rows
        want = table_oracle.node_components(ref_tveg, node)
        assert [(None if c is None else c.hex(), v, s, e)
                for c, v, s, e in got] == [
            (None if c is None else c.hex(), v, s, e)
            for c, v, s, e in want
        ]
    if tveg.cost_cacheable:
        ptr, cost, nbr, a, b = point_runs(tveg, dts)
        for i, node in enumerate(tvg.nodes):
            run = slice(ptr[i], ptr[i + 1])
            costs, nbrs, wa, wb = table_oracle.point_runs(
                ref_tveg, node, dts.points(node))
            assert hexes(cost[run]) == hexes(costs)
            assert [tvg.nodes[j] for j in nbr[run]] == nbrs
            assert a[run].tolist() == wa and b[run].tolist() == wb

    # status points and DTS bytes
    assert hexes(status_points(tvg, end)) == hexes(
        table_oracle.status_points(ref, end))
    ref_dts = dts_oracle.build_dts(ref, end)
    for node in tvg.nodes:
        assert dts.points(node).tobytes() == ref_dts.points(node).tobytes()


class Fixed:
    """Every pair at one distance, also on contacts added later."""

    constant_within_contacts = True

    def __call__(self, u, v, t):
        return 5.0


def test_add_contact_after_the_build_rebuilds_the_table():
    trace = ContactTrace.from_rows(
        [(0, 1, 0.0, 10.0), (1, 2, 5.0, 20.0)], nodes=(0, 1, 2, 3),
        horizon=50.0,
    )
    tvg = trace.to_tvg()
    tveg = TVEG(tvg, make_channel("static"), Fixed())
    before, comps = tvg.contact_table(), tveg.components()
    assert tvg.contact_table() is before and tveg.components() is comps
    assert before.start.tolist() == [0.0, 5.0]
    tvg.add_contact(2, 3, 30.0, 40.0)
    after = tvg.contact_table()
    assert after is not before
    assert after.start.tolist() == [0.0, 5.0, 30.0]
    assert (after.a.tolist(), after.b.tolist()) == ([0, 1, 2], [1, 2, 3])
    assert tvg.adjacency_boundaries() == (0.0, 5.0, 10.0, 20.0, 30.0, 40.0)
    rebuilt = tveg.components()
    assert rebuilt is not comps
    assert rebuilt.ptr[4] - rebuilt.ptr[3] == 1  # node 3's new component
    assert _components(tveg, 3).rows == [(comps.cost[0], 2, 30.0, 40.0)]

