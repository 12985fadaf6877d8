"""Discrete cost sets read from contact components, held to the point query.

:func:`repro.tveg.costsets.discrete_cost_set` bisects a time into the
node's component boundaries and caches each segment's entries.  These
properties hold it to the per-(node, time) adjacency query it replaced
(``tests/dcs_oracle.py``), on small random TVEGs: static and Rayleigh
channels, τ = 0 and τ > 0, all three distance profiles, at times on and a
few ulps around every component start and end and every ``end − τ``,
queried in ascending and shuffled order and repeated (so segment-cache
misses and hits both answer).  Then every DCS consumer — GREED, RAND, the
exact oracle and EEDCB's reduce passes — must plan the same rows to the
bit with the oracle patched in.
"""

import math
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import eventsim, make_scheduler
from repro.algorithms import oracle as exact_oracle
from repro.errors import GraphModelError, InfeasibleError
from repro.schedule import reduce as reduce_passes
from repro.traces import Contact, ContactTrace, DistanceModel
from repro.tveg import discrete_cost_set, tveg_from_trace

from . import dcs_oracle

HORIZON = 60.0
ULPS = 2

props = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def instances(draw, taus=(0.0, 1.5, 3.7)):
    """A small random TVEG recipe: ``(trace, tau, channel, profile, seed)``."""
    n = draw(st.integers(2, 5))
    contacts = []
    for _ in range(draw(st.integers(1, 10))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        start = draw(st.floats(0.0, HORIZON - 1.0))
        dur = draw(st.floats(0.5, 25.0))
        contacts.append(Contact(start, min(start + dur, HORIZON), u, v))
    trace = ContactTrace(contacts, nodes=tuple(range(n)), horizon=HORIZON)
    return (
        trace,
        draw(st.sampled_from(taus)),
        draw(st.sampled_from(("static", "rayleigh"))),
        draw(st.sampled_from(DistanceModel.PROFILES)),
        draw(st.integers(0, 2**16)),
    )


def build(inst):
    """A fresh TVEG (cold caches) from an :func:`instances` recipe."""
    trace, tau, channel, profile, seed = inst
    return tveg_from_trace(trace, channel,
                           distance_model=DistanceModel(profile=profile),
                           tau=tau, seed=seed)


def probe_times(tveg):
    """Every component start and end, every presence ``end − τ``, 0 and
    the horizon, each with its ``ULPS`` neighbouring floats either side."""
    tvg = tveg.tvg
    anchors = {0.0, tveg.horizon}
    for u, v in tvg.edges():
        for s, e in tvg.presence(u, v).pairs:
            anchors.update((s, e, e - tveg.tau))
        for s, e in tvg.adjacency_set(u, v).pairs:
            anchors.update((s, e))
    probes = set()
    for x in anchors:
        probes.add(x)
        for direction in (-math.inf, math.inf):
            y = x
            for _ in range(ULPS):
                y = math.nextafter(y, direction)
                probes.add(y)
    return sorted(probes)


def hexed(dcs):
    return dcs.node, dcs.time, [(c.hex(), v) for c, v in dcs.entries]


@given(instances(), st.data())
@props
def test_dcs_matches_point_query(inst, data):
    probes = probe_times(build(inst))
    shuffled = data.draw(st.permutations(probes))
    for order in (probes, shuffled):
        tveg = build(inst)
        for t in order + order:  # the second pass reads cached segments
            for node in tveg.nodes:
                got = discrete_cost_set(tveg, node, t)
                assert hexed(got) == hexed(
                    dcs_oracle.discrete_cost_set(tveg, node, t)
                ), (node, t)
        with pytest.raises(GraphModelError):
            discrete_cost_set(tveg, tveg.num_nodes, probes[0])


def _rows(inst, name, **kwargs):
    scheduler = make_scheduler(name, **kwargs)
    try:
        sched = scheduler.schedule(build(inst), 0, HORIZON)
    except InfeasibleError:
        return None
    return [(s.relay, s.time.hex(), s.cost.hex()) for s in sched]


@given(instances(), st.integers(0, 2**16))
@props
def test_dcs_consumers_plan_the_same_rows_under_the_point_query(inst, seed):
    tau = inst[1]
    plans = [("greed", {}), ("greed", {"power_policy": "min"}),
             ("rand", {"seed": seed}), ("eedcb", {})]
    if tau == 0.0:
        plans.append(("oracle", {}))  # τ = 0 only
    want = [_rows(inst, name, **kw) for name, kw in plans]
    with ExitStack() as stack:
        for module in (eventsim, reduce_passes, exact_oracle):
            stack.enter_context(mock.patch.object(
                module, "discrete_cost_set", dcs_oracle.discrete_cost_set
            ))
        got = [_rows(inst, name, **kw) for name, kw in plans]
    assert got == want
