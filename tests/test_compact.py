"""The implicit auxiliary graph against the networkx reference build.

The implicit graph's contract is stronger than "same answer": its node
ids and rows must follow the networkx build's node and edge *insertion
order*, because the greedy Steiner solver breaks distance ties by node
index and adjacency order.  These tests pin the full contract — graph
equality node-for-node/edge-for-edge/weight-for-weight over random TVEGs
(through the lossless ``to_networkx()`` view), identical solver trees,
and schedule identity of the production eedcb / fr-eedcb schedulers with
the networkx reference pipeline — on the per-contact-constant distance
profile and on the two profiles whose costs vary within a contact.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import make_scheduler
from repro.compute.numpy_backend import build_numpy_aux_graph
from repro.dts import build_dts
from repro.errors import GraphModelError, InfeasibleError
from repro.obs.bench import _build_instance
from repro.steiner import solve_memt
from repro.traces import Contact, ContactTrace, DistanceModel
from repro.tveg import tveg_from_trace

from .aux_oracle import build_aux_graph
from .aux_oracle import solve_memt as reference_memt
from .conftest import (
    assert_cost_sets_match,
    assert_matches_reference,
    reference_pipeline,
)

NODES = 5
HORIZON = 120.0

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def contact_traces(draw):
    """Random small contact traces over 5 nodes and a 120 s horizon."""
    n_contacts = draw(st.integers(4, 14))
    contacts = []
    for _ in range(n_contacts):
        u = draw(st.integers(0, NODES - 1))
        v = draw(st.integers(0, NODES - 1))
        if u == v:
            continue
        start = draw(st.floats(0.0, HORIZON - 10.0))
        dur = draw(st.floats(5.0, 50.0))
        contacts.append(Contact(start, min(start + dur, HORIZON), u, v))
    return ContactTrace(contacts, nodes=tuple(range(NODES)), horizon=HORIZON)


def assert_same_graph(nxa, na):
    """Full structural identity of an AuxGraph and a NumpyAuxGraph."""
    g1, g2 = nxa.graph, na.to_networkx()
    assert list(g1.nodes) == list(g2.nodes)
    assert [g1.nodes[n]["time"] for n in g1] == [
        g2.nodes[n]["time"] for n in g2
    ]
    assert list(g1.edges(data="weight")) == list(g2.edges(data="weight"))
    assert nxa.root == na.root
    assert nxa.terminals == na.terminals
    assert_cost_sets_match(na, nxa)


#: distance profiles: per-contact constant, and two that vary within each
#: contact (every active (neighbor, point) cell costed on its own)
PROFILES = st.sampled_from(list(DistanceModel.PROFILES))


@given(contact_traces(), st.integers(0, 2**16),
       st.sampled_from(["static", "rayleigh"]), PROFILES)
@slow
def test_compact_build_equals_nx_build(trace, seed, channel, profile):
    tveg = tveg_from_trace(trace, channel, seed=seed,
                           distance_model=DistanceModel(profile=profile))
    dts = build_dts(tveg.tvg, HORIZON)
    nxa = build_aux_graph(tveg, 0, HORIZON, dts)
    na = build_numpy_aux_graph(tveg, 0, HORIZON, dts)
    assert_same_graph(nxa, na)
    assert na.num_nodes == nxa.num_nodes
    assert na.num_edges == nxa.num_edges
    assert na.dcs_levels == nxa.dcs_levels


@given(contact_traces(), st.integers(0, 2**16), PROFILES)
@slow
def test_eedcb_schedules_identical_across_backends(trace, seed, profile):
    tveg = tveg_from_trace(trace, "static", seed=seed,
                           distance_model=DistanceModel(profile=profile))
    try:
        result = make_scheduler("eedcb").run(tveg, 0, HORIZON)
    except InfeasibleError:
        return
    assert_matches_reference(result, reference_pipeline(tveg, 0, HORIZON))


@given(contact_traces(), st.integers(0, 2**16), PROFILES)
@slow
def test_fr_eedcb_schedules_identical_across_backends(trace, seed, profile):
    tveg = tveg_from_trace(trace, "rayleigh", seed=seed,
                           distance_model=DistanceModel(profile=profile))
    try:
        result = make_scheduler("fr-eedcb").run(tveg, 0, HORIZON)
    except InfeasibleError:
        return
    assert_matches_reference(result, reference_pipeline(tveg, 0, HORIZON))


def test_bench_instance_matches_reference():
    """The N=12 bench instance, both channels, against the reference."""
    delay = 2000.0
    static, fading, source, _ = _build_instance(12, delay, 99)
    assert_matches_reference(
        make_scheduler("eedcb").run(static, source, delay),
        reference_pipeline(static, source, delay),
    )
    assert_matches_reference(
        make_scheduler("fr-eedcb").run(fading, source, delay),
        reference_pipeline(fading, source, delay),
    )


@given(contact_traces(), st.integers(0, 2**16), PROFILES)
@slow
def test_solver_trees_identical_on_both_forms(trace, seed, profile):
    """Every MEMT method returns the same tree on either graph form."""
    tveg = tveg_from_trace(trace, "static", seed=seed,
                           distance_model=DistanceModel(profile=profile))
    dts = build_dts(tveg.tvg, HORIZON)
    nxa = build_aux_graph(tveg, 0, HORIZON, dts)
    na = build_numpy_aux_graph(tveg, 0, HORIZON, dts)
    for method in ("greedy", "sptree"):
        try:
            e_nx = reference_memt(nxa.graph, nxa.root, nxa.terminals,
                                  method=method)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_memt(na, na.root, na.terminals, method=method)
            continue
        e_n = solve_memt(na, na.root, na.terminals, method=method)
        assert e_nx == e_n


class _EqualDistances:
    """Every pair at the same distance: every DCS level ties."""

    def __init__(self, constant_within_contacts):
        self.constant_within_contacts = constant_within_contacts

    def __call__(self, u, v, t):
        return 10.0


@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_equal_costs_build_equals_nx_build(det_trace, constant, tau):
    """Equal-cost components cover each other: a level's coverage count
    runs to the end of its equal-cost run, on both component kinds."""
    from repro.channels import StaticChannel
    from repro.params import PAPER_PARAMS
    from repro.tveg import TVEG

    tveg = TVEG(det_trace.to_tvg(tau=tau), StaticChannel(PAPER_PARAMS),
                _EqualDistances(constant))
    dts = build_dts(tveg.tvg, 100.0)
    nxa = build_aux_graph(tveg, 0, 100.0, dts)
    na = build_numpy_aux_graph(tveg, 0, 100.0, dts)
    assert_same_graph(nxa, na)
    assert (na.num_edges, na.dcs_levels) == (nxa.num_edges, nxa.dcs_levels)
    assert max(na.tx_cnt) > 1


def test_compact_lookup_surface(det_static):
    na = build_numpy_aux_graph(det_static, 0, det_static.horizon)
    assert na.index_of(na.root) == na.root_index
    for t, i in zip(na.terminals, na.terminal_indices):
        assert na.index_of(t) == i
    for i in range(na.num_nodes):
        assert na.index_of(na.aux_nodes[i]) == i
    assert na.number_of_nodes() == na.num_nodes == len(na.aux_nodes)
    assert na.number_of_edges() == na.num_edges == sum(
        len(na.out_edges(i)) for i in range(na.num_nodes)
    )


def test_unknown_source_and_targets_rejected(det_static):
    with pytest.raises(GraphModelError):
        build_numpy_aux_graph(det_static, "nope", det_static.horizon)
    with pytest.raises(GraphModelError):
        build_numpy_aux_graph(
            det_static, 0, det_static.horizon, targets=("nope",)
        )
