"""The implicit numpy auxiliary graph and the plans built on it.

The numpy graph must be *byte-identical* to the networkx reference build
— same node ids, rows, weights and cost sets — and the plans EEDCB
derives from it must equal the networkx reference pipeline's, counters
included, whether link costs are constant within each contact or vary
within one.  These tests pin that contract over random traces, the
greedy search on the implicit graph against the networkx search, the
``plan_broadcast_many ≡ N × plan_broadcast`` equivalence, the one graph
form EEDCB builds for every profile, the ``retarget``/aux-cache reuse
the batch API rides on, and ``TVEG.clear_caches`` invalidation.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs, plan_broadcast, plan_broadcast_many
from repro.algorithms import make_scheduler
from repro.api import BroadcastPlanSet
from repro.compute.numpy_backend import (
    LazyAuxNodes,
    NumpyAuxGraph,
    build_numpy_aux_graph,
    greedy_incremental_dst_numpy,
)
from repro.dts.dts import DiscreteTimeSet, build_dts
from repro.errors import GraphModelError, InfeasibleError
from repro.schedule import (
    doc_to_planset,
    planset_to_doc,
    read_planset_json,
    write_planset_json,
)
from repro.steiner import prune_tree, solve_memt
from repro.traces import (
    Contact,
    ContactTrace,
    DistanceModel,
    HaggleLikeConfig,
    haggle_like_trace,
)
from repro.tveg import discrete_cost_set, tveg_from_trace

from .aux_oracle import build_aux_graph, greedy_incremental_dst
from .aux_oracle import solve_memt as reference_memt
from .conftest import (
    assert_cost_sets_match,
    assert_matches_reference,
    make_random_instance,
    reference_pipeline,
)

NODES = 5
HORIZON = 120.0

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: every distance profile: per-contact constant, and two varying within
#: each contact
PROFILES = DistanceModel.PROFILES

#: info keys that vary run-to-run
VOLATILE_INFO = ("stage_seconds",)
#: manifest keys that vary run-to-run
VOLATILE_MANIFEST = ("created_unix", "wall_seconds")


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


def _strip(mapping, volatile):
    return {k: v for k, v in mapping.items() if k not in volatile}


def assert_plans_identical(a, b):
    assert a.schedule.transmissions == b.schedule.transmissions
    assert a.feasibility == b.feasibility
    assert _strip(a.info, VOLATILE_INFO) == _strip(b.info, VOLATILE_INFO)
    assert a.manifest["config_hash"] == b.manifest["config_hash"]
    assert _strip(a.manifest, VOLATILE_MANIFEST) == _strip(
        b.manifest, VOLATILE_MANIFEST
    )


# ----------------------------------------------------------------------
# planned broadcasts ≡ the networkx reference pipeline
# ----------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ("eedcb", "fr-eedcb"))
@given(contact_traces(), st.sampled_from(PROFILES))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_python_and_numpy_plans_byte_identical(algorithm, trace, profile):
    """A ``plan_broadcast`` plan equals the reference pipeline's, whether
    costs are constant within each contact or vary within one."""
    channel = "rayleigh" if algorithm.startswith("fr-") else "static"
    tveg = tveg_from_trace(trace, channel, seed=11,
                           distance_model=DistanceModel(profile=profile))
    try:
        plan = plan_broadcast(tveg, None, HORIZON, algorithm=algorithm)
    except InfeasibleError:
        return
    assert_matches_reference(
        plan, reference_pipeline(tveg, plan.source, HORIZON)
    )


def _reference_rows(nxa):
    """The reference graph's nodes and ``(target id, weight)`` rows."""
    nodes = list(nxa.graph.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    rows = [
        [(index[v], w) for _, v, w in nxa.graph.edges(u, data="weight")]
        for u in nodes
    ]
    return nodes, index, rows


@given(contact_traces(), st.integers(0, 2**16),
       st.sampled_from((0.0, 1.0, 5.0)), st.sampled_from(PROFILES))
@slow
def test_numpy_builder_matches_compact_builder(trace, seed, tau, profile):
    """Row-for-row identity with the networkx reference build."""
    tveg = tveg_from_trace(trace, "static", seed=seed, tau=tau,
                           distance_model=DistanceModel(profile=profile))
    nxa = build_aux_graph(tveg, 0, HORIZON)
    na = build_numpy_aux_graph(tveg, 0, HORIZON)
    nodes, index, rows = _reference_rows(nxa)
    assert list(na.aux_nodes) == nodes
    assert na.num_edges == nxa.num_edges
    assert [na.out_edges(i) for i in range(len(nodes))] == rows
    assert na.root == nxa.root and na.root_index == index[nxa.root]
    assert na.terminals == nxa.terminals
    assert na.terminal_indices == tuple(index[t] for t in nxa.terminals)
    assert_cost_sets_match(na, nxa)
    for method in ("greedy", "sptree"):
        try:
            e_nx = reference_memt(nxa.graph, nxa.root, nxa.terminals,
                                  method=method)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_memt(na, na.root, na.terminals, method=method)
            continue
        assert solve_memt(na, na.root, na.terminals, method=method) == e_nx


@given(contact_traces(), st.integers(0, 2**16), st.floats(30.0, HORIZON),
       st.sampled_from((0.0, 1.0, 5.0)), st.sampled_from(PROFILES))
@slow
def test_numpy_counted_sizes_match_what_they_count(trace, seed, deadline,
                                                   tau, profile):
    """``num_edges`` and ``dcs_levels`` of the implicit graph are counted
    apart from the rows and levels they describe, so pin each to a
    recount from its arrays and to the reference build.  A
    positive ``tau`` leaves points with active contacts but no
    transmission node (too late to finish, or no receiver state)."""
    tveg = tveg_from_trace(trace, "static", seed=seed, tau=tau,
                           distance_model=DistanceModel(profile=profile))
    na = build_numpy_aux_graph(tveg, 0, deadline)
    nxa = build_aux_graph(tveg, 0, deadline)
    assert isinstance(na, NumpyAuxGraph)
    recount = sum(len(na.out_edges(i)) for i in range(na.num_nodes))
    assert na.num_edges == recount == nxa.num_edges
    emits = np.diff(na.tx_ptr) > 0
    levels = int((na.tx_k0[emits] + np.diff(na.tx_ptr)[emits]).sum())
    assert na.dcs_levels == levels == nxa.dcs_levels
    assert_cost_sets_match(na, nxa)


def test_point_whose_cheapest_level_covers_no_receiver():
    """With τ = 5 node 0's DTS lacks the reception point
    7.980434172348013 + 5 of node 2's state 2, so that state's cheapest
    level (receiver 0) covers nobody and only its second level (receiver
    3) becomes a transmission node: its ids must decode to level 1, and
    level 1 must map back to them."""
    trace = ContactTrace(
        [Contact(7.0776139500800905, 28.19599455072275, 2, 3),
         Contact(7.980434172348013, 15.147603995882346, 0, 2)],
        nodes=(0, 2, 3), horizon=HORIZON,
    )
    tveg = tveg_from_trace(trace, "static", seed=0, tau=5.0)
    nxa = build_aux_graph(tveg, 0, 60.0)
    na = build_numpy_aux_graph(tveg, 0, 60.0)
    assert [nbr for _, nbr in nxa.cost_sets[(2, 2)].entries] == [0, 3]
    assert [n for n in nxa.graph.nodes if n[:3] == ("tx", 2, 2)] == [
        ("tx", 2, 2, 1)
    ]
    nodes, index, rows = _reference_rows(nxa)
    assert list(na.aux_nodes) == nodes
    assert [na.out_edges(i) for i in range(len(nodes))] == rows
    assert_cost_sets_match(na, nxa)
    assert [na.index_of(n) for n in nodes] == list(range(len(nodes)))
    with pytest.raises(KeyError):
        na.index_of(("tx", 2, 2, 0))


def test_n50_build_memory():
    """The eedcb-n50 benchmark's w9000 graph (N=50 Haggle-like trace,
    seed 99) holds no per-transmission array: at most 24 bytes per state
    plus 4 per segment entry and 4 per state-table cell, and its build,
    which fills its arrays in place, peaks below 1.5× them.  Per-node
    parts joined at the end peak at 1.6×."""
    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=50), seed=99)
    tveg = tveg_from_trace(
        trace.restrict_window(9000.0, 11000.0).shift(-9000.0), "static",
        seed=5,
    )
    dts = build_dts(tveg.tvg, 2000.0)
    tracemalloc.start()
    try:
        na = build_numpy_aux_graph(tveg, 0, 2000.0, dts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (na.num_nodes, na.num_edges) == (3_025_996, 19_041_957)
    arrays = sum(a.nbytes for a in (na.tx_ptr, na.tx_k0, na.seg, na.col,
                                    na.act, na.state))
    assert arrays <= (24 * (na.num_states + 1) + 4 * len(na.act)
                      + 4 * na.state.size)
    assert peak < 1.5 * arrays


# ----------------------------------------------------------------------
# the implicit-graph search ≡ the networkx search
# ----------------------------------------------------------------------

#: cost levels mixing O(1) values with values ≥ 2^53, where a distance
#: drop below 1 vanishes in the rounding of ``d + w``, and 0.0, which
#: puts a level at its state's distance without it being in the tree
LEVEL_WEIGHTS = (0.0, 1e-3, 0.5, 1.0, 7.0, 2.0**53, 1.5 * 2.0**53, 1e17)


def _search(solver, graph, root, terminals):
    """``(list(edges), stats, error text)`` of one greedy search."""
    stats = {}
    try:
        edges = solver(graph, root, terminals, stats=stats)
    except InfeasibleError as exc:
        return None, stats, str(exc)
    return list(edges), stats, None


def assert_search_parity(graph):
    """The numpy search and the networkx search agree on ``graph``: the
    same tree edges in the same set order, the same ``expansions`` and
    ``grafts``, the same error text."""
    ref = graph.to_networkx()
    assert _search(greedy_incremental_dst_numpy, graph, graph.root,
                   graph.terminals) == _search(
        greedy_incremental_dst, ref, graph.root, graph.terminals
    )


@st.composite
def retargeted_graphs(draw):
    """Implicit graphs built from random traces, ``retarget``ed to any
    source and to broadcast or multicast targets."""
    tveg = tveg_from_trace(
        draw(contact_traces()),
        draw(st.sampled_from(("static", "rayleigh"))),
        seed=draw(st.integers(0, 2**16)),
        distance_model=DistanceModel(profile=draw(st.sampled_from(PROFILES))),
    )
    source = draw(st.integers(0, NODES - 1))
    targets = draw(st.none() | st.lists(st.integers(0, NODES - 1),
                                        min_size=1, max_size=NODES,
                                        unique=True))
    base = build_numpy_aux_graph(tveg, 0, HORIZON)
    return base.retarget(source, None if targets is None else tuple(targets))


search_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(retargeted_graphs())
@search_settings
def test_numpy_search_matches_networkx_search(graph):
    """On graphs built from random traces.  Several terminals mean
    several grafts, and each graft re-expands its chain at distance 0."""
    assert_search_parity(graph)


def _hand_built_graph(points, levels, source):
    """A :class:`NumpyAuxGraph` from per-node point counts and, per state
    (node-major, point-minor), its segment list as ``(weight, receiver
    state id or -1)`` levels in ascending weight order.

    The search reads a level's receivers as ``state[nbr[c], col[s]]``
    over the list's components ``c``, so giving the state table one row
    per component lets a level reach any state.  A level covers the
    valid receivers up to the end of its equal-cost run (Property
    6.1(i), the only shape the build emits), and the levels that cover
    no one are a prefix with no transmission node."""
    node_base = np.cumsum([0] + list(points))
    num_states = int(node_base[-1])
    seg = np.cumsum([0] + [len(lv) for lv in levels[:-1]], dtype=np.int64)
    receivers = [v for lv in levels for _, v in lv]
    tx_k0 = np.array([next((k for k, (_, v) in enumerate(lv) if v >= 0),
                           len(lv)) for lv in levels], dtype=np.int32)
    for s, lv in enumerate(levels):  # back to the start of the run
        while 0 < tx_k0[s] < len(lv) and lv[tx_k0[s] - 1][0] == lv[tx_k0[s]][0]:
            tx_k0[s] -= 1
    tx_ptr = np.cumsum([0] + [len(lv) - k0 for lv, k0 in zip(levels, tx_k0)])
    labels = list(range(len(points)))
    wait = np.ones(num_states, dtype=np.uint8)
    wait[node_base[1:] - 1] = 0
    graph = NumpyAuxGraph(
        aux_nodes=LazyAuxNodes(labels, node_base, tx_ptr, tx_k0),
        dts=DiscreteTimeSet.from_points(
            {n: range(p) for n, p in zip(labels, points)},
            deadline=float(max(points)), tau=0.0,
        ),
        source=0, root=None, terminals=(), root_index=0,
        terminal_indices=(),
        state_base={n: int(node_base[n]) for n in labels},
        tx_ptr=tx_ptr,
        tx_k0=tx_k0,
        seg=seg,
        col=np.zeros(num_states, dtype=np.int32),
        wait=wait.tobytes(),
        act=np.arange(len(receivers), dtype=np.int32),
        cost=np.array([w for lv in levels for w, _ in lv], dtype=np.float64),
        nbr=np.arange(len(receivers), dtype=np.int64),
        state=np.array(receivers, dtype=np.int32).reshape(-1, 1),
        num_edges=0,
        dcs_levels=len(receivers),
    )
    return graph.retarget(source)


@st.composite
def hand_built_specs(draw):
    """``(points, levels, source)`` for :func:`_hand_built_graph`: 2–4
    nodes of 2–4 points, up to four levels per state, each reaching an
    arbitrary state or no one."""
    points = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    num_states = sum(points)
    levels = []
    for _ in range(num_states):
        weights = sorted(draw(st.lists(st.sampled_from(LEVEL_WEIGHTS),
                                       max_size=4)))
        levels.append([(w, draw(st.integers(-1, num_states - 1)))
                       for w in weights])
    return points, levels, draw(st.integers(0, len(points) - 1))


@given(hand_built_specs())
@example(spec=(
    # A graft re-expands state 6 at distance 0 instead of 0.5, and
    # 0.5 + 2^53 rounds to 2^53: its level must stay expanded, or it
    # is expanded again (25 expansions instead of 24) before state 9's
    # last level reaches state 4.
    [2, 3, 3, 4],
    [[], [], [], [], [], [], [(2.0**53, 6)], [], [],
     [(0.5, 5), (2.0**53, 1), (2.0**53, 6), (1.5 * 2.0**53, 4)], [],
     [(1e-3, 7)]],
    3,
))
@settings(max_examples=150, deadline=None)
def test_numpy_search_matches_networkx_search_on_hand_built_graphs(spec):
    """Levels far above the distances, so re-expansions at a lower
    distance often leave ``fl(d + w)`` unchanged."""
    assert_search_parity(_hand_built_graph(*spec))


@given(retargeted_graphs()
       | hand_built_specs().map(lambda spec: _hand_built_graph(*spec)))
@search_settings
def test_greedy_trees_need_no_pruning(graph):
    """Each graft adds the pred chain from a tree node to an uncovered
    terminal, so every edge of a greedy tree already lies on a
    root→terminal path: ``prune_tree`` returns an equal set, and
    ``solve_memt`` returns the search's own result unpruned."""
    root, terminals = graph.root, graph.terminals
    for search, memt, g in (
        (greedy_incremental_dst_numpy, solve_memt, graph),
        (greedy_incremental_dst, reference_memt, graph.to_networkx()),
    ):
        try:
            edges = search(g, root, terminals)
        except InfeasibleError:
            continue
        assert prune_tree(edges, root, terminals) == edges
        tree = memt(g, root, terminals, method="greedy")
        assert tree == edges and list(tree) == list(edges)


# ----------------------------------------------------------------------
# batch API ≡ N single plans
# ----------------------------------------------------------------------


@given(contact_traces())
@slow
def test_plan_many_equals_n_single_plans(trace):
    sources = [None, 0, 2]
    singles, first_err = [], None
    for src in sources:
        try:
            singles.append(plan_broadcast(trace, src, HORIZON, seed=11))
        except InfeasibleError as exc:
            first_err = str(exc)
            break
    try:
        planset = plan_broadcast_many(trace, sources, HORIZON, seed=11)
    except InfeasibleError as exc:
        # the batch fails exactly where the singles first would
        assert str(exc) == first_err
        return
    assert first_err is None
    assert isinstance(planset, BroadcastPlanSet)
    assert len(planset) == len(sources)
    for single, batch_plan in zip(singles, planset):
        assert_plans_identical(single, batch_plan)


def test_plan_many_mixed_deadlines_and_validation():
    trace, _ = make_random_instance(seed=5)
    planset = plan_broadcast_many(trace, [0, 0], [300.0, 250.0], seed=5)
    assert planset[0].deadline == 300.0 and planset[1].deadline == 250.0
    assert (planset[0].manifest["config_hash"]
            != planset[1].manifest["config_hash"])
    with pytest.raises(ValueError):
        plan_broadcast_many(trace, [0, 1], [300.0], seed=5)


def test_planset_sequence_protocol():
    trace, _ = make_random_instance(seed=5)
    planset = plan_broadcast_many(trace, [0, 0, 0], [300.0, 280.0, 260.0])
    assert len(planset) == 3
    assert list(planset)[1] is planset[1]
    sliced = planset[1:]
    assert isinstance(sliced, BroadcastPlanSet) and len(sliced) == 2
    assert sliced[0] is planset[1]
    assert planset.total_cost == pytest.approx(
        sum(p.schedule.total_cost for p in planset)
    )
    assert planset.feasible == all(p.feasible for p in planset)


# ----------------------------------------------------------------------
# planset serialization round-trip
# ----------------------------------------------------------------------


def test_planset_json_round_trip(tmp_path):
    trace, tveg = make_random_instance(seed=5)
    planset = plan_broadcast_many(tveg, [0, 0], [300.0, 260.0], seed=5)
    path = tmp_path / "planset.json"
    write_planset_json(planset, path)
    doc = read_planset_json(path)
    assert doc["schema"] == "repro.planset/1"
    replayed = doc_to_planset(doc, tveg)
    assert len(replayed) == len(planset)
    for orig, back in zip(planset, replayed):
        assert back.schedule.transmissions == orig.schedule.transmissions
        assert back.feasibility == orig.feasibility
        assert back.info == orig.info
        assert back.manifest == orig.manifest
    # the document itself round-trips byte-for-byte
    assert planset_to_doc(replayed) == doc


def test_planset_doc_rejects_wrong_schema_and_tveg_count():
    trace, tveg = make_random_instance(seed=5)
    planset = plan_broadcast_many(tveg, [0], 300.0, seed=5)
    doc = planset_to_doc(planset)
    from repro.errors import TraceFormatError

    with pytest.raises(TraceFormatError):
        doc_to_planset({"schema": "repro.plan/1", "plans": []}, tveg)
    with pytest.raises(TraceFormatError):
        doc_to_planset(doc, [tveg, tveg])


# ----------------------------------------------------------------------
# one graph form for every instance
# ----------------------------------------------------------------------


@pytest.mark.parametrize("profile", PROFILES)
def test_every_profile_builds_the_implicit_graph(profile):
    trace, _ = make_random_instance(seed=5)
    tveg = tveg_from_trace(trace, "static", seed=5,
                           distance_model=DistanceModel(profile=profile))
    assert tveg.cost_cacheable == (profile == "constant")
    obs.enable()
    try:
        before = obs.snapshot().counters.get("auxgraph.numpy_builds", 0)
        result = make_scheduler("eedcb").run(tveg, 0, 300.0)
        after = obs.snapshot().counters.get("auxgraph.numpy_builds", 0)
    finally:
        obs.disable()
    assert after - before == 1
    assert "backend" not in result.info
    assert "compute" not in result.info


# ----------------------------------------------------------------------
# retarget + the TVEG aux cache
# ----------------------------------------------------------------------


class TestRetargetAndAuxCache:
    def test_retarget_equals_fresh_build(self, det_static):
        horizon = det_static.horizon
        base = build_numpy_aux_graph(det_static, 0, horizon)
        fresh = build_numpy_aux_graph(det_static, 1, horizon)
        moved = base.retarget(1)
        assert isinstance(moved, NumpyAuxGraph)
        assert moved.root == fresh.root
        assert moved.root_index == fresh.root_index
        assert moved.terminals == fresh.terminals
        assert moved.terminal_indices == fresh.terminal_indices
        # every array (and lazy view) is shared, not copied
        rooted = {"source", "root", "root_index", "terminals",
                  "terminal_indices"}
        for f in dataclasses.fields(base):
            if f.name not in rooted:
                assert getattr(moved, f.name) is getattr(base, f.name)
        e1 = solve_memt(fresh, fresh.root, fresh.terminals, method="greedy")
        e2 = solve_memt(moved, moved.root, moved.terminals, method="greedy")
        assert e1 == e2

    def test_retarget_rejects_unknown_nodes(self, det_static):
        base = build_numpy_aux_graph(det_static, 0, det_static.horizon)
        with pytest.raises(GraphModelError):
            base.retarget("nope")
        with pytest.raises(GraphModelError):
            base.retarget(0, targets=("nope",))

    @pytest.mark.parametrize("profile", PROFILES)
    def test_second_source_reuses_cached_aux_graph(self, profile):
        trace, _ = make_random_instance(seed=5)
        tveg = tveg_from_trace(trace, "static", seed=5,
                               distance_model=DistanceModel(profile=profile))
        counter = "auxgraph.numpy_builds"
        obs.enable()
        try:
            before = obs.snapshot().counters.get(counter, 0)
            r0 = make_scheduler("eedcb").run(tveg, 0, 300.0)
            r1 = make_scheduler("eedcb").run(tveg, 1, 300.0)
            after = obs.snapshot().counters.get(counter, 0)
        finally:
            obs.disable()
        assert after - before == 1  # second source retargets the cached aux
        assert r0.schedule.transmissions != () or r1 is not None

    def test_batch_on_one_tveg_builds_the_dts_once(self, monkeypatch):
        """A second source reuses the cached graph's DTS as well."""
        import repro.algorithms.eedcb as eedcb

        _, tveg = make_random_instance(seed=5)
        built = []

        def counted(*args, **kwargs):
            built.append(build_dts(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(eedcb, "build_dts", counted)
        planset = plan_broadcast_many(tveg, [0, 1], 300.0)
        assert len(built) == 1
        assert [p.info["dts_points"] for p in planset] == [
            built[0].total_points()
        ] * 2

    def test_aux_cache_invalidated_by_clear_caches(self):
        _, tveg = make_random_instance(seed=5)
        make_scheduler("eedcb").run(tveg, 0, 300.0)
        assert len(tveg.aux_cache()) == 1
        tveg.clear_caches()
        assert len(tveg.aux_cache()) == 0


# ----------------------------------------------------------------------
# clear_caches invalidates every derived cache
# ----------------------------------------------------------------------


def test_clear_caches_clears_every_cache():
    _, tveg = make_random_instance(seed=5)
    # warm every cache layer
    make_scheduler("eedcb").run(tveg, 0, 300.0)
    assert tveg.compute_cache()
    assert tveg.aux_cache()
    assert tveg.replay_cache()
    warm = tveg.compute_cache()[0]
    tveg.clear_caches()
    assert not tveg.compute_cache()
    assert not tveg.aux_cache()
    assert not tveg.replay_cache()
    # a DCS query rebuilds the node's component rows from the topology
    t = warm.rows[0][2]
    assert discrete_cost_set(tveg, 0, t).entries
    rebuilt = tveg.compute_cache()[0]
    assert rebuilt is not warm and rebuilt.rows == warm.rows
    # the graph still plans correctly after the purge, cold
    r = make_scheduler("eedcb").run(tveg, 0, 300.0)
    assert r.schedule is not None
