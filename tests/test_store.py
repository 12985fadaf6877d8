"""Columnar ContactStore: parity with the dict-backed oracle, the
``.ctrace`` on-disk format, streaming ingestion, and bounded-memory
planning.

The contract under test is byte-for-byte parity: every derived structure —
fingerprint, pair presence, TVG presence/adjacency events, DCS floats,
schedules, manifests — must be identical no matter which trace backend
produced it.  :class:`~repro.traces.model.ContactTrace` is the oracle.
"""

import io
import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import plan_broadcast, plan_cache_key
from repro.errors import TraceFormatError
from repro.temporal.sweep import adjacency_events
from repro.traces import (
    Contact,
    ContactTrace,
    HaggleLikeConfig,
    haggle_like_trace,
    load_trace,
    parse_crawdad,
    parse_csv,
    scale_trace_store,
    write_crawdad,
    write_csv,
)
from repro.traces.store import ContactStore, ingest_crawdad, ingest_csv, ingest_path
from repro.tveg import tveg_from_trace

N = 6
HORIZON = 200.0

prop = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def raw_rows(draw):
    """Random (u, v, start, end) rows over a small node universe."""
    n_rows = draw(st.integers(0, 20))
    rows = []
    for _ in range(n_rows):
        u = draw(st.integers(0, N - 1))
        v = draw(st.integers(0, N - 1))
        if u == v:
            continue
        start = draw(st.floats(0.0, HORIZON - 10.0))
        dur = draw(st.floats(0.0, 60.0))
        rows.append((u, v, start, min(start + dur, HORIZON)))
    return rows


def trace_of(rows):
    return ContactTrace(
        (Contact(s, e, u, v) for u, v, s, e in rows), horizon=HORIZON
    )


def store_of(rows):
    return ContactStore.from_rows(rows, horizon=HORIZON)


@pytest.fixture(scope="module")
def haggle_pair():
    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=10), seed=5)
    return trace, ContactStore.from_trace(trace)


# ----------------------------------------------------------------------
# construction and surface parity
# ----------------------------------------------------------------------
def test_rows_sorted_and_nodes_first_appearance():
    rows = [(3, 1, 50.0, 60.0), (0, 2, 10.0, 30.0), (2, 4, 10.0, 20.0)]
    store = ContactStore.from_rows(rows)
    trace = ContactTrace(Contact(s, e, u, v) for u, v, s, e in rows)
    assert store.nodes == trace.nodes
    assert [(c.u, c.v, c.start, c.end) for c in store] == [
        (c.u, c.v, c.start, c.end) for c in trace
    ]
    assert store.horizon == trace.horizon
    assert store.fingerprint() == trace.fingerprint()


def test_explicit_nodes_merge_matches_oracle():
    rows = [(1, 2, 0.0, 5.0)]
    store = ContactStore.from_rows(rows, nodes=(9, 2), horizon=50.0)
    trace = ContactTrace([Contact(0.0, 5.0, 1, 2)], nodes=(9, 2), horizon=50.0)
    assert store.nodes == trace.nodes == (9, 2, 1)
    assert store.fingerprint() == trace.fingerprint()


def test_empty_store():
    store = ContactStore.from_rows([])
    trace = ContactTrace([])
    assert store.num_contacts == 0
    assert store.nodes == ()
    assert store.time_span() == (0.0, 0.0)
    assert store.fingerprint() == trace.fingerprint()


def test_validation_matches_contact():
    with pytest.raises(TraceFormatError, match="exceeds end"):
        ContactStore.from_rows([(0, 1, 5.0, 1.0)])
    with pytest.raises(TraceFormatError, match="self-contact"):
        ContactStore.from_rows([(2, 2, 0.0, 1.0)])
    with pytest.raises(TraceFormatError, match="exceeds end"):
        ContactStore.from_arrays([0], [1], [5.0], [1.0])
    with pytest.raises(TraceFormatError, match="self-contact"):
        ContactStore.from_arrays([2], [2], [0.0], [1.0])


def test_from_arrays_matches_from_rows():
    u, v = [0, 3, 1], [1, 2, 0]
    s, e = [10.0, 0.0, 10.0], [20.0, 5.0, 12.0]
    a = ContactStore.from_arrays(u, v, s, e)
    b = ContactStore.from_rows(zip(u, v, s, e))
    assert a.nodes == b.nodes
    assert list(a.iter_rows()) == list(b.iter_rows())
    assert a.fingerprint() == b.fingerprint()


def test_pair_presence_parity(haggle_pair):
    trace, store = haggle_pair
    assert store.pair_presence() == trace.pair_presence()
    # dict ordering is part of the contract (rng draw order downstream)
    assert list(store.pair_presence()) == list(trace.pair_presence())


def test_transforms_parity(haggle_pair):
    trace, store = haggle_pair
    for t, s in [
        (trace.restrict_window(4000.0, 9000.0), store.restrict_window(4000.0, 9000.0)),
        (trace.shift(-3000.0), store.shift(-3000.0)),
        (trace.restrict_nodes((2, 3, 5)), store.restrict_nodes((2, 3, 5))),
        (
            trace.restrict_window(4000.0, 9000.0).shift(-4000.0),
            store.restrict_window(4000.0, 9000.0).shift(-4000.0),
        ),
    ]:
        assert isinstance(s, ContactStore)
        assert s.nodes == t.nodes
        assert s.horizon == t.horizon
        assert s.fingerprint() == t.fingerprint()


def test_restrict_window_validation():
    store = store_of([(0, 1, 0.0, 5.0)])
    with pytest.raises(TraceFormatError):
        store.restrict_window(5.0, 5.0)


@pytest.mark.parametrize(
    "start, end",
    [(1.0, math.nan), (math.nan, math.nan), (-math.inf, 2.0), (0.0, math.inf)],
)
def test_restrict_window_non_finite(start, end):
    store = store_of([(0, 1, 0.0, 5.0)])
    with pytest.raises(TraceFormatError, match="finite"):
        store.restrict_window(start, end)


def test_tvg_parity(haggle_pair):
    trace, store = haggle_pair
    tv_t = trace.to_tvg(tau=2.0)
    tv_s = store.to_tvg(tau=2.0)
    assert tv_s.nodes == tv_t.nodes
    assert tv_s.horizon == tv_t.horizon
    assert set(tv_s.edges()) == set(tv_t.edges())
    for a, b in tv_t.edges():
        assert tv_s.presence(a, b).pairs == tv_t.presence(a, b).pairs
    for node in tv_t.nodes:
        assert tuple(tv_s.incident(node)) == tuple(tv_t.incident(node))
        assert adjacency_events(tv_s, node) == adjacency_events(tv_t, node)


def test_store_backed_tvg_survives_mutation(haggle_pair):
    trace, store = haggle_pair
    tv = store.to_tvg()
    node = store.nodes[0]
    before = adjacency_events(tv, node)
    # Mutate: the CSR fast path must detach and recompute from the TVG.
    tv.add_contact(store.nodes[0], store.nodes[1], 0.0, 1.0)
    after = adjacency_events(tv, node)
    oracle = trace.to_tvg()
    oracle.add_contact(store.nodes[0], store.nodes[1], 0.0, 1.0)
    assert after == adjacency_events(oracle, node)
    assert before != after or len(before) == len(after)


def test_from_store_round_trip(haggle_pair):
    trace, store = haggle_pair
    back = ContactTrace.from_store(store)
    assert back.nodes == trace.nodes
    assert back.contacts == trace.contacts
    assert back.fingerprint() == trace.fingerprint()


def test_node_contacts_slices(haggle_pair):
    trace, store = haggle_pair
    rows = list(store.iter_rows())
    for node in store.nodes:
        expect = [i for i, (u, v, _, _) in enumerate(rows) if node in (u, v)]
        assert list(store.node_contacts(node)) == expect


# ----------------------------------------------------------------------
# streaming ingestion
# ----------------------------------------------------------------------
def test_ingest_crawdad_parity(tmp_path):
    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=8), seed=2)
    path = tmp_path / "t.txt"
    write_crawdad(trace, path)
    oracle = parse_crawdad(path)
    store = ingest_crawdad(path)
    assert store.fingerprint() == oracle.fingerprint()
    assert store.nodes == oracle.nodes


def test_ingest_csv_parity(tmp_path):
    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=8), seed=2)
    path = tmp_path / "t.csv"
    write_csv(trace, path)
    oracle = parse_csv(path)
    store = ingest_csv(path)
    assert store.fingerprint() == oracle.fingerprint()


def test_ingest_error_messages_match_parser():
    bad = "0 1 5.0\n"
    with pytest.raises(TraceFormatError, match="expected at least 4 columns"):
        ingest_crawdad(io.StringIO(bad))
    with pytest.raises(TraceFormatError, match="expected at least 4 columns"):
        parse_crawdad(io.StringIO(bad))
    rev = "0 1 9.0 5.0\n"
    with pytest.raises(TraceFormatError, match="precedes start"):
        ingest_crawdad(io.StringIO(rev))
    with pytest.raises(TraceFormatError, match="CSV trace lacks columns"):
        ingest_csv(io.StringIO("u,v,start\n"))


def test_ingest_skips_self_sightings_and_comments():
    text = "# comment\n\n3 3 0.0 5.0\n0 1 1.0 2.0 99\n"
    store = ingest_crawdad(io.StringIO(text))
    oracle = parse_crawdad(io.StringIO(text))
    assert store.num_contacts == oracle.num_contacts == 1
    assert store.fingerprint() == oracle.fingerprint()


# ----------------------------------------------------------------------
# .ctrace on-disk format
# ----------------------------------------------------------------------
def test_save_load_round_trip(tmp_path, haggle_pair):
    trace, store = haggle_pair
    path = tmp_path / "t.ctrace"
    store.save(path)
    loaded = ContactStore.load(path)
    assert loaded.nodes == store.nodes
    assert loaded.horizon == store.horizon
    assert list(loaded.iter_rows()) == list(store.iter_rows())
    # fingerprint comes from the header: O(1), still byte-identical
    assert loaded.fingerprint() == trace.fingerprint()


def test_save_load_string_nodes(tmp_path):
    store = ContactStore.from_rows(
        [("a", "b", 0.0, 5.0), ("b", "c", 2.0, 9.0)], horizon=20.0
    )
    path = tmp_path / "s.ctrace"
    store.save(path)
    loaded = ContactStore.load(path)
    assert loaded.nodes == ("a", "b", "c")
    assert list(loaded.iter_rows()) == list(store.iter_rows())
    assert loaded.fingerprint() == store.fingerprint()


def test_save_rejects_exotic_node_kinds(tmp_path):
    store = ContactStore.from_rows([((1, 2), "x", 0.0, 1.0)])
    with pytest.raises(TraceFormatError):
        store.save(tmp_path / "bad.ctrace")


def test_load_rejects_corrupt_files(tmp_path):
    p = tmp_path / "junk.ctrace"
    p.write_bytes(b"not a ctrace file at all")
    with pytest.raises(TraceFormatError):
        ContactStore.load(p)
    q = tmp_path / "trunc.ctrace"
    store = store_of([(0, 1, 0.0, 5.0)])
    store.save(q)
    q.write_bytes(q.read_bytes()[:40])
    with pytest.raises(TraceFormatError):
        ContactStore.load(q)


def test_load_trace_dispatch(tmp_path, haggle_pair):
    trace, store = haggle_pair
    cpath = tmp_path / "t.ctrace"
    store.save(cpath)
    loaded = load_trace(cpath)
    assert isinstance(loaded, ContactStore)
    assert loaded.fingerprint() == trace.fingerprint()
    tpath = tmp_path / "t.csv"
    write_csv(store, tpath)
    reparsed = load_trace(tpath)
    assert isinstance(reparsed, ContactTrace)
    # text writers round to 6 decimals, so compare against the text oracle
    assert ingest_path(tpath).fingerprint() == reparsed.fingerprint()


def test_pickle_round_trip(tmp_path, haggle_pair):
    trace, store = haggle_pair
    path = tmp_path / "t.ctrace"
    store.save(path)
    loaded = ContactStore.load(path)  # mmap-backed
    for s in (store, loaded):
        clone = pickle.loads(pickle.dumps(s))
        assert clone.fingerprint() == trace.fingerprint()
        assert list(clone.iter_rows()) == list(store.iter_rows())


# ----------------------------------------------------------------------
# end-to-end planning parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm,channel", [
    ("eedcb", "static"),
    ("fr-eedcb", "rayleigh"),
    ("greed", "static"),
    ("rand", "rayleigh"),
])
def test_plan_parity(haggle_pair, algorithm, channel):
    trace, store = haggle_pair
    kw = dict(algorithm=algorithm, channel=channel, seed=7,
              window=(8000.0, 11000.0))
    p1 = plan_broadcast(trace, None, 2500.0, **kw)
    p2 = plan_broadcast(store, None, 2500.0, **kw)
    assert p1.schedule == p2.schedule
    assert repr(p1.total_cost) == repr(p2.total_cost)
    assert p1.source == p2.source
    assert p1.manifest["config_hash"] == p2.manifest["config_hash"]


def test_plan_cache_key_backend_independent(haggle_pair):
    trace, store = haggle_pair
    k1 = plan_cache_key(trace, None, 2000.0, seed=3, window=9000.0)
    k2 = plan_cache_key(store, None, 2000.0, seed=3, window=9000.0)
    assert k1 == k2


def test_plan_config_rejects_unknown_types():
    with pytest.raises(TypeError, match="ContactStore"):
        plan_broadcast(object(), None, 100.0)


def test_dcs_capacity_bounded_and_parity(haggle_pair):
    trace, store = haggle_pair
    t_full = tveg_from_trace(trace, "static", seed=7)
    t_bound = tveg_from_trace(store, "static", seed=7, dcs_capacity=8)
    from repro.algorithms import make_scheduler

    r1 = make_scheduler("eedcb").run(t_full, trace.nodes[0], 4000.0)
    r2 = make_scheduler("eedcb").run(t_bound, trace.nodes[0], 4000.0)
    assert r1.schedule == r2.schedule
    assert repr(r1.schedule.total_cost) == repr(r2.schedule.total_cost)
    assert len(t_bound.dcs_memo()) <= 8
    assert len(t_full.dcs_memo()) > 8


def test_dcs_capacity_validation():
    from repro.errors import GraphModelError
    from repro.tveg.graph import _BoundedDCSMemo

    with pytest.raises(GraphModelError):
        _BoundedDCSMemo(0)


# ----------------------------------------------------------------------
# scale generator
# ----------------------------------------------------------------------
def test_scale_trace_store_shape():
    store = scale_trace_store(50, 2000, 5000.0, seed=1)
    assert store.num_contacts == 2000
    assert store.num_nodes == 50
    assert store.horizon == 5000.0
    starts = [s for _, _, s, _ in store.iter_rows()]
    assert starts == sorted(starts)
    for u, v, s, e in store.iter_rows():
        assert u != v
        assert 0.0 <= s <= e <= 5000.0


def test_scale_trace_store_deterministic():
    a = scale_trace_store(20, 500, 1000.0, seed=9)
    b = scale_trace_store(20, 500, 1000.0, seed=9)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != scale_trace_store(20, 500, 1000.0, seed=10).fingerprint()


def test_scale_trace_store_validation():
    with pytest.raises(TraceFormatError):
        scale_trace_store(1, 10, 100.0)
    with pytest.raises(TraceFormatError):
        scale_trace_store(5, -1, 100.0)
    with pytest.raises(TraceFormatError):
        scale_trace_store(5, 10, 0.0)


# ----------------------------------------------------------------------
# hypothesis round trips (satellite: repro trace conversions)
# ----------------------------------------------------------------------
@given(raw_rows())
@prop
def test_store_matches_trace_oracle(rows):
    store = store_of(rows)
    trace = trace_of(rows)
    assert store.nodes == trace.nodes
    assert store.fingerprint() == trace.fingerprint()
    assert [(c.u, c.v, c.start, c.end) for c in store] == [
        (c.u, c.v, c.start, c.end) for c in trace
    ]
    assert store.pair_presence() == trace.pair_presence()


@given(rows=raw_rows())
@prop
def test_ctrace_file_round_trip(tmp_path_factory, rows):
    store = store_of(rows)
    path = tmp_path_factory.mktemp("rt") / "t.ctrace"
    store.save(path)
    loaded = ContactStore.load(path)
    assert loaded.nodes == store.nodes
    assert loaded.horizon == store.horizon
    assert loaded.fingerprint() == store.fingerprint()
    assert list(loaded.iter_rows()) == list(store.iter_rows())


@given(raw_rows())
@prop
def test_text_round_trip_through_store(rows):
    store = store_of(rows)
    buf = io.StringIO()
    write_crawdad(store, buf)
    buf.seek(0)
    reparsed = ingest_crawdad(buf, horizon=HORIZON)
    # write_crawdad rounds to 6 decimals; re-writing must be a fixpoint
    buf2 = io.StringIO()
    write_crawdad(reparsed, buf2)
    buf3 = io.StringIO()
    oracle = parse_crawdad(io.StringIO(buf.getvalue()), horizon=HORIZON)
    write_crawdad(oracle, buf3)
    assert buf2.getvalue() == buf3.getvalue()
    assert reparsed.fingerprint() == oracle.fingerprint()
