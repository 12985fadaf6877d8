"""The columnar trace class: parity with the dict-backed oracle, the
``.ctrace`` on-disk format, streaming ingestion, and bounded-memory
planning.

The contract under test is byte-for-byte parity: every derived structure —
rows, node table, fingerprint, pair presence, transforms, TVG presence and
adjacency events, DCS floats, schedules — must equal what the reference
model in ``tests/trace_oracle.py`` derives from the same records.
``ContactStore`` and ``ContactTrace`` are one class.
"""

import io
import json
import math
import os
import pickle
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from repro.api import plan_broadcast, plan_cache_key
from repro.errors import TraceFormatError
from repro.mobility import RandomWaypoint
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
from repro.traces.store import ContactStore
from repro.tveg import tveg_from_trace

from . import trace_oracle as oracle
from .aux_oracle import adjacency_events

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
    return oracle.ContactTrace(
        (Contact(s, e, u, v) for u, v, s, e in rows), horizon=HORIZON
    )


def store_of(rows):
    return ContactStore.from_rows(rows, horizon=HORIZON)


def rows_of(trace):
    return [(c.u, c.v, c.start, c.end) for c in trace]


@pytest.fixture(scope="module")
def haggle_pair():
    """``(oracle, store)`` holding the same Haggle-like contacts."""
    store = haggle_like_trace(HaggleLikeConfig(num_nodes=10), seed=5)
    trace = oracle.ContactTrace(store, nodes=store.nodes, horizon=store.horizon)
    return trace, store


def test_one_trace_class():
    from repro.traces import model, store

    assert model.ContactTrace is store.ContactStore


# ----------------------------------------------------------------------
# construction and surface parity
# ----------------------------------------------------------------------
def test_rows_sorted_and_nodes_first_appearance():
    rows = [(3, 1, 50.0, 60.0), (0, 2, 10.0, 30.0), (2, 4, 10.0, 20.0)]
    store = ContactStore.from_rows(rows)
    trace = oracle.ContactTrace(Contact(s, e, u, v) for u, v, s, e in rows)
    assert store.nodes == trace.nodes
    assert rows_of(store) == rows_of(trace)
    assert store.horizon == trace.horizon
    assert store.fingerprint() == trace.fingerprint()


def test_explicit_nodes_merge_matches_oracle():
    rows = [(1, 2, 0.0, 5.0)]
    store = ContactStore.from_rows(rows, nodes=(9, 2), horizon=50.0)
    trace = oracle.ContactTrace(
        [Contact(0.0, 5.0, 1, 2)], nodes=(9, 2), horizon=50.0
    )
    assert store.nodes == trace.nodes == (9, 2, 1)
    assert store.fingerprint() == trace.fingerprint()
    public = ContactTrace([Contact(0.0, 5.0, 1, 2)], nodes=(9, 2), horizon=50.0)
    assert public.fingerprint() == trace.fingerprint()


def test_empty_store():
    store = ContactStore.from_rows([])
    trace = oracle.ContactTrace([])
    assert store.num_contacts == 0
    assert store.nodes == ()
    assert store.time_span() == (0.0, 0.0)
    assert store.fingerprint() == trace.fingerprint()


def test_validation_matches_contact():
    for u, v, start, end, match in [
        (0, 1, 5.0, 1.0, "exceeds end"),
        (2, 2, 0.0, 1.0, "self-contact"),
        (0, 1, math.nan, 5.0, "finite"),
        (0, 1, 0.0, math.inf, "finite"),
        (0, 1, -math.inf, 1.0, "finite"),
    ]:
        with pytest.raises(TraceFormatError, match=match):
            Contact(start, end, u, v)
        with pytest.raises(TraceFormatError, match=match):
            ContactStore.from_rows([(0, 1, 0.0, 1.0), (u, v, start, end)])
        with pytest.raises(TraceFormatError, match=match):
            ContactStore.from_arrays([0, u], [1, v], [0.0, start], [1.0, end])


@pytest.mark.parametrize("horizon", [math.nan, math.inf])
def test_non_finite_horizon_rejected(horizon):
    with pytest.raises(TraceFormatError, match="horizon must be finite"):
        ContactStore.from_rows([(0, 1, 0.0, 1.0)], horizon=horizon)
    with pytest.raises(TraceFormatError, match="finite delta"):
        ContactStore.from_rows([(0, 1, 0.0, 1.0)]).shift(horizon)


def test_from_arrays_matches_from_rows():
    u, v = [0, 3, 1], [1, 2, 0]
    s, e = [10.0, 0.0, 10.0], [20.0, 5.0, 12.0]
    a = ContactStore.from_arrays(u, v, s, e)
    b = ContactStore.from_rows(zip(u, v, s, e))
    assert a.nodes == b.nodes
    assert list(a.iter_rows()) == list(b.iter_rows())
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_ignores_scalar_types():
    # Mobility-derived contacts carry numpy float64 times; the fingerprint
    # (hence the plan-cache key) must equal that of the same rows given as
    # python values, whatever scalar types the rows and labels came in.
    positions = RandomWaypoint(num_nodes=8, area=(60.0, 60.0)).generate(
        600.0, sample_dt=5.0, seed=21
    )
    mobile = positions.extract_contacts(15.0)
    rows = [(u, v, float(s), float(e)) for u, v, s, e in mobile.iter_rows()]
    typed_rows = [(np.int64(u), np.int64(v), np.float64(s), np.float64(e))
                  for u, v, s, e in rows]
    plain = ContactStore.from_rows(rows, nodes=mobile.nodes,
                                   horizon=mobile.horizon)
    assert mobile.fingerprint() == plain.fingerprint() == "8a27dc679fed38e8"
    assert plan_cache_key(mobile, 0, 300.0) == plan_cache_key(plain, 0, 300.0)
    for nodes in (mobile.nodes, None):
        plain = ContactStore.from_rows(rows, nodes=nodes,
                                       horizon=mobile.horizon)
        typed = ContactStore.from_rows(
            typed_rows, nodes=nodes, horizon=np.float64(mobile.horizon)
        )
        assert typed.nodes == plain.nodes
        assert typed.fingerprint() == plain.fingerprint()
        assert plan_cache_key(typed, 0, 300.0) == \
            plan_cache_key(plain, 0, 300.0)


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
        assert rows_of(s) == rows_of(t)
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
    for tau in (0.0, 2.0):
        tv_t = trace.to_tvg(tau=tau)
        tv_s = store.to_tvg(tau=tau)
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
    # Mutate: the events must follow the new presence.
    tv.add_contact(store.nodes[0], store.nodes[1], 0.0, 1.0)
    after = adjacency_events(tv, node)
    expected = trace.to_tvg()
    expected.add_contact(store.nodes[0], store.nodes[1], 0.0, 1.0)
    assert after == adjacency_events(expected, node)
    assert before != after or len(before) == len(after)


# ----------------------------------------------------------------------
# streaming ingestion
# ----------------------------------------------------------------------
def test_ingest_crawdad_parity(tmp_path):
    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=8), seed=2)
    path = tmp_path / "t.txt"
    write_crawdad(trace, path)
    expected = oracle.parse_crawdad(path)
    store = parse_crawdad(path)
    assert store.fingerprint() == expected.fingerprint()
    assert store.nodes == expected.nodes
    assert rows_of(store) == rows_of(expected)


def test_ingest_csv_parity(tmp_path):
    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=8), seed=2)
    path = tmp_path / "t.csv"
    write_csv(trace, path)
    expected = oracle.parse_csv(path)
    store = parse_csv(path)
    assert store.fingerprint() == expected.fingerprint()
    assert rows_of(store) == rows_of(expected)


def test_ingest_error_messages_match_parser():
    # Both parsers reject the same lines; the streaming one names the line.
    for text, match in [
        ("0 1 5.0\n", "line 1: expected at least 4 columns"),
        ("# c\n0 1 9.0 5.0\n", "line 2: contact start 9.0 exceeds end 5.0"),
    ]:
        with pytest.raises(TraceFormatError, match=match):
            parse_crawdad(io.StringIO(text))
        with pytest.raises(TraceFormatError):
            oracle.parse_crawdad(io.StringIO(text))
    for text, match in [
        ("u,v,start\n", "CSV trace lacks columns"),
        ("u,v,start,end\n0,1,0,1\n2,2,0,1\n", "line 3: self-contact"),
        ("u,v,start,end\n0,1\n", "line 2"),
    ]:
        with pytest.raises(TraceFormatError, match=match):
            parse_csv(io.StringIO(text))


def test_ingest_skips_self_sightings_and_comments():
    text = "# comment\n\n3 3 0.0 5.0\n0 1 1.0 2.0 99\n"
    store = parse_crawdad(io.StringIO(text))
    expected = oracle.parse_crawdad(io.StringIO(text))
    assert store.num_contacts == expected.num_contacts == 1
    assert store.fingerprint() == expected.fingerprint()


# ----------------------------------------------------------------------
# .ctrace on-disk format
# ----------------------------------------------------------------------
PARENT_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                              "haggle6_parent.ctrace")


def test_save_load_round_trip(tmp_path, haggle_pair):
    trace, store = haggle_pair
    path = tmp_path / "t.ctrace"
    store.save(path)
    loaded = ContactStore.load(path)
    assert loaded.nodes == store.nodes
    assert loaded.horizon == store.horizon
    assert list(loaded.iter_rows()) == list(store.iter_rows())
    # hashed again from the loaded rows: byte-identical
    assert loaded.fingerprint() == trace.fingerprint()


def test_loads_files_with_row_index_blocks():
    # Written by the earlier format writer, which also stored a per-node
    # CSR row index ("indptr"/"indices" blocks): the loader reads only the
    # four column blocks, by name.
    loaded = load_trace(PARENT_FIXTURE)
    expected = haggle_like_trace(
        HaggleLikeConfig(num_nodes=6, horizon=3000.0), seed=4
    )
    assert loaded.nodes == expected.nodes
    assert loaded.horizon == expected.horizon
    assert list(loaded.iter_rows()) == list(expected.iter_rows())
    assert loaded.fingerprint() == expected.fingerprint() == "e699dee81101a385"


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


def _patched(tmp_path, edit):
    """The deterministic trace saved, with ``edit(header, columns)``
    applied to its parsed header and column arrays, written back."""
    from repro.traces import deterministic_trace

    path = tmp_path / "det.ctrace"
    deterministic_trace().save(path)
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack("<Q", raw[16:24])
    header = json.loads(raw[24:24 + hlen])
    cols = {
        name: np.frombuffer(raw, dtype=dt, count=header["count"],
                            offset=header["blocks"][name][0]).copy()
        for name, dt in (("u", "<u4"), ("v", "<u4"), ("start", "<f8"),
                         ("end", "<f8"))
    }
    edit(header, cols)
    for name, col in cols.items():
        off = header["blocks"][name][0]
        raw[off:off + col.nbytes] = col.tobytes()
    body = json.dumps(header, separators=(",", ":")).encode()
    if len(body) == hlen:
        raw[24:24 + hlen] = body
    else:  # header edits that change its length: fix the length field
        raw[16:24] = struct.pack("<Q", len(body))
        raw[24:24 + hlen] = body
    path.write_bytes(bytes(raw))
    return path


def _set(col, row, value):
    def edit(header, cols):
        cols[col][row] = value
    return edit


def _header(key, value):
    def edit(header, cols):
        header[key] = value
    return edit


@pytest.mark.parametrize("edit, match", [
    (_set("start", 0, math.nan), "finite"),
    (_set("end", 0, math.inf), "finite"),
    (_set("start", 0, 31.0), "exceeds end"),
    (_set("start", 4, 0.0), "order"),
    (_set("v", 2, 9), "node id outside"),
    (_set("v", 2, 1), "self-contact"),
    (_header("nodes", [0, 1, 1, 3]), "distinct"),
    (_header("nodes", [0, 1, "2", 3]), "node_kind"),
    (_header("count", 9), "block"),
    (_header("horizon", None), "horizon"),
    (_header("fingerprint", "x"), "fingerprint"),
])
def test_load_rejects_bad_contents(tmp_path, edit, match):
    with pytest.raises(TraceFormatError, match=match):
        load_trace(_patched(tmp_path, edit))


def test_loaded_fingerprint_comes_from_the_rows(tmp_path):
    # Row 0 of the deterministic trace, (0, 1, 0.0, 30.0), ends mid-contact
    # instead: still a valid file, and the header keeps the original's
    # fingerprint, which the loader must not take.
    from repro.traces import deterministic_trace

    original = deterministic_trace()
    edited = load_trace(_patched(tmp_path, _set("end", 0, 15.0)))
    assert next(edited.iter_rows()) == (0, 1, 0.0, 15.0)
    rows = ContactTrace.from_rows(edited.iter_rows(), nodes=edited.nodes,
                                  horizon=edited.horizon)
    assert edited.fingerprint() == rows.fingerprint()
    assert edited.fingerprint() != original.fingerprint()
    assert plan_cache_key(edited, 0, 100.0) != plan_cache_key(original, 0,
                                                                100.0)
    assert load_trace(PARENT_FIXTURE).fingerprint() == "e699dee81101a385"


def test_load_rejects_overlong_header_length(tmp_path):
    path = tmp_path / "t.ctrace"
    store_of([(0, 1, 0.0, 5.0)]).save(path)
    raw = bytearray(path.read_bytes())
    raw[16:24] = struct.pack("<Q", 2 ** 62)
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceFormatError, match="header length"):
        load_trace(path)


def test_load_trace_dispatch(tmp_path, haggle_pair):
    trace, store = haggle_pair
    cpath = tmp_path / "t.ctrace"
    store.save(cpath)
    loaded = load_trace(cpath)
    assert isinstance(loaded, ContactTrace)
    assert loaded.fingerprint() == trace.fingerprint()
    tpath = tmp_path / "t.csv"
    write_csv(store, tpath)
    reparsed = load_trace(tpath)
    assert isinstance(reparsed, ContactTrace)
    # text writers round to 6 decimals, so compare against the text oracle
    assert oracle.parse_csv(tpath).fingerprint() == reparsed.fingerprint()


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
    # plan_broadcast takes a ContactTrace: the oracle goes through the same
    # window → shift → tveg_from_trace steps explicitly.
    tveg = tveg_from_trace(
        trace.restrict_window(8000.0, 11000.0).shift(-8000.0), channel, seed=7
    )
    p1 = plan_broadcast(tveg, None, 2500.0, algorithm=algorithm, seed=7)
    p2 = plan_broadcast(store, None, 2500.0, algorithm=algorithm,
                        channel=channel, seed=7, window=(8000.0, 11000.0))
    assert p1.schedule == p2.schedule
    assert repr(p1.total_cost) == repr(p2.total_cost)
    assert p1.source == p2.source


def test_plan_cache_key_backend_independent(haggle_pair):
    trace, store = haggle_pair
    copy = ContactStore.from_trace(trace)
    assert copy.fingerprint() == store.fingerprint() == trace.fingerprint()
    k1 = plan_cache_key(copy, None, 2000.0, seed=3, window=9000.0)
    k2 = plan_cache_key(store, None, 2000.0, seed=3, window=9000.0)
    assert k1 == k2


def test_plan_config_rejects_unknown_types():
    with pytest.raises(TypeError, match="ContactTrace or TVEG"):
        plan_broadcast(object(), None, 100.0)
    with pytest.raises(TypeError, match="ContactTrace or TVEG"):
        plan_broadcast(oracle.ContactTrace([]), None, 100.0)


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
# hypothesis round trips
# ----------------------------------------------------------------------
@given(raw_rows())
@prop
def test_store_matches_trace_oracle(rows):
    store = store_of(rows)
    trace = trace_of(rows)
    assert store.nodes == trace.nodes
    assert store.fingerprint() == trace.fingerprint()
    assert rows_of(store) == rows_of(trace)
    assert store.pair_presence() == trace.pair_presence()
    for s, t in [
        (store.restrict_window(50.0, 120.0), trace.restrict_window(50.0, 120.0)),
        (store.shift(-40.0), trace.shift(-40.0)),
        (store.restrict_nodes((4, 1, 2)), trace.restrict_nodes((4, 1, 2))),
    ]:
        assert s.nodes == t.nodes
        assert s.horizon == t.horizon
        assert rows_of(s) == rows_of(t)
        assert s.fingerprint() == t.fingerprint()


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
    reparsed = parse_crawdad(io.StringIO(buf.getvalue()), horizon=HORIZON)
    # write_crawdad rounds to 6 decimals (which can reorder rows), so
    # compare against the oracle's parse of the same text
    expected = oracle.parse_crawdad(io.StringIO(buf.getvalue()),
                                    horizon=HORIZON)
    assert rows_of(reparsed) == rows_of(expected)
    assert reparsed.fingerprint() == expected.fingerprint()
    # re-writing the rounded trace is a fixpoint
    buf2 = io.StringIO()
    write_crawdad(reparsed, buf2)
    again = parse_crawdad(io.StringIO(buf2.getvalue()), horizon=HORIZON)
    assert again.fingerprint() == reparsed.fingerprint()
