"""Fuzzed trace inputs: every parser and the ``.ctrace`` loader either
return a well-formed trace or raise :class:`TraceFormatError`.

Text over the characters trace files are made of goes to
:func:`parse_crawdad` and :func:`parse_csv`; byte flips, truncations and
extensions of a saved ``.ctrace`` go to :func:`load_trace`.  No other
exception may escape, and a returned trace must have finite times,
``start <= end``, ``u != v`` and ``(start, end)`` row order, build a TVG,
and save and reload to the same fingerprint.
"""

import io
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.traces import (
    HaggleLikeConfig,
    deterministic_trace,
    haggle_like_trace,
    load_trace,
    parse_crawdad,
    parse_csv,
)

fuzz = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TOKENS = [
    "0", "1", "2", "3", "9", "-", "+", ".", "e", "nan", "inf",
    " ", "\t", ",", "\r", "#", "\n",
]
text = st.lists(st.sampled_from(TOKENS), max_size=60).map("".join)


def check_trace(trace, tmp_dir) -> None:
    """The invariants every trace a parser or loader returns must hold."""
    rows = list(trace.iter_rows())
    for u, v, start, end in rows:
        assert math.isfinite(start) and math.isfinite(end)
        assert start <= end
        assert u != v
        assert u in trace.nodes and v in trace.nodes
    keys = [(start, end) for _, _, start, end in rows]
    assert keys == sorted(keys)
    assert math.isfinite(trace.horizon)
    if trace.num_nodes and trace.horizon > 0:
        trace.to_tvg()
    path = tmp_dir / "again.ctrace"
    trace.save(path)
    assert load_trace(path).fingerprint() == trace.fingerprint()


def parse_or_reject(parse, source, tmp_dir) -> None:
    try:
        trace = parse(source)
    except TraceFormatError:
        return
    check_trace(trace, tmp_dir)


@given(body=text)
@fuzz
def test_text_parsers_return_a_trace_or_reject(tmp_path_factory, body):
    tmp_dir = tmp_path_factory.mktemp("text")
    parse_or_reject(parse_crawdad, io.StringIO(body), tmp_dir)
    parse_or_reject(parse_csv, io.StringIO("u,v,start,end\n" + body), tmp_dir)
    parse_or_reject(parse_csv, io.StringIO(body), tmp_dir)


def _saved(tmp_dir, trace) -> bytes:
    path = tmp_dir / "base.ctrace"
    trace.save(path)
    return path.read_bytes()


BASES = {
    "deterministic": deterministic_trace(),
    "haggle": haggle_like_trace(
        HaggleLikeConfig(num_nodes=5, horizon=2000.0), seed=3
    ),
}

flips = st.lists(
    st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
    min_size=1, max_size=4,
).map(lambda fs: ("flip", fs))
truncation = st.floats(0.0, 1.0, exclude_max=True).map(
    lambda at: ("truncate", at)
)
extension = st.binary(min_size=1, max_size=64).map(lambda b: ("extend", b))


def mutate(raw: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return raw[:int(arg * len(raw))]
    if kind == "extend":
        return raw + arg
    out = bytearray(raw)
    for where, value in arg:
        out[int(where * len(out))] = value
    return bytes(out)


@given(base=st.sampled_from(sorted(BASES)),
       mutation=st.one_of(flips, truncation, extension))
@fuzz
def test_ctrace_loader_returns_a_trace_or_rejects(tmp_path_factory, base,
                                                  mutation):
    tmp_dir = tmp_path_factory.mktemp("ctrace")
    path = tmp_dir / "mutated.ctrace"
    path.write_bytes(mutate(_saved(tmp_dir, BASES[base]), mutation))
    try:
        trace = load_trace(path)
    except TraceFormatError:
        return
    check_trace(trace, tmp_dir)
