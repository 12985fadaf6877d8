"""Hypothesis-fuzzed ``POST /plan`` and ``/plan_many`` bodies, end to end.

Every body goes through a live front-end: JSON parse, request validation,
routing, the batch queue, planning and serialization.  Whatever it holds,
a typed answer must come back — 200, 400, 404 or 422, or 504 when the
body itself set a positive finite ``timeout``.  A 500 means some stage
let a bad argument escape as an untyped exception; no response at all
means the connection loop died.
"""

import http.client
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.service import BackgroundServer, LocalBackend, PlanningService

from .conftest import make_random_instance

#: every field either endpoint accepts, plus one neither does
FIELDS = (
    "trace", "deadline", "deadlines", "source", "sources", "algorithm",
    "channel", "window", "seed", "timeout", "scheduler_kwargs", "bogus",
)

scalars = (
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8)
)
values = scalars | st.lists(scalars, max_size=3) | st.dictionaries(
    st.text(max_size=8), scalars, max_size=3
)
json_bodies = st.dictionaries(st.sampled_from(FIELDS), values, max_size=5).map(
    lambda body: json.dumps(body).encode("utf-8")
)
#: not a JSON object, or not UTF-8 at all
other_bodies = st.sampled_from([
    b"", b"[]", b"5", b"null", b'"plan"', b"{", b"\xff\xfe{}",
    b'{"deadline": 600, "deadline": NaN}',
])


@pytest.fixture(scope="module")
def address():
    trace, _ = make_random_instance(seed=1)
    service = PlanningService({"t": trace}, workers=1)
    with BackgroundServer(LocalBackend(service), port=0, edge_cache=0) as srv:
        yield srv.address


def _may_time_out(raw):
    try:
        timeout = json.loads(raw).get("timeout")
    except (ValueError, AttributeError):
        return False
    return isinstance(timeout, (int, float)) and 0 < timeout < math.inf


@given(path=st.sampled_from(["/plan", "/plan_many"]),
       raw=json_bodies | other_bodies)
# a bad timeout has to come with an otherwise plannable body to reach the
# batch queue, which random bodies rarely are
@example(path="/plan", raw=b'{"deadline": 100, "timeout": NaN}')
@example(path="/plan", raw=b'{"deadline": 100, "timeout": -1}')
@example(path="/plan", raw=b'{"deadline": 100, "timeout": 1e309}')
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_body_gets_a_typed_answer(address, path, raw):
    conn = http.client.HTTPConnection(*address, timeout=60)
    try:
        conn.request("POST", path, body=raw)
        resp = conn.getresponse()
        doc = json.loads(resp.read())
    finally:
        conn.close()
    allowed = {200, 400, 404, 422} | ({504} if _may_time_out(raw) else set())
    assert resp.status in allowed, (resp.status, doc)
    assert ("error" in doc) == (resp.status != 200)
