"""One content address per plan, whichever layer asks.

The planning service plans through :func:`repro.api.plan_broadcast` on
the hosted trace, so a served plan's routing key, response ``key``,
batcher key, plan-cache key and ``manifest["config_hash"]`` are one
value — the :func:`repro.api.plan_cache_key` the library gives the same
call.  Pinned here:

* for hypothesis-drawn ``/plan`` and ``/plan_many`` bodies, every 200
  response and every ``/plan_many`` member carries that one key;
* a plan the service stored on disk is a disk hit for the library call
  in a fresh cache, and replays its schedule and manifest;
* the TVEGs the plan cache shares live only as long as their plans, and
  concurrent computes on one instance run on one of them, which builds
  its contact table and priced components once.
"""

import gc
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import plan_broadcast, plan_cache_key
from repro.service import Batcher, LocalBackend, PlanCache, PlanningService
from repro.service.server import execute_request, parse_plan_request
from repro.temporal.tvg import TVG
from repro.traces import HaggleLikeConfig, haggle_like_trace
from repro.tveg import TVEG

from .conftest import make_random_instance

TRACE, _ = make_random_instance(seed=1)

#: parsed request fields that are not plan_cache_key keywords
_REQUEST_ONLY = ("trace", "source", "sources", "deadline", "deadlines",
                 "timeout")


class RecordingBatcher(Batcher):
    """A batcher that remembers the key of every submitted job."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.keys = []

    def submit(self, key, compute):
        self.keys.append(key)
        return super().submit(key, compute)


@pytest.fixture(scope="module")
def backend():
    service = PlanningService(
        {"t": TRACE}, batcher=RecordingBatcher(workers=1)
    )
    backend = LocalBackend(service)
    yield backend
    backend.drain()


shared_fields = {
    "algorithm": st.sampled_from(["eedcb", "greed", "rand"]),
    "channel": st.sampled_from(["static", "rayleigh"]),
    "window": st.sampled_from([0, 20.0, [0, 250], [10.0, 300.0]]),
    "seed": st.sampled_from([1, 2, None]),
}
sources = st.none() | st.integers(0, 5)
deadlines = st.sampled_from([5.0, 150.0, 200, 250.0])

plan_bodies = st.fixed_dictionaries(
    {"deadline": deadlines}, optional={"source": sources, **shared_fields}
)
many_bodies = st.lists(
    st.tuples(sources, deadlines), min_size=1, max_size=3
).flatmap(lambda members: st.fixed_dictionaries(
    {
        "sources": st.just([s for s, _ in members]),
        "deadlines": st.just([d for _, d in members])
        | st.just(members[0][1]),
    },
    optional=shared_fields,
))


def _library_kwargs(kwargs):
    return {k: v for k, v in kwargs.items() if k not in _REQUEST_ONLY}


def _respelled(window):
    """The window with every bound in the other spelling: 20 ↔ 20.0."""
    if isinstance(window, list):
        return [_respelled(w) for w in window]
    return float(window) if isinstance(window, int) else int(window)


@given(body=plan_bodies)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_plan_answers_under_the_library_key(backend, body):
    service = backend.service
    method, kwargs = parse_plan_request("/plan", body)
    route = backend.routing(method, kwargs)
    submitted = len(service.batcher.keys)
    status, doc = execute_request(service, method, kwargs)
    if status != 200:
        return
    library = plan_cache_key(
        TRACE, kwargs.get("source"), kwargs["deadline"],
        **_library_kwargs(kwargs),
    )
    assert route == library
    assert doc["key"] == library
    assert doc["plan"]["manifest"]["config_hash"] == library
    assert service.batcher.keys[submitted:] == [library]
    assert library in service.cache
    if "window" in body:
        # the other spelling of the window is the same plan: one key, and
        # the cached plan answers it without a second compute
        twin = dict(body, window=_respelled(body["window"]))
        method, kwargs = parse_plan_request("/plan", twin)
        misses = service.cache.stats()["misses"]
        status, doc = execute_request(service, method, kwargs)
        assert status == 200
        assert backend.routing(method, kwargs) == library
        assert doc["key"] == library
        assert service.cache.stats()["misses"] == misses


@given(body=many_bodies)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_plan_many_members_answer_under_the_library_key(backend, body):
    service = backend.service
    method, kwargs = parse_plan_request("/plan_many", body)
    route = backend.routing(method, kwargs)
    status, doc = execute_request(service, method, kwargs)
    if status != 200:
        return
    rest = _library_kwargs(kwargs)
    dls = kwargs["deadlines"]
    if not isinstance(dls, list):
        dls = [dls] * len(kwargs["sources"])
    members = list(zip(kwargs["sources"], dls))
    library = [plan_cache_key(TRACE, s, d, **rest) for s, d in members]
    assert doc["keys"] == library
    assert [
        p["manifest"]["config_hash"] for p in doc["planset"]["plans"]
    ] == library
    # the batch routes by its first member; each member's own /plan
    # request routes by its key
    assert route == library[0]
    for (s, d), key in zip(members, library):
        single = dict(rest, source=s, deadline=d)
        assert backend.routing("plan", single) == key
        assert key in service.cache


def test_service_plan_is_a_disk_hit_for_the_library(tmp_path):
    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=12), seed=0)
    cache = PlanCache(disk_dir=tmp_path)
    with PlanningService({"n12": trace}, cache=cache, workers=1) as svc:
        served = svc.plan("n12", 2000.0, window=9000.0, seed=5).plan
    fresh = PlanCache(disk_dir=tmp_path)
    plan = plan_broadcast(trace, None, 2000.0, window=9000.0, seed=5,
                          cache=fresh)
    assert fresh.stats()["disk_hits"] == 1
    assert fresh.stats()["misses"] == 0
    assert plan.schedule == served.schedule
    assert plan.manifest == served.manifest


def test_shared_tvegs_live_as_long_as_their_plans():
    with PlanningService({"t": TRACE}, workers=1) as svc:
        svc.plan("t", 250.0, window=[0, 250], seed=1)
        svc.plan("t", 250.0, window=[0, 250], seed=1, algorithm="greed")
        svc.plan_many("t", 250.0, sources=[0, 3], window=[0, 250], seed=1)
        assert svc.metrics()["shared_tvegs"] == 1
        svc.cache.clear()
        gc.collect()
        assert svc.metrics()["shared_tvegs"] == 0


def test_concurrent_computes_share_one_tveg(monkeypatch):
    # more batcher workers than cores and a short switch interval: a lost
    # update in the shared-TVEG map would hand some plan a second graph,
    # and a race on the graph's contact table or priced components would
    # build one twice or let a plan read one half-built
    requests = [
        dict(source=s, algorithm=a)
        for s in (0, 2, 4) for a in ("eedcb", "greed", "rand")
    ]
    serial = [
        plan_broadcast(TRACE, window=[0, 250], seed=2, deadline=250.0, **r)
        for r in requests
    ]
    builds = []  # (what, graph, version), appended by the building thread

    def recorded(what, build):
        def wrapper(self, *args):
            out = build(self, *args)
            tvg = self if isinstance(self, TVG) else self.tvg
            builds.append((what, tvg, tvg.version))
            time.sleep(0.05)  # a slow build: concurrent plans meet in it
            return out
        return wrapper

    monkeypatch.setattr(TVG, "_load", recorded("table", TVG._load))
    monkeypatch.setattr(TVG, "_tabled", recorded("table", TVG._tabled))
    monkeypatch.setattr(TVEG, "_components_now",
                        recorded("components", TVEG._components_now))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with PlanningService({"t": TRACE}, workers=4) as svc:
            plans = [None] * len(requests)

            def run(i):
                plans[i] = svc.plan(
                    "t", 250.0, window=[0, 250], seed=2, **requests[i]
                ).plan

            # hold each of the four workers on a gate job until every plan
            # is queued, so the plans start together on a graph no plan
            # has built yet
            gate = threading.Event()
            held = [svc.batcher.submit(f"gate-{i}", lambda: gate.wait(60))
                    for i in range(4)]
            deadline = time.monotonic() + 60
            while svc.batcher.queue_depth and time.monotonic() < deadline:
                time.sleep(0.001)
            threads = [
                threading.Thread(target=run, args=(i,))
                for i in range(len(requests))
            ]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            while (svc.batcher.queue_depth < len(requests)
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            gate.set()
            assert all(h.result(timeout=60) for h in held)
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len({id(p.tveg) for p in plans}) == 1
            assert svc.metrics()["shared_tvegs"] == 1
    finally:
        sys.setswitchinterval(old)
    shared = plans[0].tveg.tvg
    for what in ("table", "components"):
        assert [(w, v) for w, tvg, v in builds
                if w == what and tvg is shared] == [(what, shared.version)]
    assert [p.schedule for p in plans] == [p.schedule for p in serial]
