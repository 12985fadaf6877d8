"""Planning service: cache tiers, batch dedupe, HTTP endpoints.

Covers the service acceptance properties directly:

* a cached replay is byte-identical to the cold computation (schedule,
  total cost, info counters, feasibility);
* K duplicate concurrent requests perform exactly one auxiliary-graph
  build (asserted via the ``auxgraph.numpy_builds`` tracer counter);
* admission control surfaces as ``ServiceOverloaded`` / HTTP 429.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.api import plan_broadcast, plan_cache_key
from repro.errors import ServiceOverloaded
from repro.obs.histogram import MetricsRegistry
from repro.service import (
    BackgroundServer,
    Batcher,
    LocalBackend,
    PlanCache,
    PlanningService,
)
from repro.service.server import execute_request, parse_plan_request
from repro.traces import HaggleLikeConfig, haggle_like_trace

from .conftest import make_random_instance


@pytest.fixture
def tveg():
    _, tveg = make_random_instance(seed=5)
    return tveg


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def make_plan(tveg, cache=None, deadline=300.0, **kw):
    return plan_broadcast(tveg, 0, deadline, seed=5, cache=cache, **kw)


# ----------------------------------------------------------------------
# PlanCache
# ----------------------------------------------------------------------


class TestPlanCache:
    def test_memory_hit_returns_same_object(self, tveg):
        cache = PlanCache()
        p1 = make_plan(tveg, cache)
        p2 = make_plan(tveg, cache)
        assert p2 is p1
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["memory_hits"] == 1

    def test_key_is_manifest_config_hash(self, tveg):
        cache = PlanCache()
        plan = make_plan(tveg, cache)
        key = plan_cache_key(tveg, 0, 300.0, seed=5)
        assert key == plan.manifest["config_hash"]
        assert key in cache
        assert cache.keys() == [key]

    def test_different_problems_different_entries(self, tveg):
        cache = PlanCache()
        p1 = make_plan(tveg, cache)
        p2 = make_plan(tveg, cache, algorithm="greed")
        p3 = make_plan(tveg, cache, deadline=250.0)
        assert len(cache) == 3
        assert len({p1.manifest["config_hash"], p2.manifest["config_hash"],
                    p3.manifest["config_hash"]}) == 3

    def test_lru_eviction(self, tveg):
        cache = PlanCache(capacity=2)
        make_plan(tveg, cache, algorithm="eedcb")
        make_plan(tveg, cache, algorithm="greed")
        first = plan_cache_key(tveg, 0, 300.0, algorithm="eedcb", seed=5)
        cache.lookup(first)  # refresh eedcb → greed becomes LRU
        make_plan(tveg, cache, algorithm="rand")
        assert len(cache) == 2
        assert first in cache
        assert plan_cache_key(
            tveg, 0, 300.0, algorithm="greed", seed=5
        ) not in cache
        assert cache.stats()["evictions"] == 1

    def test_ttl_expiry(self, tveg, monkeypatch):
        cache = PlanCache(ttl=10.0)
        p1 = make_plan(tveg, cache)
        now = time.time()
        monkeypatch.setattr("repro.service.cache.time.time",
                            lambda: now + 11.0)
        key = p1.manifest["config_hash"]
        assert key not in cache
        assert cache.lookup(key) is None
        assert cache.stats()["expirations"] == 1

    def test_disk_replay_is_byte_identical(self, tmp_path):
        _, tveg = make_random_instance(seed=5, channel="rayleigh")
        cold_cache = PlanCache(disk_dir=tmp_path)
        cold = make_plan(tveg, cold_cache, algorithm="fr-eedcb")
        # fresh process-equivalent: new cache, same directory
        warm_cache = PlanCache(disk_dir=tmp_path)
        warm = make_plan(tveg, warm_cache, algorithm="fr-eedcb")
        assert warm is not cold
        assert list(warm.schedule) == list(cold.schedule)
        assert warm.schedule.total_cost == cold.schedule.total_cost
        assert warm.info == cold.info
        assert warm.manifest["config_hash"] == cold.manifest["config_hash"]
        assert warm.feasibility.informed_times == cold.feasibility.informed_times
        s = warm_cache.stats()
        assert s["disk_hits"] == 1 and s["memory_hits"] == 0
        # promoted into memory: the next lookup doesn't touch disk
        again = make_plan(tveg, warm_cache, algorithm="fr-eedcb")
        assert again is warm
        assert warm_cache.stats()["memory_hits"] == 1

    def test_disk_survives_memory_eviction(self, tveg, tmp_path):
        cache = PlanCache(capacity=1, disk_dir=tmp_path)
        p1 = make_plan(tveg, cache, algorithm="eedcb")
        make_plan(tveg, cache, algorithm="greed")  # evicts eedcb from memory
        key = p1.manifest["config_hash"]
        assert len(cache) == 1
        assert key in cache  # … via the disk tier
        assert key in cache.disk_keys()

    def test_corrupt_disk_entry_is_a_miss(self, tveg, tmp_path):
        cache = PlanCache(disk_dir=tmp_path)
        plan = make_plan(tveg, cache)
        key = plan.manifest["config_hash"]
        (tmp_path / f"{key}.json").write_text("{ not json")
        fresh = PlanCache(disk_dir=tmp_path)
        assert fresh.lookup(key, lambda: tveg) is None
        assert fresh.stats()["disk_errors"] == 1

    def test_clear(self, tveg, tmp_path):
        cache = PlanCache(disk_dir=tmp_path)
        make_plan(tveg, cache)
        assert cache.clear(disk=True) == 2  # one memory + one disk entry
        assert len(cache) == 0 and cache.disk_keys() == []

    def test_cached_replay_is_50x_faster(self, service_trace):
        # Acceptance bar: a cache hit must beat cold planning by ≥50×.
        # The real ratio is 3–4 orders of magnitude (a memory hit builds no
        # graph at all), so the margin absorbs CI timing noise.
        cache = PlanCache()
        t0 = time.perf_counter()
        plan_broadcast(service_trace, None, 600.0, window=2000.0, seed=3,
                       cache=cache)
        cold = time.perf_counter() - t0
        warm = min(
            _timed(lambda: plan_broadcast(
                service_trace, None, 600.0, window=2000.0, seed=3,
                cache=cache,
            ))
            for _ in range(3)
        )
        assert warm * 50 < cold, f"warm {warm:.6f}s vs cold {cold:.3f}s"

    def test_put_rejects_non_hash_keys(self, tveg):
        cache = PlanCache()
        with pytest.raises(ValueError):
            cache.put("../escape", object())

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)
        with pytest.raises(ValueError):
            PlanCache(ttl=0.0)

    def test_counters_and_ledger_events(self, tveg):
        obs.enable()
        obs.enable_ledger()
        try:
            cache = PlanCache()
            make_plan(tveg, cache)
            make_plan(tveg, cache)
            counters = obs.snapshot().counters
            assert counters["service.plan_cache_miss"] == 1
            assert counters["service.plan_cache_hit"] == 1
            types = [e.type for e in obs.ledger_events()]
            assert types.count(obs.EV_PLAN_CACHE_MISS) == 1
            assert types.count(obs.EV_PLAN_CACHE_HIT) == 1
        finally:
            obs.disable_ledger()
            obs.disable()


# ----------------------------------------------------------------------
# Batcher
# ----------------------------------------------------------------------


class TestBatcher:
    def test_dedupes_within_a_batch(self):
        calls = []
        release = threading.Event()

        def compute():
            calls.append(1)
            return 42

        with Batcher(workers=2) as b:
            # a blocking job occupies the flush loop so the duplicates
            # really land in one batch
            gate = b.submit("aa", lambda: release.wait(5) and 1)
            time.sleep(0.05)
            futures = [b.submit("bb", compute) for _ in range(6)]
            release.set()
            assert gate.result(5) == 1
            assert [f.result(5) for f in futures] == [42] * 6
        assert len(calls) == 1
        stats = b.stats()
        assert stats["deduped"] == 5
        assert stats["executed"] == 2

    def test_distinct_keys_all_execute(self):
        with Batcher() as b:
            futures = [
                b.submit(f"{i:02x}", lambda i=i: i * i) for i in range(5)
            ]
            assert [f.result(5) for f in futures] == [0, 1, 4, 9, 16]
        assert b.stats()["deduped"] == 0

    def test_exception_fans_out_to_duplicates(self):
        release = threading.Event()
        with Batcher() as b:
            gate = b.submit("aa", lambda: release.wait(5))

            def boom():
                raise RuntimeError("nope")

            futures = [b.submit("bb", boom) for _ in range(3)]
            release.set()
            gate.result(5)
            for f in futures:
                with pytest.raises(RuntimeError, match="nope"):
                    f.result(5)
        assert b.stats()["failures"] == 1

    def test_queue_full_raises_service_overloaded(self):
        release = threading.Event()
        b = Batcher(max_queue=1, workers=1)
        try:
            blocker = b.submit("aa", lambda: release.wait(10))
            deadline = time.time() + 5.0
            while b.queue_depth > 0 and time.time() < deadline:
                time.sleep(0.005)  # wait until the blocker is being executed
            b.submit("bb", lambda: 2)  # fills the 1-slot queue
            with pytest.raises(ServiceOverloaded):
                b.submit("cc", lambda: 3)
            assert b.stats()["rejected"] == 1
        finally:
            release.set()
            blocker.result(5)
            b.close()

    def test_submit_after_close_rejected(self):
        b = Batcher()
        b.close()
        with pytest.raises(ServiceOverloaded):
            b.submit("aa", lambda: 1)

    def test_close_mid_queue_resolves_every_future(self):
        # A wedged compute occupies the only worker while more jobs queue
        # behind it; close() must settle every queued future — completed
        # or ServiceOverloaded — instead of leaving them pending forever.
        release = threading.Event()
        b = Batcher(workers=1)
        blocker = b.submit("aa", lambda: release.wait(10) and 1)
        deadline = time.time() + 5.0
        while b.queue_depth > 0 and time.time() < deadline:
            time.sleep(0.005)  # wait until the blocker is being executed
        queued = [b.submit(f"{i:02x}", lambda i=i: i * 10) for i in range(4)]
        closer = threading.Thread(target=lambda: b.close(timeout=0.3))
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "close() hung on a wedged compute"
        settled = 0
        for f in queued:
            assert f.done(), "close() left a queued future pending"
            try:
                assert f.result(0) in (0, 10, 20, 30)
            except ServiceOverloaded:
                settled += 1
        assert settled >= 1  # the wedged worker can't have run them all
        assert b.stats()["rejected"] >= settled
        release.set()
        assert blocker.result(5) == 1  # in-flight work still completes

    def _running(self, b, key, gate):
        """Submit a ``key`` compute that blocks on ``gate``; return once it
        is running (no longer queued), with its future and call list."""
        calls = []
        started = threading.Event()

        def compute():
            calls.append(1)
            started.set()
            gate.wait(10)
            return "done"

        future = b.submit(key, compute)
        assert started.wait(10), "no worker started the compute"
        assert b.queue_depth == 0
        return future, calls

    def test_duplicates_join_a_running_compute(self):
        gate = threading.Event()
        with Batcher(workers=1) as b:
            leader, calls = self._running(b, "aa", gate)
            joined = [b.submit("aa", lambda: "second") for _ in range(4)]
            assert all(f is leader for f in joined)
            assert b.queue_depth == 0  # joiners take no queue slot
            gate.set()
            assert [f.result(5) for f in joined] == ["done"] * 4
        assert calls == [1]
        stats = b.stats()
        assert stats["submitted"] == 5
        assert stats["deduped"] == 4
        assert stats["executed"] == 1

    def test_free_worker_starts_a_job_while_another_computes(self):
        # A distinct job must not wait for a running one while a worker
        # is idle: the second worker takes it at once.
        gate = threading.Event()
        with Batcher(workers=2) as b:
            held, _ = self._running(b, "aa", gate)
            try:
                assert b.submit("bb", lambda: "free").result(5) == "free"
                assert not held.done()
            finally:
                gate.set()
            assert held.result(5) == "done"
        assert b.stats()["executed"] == 2

    def test_exception_reaches_every_joined_caller(self):
        gate = threading.Event()
        started = threading.Event()

        def boom():
            started.set()
            gate.wait(10)
            raise RuntimeError("nope")

        with Batcher(workers=1) as b:
            leader = b.submit("aa", boom)
            assert started.wait(10)
            joined = [b.submit("aa", lambda: 1) for _ in range(3)]
            gate.set()
            for f in [leader, *joined]:
                with pytest.raises(RuntimeError, match="nope"):
                    f.result(5)
        assert b.stats()["failures"] == 1
        assert b.stats()["deduped"] == 3

    def test_flush_event_lists_joined_request_ids(self):
        led = obs.enable_ledger()
        gate = threading.Event()
        try:
            with Batcher(workers=1) as b:
                with obs.request_context() as leader_id:
                    leader, _ = self._running(b, "aa", gate)
                joined_ids = []
                for _ in range(2):
                    with obs.request_context() as rid:
                        joined_ids.append(rid)
                        b.submit("aa", lambda: 1)
                b.submit("aa", lambda: 1)  # outside any request scope
                gate.set()
                leader.result(5)
            flushes = [ev for ev in led.events()
                       if ev.type == obs.EV_BATCH_FLUSHED]
        finally:
            obs.disable_ledger()
        assert len(flushes) == 1
        fields = flushes[0].fields
        assert fields["groups"] == {"aa": [leader_id, *joined_ids]}
        assert (fields["size"], fields["deduped"]) == (4, 3)

    def test_duplicate_after_result_runs_again(self):
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        with Batcher(workers=1) as b:
            assert b.submit("aa", compute).result(5) == 1
            assert b.submit("aa", compute).result(5) == 2
        assert b.stats()["deduped"] == 0
        assert b.stats()["executed"] == 2

    def test_concurrent_submitters_get_one_compute_per_key(self):
        # More workers than cores and a short switch interval: a lost
        # update to the single-flight table or the stats would start a
        # key twice or miscount.  Computes hold on a gate until every
        # request is in, so each key's duplicates must all join.
        gate = threading.Event()
        calls = []

        def compute(key):
            calls.append(key)
            gate.wait(10)
            return key

        futures = []

        def submit_all(b):
            for i in range(10):
                key = f"{i % 6:02x}"
                futures.append((key, b.submit(key, lambda k=key: compute(k))))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Batcher(workers=4) as b:
                threads = [threading.Thread(target=submit_all, args=(b,))
                           for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                gate.set()
                assert all(f.result(10) == key for key, f in futures)
        finally:
            sys.setswitchinterval(old)
        assert sorted(calls) == [f"{i:02x}" for i in range(6)]
        stats = b.stats()
        assert (stats["submitted"], stats["deduped"], stats["executed"],
                stats["rejected"]) == (60, 54, 6, 0)

    def test_lone_requests_start_without_lingering(self):
        metrics = MetricsRegistry()
        with Batcher(workers=1, metrics=metrics) as b:
            for i in range(20):
                assert b.submit(f"{i:02x}", lambda i=i: i).result(5) == i
        waits = metrics.histogram("stage.queue_wait")
        assert waits.count == 20
        assert waits.quantile(0.5) < 0.0025

    def test_validation(self):
        with pytest.raises(ValueError):
            Batcher(max_queue=-1)


# ----------------------------------------------------------------------
# PlanningService + HTTP
# ----------------------------------------------------------------------


@pytest.fixture
def service_trace():
    return haggle_like_trace(HaggleLikeConfig(num_nodes=12), seed=3)


@pytest.fixture
def service(service_trace):
    svc = PlanningService({"demo": service_trace}, workers=4)
    yield svc
    svc.close()


@pytest.fixture
def server(service):
    # edge_cache=0: a repeat /plan reaches the plan cache, whose counters
    # these tests check (test_asgi.py covers the edge cache)
    with BackgroundServer(LocalBackend(service), port=0, edge_cache=0) as srv:
        yield "http://%s:%d" % srv.address


def _request(url, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        url + path, data=data, method="POST" if data else "GET"
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestPlanningService:
    def test_plan_and_cache_flag(self, service):
        r1 = service.plan("demo", 600.0, window=2000.0, seed=3)
        assert not r1.cached
        assert r1.plan.feasible is r1.plan.feasibility.feasible
        r2 = service.plan("demo", 600.0, window=2000.0, seed=3)
        assert r2.cached
        assert r2.plan is r1.plan
        assert r2.key == r1.key

    def test_shared_tveg_reuse(self, service):
        service.plan("demo", 600.0, window=2000.0, seed=3)
        service.plan("demo", 600.0, window=2000.0, seed=3, algorithm="greed")
        assert service.metrics()["shared_tvegs"] == 1

    def test_named_and_default_trace_share_one_tveg(self, service):
        # the registry keys on trace content, not the request's name field
        service.plan(None, 600.0, window=2000.0, seed=3)
        service.plan("demo", 600.0, window=2000.0, seed=3, algorithm="greed")
        assert service.metrics()["shared_tvegs"] == 1

    def test_unknown_trace(self, service):
        with pytest.raises(KeyError):
            service.plan("nope", 600.0)

    def test_every_rejection_counts_as_an_error(self):
        # a request refused before the batch queue (unknown trace, bad
        # deadline, bad timeout) is an error like one failing inside it
        trace, _ = make_random_instance(seed=1)
        svc = PlanningService({"t": trace}, workers=1)
        try:
            rejections = (
                (KeyError, dict(trace="nope", deadline=100.0)),
                (ValueError, dict(trace="t", deadline=-5.0)),
                (ValueError, dict(trace="t", deadline=100.0,
                                  timeout=float("nan"))),
            )
            for n, (exc, kwargs) in enumerate(rejections, 1):
                with pytest.raises(exc):
                    svc.plan(source=0, **kwargs)
                m = svc.metrics()
                assert (m["requests"], m["errors"]) == (n, n)
                assert svc.telemetry.counter("service.plan_errors") == n
            assert svc.batcher.stats()["submitted"] == 0
        finally:
            svc.close()

    def test_default_trace_when_single(self, service):
        r = service.plan(None, 600.0, window=2000.0, seed=3)
        assert r.plan.deadline == 600.0

    @pytest.mark.parametrize("deadline", ["1e309", "Infinity", "NaN"])
    def test_non_finite_deadline_is_400(self, deadline):
        trace, _ = make_random_instance(seed=1)
        svc = PlanningService({"t": trace}, workers=1)
        try:
            for path, body in (
                ("/plan", '{"trace": "t", "source": 0, "deadline": %s}'),
                ("/plan_many", '{"trace": "t", "sources": [0], '
                               '"deadlines": [%s]}'),
            ):
                method, kwargs = parse_plan_request(
                    path, json.loads(body % deadline)
                )
                status, doc = execute_request(svc, method, kwargs)
                assert status == 400
                assert "deadline must be finite" in doc["error"]
        finally:
            svc.close()

    @pytest.mark.parametrize("deadline", ["-5", "-1e-9"])
    def test_negative_deadline_is_400(self, deadline):
        trace, _ = make_random_instance(seed=1)
        svc = PlanningService({"t": trace}, workers=1)
        try:
            for path, body in (
                ("/plan", '{"trace": "t", "source": 0, "deadline": %s}'),
                ("/plan_many", '{"trace": "t", "sources": [0, 0], '
                               '"deadlines": [100, %s]}'),
            ):
                method, kwargs = parse_plan_request(
                    path, json.loads(body % deadline)
                )
                status, doc = execute_request(svc, method, kwargs)
                assert status == 400
                assert "deadline must be non-negative" in doc["error"]
            assert svc.batcher.stats()["submitted"] == 0
        finally:
            svc.close()

    @pytest.mark.parametrize("deadline, message", [
        ("-5", "deadline must be non-negative"),
        ("NaN", "deadline must be finite"),
    ])
    def test_bad_deadline_with_window_names_the_deadline(self, deadline,
                                                          message):
        # a scalar window spans ``deadline`` seconds, so the deadline is
        # checked before the window it sizes, as plan_broadcast does
        trace, _ = make_random_instance(seed=1)
        svc = PlanningService({"t": trace}, workers=1)
        try:
            for path, body in (
                ("/plan", '{"trace": "t", "source": 0, "deadline": %s, '
                          '"window": 9000}'),
                ("/plan_many", '{"trace": "t", "sources": [0, 0], '
                               '"deadlines": %s, "window": 9000}'),
            ):
                method, kwargs = parse_plan_request(
                    path, json.loads(body % deadline)
                )
                status, doc = execute_request(svc, method, kwargs)
                assert status == 400
                assert message in doc["error"], doc["error"]
            with pytest.raises(ValueError, match=message):
                plan_broadcast(trace, 0, float(deadline), window=9000.0)
            assert svc.batcher.stats()["submitted"] == 0
        finally:
            svc.close()

    def test_unknown_channel_is_400_and_submits_nothing(self):
        trace, _ = make_random_instance(seed=1)
        svc = PlanningService({"t": trace}, workers=1)
        try:
            for path, body in (
                ("/plan", {"trace": "t", "deadline": 100, "channel": "x"}),
                ("/plan_many", {"trace": "t", "sources": [0],
                                "channel": "x"}),
            ):
                method, kwargs = parse_plan_request(path, body)
                status, doc = execute_request(svc, method, kwargs)
                assert status == 400
                assert doc["error"].startswith("unknown channel 'x'")
            assert svc.batcher.stats()["submitted"] == 0
            assert svc.metrics()["shared_tvegs"] == 0
        finally:
            svc.close()

    @pytest.mark.parametrize("timeout", ["NaN", "-1", "0", "1e309"])
    def test_bad_timeout_is_400_and_submits_nothing(self, timeout):
        trace, _ = make_random_instance(seed=1)
        svc = PlanningService({"t": trace}, workers=1)
        try:
            method, kwargs = parse_plan_request("/plan", json.loads(
                '{"trace": "t", "source": 0, "deadline": 100, '
                '"timeout": %s}' % timeout
            ))
            status, doc = execute_request(svc, method, kwargs)
            assert status == 400
            assert "timeout must be a positive finite number" in doc["error"]
            assert svc.batcher.stats()["submitted"] == 0
        finally:
            svc.close()
        # the service-wide default follows the same rule
        with pytest.raises(ValueError, match="timeout must be"):
            PlanningService({"t": trace}, timeout=float(timeout))

    @pytest.mark.parametrize(
        "window", ["[9000, NaN]", "[NaN, NaN]", "[-Infinity, 2000]", "NaN"]
    )
    def test_non_finite_window_is_400(self, window):
        trace, _ = make_random_instance(seed=1)
        svc = PlanningService({"t": trace}, workers=1)
        try:
            for path, body in (
                ("/plan", '{"trace": "t", "source": 0, "deadline": 100, '
                          '"window": %s}'),
                ("/plan_many", '{"trace": "t", "sources": [0], '
                               '"deadlines": [100], "window": %s}'),
            ):
                method, kwargs = parse_plan_request(
                    path, json.loads(body % window)
                )
                status, doc = execute_request(svc, method, kwargs)
                assert status == 400
                assert "window must be finite" in doc["error"]
            # NaN never equals itself: a registered TVEG could never be
            # reused, only evict valid entries
            assert svc.metrics()["shared_tvegs"] == 0
        finally:
            svc.close()


class TestPlanMany:
    def test_batch_keys_match_single_requests(self, service):
        batch = service.plan_many(
            "demo", 600.0, sources=[None, 1], window=2000.0, seed=3
        )
        assert len(batch.planset) == 2
        assert batch.cached == (False, False)
        single = service.plan("demo", 600.0, source=1, window=2000.0, seed=3)
        assert single.cached  # the batch populated the shared cache
        assert single.key == batch.keys[1]
        assert single.plan.schedule == batch.planset[1].schedule

    def test_per_request_deadlines(self, service):
        # scalar window + distinct deadlines → two shared-TVEG groups
        batch = service.plan_many(
            "demo", [600.0, 650.0], sources=[1, 1], window=2000.0, seed=3,
        )
        assert batch.planset[0].deadline == 600.0
        assert batch.planset[1].deadline == 650.0
        assert len(set(batch.keys)) == 2
        assert service.metrics()["shared_tvegs"] == 2

    def test_validation_errors(self, service):
        with pytest.raises(ValueError):
            service.plan_many("demo", [600.0], sources=[1, 2], seed=3)
        with pytest.raises(ValueError):
            service.plan_many("demo", 600.0, sources=[], seed=3)

    def test_requests_counted_per_member(self, service):
        before = service.metrics()["requests"]
        service.plan_many("demo", 600.0, sources=[None, 1, 5],
                          window=2000.0, seed=3)
        assert service.metrics()["requests"] == before + 3


class TestHTTP:
    def test_duplicate_concurrent_posts_build_one_aux_graph(self, server):
        obs.enable()
        try:
            body = json.dumps(
                {"deadline": 600, "window": 2000, "seed": 3}
            ).encode()
            results = []

            def post():
                req = urllib.request.Request(
                    server + "/plan", data=body, method="POST"
                )
                with urllib.request.urlopen(req, timeout=30) as resp:
                    results.append(json.loads(resp.read()))

            def builds() -> float:
                return obs.snapshot().counters.get("auxgraph.numpy_builds", 0)

            before = builds()
            threads = [threading.Thread(target=post) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            after = builds()
            assert after - before == 1  # K duplicates, one build
            assert len(results) == 6
            assert len({r["key"] for r in results}) == 1
            schedules = {json.dumps(r["plan"]["schedule"]) for r in results}
            assert len(schedules) == 1  # byte-identical responses
        finally:
            obs.disable()

    def test_plan_many_endpoint(self, server):
        st, doc, _ = _request(server, "/plan_many", {
            "sources": [None, 1], "deadlines": 600, "window": 2000,
            "seed": 3,
        })
        assert st == 200
        assert len(doc["keys"]) == 2 and len(doc["cached"]) == 2
        assert doc["planset"]["schema"] == "repro.planset/1"
        assert len(doc["planset"]["plans"]) == 2
        # the batch members replay byte-identical through /plan
        st2, single, _ = _request(server, "/plan", {
            "deadline": 600, "source": 1, "window": 2000, "seed": 3,
        })
        assert st2 == 200 and single["cached"]
        assert single["key"] == doc["keys"][1]
        assert single["plan"]["schedule"] == \
            doc["planset"]["plans"][1]["schedule"]

    def test_plan_many_endpoint_validation(self, server):
        st, doc, _ = _request(server, "/plan_many", {"deadlines": 600})
        assert st == 400 and "sources" in doc["error"]
        st, doc, _ = _request(server, "/plan_many", {
            "sources": [1], "timeout": 5,
        })
        assert st == 400 and "unknown fields" in doc["error"]
        st, doc, _ = _request(server, "/plan_many", {
            "sources": [1], "compute": "numpy",
        })
        assert st == 400 and doc["error"] == "unknown fields: compute"

    def test_plan_then_cached_replay(self, server):
        body = {"deadline": 600, "window": 2000, "seed": 3}
        st1, doc1, _ = _request(server, "/plan", body)
        st2, doc2, _ = _request(server, "/plan", body)
        assert st1 == st2 == 200
        assert not doc1["cached"] and doc2["cached"]
        assert doc1["plan"] == doc2["plan"]  # byte-identical replay
        _, stats, _ = _request(server, "/cache/stats")
        assert stats["hits"] >= 1

    def test_healthz_metrics_endpoints(self, server):
        st, health, _ = _request(server, "/healthz")
        assert st == 200 and health["status"] == "ok"
        assert health["traces"] == ["demo"]
        st, metrics, _ = _request(server, "/metrics")
        assert st == 200
        assert {"cache", "batcher", "requests", "uptime_seconds"} <= set(metrics)

    def test_errors(self, server):
        st, doc, _ = _request(server, "/plan", {"window": 2000})
        assert st == 400 and "deadline" in doc["error"]
        st, doc, _ = _request(server, "/plan", {"deadline": 600, "bogus": 1})
        assert st == 400 and "bogus" in doc["error"]
        st, doc, _ = _request(
            server, "/plan", {"deadline": 600, "trace": "nope"}
        )
        assert st == 404 and "nope" in doc["error"]
        st, doc, _ = _request(server, "/nothing")
        assert st == 404
        st, doc, _ = _request(
            server, "/plan", {"deadline": 600, "algorithm": "quantum"}
        )
        assert st == 400

    def test_overload_maps_to_429_with_retry_after(
        self, service_trace, monkeypatch
    ):
        svc = PlanningService({"demo": service_trace})

        def reject(key, compute):
            raise ServiceOverloaded("synthetic overload", retry_after=2.0)

        monkeypatch.setattr(svc.batcher, "submit", reject)
        with BackgroundServer(LocalBackend(svc), port=0) as srv:
            url = "http://%s:%d" % srv.address
            st, doc, headers = _request(url, "/plan", {"deadline": 600})
            assert st == 429
            assert headers.get("Retry-After") == "2"
