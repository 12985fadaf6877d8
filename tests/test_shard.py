"""Multi-process shard pool: routing, backpressure, drain, identity.

Boots real worker processes (stdlib ``multiprocessing``), so the tests
here share one module-scoped two-shard pool and keep the instance small
(8 nodes).  The byte-identity test is the load-bearing one: a plan
computed in a shard worker must match the in-process computation after
stripping the volatile timing fields — cross-process determinism is what
lets the sharded service replace the single process transparently.
"""

import http.client
import json

import pytest

from repro.errors import ServiceOverloaded
from repro.service import BackgroundServer, PlanningService, ShardPool
from repro.service.server import parse_plan_request
from repro.traces import HaggleLikeConfig, haggle_like_trace

BODY = {"deadline": 600.0, "window": 2000.0, "seed": 3}


def strip_volatile(plan_doc):
    doc = json.loads(json.dumps(plan_doc))
    doc.get("manifest", {}).pop("created_unix", None)
    doc.get("manifest", {}).pop("wall_seconds", None)
    doc.get("info", {}).pop("stage_seconds", None)
    return json.dumps(doc, sort_keys=True)


@pytest.fixture(scope="module")
def trace():
    return haggle_like_trace(HaggleLikeConfig(num_nodes=8), seed=3)


@pytest.fixture(scope="module")
def pool(trace):
    with ShardPool(
        {"demo": trace},
        2,
        service_kwargs={"workers": 2},
    ) as p:
        yield p


class TestShardPool:
    def test_validation(self, trace):
        with pytest.raises(ValueError):
            ShardPool({"demo": trace}, 0)

    def test_plan_round_trip(self, pool):
        shard_id, future = pool.submit_request("plan", dict(BODY))
        status, doc = future.result(timeout=120)
        assert status == 200
        assert 0 <= shard_id < pool.shards
        assert doc["plan"]["feasibility"]["all_informed"] is True
        # one key per plan: the worker answers under the routing key
        assert doc["key"] == pool.routing("plan", BODY)
        assert doc["plan"]["manifest"]["config_hash"] == doc["key"]

    def test_affinity_and_cached_repeat(self, pool):
        first, _ = pool.submit_request("plan", dict(BODY))
        shard_ids = []
        for _ in range(3):
            shard_id, future = pool.submit_request("plan", dict(BODY))
            status, doc = future.result(timeout=120)
            shard_ids.append(shard_id)
            assert status == 200
        # one configuration, one owner shard — and its cache is warm now
        assert set(shard_ids) == {first}
        assert doc["cached"] is True

    def test_plan_many_round_trip(self, pool):
        body = {"sources": [None, None], "deadlines": 600.0,
                "window": 2000.0, "seed": 3}
        _, future = pool.submit_request("plan_many", body)
        status, doc = future.result(timeout=120)
        assert status == 200
        assert len(doc["keys"]) == 2
        assert doc["planset"]["plans"]

    def test_infeasible_maps_to_422_doc(self, pool):
        _, future = pool.submit_request(
            "plan", {**BODY, "deadline": 0.001}
        )
        status, doc = future.result(timeout=120)
        assert status == 422
        assert "error" in doc

    def test_unknown_trace_raises_before_dispatch(self, pool):
        with pytest.raises(KeyError, match="unknown trace"):
            pool.routing("plan", {**BODY, "trace": "nope"})

    def test_metrics_shape(self, pool):
        doc = pool.metrics()
        assert doc["mode"] == "sharded"
        assert len(doc["shards"]) == pool.shards
        for entry in doc["shards"]:
            assert entry["alive"] is True
            assert entry["queue_depth"] is not None
            assert "histograms" in entry["service"]["telemetry"]

    def test_healthz(self, pool):
        doc = pool.healthz()
        assert doc["status"] == "ok"
        assert doc["shards_alive"] == pool.shards

    def test_warm_primes_the_owner_shard(self, pool):
        body = {**BODY, "seed": 77}
        report = pool.warm([body])
        assert report == {"warmed": 1, "failed": 0}
        _, future = pool.submit_request("plan", dict(body))
        status, doc = future.result(timeout=120)
        assert status == 200
        assert doc["cached"] is True

    def test_warm_with_scheduler_kwargs_primes_the_owner_shard(self, pool):
        # a warm entry is routed as its parsed live request, so nested
        # scheduler_kwargs land on the shard that later serves it
        bodies = [
            {**BODY, "seed": s, "scheduler_kwargs": {"memt_method": "sptree"}}
            for s in (80, 81, 82, 83)
        ]
        assert pool.warm(bodies) == {"warmed": 4, "failed": 0}
        for body in bodies:
            method, kwargs = parse_plan_request("/plan", body)
            _, future = pool.submit_request(method, kwargs)
            status, doc = future.result(timeout=120)
            assert status == 200
            assert doc["cached"] is True

    def test_warm_unroutable_counts_failed(self, pool):
        report = pool.warm([{**BODY, "trace": "nope"}])
        assert report["failed"] == 1

    def test_warm_counts_unreadable_arguments_failed(self, trace):
        """``read_warm_file`` accepts ``{"deadline": "abc"}``, which
        routing cannot read: one failed entry, never an aborted boot."""
        with ShardPool({"demo": trace}, 1) as one:
            report = one.warm([{"deadline": "abc"}, {**BODY, "seed": 78}])
        assert report == {"warmed": 1, "failed": 1}

    def test_worker_plan_matches_in_process_plan(self, pool, trace):
        # cross-process determinism: same config hash, same plan document
        _, future = pool.submit_request("plan", dict(BODY))
        status, doc = future.result(timeout=120)
        assert status == 200
        svc = PlanningService({"demo": trace})
        try:
            local = svc.plan(trace="demo", **BODY).as_doc()
        finally:
            svc.close()
        assert doc["key"] == local["key"]
        assert strip_volatile(doc["plan"]) == strip_volatile(local["plan"])


class TestBackpressureAndDrain:
    def test_inflight_bound_and_graceful_drain(self, trace):
        pool = ShardPool(
            {"demo": trace},
            1,
            max_inflight=1,
            service_kwargs={"workers": 1},
        )
        try:
            # a cold compute holds the single in-flight slot...
            _, busy = pool.submit_request(
                "plan", {**BODY, "seed": 501}
            )
            # ...so a second data request bounces with 429 semantics
            with pytest.raises(ServiceOverloaded):
                pool.submit_request("plan", {**BODY, "seed": 502})
            # control-plane methods bypass the data bound
            assert pool.healthz()["shards_alive"] == 1
            status, _ = busy.result(timeout=120)
            assert status == 200
        finally:
            finals = pool.drain(timeout=30)
        # drain handshake returned each shard's closing metrics document
        assert len(finals) == 1
        assert finals[0] is not None
        assert finals[0]["requests"] >= 1
        assert not pool.handles[0].proc.is_alive()

    def test_submit_after_drain_rejected(self, trace):
        pool = ShardPool({"demo": trace}, 1)
        pool.drain(timeout=30)
        with pytest.raises(ServiceOverloaded):
            pool.submit_request("plan", dict(BODY))


class TestFrontEnd:
    def test_routing_error_is_400(self, trace):
        # the front-end routes a request before any shard sees it; a bad
        # argument found there is the 400 planning would give
        with ShardPool({"demo": trace}, 1) as pool, \
                BackgroundServer(pool, port=0) as srv:
            conn = http.client.HTTPConnection(*srv.address, timeout=60)
            conn.request("POST", "/plan", body=b'{"deadline": 1e309}')
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            conn.close()
        assert resp.status == 400
        assert "deadline must be finite" in doc["error"]
