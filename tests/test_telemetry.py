"""Request-scoped telemetry: trace ids, histograms, exposition, top.

Four layers under test, bottom up:

* the merge algebra of :class:`FixedHistogram` / :class:`MetricsRegistry`
  — hypothesis pins that shard-wise merging is exactly associative and
  commutative and that a shard-split doc merge equals the histogram one
  process would have recorded (Shewchuk partials make the sum exact, and
  the workload strategy sticks to dyadic rationals so the doc wire
  format is exact too);
* request-context propagation — contextvars across threads, nesting,
  and the ledger's ambient ``request_id``/``shard_id`` tagging;
* the Prometheus text exposition and its strict parser round-tripping
  real service documents, plus HTTP content negotiation on a live
  front-end (the JSON default must keep working unchanged);
* the ``repro top`` renderer over fabricated and live documents, and —
  the load-bearing one — a real two-shard pool whose worker-side ledger
  events arrive in the parent tagged with ``shard_id`` and the
  originating ``request_id`` after drain.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import InfeasibleError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    FixedHistogram,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    Ledger,
    current_request_id,
    new_request_id,
    parse_prometheus_text,
    render_prometheus,
    request_context,
    wants_prometheus,
)
from repro.obs.events import EV_BATCH_FLUSHED, EV_SHARD_EXITED, EV_SHARD_STARTED
from repro.obs.tracer import Tracer
from repro.service import Batcher, PlanningService, ShardPool
from repro.service.asgi import BackgroundServer, LocalBackend
from repro.service.top import build_rows, render_top, top_loop
from repro.traces import HaggleLikeConfig, haggle_like_trace

BODY = {"deadline": 600.0, "window": 2000.0, "seed": 3}

#: dyadic rationals (multiples of 2^-10, bounded) — their sums are exact
#: in double precision, so even the collapsed-sum doc wire format merges
#: without rounding and equality assertions can be strict.
latencies = st.lists(
    st.integers(min_value=0, max_value=32768).map(lambda n: n / 1024.0),
    max_size=60,
)


@pytest.fixture(autouse=True)
def _clean_global_ledger():
    obs.disable_ledger()
    yield
    obs.disable_ledger()


def _hist(values):
    h = FixedHistogram()
    for v in values:
        h.observe(v)
    return h


class TestFixedHistogram:
    def test_basics_and_le_semantics(self):
        h = FixedHistogram(bounds=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 2.0, 99.0):
            h.observe(v)
        # le is inclusive: 1.0 lands in the first bucket, 2.0 in the second
        assert h.counts() == (2, 2, 1)
        assert h.count == 5
        assert h.sum == pytest.approx(104.0)
        assert h.min == 0.5 and h.max == 99.0
        assert h.cumulative() == [(1.0, 2), (2.0, 4), (float("inf"), 5)]

    def test_quantile_clamps_to_observed_range(self):
        h = _hist([0.004])
        assert h.quantile(0.5) == 0.004  # not the 0.005 bucket edge
        assert h.quantile(0.0) == 0.004
        assert h.quantile(1.0) == 0.004
        assert FixedHistogram().quantile(0.5) is None
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_orders_sensibly(self):
        h = _hist([0.001 * i for i in range(1, 101)])
        q50, q95, q99 = (h.quantile(q) for q in (0.5, 0.95, 0.99))
        assert q50 <= q95 <= q99
        assert 0.02 <= q50 <= 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedHistogram(bounds=())
        with pytest.raises(ValueError):
            FixedHistogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            FixedHistogram(bounds=(2.0, 1.0))

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            FixedHistogram(bounds=(1.0,)).merge(FixedHistogram(bounds=(2.0,)))

    def test_doc_round_trip(self):
        h = _hist([0.0003, 0.2, 7.5])
        back = FixedHistogram.from_dict(json.loads(json.dumps(h.as_dict())))
        assert back == h
        empty = FixedHistogram.from_dict(FixedHistogram().as_dict())
        assert empty.count == 0 and empty.min is None

    @given(a=latencies, b=latencies)
    @settings(max_examples=60, deadline=None)
    def test_merge_commutes(self, a, b):
        ha, hb = _hist(a), _hist(b)
        assert ha.merge(hb) == hb.merge(ha)

    @given(a=latencies, b=latencies, c=latencies)
    @settings(max_examples=60, deadline=None)
    def test_merge_associates(self, a, b, c):
        ha, hb, hc = _hist(a), _hist(b), _hist(c)
        assert ha.merge(hb).merge(hc) == ha.merge(hb.merge(hc))

    @given(values=latencies, split=st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_shard_split_equals_single_process(self, values, split):
        """Two shards' docs merged == the one-process histogram."""
        k = min(split, len(values))
        single = _hist(values)
        merged = MetricsRegistry.merge_docs(
            [
                {"histograms": {"request.plan": _hist(values[:k]).as_dict()}},
                {"histograms": {"request.plan": _hist(values[k:]).as_dict()}},
            ]
        )
        assert FixedHistogram.from_dict(
            merged["histograms"]["request.plan"]
        ) == single


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("service.requests")
        reg.inc("service.requests", 2.0)
        reg.set_gauge("inflight", 3.0)
        reg.observe("stage.compute", 0.02)
        assert reg.counter("service.requests") == 3.0
        assert reg.gauge("inflight") == 3.0
        assert reg.histogram("stage.compute").count == 1
        with pytest.raises(ValueError):
            reg.inc("service.requests", -1.0)

    def test_merge_docs_adds_counters_and_sums_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("requests", 2.0)
        b.inc("requests", 3.0)
        a.set_gauge("inflight", 1.0)
        b.set_gauge("inflight", 4.0)
        a.observe("stage.compute", 0.5)
        b.observe("stage.compute", 1.5)
        doc = MetricsRegistry.merge_docs([a.as_doc(), b.as_doc(), {}])
        assert doc["counters"]["requests"] == 5.0
        assert doc["gauges"]["inflight"] == 5.0
        assert doc["histograms"]["stage.compute"]["count"] == 2

    def test_concurrent_observes_lose_nothing(self):
        reg = MetricsRegistry()
        n, threads = 500, 8

        def work():
            for i in range(n):
                reg.inc("hits")
                reg.observe("stage.compute", 0.001 * (i % 9 + 1))

        ts = [threading.Thread(target=work) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert reg.counter("hits") == n * threads
        assert reg.histogram("stage.compute").count == n * threads


class TestRequestContext:
    def test_mint_and_nest(self):
        assert current_request_id() is None
        with request_context() as rid:
            assert current_request_id() == rid
            with request_context() as inner:
                # no explicit id: the ambient one is inherited, not replaced
                assert inner == rid
            with request_context("forced") as forced:
                assert forced == "forced"
            assert current_request_id() == rid
        assert current_request_id() is None

    def test_unique_ids(self):
        assert len({new_request_id() for _ in range(64)}) == 64

    def test_thread_isolation(self):
        seen = {}

        def work(name):
            with request_context() as rid:
                seen[name] = rid

        with request_context() as outer:
            ts = [
                threading.Thread(target=work, args=(i,)) for i in range(4)
            ]
            for t in ts:
                t.start()
            for t in ts:
                t.join()
            assert current_request_id() == outer
        # threads don't inherit the caller's contextvar copy-on-write id
        assert outer not in seen.values()
        assert len(set(seen.values())) == 4


class TestLedgerTagging:
    def test_ambient_request_id_tagged(self):
        led = obs.enable_ledger()
        with request_context() as rid:
            led.emit("x")
        led.emit("y")
        led.emit("z", request_id="explicit")
        by_type = {ev.type: ev.fields for ev in led.events()}
        assert by_type["x"]["request_id"] == rid
        assert "request_id" not in by_type["y"]
        assert by_type["z"]["request_id"] == "explicit"

    def test_concurrent_emitters_keep_their_ids(self):
        led = obs.enable_ledger()
        n, threads = 200, 8

        def work(tid):
            with request_context() as rid:
                for i in range(n):
                    led.emit("tick", tid=tid, i=i)
                return rid

        ts = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        events = [ev for ev in led.events() if ev.type == "tick"]
        assert len(events) == n * threads
        assert len({ev.seq for ev in events}) == n * threads  # no lost seqs
        per_thread = {}
        for ev in events:
            per_thread.setdefault(ev.fields["tid"], set()).add(
                ev.fields["request_id"]
            )
        # each thread's events all carry that thread's (unique) request id
        assert all(len(rids) == 1 for rids in per_thread.values())
        assert len({next(iter(r)) for r in per_thread.values()}) == threads

    def test_tracer_concurrent_counters_exact(self):
        tracer = Tracer()
        n, threads = 2000, 8

        def work():
            for _ in range(n):
                tracer.counter("ops")
                with tracer.span("unit"):
                    pass

        ts = [threading.Thread(target=work) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        snap = tracer.snapshot()
        assert snap.counters["ops"] == n * threads
        assert len(snap.spans_named("unit")) == n * threads


class TestPromText:
    def test_wants_prometheus(self):
        assert wants_prometheus("text/plain")
        assert wants_prometheus("application/openmetrics-text; version=1.0.0")
        assert wants_prometheus("text/plain;q=0.9, application/json;q=0.8")
        assert not wants_prometheus(None)
        assert not wants_prometheus("application/json")
        assert "text/plain" in PROMETHEUS_CONTENT_TYPE

    def test_registry_doc_round_trips(self):
        reg = MetricsRegistry()
        reg.inc("service.requests", 7)
        reg.set_gauge("inflight", 2)
        for v in (0.0004, 0.03, 0.03, 4.0):
            reg.observe("stage.compute", v)
        reg.observe("request.plan", 0.02)
        text = render_prometheus(reg.as_doc())
        samples, types = parse_prometheus_text(text)
        assert types["repro_stage_seconds"] == "histogram"
        assert samples[("repro_service_requests_total", ())] == 7.0
        assert samples[("repro_inflight", ())] == 2.0
        assert samples[
            ("repro_stage_seconds_count", (("stage", "compute"),))
        ] == 4.0
        assert samples[
            ("repro_stage_seconds_bucket",
             (("le", "+Inf"), ("stage", "compute")))
        ] == 4.0
        # cumulative le buckets: count(le=0.05) includes the two 0.03s
        assert samples[
            ("repro_stage_seconds_bucket",
             (("le", "0.05"), ("stage", "compute")))
        ] == 3.0
        assert samples[
            ("repro_request_seconds_count", (("endpoint", "plan"),))
        ] == 1.0

    def test_label_escaping_round_trips(self):
        text = (
            'repro_test_total{name="a\\"b\\\\c\\nd"} 1\n'
        )
        samples, _ = parse_prometheus_text(text)
        assert samples[("repro_test_total", (("name", 'a"b\\c\nd'),))] == 1.0

    def test_parser_rejects_garbage_and_duplicates(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("not a metric line at all!")
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_x_total 1\nrepro_x_total 1\n")
        with pytest.raises(ValueError):
            parse_prometheus_text('repro_x_total{bad labels} 1\n')

    def test_sharded_doc_emits_pool_merge_once(self):
        shard_reg = MetricsRegistry()
        shard_reg.observe("request.plan", 0.01)
        shard_doc = {
            "requests": 5, "errors": 0,
            "cache": {"hits": 4, "misses": 1, "hit_rate": 0.8, "entries": 1},
            "telemetry": shard_reg.as_doc(),
        }
        doc = {
            "mode": "sharded",
            "uptime_seconds": 12.0,
            "shards": [
                {"shard": 0, "alive": True, "inflight": 1, "requests": 5,
                 "service": shard_doc},
                {"shard": 1, "alive": True, "inflight": 0, "requests": 0,
                 "service": {"requests": 0, "errors": 0}},
            ],
            "totals": {"requests": 9, "errors": 1, "retired_shards": 1},
            "telemetry": MetricsRegistry.merge_docs([shard_reg.as_doc()]),
        }
        samples, _ = parse_prometheus_text(render_prometheus(doc))
        assert samples[("repro_shard_alive", (("shard", "0"),))] == 1.0
        assert samples[("repro_pool_requests_total", ())] == 9.0
        assert samples[("repro_pool_errors_total", ())] == 1.0
        # per-shard rows must NOT re-emit telemetry the pool merge carries
        assert ("repro_request_seconds_count", (("endpoint", "plan"),)) in samples
        assert (
            "repro_request_seconds_count",
            (("endpoint", "plan"), ("shard", "0")),
        ) not in samples


class TestBatcherPropagation:
    def test_jobs_carry_request_id_into_compute_and_ledger(self):
        led = obs.enable_ledger()
        metrics = MetricsRegistry()
        seen = {}

        def compute():
            seen["rid"] = current_request_id()
            return 42

        with Batcher(workers=2, metrics=metrics) as b:
            with request_context() as rid:
                fut = b.submit("k1", compute)
            assert fut.result(timeout=30) == 42
        assert seen["rid"] == rid
        flushes = [ev for ev in led.events() if ev.type == EV_BATCH_FLUSHED]
        assert flushes, "batcher never emitted a flush event"
        groups = flushes[0].fields["groups"]
        assert groups == {"k1": [rid]}
        # per-stage timings observed into the service registry
        for stage in ("stage.queue_wait", "stage.compute"):
            assert metrics.histogram(stage).count >= 1, stage

    def test_contextless_jobs_stay_untagged(self):
        with Batcher(workers=1) as b:
            fut = b.submit("k", lambda: current_request_id())
            assert fut.result(timeout=30) is None


@pytest.fixture(scope="module")
def trace():
    return haggle_like_trace(HaggleLikeConfig(num_nodes=8), seed=3)


@pytest.fixture(scope="module")
def server(trace):
    service = PlanningService({"demo": trace}, workers=2)
    backend = LocalBackend(service)
    with BackgroundServer(backend, port=0) as srv:
        yield srv
    service.close()


def _http(server, verb, path, body=None, headers=None):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        conn.request(verb, path, body=data, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, resp.read(), dict(resp.getheaders())
    finally:
        conn.close()


class TestServiceTelemetry:
    def test_request_histograms_and_stage_serialize(self, trace):
        with PlanningService({"demo": trace}, workers=2) as svc:
            svc.plan("demo", 600.0, window=2000.0, seed=3)
            svc.plan("demo", 600.0, window=2000.0, seed=3)
            doc = svc.metrics()
            hists = doc["telemetry"]["histograms"]
            assert hists["request.plan"]["count"] == 2
            assert svc.telemetry.histogram("request.plan").count == 2

    def test_exposition_counts_computes_and_failures(self, trace):
        with PlanningService({"demo": trace}, workers=2) as svc:
            svc.plan("demo", 600.0, window=2000.0, seed=3)
            with pytest.raises(InfeasibleError):
                svc.plan("demo", 1.0, window=2000.0, seed=3)
            samples, _ = parse_prometheus_text(render_prometheus(svc.metrics()))
        events = {
            dict(labels)["event"]: value
            for (name, labels), value in samples.items()
            if name == "repro_batcher_events_total"
        }
        assert events == {"submitted": 2.0, "deduped": 0.0, "executed": 2.0,
                          "failures": 1.0, "rejected": 0.0}

    def test_http_negotiation_and_request_id_header(self, server):
        # POST mints an id and echoes it; a supplied one is honoured
        status, payload, headers = _http(
            server, "POST", "/plan", BODY,
            {"Content-Type": "application/json", "X-Request-Id": "abc123"},
        )
        assert status == 200
        assert headers["X-Request-Id"] == "abc123"
        status, _, headers = _http(
            server, "POST", "/plan", BODY,
            {"Content-Type": "application/json"},
        )
        assert status == 200
        assert len(headers["X-Request-Id"]) == 16

        # default GET /metrics stays JSON and now includes telemetry
        status, payload, headers = _http(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(payload)
        assert doc["frontend"]["telemetry"]["histograms"]["request.edge"][
            "count"
        ] >= 2

        # Accept: text/plain negotiates the Prometheus exposition
        status, payload, headers = _http(
            server, "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        samples, types = parse_prometheus_text(payload.decode("utf-8"))
        assert types["repro_request_seconds"] == "histogram"
        edge = samples[
            ("repro_request_seconds_count",
             (("component", "frontend"), ("endpoint", "edge")))
        ]
        assert edge >= 2


class TestTop:
    def _sharded_doc(self, requests=40, hist_values=(0.002, 0.02)):
        reg = MetricsRegistry()
        for v in hist_values:
            reg.observe("request.plan", v)
        return {
            "mode": "sharded",
            "uptime_seconds": 30.0,
            "shards": [
                {
                    "shard": 0, "alive": True, "inflight": 2,
                    "requests": requests,
                    "service": {
                        "requests": requests,
                        "cache": {"hit_rate": 0.75},
                        "batcher": {"queue_depth": 1},
                        "telemetry": reg.as_doc(),
                    },
                },
                {"shard": 1, "alive": False, "inflight": 0, "requests": 0,
                 "service": {}},
            ],
            "frontend": {
                "served": requests, "errors": 0, "active_requests": 1,
                "edge_cache": {"hits": 30, "misses": 10},
            },
        }

    def test_build_rows_sharded_with_qps_delta(self):
        prev, cur = self._sharded_doc(40), self._sharded_doc(60)
        rows = build_rows(cur, prev, dt=2.0)
        assert [r.shard for r in rows] == ["0", "1"]
        assert rows[0].qps == pytest.approx(10.0)
        assert rows[0].cache_ratio == 0.75
        assert rows[0].queue_depth == 1
        assert rows[0].p99_ms is not None and rows[0].p99_ms > 0
        assert rows[1].alive is False
        # the empty service doc has no prior snapshot to delta against
        assert rows[1].qps is None

    def test_render_top_frame(self):
        frame = render_top(self._sharded_doc(), self._sharded_doc(), dt=2.0)
        assert "repro top" in frame
        assert "edge_cache_ratio=0.75" in frame
        assert "SHARD" in frame and "P99MS" in frame and "CACHE%" in frame
        assert "\x1b" not in frame  # pure text; ANSI lives in top_loop

    def test_top_loop_against_fake_fetch(self):
        import io

        docs = iter([self._sharded_doc(10), self._sharded_doc(30)])
        out = io.StringIO()
        rc = top_loop(
            "http://x", interval=0.0, iterations=2, stream=out,
            clear=False, fetch=lambda url: next(docs),
        )
        assert rc == 0
        assert out.getvalue().count("repro top") == 2

    def test_top_loop_unreachable_server(self):
        import io

        def boom(url):
            raise OSError("refused")

        out = io.StringIO()
        assert top_loop("http://x", iterations=1, stream=out,
                        clear=False, fetch=boom) == 1
        assert "cannot reach" in out.getvalue()

    def test_cli_top_once_against_live_server(self, server, capsys):
        from repro.cli import main

        host, port = server.address
        rc = main(["top", f"http://{host}:{port}", "--once", "--no-clear"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "local" in out

    def test_cli_top_unreachable_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["top", "http://127.0.0.1:1", "--once",
                     "--no-clear"]) == 1
        assert "cannot reach" in capsys.readouterr().out

    def test_top_against_live_server(self, server):
        _http(server, "POST", "/plan", BODY,
              {"Content-Type": "application/json"})
        host, port = server.address
        doc = json.loads(_http(server, "GET", "/metrics")[1])
        rows = build_rows(doc)
        assert len(rows) == 1 and rows[0].shard == "local"
        assert rows[0].requests >= 1
        frame = render_top(doc)
        assert "local" in frame


class TestShardLedgerJourney:
    def test_worker_events_arrive_tagged_after_drain(self, trace):
        """The acceptance path: one ledger filter reconstructs a request.

        With the ledger enabled, a 2-shard pool's workers record their
        events in fresh per-process ledgers, tag them with the ambient
        ``shard_id`` and the ``request_id`` that rode the pipe message,
        and ship them home in the drain handshake.
        """
        led = obs.enable_ledger()
        rids = []
        pool = ShardPool(
            {"demo": trace}, 2,
            service_kwargs={"workers": 2},
        )
        try:
            for seed in (3, 4, 5):
                with request_context() as rid:
                    rids.append(rid)
                    _, fut = pool.submit_request(
                        "plan", dict(BODY, seed=seed)
                    )
                status, _ = fut.result(timeout=120)
                assert status == 200
            doc = pool.metrics()
            merged = doc["telemetry"]["histograms"]
            assert merged["request.plan"]["count"] == 3
            assert doc["totals"]["requests"] == 3
        finally:
            pool.close()

        events = led.events()
        started = [ev for ev in events if ev.type == EV_SHARD_STARTED]
        exited = [ev for ev in events if ev.type == EV_SHARD_EXITED]
        assert {ev.fields["shard_id"] for ev in started} == {0, 1}
        assert {ev.fields["shard_id"] for ev in exited} == {0, 1}

        for rid in rids:
            journey = [
                ev for ev in events
                if ev.fields.get("request_id") == rid
            ]
            assert journey, f"no ledger events for request {rid}"
            shard_ids = {
                ev.fields.get("shard_id")
                for ev in journey
                if "shard_id" in ev.fields
            }
            # every worker-side event in the journey names one shard
            assert len(shard_ids) == 1
            assert shard_ids <= {0, 1}

    def test_cumulative_totals_survive_drain(self, trace):
        """Satellite: counters keep counting across a shard's retirement."""
        pool = ShardPool(
            {"demo": trace}, 1,
            service_kwargs={"workers": 1},
        )
        try:
            _, fut = pool.submit_request("plan", dict(BODY))
            assert fut.result(timeout=120)[0] == 200
            live = pool.metrics()
            assert live["totals"] == {
                "requests": 1, "errors": 0, "retired_shards": 0,
            }
            pool.drain()
            after = pool.metrics()
            assert after["totals"]["requests"] == 1
            assert after["totals"]["retired_shards"] == 1
            assert after["telemetry"]["histograms"]["request.plan"][
                "count"
            ] == 1
        finally:
            pool.close()
