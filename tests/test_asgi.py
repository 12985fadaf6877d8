"""Asyncio HTTP front-end: endpoints, edge cache, error mapping.

Runs a real :class:`BackgroundServer` (event loop on its own thread, OS
port 0) over a :class:`LocalBackend` and speaks HTTP/1.1 to it with a
persistent ``http.client`` connection — keep-alive is part of what's
under test.  The edge-cache byte-identity test pins the front-end's
contract: a repeat ``/plan`` answered from the edge embeds the exact
``plan`` fragment bytes a worker-served response would.
"""

import http.client
import json
import logging
import os
import socket
import sys
import threading

import pytest

from repro.service import PlanningService
from repro.service.asgi import AsyncPlanningServer, BackgroundServer, LocalBackend
from repro.traces import HaggleLikeConfig, haggle_like_trace

BODY = {"deadline": 600.0, "window": 2000.0, "seed": 3}


class Client:
    """One persistent keep-alive connection to a test server."""

    def __init__(self, address):
        host, port = address
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, verb, path, body=None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        self.conn.request(
            verb, path, body=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        resp = self.conn.getresponse()
        payload = resp.read()
        will_close = resp.will_close
        if will_close:
            self.conn.close()
        return resp.status, json.loads(payload), dict(resp.getheaders()), will_close

    def post(self, path, body):
        status, doc, _, _ = self.request("POST", path, body)
        return status, doc

    def post_raw(self, path, data):
        """POST ``data`` bytes as they are: JSON ``NaN`` and ``1e309``
        reach the server unchanged."""
        self.conn.request("POST", path, body=data)
        resp = self.conn.getresponse()
        return resp.status, json.loads(resp.read())

    def get(self, path):
        status, doc, _, _ = self.request("GET", path)
        return status, doc

    def close(self):
        self.conn.close()


@pytest.fixture(scope="module")
def trace():
    return haggle_like_trace(HaggleLikeConfig(num_nodes=8), seed=3)


@pytest.fixture(scope="module")
def backend(trace):
    service = PlanningService({"demo": trace}, workers=2)
    yield LocalBackend(service)
    service.close()


@pytest.fixture(scope="module")
def server(backend):
    with BackgroundServer(backend, port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    c = Client(server.address)
    yield c
    c.close()


class TestEndpoints:
    def test_plan_round_trip(self, client):
        status, doc = client.post("/plan", BODY)
        assert status == 200
        assert doc["plan"]["feasibility"]["all_informed"] is True
        assert len(doc["key"]) == 16
        assert set(doc) == {"cached", "key", "plan", "wall_seconds"}

    def test_plan_many_round_trip(self, client):
        status, doc = client.post(
            "/plan_many",
            {"sources": [None, None], "deadlines": 600.0,
             "window": 2000.0, "seed": 3},
        )
        assert status == 200
        assert len(doc["keys"]) == 2
        assert doc["planset"]["plans"]

    def test_healthz(self, client):
        status, doc = client.get("/healthz")
        assert status == 200
        assert doc["status"] == "ok"

    def test_metrics_exposes_frontend_and_edge_cache(self, client):
        client.post("/plan", BODY)
        status, doc = client.get("/metrics")
        assert status == 200
        assert doc["mode"] == "local"
        front = doc["frontend"]
        assert front["served"] >= 1
        assert front["errors"] >= 0
        edge = front["edge_cache"]
        assert set(edge) == {"capacity", "entries", "hits", "misses"}
        assert edge["entries"] >= 1

    def test_cache_stats(self, client):
        status, doc = client.get("/cache/stats")
        assert status == 200
        assert "hits" in doc and "misses" in doc


class TestEdgeCache:
    def test_repeat_plan_is_byte_identical_and_cached(self, server, client):
        body = {**BODY, "seed": 11}
        hits_before = server.server.edge_stats()["hits"]
        _, first = client.post("/plan", body)
        status, second = client.post("/plan", body)
        assert status == 200
        assert second["cached"] is True
        assert second["key"] == first["key"]
        # the edge embeds the exact fragment a worker-served response
        # carries — byte identity, not just semantic equality
        assert (
            json.dumps(second["plan"], sort_keys=True)
            == json.dumps(first["plan"], sort_keys=True)
        )
        assert server.server.edge_stats()["hits"] >= hits_before + 1


#: bodies that parse but fail while the front-end routes them: each is the
#: 400 planning itself gives, never a 500
ROUTING_ERRORS = [
    ("/plan", '{"deadline": 1e309}', "deadline must be finite"),
    ("/plan", '{"deadline": NaN}', "deadline must be finite"),
    ("/plan", '{"deadline": 600, "window": [9000, NaN]}',
     "window must be finite"),
    ("/plan", '{"deadline": 600, "algorithm": "quantum"}',
     "unknown scheduler 'quantum'"),
    ("/plan", '{"deadline": "abc"}', "could not convert string to float"),
    ("/plan", '{"deadline": 600, "window": "x"}',
     "not enough values to unpack"),
    ("/plan_many", '{"sources": [0], "deadlines": [1e309]}',
     "deadline must be finite"),
    ("/plan_many", '{"sources": 5, "deadlines": 600}', "not iterable"),
]


class TestErrorMapping:
    @pytest.mark.parametrize("path, body, message", ROUTING_ERRORS)
    def test_routing_errors_400(self, client, path, body, message):
        status, doc = client.post_raw(path, body.encode("utf-8"))
        assert status == 400
        assert message in doc["error"]

    def test_unknown_endpoint_404(self, client):
        status, doc = client.post("/nope", BODY)
        assert status == 404
        assert "error" in doc

    def test_get_unknown_endpoint_404(self, client):
        status, doc = client.get("/nope")
        assert status == 404

    def test_unknown_trace_404(self, client):
        status, doc = client.post("/plan", {**BODY, "trace": "nope"})
        assert status == 404
        assert "unknown trace" in doc["error"]

    def test_unknown_field_400(self, client):
        status, doc = client.post("/plan", {**BODY, "bogus": 1})
        assert status == 400
        assert "error" in doc

    def test_malformed_json_400(self, client):
        self_conn = client.conn
        self_conn.request(
            "POST", "/plan", body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        resp = self_conn.getresponse()
        doc = json.loads(resp.read())
        assert resp.status == 400
        assert "bad request body" in doc["error"]

    def test_method_not_allowed_405(self, client):
        status, doc, _, _ = client.request("PUT", "/plan", BODY)
        assert status == 405

    def test_infeasible_422(self, client):
        status, doc = client.post("/plan", {**BODY, "deadline": 0.001})
        assert status == 422
        assert "error" in doc

    def test_overloaded_429_with_retry_after(self, server, backend, client):
        # pin the backend at capacity; the front-end must map the
        # resulting ServiceOverloaded to 429 + Retry-After
        with backend._lock:
            backend._inflight = backend._max_inflight
        try:
            status, doc, headers, _ = client.request(
                "POST", "/plan", {**BODY, "seed": 404}
            )
        finally:
            with backend._lock:
                backend._inflight = 0
        assert status == 429
        assert "Retry-After" in headers
        assert doc["retry_after"] >= 1


class TestTimeout:
    def test_slow_compute_times_out_504(self, trace):
        # The one batch worker runs a compute that blocks until the event
        # is set, so the request queues behind it and cannot finish.
        release = threading.Event()
        service = PlanningService({"demo": trace}, workers=1)
        blocker = service.batcher.submit("blocker", lambda: release.wait(30))
        try:
            with BackgroundServer(LocalBackend(service), port=0,
                                  timeout=0.001) as srv:
                client = Client(srv.address)
                status, doc = client.post("/plan", {**BODY, "seed": 909})
                release.set()  # the queued plan runs, so the drain is quick
                client.close()
            assert status == 504
            assert "timed out" in doc["error"]
            assert blocker.result(30) is True
        finally:
            release.set()
            service.close()


class TestKeepAliveAndDrain:
    def test_connection_is_reused(self, client):
        for _ in range(3):
            _, _, _, will_close = client.request("GET", "/healthz")
            assert will_close is False

    def test_connection_close_honored(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=60)
        conn.request("GET", "/healthz", headers={"Connection": "close"})
        resp = conn.getresponse()
        resp.read()
        assert resp.will_close is True
        conn.close()

    def test_stop_refuses_new_connections(self, trace):
        service = PlanningService({"demo": trace})
        backend = LocalBackend(service)
        srv = BackgroundServer(backend, port=0)
        host, port = srv.address
        client = Client((host, port))
        status, _ = client.get("/healthz")
        assert status == 200
        client.close()
        srv.stop()
        assert not srv._thread.is_alive()
        with pytest.raises(OSError):
            probe = http.client.HTTPConnection(host, port, timeout=5)
            probe.request("GET", "/healthz")
            probe.getresponse()

    def test_stop_with_idle_keep_alive_client_logs_nothing(self, trace,
                                                           caplog):
        """``stop()`` closes a keep-alive connection idle between
        requests, so no handler is left for the loop's shutdown to
        cancel (which logged a ``CancelledError`` traceback)."""
        service = PlanningService({"demo": trace})
        srv = BackgroundServer(LocalBackend(service), port=0)
        client = Client(srv.address)
        try:
            assert client.get("/healthz")[0] == 200
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                srv.stop()
        finally:
            client.close()
        assert not srv._thread.is_alive()
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_timeout_validation(self, backend):
        with pytest.raises(ValueError):
            AsyncPlanningServer(backend, timeout=0.0)
        with pytest.raises(ValueError):
            AsyncPlanningServer(backend, timeout=float("nan"))
        with pytest.raises(ValueError):
            LocalBackend(backend.service, max_inflight=0)


def _load_loadtest():
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"
    ))
    import loadtest
    return loadtest


def _raw_post(host, port, path, body):
    data = json.dumps(body).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + data


class TestPipelining:
    """HTTP/1.1 pipelining: the front-end must frame back-to-back
    requests exactly (no bytes of a later request swallowed by an
    earlier body read) and answer them strictly in order."""

    def test_raw_socket_pipelined_requests_answered_in_order(self, server):
        loadtest = _load_loadtest()
        host, port = server.address
        bodies = [BODY, dict(BODY), {**BODY, "seed": 4}]
        with socket.create_connection((host, port), timeout=60) as sock:
            # all three requests hit the wire before any response is read
            sock.sendall(b"".join(
                _raw_post(host, port, "/plan", b) for b in bodies
            ))
            rfile = sock.makefile("rb")
            docs = []
            for _ in bodies:
                status, doc, close = loadtest._read_http_response(rfile)
                assert status == 200
                assert close is False
                docs.append(doc)
            rfile.close()
        # identical configurations answered identically, in issue order
        assert docs[0]["key"] == docs[1]["key"]
        assert (loadtest.normalized_plan(docs[0]["plan"])
                == loadtest.normalized_plan(docs[1]["plan"]))
        assert docs[2]["key"] != docs[0]["key"]

    def test_error_response_does_not_derail_the_pipeline(self, server):
        loadtest = _load_loadtest()
        host, port = server.address
        bodies = [BODY, {**BODY, "bogus_field": 1}, {**BODY, "seed": 5}]
        with socket.create_connection((host, port), timeout=60) as sock:
            sock.sendall(b"".join(
                _raw_post(host, port, "/plan", b) for b in bodies
            ))
            rfile = sock.makefile("rb")
            statuses = []
            docs = []
            for _ in bodies:
                status, doc, _ = loadtest._read_http_response(rfile)
                statuses.append(status)
                docs.append(doc)
            rfile.close()
        assert statuses == [200, 400, 200]
        assert "error" in docs[1]
        assert docs[2]["plan"]["source"] is not None

    def test_pipelined_client_preserves_identity_checking(self, server):
        loadtest = _load_loadtest()
        host, port = server.address
        client = loadtest.PipelinedClient(f"http://{host}:{port}", 60.0)
        identity = loadtest.IdentityTracker()
        seen = []

        def reader():
            while True:
                got = client.next_response()
                if got is None:
                    return
                token, status, doc = got
                assert status == 200
                identity.observe(doc["key"], doc["plan"])
                seen.append(token)

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        for i in range(6):
            client.send(i, "/plan", {**BODY, "seed": 3 + (i % 2)})
        client.finish()
        t.join(timeout=120)
        client.close()
        assert seen == list(range(6))  # FIFO token matching
        assert identity.violations == []
        assert len(identity.snapshot()) == 2  # two distinct configurations


def _exchange(address, raw):
    """Send ``raw`` on a fresh connection; every response until EOF."""
    loadtest = _load_loadtest()
    responses = []
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall(raw)
        rfile = sock.makefile("rb")
        while True:
            try:
                responses.append(loadtest._read_http_response(rfile))
            except ConnectionError:  # EOF before a status line
                break
        rfile.close()
    return responses


class TestFraming:
    """A request the front-end cannot frame is answered with one error
    and ``Connection: close`` — never dropped silently, and none of its
    bytes is read as a second request."""

    def test_negative_content_length_gets_exactly_one_response(self, server):
        smuggled = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        data = json.dumps(BODY).encode("utf-8") + smuggled
        raw = (
            b"POST /plan HTTP/1.1\r\n"
            b"Content-Length: -%d\r\n\r\n" % len(smuggled)
        ) + data
        responses = _exchange(server.address, raw)
        assert len(responses) == 1
        status, doc, close = responses[0]
        assert status == 400
        assert "Content-Length" in doc["error"]
        assert close is True

    @pytest.mark.parametrize("raw, status", [
        (b"POST /plan HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n", 400),
        (b"POST /plan HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n", 400),
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /healthz SPDY/3\r\n\r\n", 400),
        # declared over the 8 MiB bound: refused before any body is read
        (b"POST /plan HTTP/1.1\r\nContent-Length: 8388609\r\n\r\n", 413),
        (b"POST /plan HTTP/1.1\r\nContent-Length: " + b"9" * 5000
         + b"\r\n\r\n", 413),
        # a chunked body would otherwise be framed as empty and its
        # chunks read as a second request
        (b"POST /plan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"11\r\n{\"deadline\": 100}\r\n0\r\n\r\n", 501),
        # one byte past the 64 KiB head bound, no blank line yet (the
        # server reads every byte sent, so closing resets nothing)
        ((b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 64 * 1024)
         [:64 * 1024 + 1], 431),
    ])
    def test_unframeable_request_answered_then_closed(
        self, server, raw, status
    ):
        responses = _exchange(server.address, raw)
        assert [(r[0], r[2]) for r in responses] == [(status, True)]
        assert "error" in responses[0][1]

    def test_clean_eof_is_silent(self, server):
        with socket.create_connection(server.address, timeout=60) as sock:
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1024) == b""

    def test_one_500_counts_one_error(self, server, backend, monkeypatch):
        def broken():
            raise RuntimeError("healthz is broken")

        monkeypatch.setattr(backend, "healthz", broken)
        served, errors = server.server.served, server.server.errors
        status, doc, _ = _exchange(
            server.address,
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )[0]
        assert status == 500
        assert "RuntimeError" in doc["error"]
        assert server.server.served == served + 1
        assert server.server.errors == errors + 1
