#!/usr/bin/env python
"""Load generator for the planning service: throughput, tails, identity.

Drives a running ``repro serve`` endpoint — or boots one (or two, with
``--compare``) itself — with a mixed workload shaped like the paper's
deployment story: a **hot** configuration most clients repeat (the
cache-hit share), a **tail** of distinct configurations (the miss
share), and a sprinkle of ``POST /plan_many`` batch requests.  Reports
closed- or open-loop throughput with p50/p95/p99 latency per request
class, and checks that every response for one configuration carries a
byte-identical plan after stripping the volatile timing fields.

Open-loop runs (``--rate``) issue requests on their arrival schedule
over HTTP/1.1 *pipelined* keep-alive connections (``--pipeline`` lanes):
each due request is written without waiting for earlier responses and a
per-lane reader matches responses back to requests in FIFO order, so
per-response identity checking is preserved while the generator stays
open-loop at rates where thread-per-request would bottleneck the client.
Identity is checked on the volatile-stripped document
(``wall_seconds``, ``manifest.created_unix``, ``info.stage_seconds`` —
everything else is deterministic content).

Examples::

    # drive an already-running server
    PYTHONPATH=src python tools/loadtest.py --url http://127.0.0.1:8437 \\
        --requests 200 --concurrency 16

    # boot a 2-shard server, warm the tail, assert for CI
    PYTHONPATH=src python tools/loadtest.py --boot --shards 2 \\
        --requests 200 --concurrency 16 --warm-tail \\
        --assert-zero-errors --assert-cache-hits --out report.json

    # sharded vs the single-process server (--shards 0), same front-end
    PYTHONPATH=src python tools/loadtest.py --compare --shards 2 \\
        --requests 400 --concurrency 16 --warm-tail

Exits nonzero when any ``--assert-*`` / ``--min-speedup`` bound fails.
"""

from __future__ import annotations

import argparse
import collections
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.obs.metrics import percentile  # noqa: E402

#: volatile response-envelope fields stripped before identity comparison
_VOLATILE_ENVELOPE = ("cached", "wall_seconds")


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------


def build_workload(args) -> List[Tuple[str, Dict[str, Any]]]:
    """The request list: ``[(path, body), ...]`` in issue order.

    Deterministic for a given argument set (no RNG): the hit/miss/batch
    mix is laid out round-robin so every concurrency level sees the same
    request population and runs stay comparable.
    """
    base = {"deadline": args.deadline, "window": args.window,
            "seed": args.seed}
    n_many = int(args.requests * args.plan_many_ratio)
    n_tail = int(args.requests * (1.0 - args.hit_ratio))
    n_hot = args.requests - n_tail - n_many
    if n_hot < 0:
        raise SystemExit("hit/plan_many ratios exceed the request budget")
    cold: List[Tuple[str, Dict[str, Any]]] = []
    for i in range(n_tail):
        # distinct cache keys, same planning cost: the channel seed is
        # part of the configuration identity
        cold.append(("/plan", {**base, "seed": args.tail_seed_base + i}))
    many_body = {"sources": [None, None], "deadlines": args.deadline,
                 "window": args.window, "seed": args.seed}
    cold += [("/plan_many", dict(many_body))] * n_many
    # interleave: spread the non-hot requests evenly through the hot
    # stream so hits and misses contend realistically at any concurrency
    mixed: List[Tuple[str, Dict[str, Any]]] = []
    stride = max(1, args.requests // max(1, len(cold)))
    cold_iter = iter(cold)
    hot_left = n_hot
    for i in range(args.requests):
        nxt = next(cold_iter, None) if i % stride == stride - 1 else None
        if nxt is None and hot_left > 0:
            hot_left -= 1
            nxt = ("/plan", dict(base))
        if nxt is None:
            nxt = next(cold_iter, None)
        if nxt is not None:
            mixed.append(nxt)
    # anything the stride arithmetic left over still ships
    mixed.extend(cold_iter)
    for _ in range(hot_left):
        mixed.append(("/plan", dict(base)))
    return mixed


def warm_bodies(args) -> List[Dict[str, Any]]:
    """The ``--warm`` file contents priming every workload configuration."""
    bodies = [{"deadline": args.deadline, "window": args.window,
               "seed": args.seed}]
    n_tail = int(args.requests * (1.0 - args.hit_ratio))
    for i in range(n_tail):
        bodies.append({"deadline": args.deadline, "window": args.window,
                       "seed": args.tail_seed_base + i})
    return bodies


# ----------------------------------------------------------------------
# HTTP + server lifecycle
# ----------------------------------------------------------------------


def _post(url: str, path: str, body: Dict[str, Any], timeout: float):
    data = json.dumps(body).encode("utf-8")
    req = urllib.request.Request(url + path, data=data, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class PooledClient:
    """One persistent keep-alive connection per calling thread.

    ``urllib`` opens (and tears down) a TCP connection per request, which
    on a one-box benchmark costs about as much as the server spends
    answering — the measurement ends up client-bound and both servers
    read the same.  A thread-local :class:`http.client.HTTPConnection`
    reuses the connection while the server keeps it alive and
    transparently reconnects when it does not (a server closes after a
    ``Connection: close`` response, and a restarted or peer server may
    drop an idle connection).
    """

    def __init__(self, url: str, timeout: float) -> None:
        parsed = urllib.parse.urlsplit(url)
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._timeout = timeout
        self._local = threading.local()

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def post(self, path: str, body: Dict[str, Any]):
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        for attempt in (0, 1):
            conn = getattr(self._local, "conn", None)
            if conn is None:
                conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=self._timeout
                )
                self._local.conn = conn
            try:
                conn.request("POST", path, body=data, headers=headers)
                resp = conn.getresponse()
                payload = resp.read()
                if resp.will_close:
                    conn.close()
                    self._local.conn = None
                return resp.status, json.loads(payload)
            except (http.client.HTTPException, OSError):
                # stale keep-alive connection (server restarted or timed
                # it out): reconnect once, then let the failure surface
                conn.close()
                self._local.conn = None
                if attempt:
                    raise
        raise AssertionError("unreachable")


#: longest header/status line a pipelined response parser will accept
_MAX_LINE = 65536


def _read_http_response(rfile):
    """Parse one HTTP response from a buffered socket file.

    Returns ``(status, doc, close)``: the status code, the decoded JSON
    body (``None`` when the payload is not JSON), and whether the server
    is closing the connection after this response.  Handles
    Content-Length framing (what ``repro serve`` emits), chunked
    transfer coding, and the HTTP/1.0 read-until-close fallback.  The
    caller owns ``rfile`` — one buffered reader per connection, so
    read-ahead never swallows a later pipelined response.
    """
    line = rfile.readline(_MAX_LINE)
    if not line:
        raise ConnectionError("EOF before status line")
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ValueError(f"malformed status line {line!r}")
    version, status = parts[0], int(parts[1])
    headers = {}
    while True:
        line = rfile.readline(_MAX_LINE)
        if not line:
            raise ConnectionError("EOF inside headers")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    te = headers.get("transfer-encoding", "").lower()
    framed = True
    if "chunked" in te:
        body = bytearray()
        while True:
            size_line = rfile.readline(_MAX_LINE)
            if not size_line:
                raise ConnectionError("EOF inside chunked body")
            size = int(size_line.split(b";")[0].strip() or b"0", 16)
            if size == 0:
                while True:  # trailers up to the final blank line
                    trailer = rfile.readline(_MAX_LINE)
                    if trailer in (b"\r\n", b"\n", b""):
                        break
                break
            chunk = rfile.read(size + 2)  # data + CRLF
            if len(chunk) < size:
                raise ConnectionError("EOF inside chunk")
            body += chunk[:size]
        body = bytes(body)
    elif "content-length" in headers:
        length = int(headers["content-length"])
        body = rfile.read(length)
        if len(body) != length:
            raise ConnectionError("EOF inside body")
    else:
        body = rfile.read()  # close-delimited: nothing can follow
        framed = False
    connection = headers.get("connection", "").lower()
    close = (not framed or connection == "close"
             or (version == "HTTP/1.0" and connection != "keep-alive"))
    try:
        doc = json.loads(body)
    except ValueError:
        doc = None
    return status, doc, close


class PipelinedClient:
    """HTTP/1.1 pipelining on one persistent connection.

    The open-loop generator's contract is that *send* instants follow
    the arrival schedule no matter how the server is keeping up.  The
    thread-per-request implementation honours that but pays a thread, a
    TCP handshake, and a file descriptor per request — at high rates the
    generator, not the server, becomes the bottleneck.  This client
    instead writes each serialized request onto one keep-alive
    connection the moment it is due, without waiting for earlier
    responses, and a single reader drains responses strictly in request
    order — the HTTP/1.1 pipelining contract — matching each back to
    its token by FIFO position so per-response identity checking is
    exactly as strong as before.

    When the server closes the connection after a response (one marked
    ``Connection: close``, or any HTTP/1.0 response without keep-alive),
    the outstanding requests are replayed in order on a fresh
    connection; an unclean failure replays too but charges the head
    request a retry, and a request out of retries is reported as errored
    rather than looping forever.
    """

    _MAX_RETRIES = 4

    def __init__(self, url: str, timeout: float) -> None:
        parsed = urllib.parse.urlsplit(url)
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._timeout = timeout
        self._more = threading.Condition()
        self._pending: "collections.deque" = collections.deque()
        self._failed: "collections.deque" = collections.deque()
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._done = False

    # -- plumbing (callers hold self._more) ----------------------------
    def _connect_locked(self) -> None:
        sock = socket.create_connection(
            (self._host, self._port), self._timeout
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def _teardown_locked(self) -> None:
        for closable in (self._rfile, self._sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass
        self._rfile = None
        self._sock = None

    def _replay_locked(self) -> None:
        """Reconnect and re-send every outstanding request, in order.

        A connect failure means the server is gone for everything
        already on the wire: outstanding requests move to the failure
        queue instead of spinning on reconnect attempts.
        """
        self._teardown_locked()
        try:
            self._connect_locked()
            for entry in self._pending:
                self._sock.sendall(entry[1])
        except OSError:
            self._teardown_locked()
            self._failed.extend(entry[0] for entry in self._pending)
            self._pending.clear()

    def _serialize(self, path: str, body: Dict[str, Any]) -> bytes:
        data = json.dumps(body).encode("utf-8")
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            "\r\n"
        ).encode("latin-1")
        return head + data

    # -- writer side ----------------------------------------------------
    def send(self, token, path: str, body: Dict[str, Any]) -> None:
        """Queue one request on the wire; returns as soon as it is written."""
        raw = self._serialize(path, body)
        with self._more:
            try:
                if self._sock is None:
                    self._connect_locked()
                self._sock.sendall(raw)
            except OSError:
                self._teardown_locked()
                raise
            self._pending.append([token, raw, 0])
            self._more.notify()

    def finish(self) -> None:
        """No more sends: lets the reader drain the tail and return."""
        with self._more:
            self._done = True
            self._more.notify()

    def close(self) -> None:
        with self._more:
            self._done = True
            self._teardown_locked()
            self._more.notify()

    # -- reader side ----------------------------------------------------
    def next_response(self):
        """Block for the oldest outstanding response.

        Returns ``(token, status, doc)``, with status ``-1`` and a
        ``None`` doc for a request that exhausted its retries, or
        ``None`` once :meth:`finish` was called and every outstanding
        request has been answered.
        """
        while True:
            with self._more:
                if self._failed:
                    return self._failed.popleft(), -1, None
                while not self._pending and not self._done:
                    self._more.wait()
                if not self._pending:
                    return (self._failed.popleft(), -1, None) \
                        if self._failed else None
                entry = self._pending[0]
                rfile = self._rfile
            try:
                if rfile is None:
                    raise ConnectionError("connection torn down")
                status, doc, close = _read_http_response(rfile)
            except (OSError, ValueError, ConnectionError):
                with self._more:
                    if self._done and not self._pending:
                        return None
                    # the head request may be mid-flight on a dead
                    # connection: it pays the retry, everyone replays
                    entry[2] += 1
                    if entry[2] > self._MAX_RETRIES:
                        if self._pending and self._pending[0] is entry:
                            self._pending.popleft()
                        self._failed.append(entry[0])
                    self._replay_locked()
                continue
            with self._more:
                if self._pending and self._pending[0] is entry:
                    self._pending.popleft()
                if close:
                    # a clean per-response close made progress, so
                    # replaying the rest is not a retry
                    self._teardown_locked()
                    if self._pending:
                        self._replay_locked()
            return entry[0], status, doc


def _get(url: str, path: str, timeout: float = 30.0):
    with urllib.request.urlopen(url + path, timeout=timeout) as resp:
        return json.loads(resp.read())


def scrape_prometheus(url: str, timeout: float = 30.0) -> Tuple[str, str]:
    """GET /metrics negotiated to the Prometheus text representation."""
    req = urllib.request.Request(
        url + "/metrics", headers={"Accept": "text/plain"}
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return (resp.read().decode("utf-8"),
                resp.headers.get("Content-Type", ""))


class BootedServer:
    """A ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, args, shards: int, warm_file: Optional[str]) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--synthetic", str(args.nodes), "--seed", str(args.trace_seed),
            "--cache-capacity", str(args.cache_capacity),
            "--shards", str(shards),
        ]
        if warm_file:
            cmd += ["--warm", warm_file]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (sys.path[0], env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        self.url = self._await_ready(args.boot_timeout)

    def _await_ready(self, timeout: float) -> str:
        deadline = time.time() + timeout
        assert self.proc.stdout is not None
        while time.time() < deadline:
            if self.proc.poll() is not None:
                raise SystemExit(
                    f"server exited during boot (rc {self.proc.returncode})"
                )
            line = self.proc.stdout.readline()
            if "serving on http://" in line:
                return "http://" + line.split("http://")[1].split()[0]
        raise SystemExit(f"server not ready within {timeout:.0f}s")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def normalized_plan(doc: Dict[str, Any]) -> str:
    """A plan document serialized with volatile timing fields removed."""
    plan = json.loads(json.dumps(doc))  # deep copy
    plan.get("manifest", {}).pop("created_unix", None)
    plan.get("manifest", {}).pop("wall_seconds", None)
    plan.get("info", {}).pop("stage_seconds", None)
    return json.dumps(plan, sort_keys=True)


class IdentityTracker:
    """Asserts one configuration always serves one (normalized) plan."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seen: Dict[str, str] = {}
        self.violations: List[str] = []

    def observe(self, key: str, plan_doc: Dict[str, Any]) -> None:
        norm = normalized_plan(plan_doc)
        with self._lock:
            prior = self._seen.setdefault(key, norm)
            if prior != norm and key not in self.violations:
                self.violations.append(key)

    def snapshot(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._seen)


def run_load(
    url: str,
    workload: List[Tuple[str, Dict[str, Any]]],
    args,
    identity: Optional[IdentityTracker] = None,
) -> Dict[str, Any]:
    """Execute the workload; returns the report document."""
    results: List[Tuple[str, int, float, bool]] = [None] * len(workload)  # type: ignore[list-item]
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    interval = (1.0 / args.rate) if args.rate else 0.0
    client = PooledClient(url, args.request_timeout)
    t_start = time.perf_counter()

    def record(i: int, status: int, doc, t0: float) -> None:
        """File one response under request ``i``; feeds identity checking."""
        path = workload[i][0]
        latency = time.perf_counter() - t0
        if status < 0 or doc is None:
            results[i] = (path, -1, latency, False)
            return
        cached = bool(doc.get("cached")) if path == "/plan" else (
            all(doc.get("cached") or [False])
        )
        if status == 200 and identity is not None:
            if path == "/plan":
                identity.observe(doc["key"], doc["plan"])
            else:
                for key, plan in zip(doc["keys"],
                                     doc["planset"].get("plans", [])):
                    identity.observe(key, plan)
        results[i] = (path, status, latency, cached if status == 200 else False)

    def issue(i: int) -> None:
        path, body = workload[i]
        t0 = time.perf_counter()
        try:
            status, doc = client.post(path, body)
        except Exception:
            results[i] = (path, -1, time.perf_counter() - t0, False)
            return
        record(i, status, doc, t0)

    def closed_worker() -> None:
        while True:
            with cursor_lock:
                i = cursor["next"]
                if i >= len(workload):
                    return
                cursor["next"] = i + 1
            issue(i)

    pipeline = getattr(args, "pipeline", 1)
    if args.rate and pipeline:
        # open loop over HTTP/1.1 pipelining: requests go out on their
        # arrival schedule across a small fixed set of persistent
        # connections (striped round-robin); one reader per lane drains
        # responses in request order, so outstanding work is still
        # unbounded but the generator no longer spends a thread and a
        # TCP handshake per request
        lanes = [PipelinedClient(url, args.request_timeout)
                 for _ in range(pipeline)]
        t_sent = [0.0] * len(workload)

        def lane_reader(lane: PipelinedClient) -> None:
            while True:
                got = lane.next_response()
                if got is None:
                    return
                i, status, doc = got
                record(i, status, doc, t_sent[i])

        readers = [
            threading.Thread(target=lane_reader, args=(lane,), daemon=True)
            for lane in lanes
        ]
        for t in readers:
            t.start()
        for i in range(len(workload)):
            target = t_start + i * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            path, body = workload[i]
            t_sent[i] = time.perf_counter()
            try:
                lanes[i % len(lanes)].send(i, path, body)
            except OSError:
                results[i] = (path, -1, time.perf_counter() - t_sent[i],
                              False)
        for lane in lanes:
            lane.finish()
        for t in readers:
            t.join(timeout=args.request_timeout + 10)
        for lane in lanes:
            lane.close()
    elif args.rate:  # open loop: thread + connection per request
        threads: List[threading.Thread] = []
        for i in range(len(workload)):
            target = t_start + i * interval
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t = threading.Thread(target=issue, args=(i,), daemon=True)
            t.start()
            threads.append(t)
        for t in threads:
            t.join(timeout=args.request_timeout + 10)
    else:  # closed loop: fixed concurrency, next request after the last
        threads = [
            threading.Thread(target=closed_worker, daemon=True)
            for _ in range(args.concurrency)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=len(workload) * args.request_timeout)
    duration = time.perf_counter() - t_start

    done = [r for r in results if r is not None]
    oks = [r for r in done if r[1] == 200]
    errors = [r for r in done if r[1] not in (200,)]
    latencies = [r[2] for r in oks]

    def tail(values: List[float]) -> Dict[str, float]:
        if not values:
            return {}
        return {
            "p50_ms": percentile(values, 50.0) * 1e3,
            "p95_ms": percentile(values, 95.0) * 1e3,
            "p99_ms": percentile(values, 99.0) * 1e3,
            "max_ms": max(values) * 1e3,
            "mean_ms": sum(values) / len(values) * 1e3,
        }

    by_class: Dict[str, Dict[str, Any]] = {}
    for label, match in (
        ("hit", lambda r: r[0] == "/plan" and r[3]),
        ("miss", lambda r: r[0] == "/plan" and not r[3]),
        ("plan_many", lambda r: r[0] == "/plan_many"),
    ):
        sub = [r[2] for r in oks if match(r)]
        by_class[label] = {"count": len(sub), **tail(sub)}

    return {
        "mode": "open" if args.rate else "closed",
        "url": url,
        "requests": len(workload),
        "completed": len(done),
        "ok": len(oks),
        "errors": len(errors),
        "error_statuses": sorted({r[1] for r in errors}),
        "cache_hits": sum(1 for r in oks if r[3]),
        "duration_seconds": duration,
        "throughput_rps": len(oks) / duration if duration > 0 else 0.0,
        "concurrency": args.concurrency,
        "rate": args.rate,
        "pipeline": pipeline if args.rate else None,
        "latency": tail(latencies),
        "by_class": by_class,
    }


def check_slos(report: Dict[str, Any], args,
               failures: List[str], name: str = "") -> None:
    """Append SLO violations (``--slo-p99-ms`` / ``--slo-error-rate``)."""
    prefix = f"{name}: " if name else ""
    if args.slo_p99_ms is not None:
        p99 = report.get("latency", {}).get("p99_ms")
        if p99 is None:
            failures.append(f"{prefix}no ok requests to measure p99 against "
                            f"--slo-p99-ms")
        elif p99 > args.slo_p99_ms:
            failures.append(f"{prefix}p99 {p99:.1f} ms > SLO "
                            f"{args.slo_p99_ms:g} ms")
    if args.slo_error_rate is not None and report.get("requests"):
        rate = report.get("errors", 0) / report["requests"]
        if rate > args.slo_error_rate:
            failures.append(
                f"{prefix}error rate {rate:.4f} "
                f"({report['errors']}/{report['requests']}) > SLO "
                f"{args.slo_error_rate:g}"
            )


def check_prometheus(url: str, report: Dict[str, Any], args,
                     failures: List[str],
                     expect_edge: bool) -> Optional[Dict[str, Any]]:
    """Scrape /metrics in Prometheus format once and validate it parses.

    When ``expect_edge`` (a server this run booted and exclusively
    drove), also checks that the front-end's ``request.edge`` histogram
    counted every request the load run issued — the end-to-end proof
    that per-request telemetry survived shard routing and merge.
    """
    from repro.obs.promtext import parse_prometheus_text

    try:
        text, ctype = scrape_prometheus(url, args.request_timeout)
    except Exception as exc:
        failures.append(f"prometheus scrape failed: {exc}")
        return None
    try:
        samples, types = parse_prometheus_text(text)
    except ValueError as exc:
        failures.append(f"prometheus text did not parse: {exc}")
        return None
    doc: Dict[str, Any] = {
        "content_type": ctype,
        "families": len(types),
        "samples": len(samples),
    }
    if not samples:
        failures.append("prometheus scrape yielded no samples")
    if expect_edge:
        key = ("repro_request_seconds_count",
               (("component", "frontend"), ("endpoint", "edge")))
        edge_count = samples.get(key)
        doc["edge_requests"] = edge_count
        if edge_count is None:
            failures.append(
                "prometheus scrape is missing the front-end request.edge "
                "histogram"
            )
        elif report.get("errors") == 0 and int(edge_count) != report["requests"]:
            failures.append(
                f"front-end edge histogram counted {int(edge_count)} "
                f"requests, load run issued {report['requests']}"
            )
    print(f"# prometheus scrape: {doc['samples']} samples over "
          f"{doc['families']} families"
          + (f", edge count {doc.get('edge_requests')}" if expect_edge
             else ""))
    return doc


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = p.add_mutually_exclusive_group()
    target.add_argument("--url", default=None,
                        help="drive an already-running server")
    target.add_argument("--boot", action="store_true",
                        help="boot a repro serve subprocess to drive")
    target.add_argument("--compare", action="store_true",
                        help="boot both the single-process server "
                        "(--shards 0) and a sharded one; report the "
                        "throughput ratio and cross-check plan identity")
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--concurrency", type=int, default=16,
                   help="closed-loop worker count (ignored with --rate)")
    p.add_argument("--rate", type=float, default=None,
                   help="open-loop request rate in rps (default: closed loop)")
    p.add_argument("--pipeline", type=int, default=1, metavar="LANES",
                   help="open-loop only: write due requests onto this many "
                   "persistent HTTP/1.1 pipelined connections instead of a "
                   "thread + connection per request (0 restores the "
                   "thread-per-request generator)")
    p.add_argument("--hit-ratio", type=float, default=0.8,
                   help="share of requests repeating the hot configuration")
    p.add_argument("--plan-many-ratio", type=float, default=0.05,
                   help="share of requests using POST /plan_many")
    p.add_argument("--shards", type=int, default=2,
                   help="shard count for --boot/--compare servers "
                   "(0 with --boot: the single-process server)")
    p.add_argument("--warm-tail", action="store_true",
                   help="with --boot/--compare: write the tail configs to a "
                   "--warm file so misses exercise the shared cache tiers "
                   "instead of cold planning")
    p.add_argument("--nodes", type=int, default=12,
                   help="synthetic trace size for booted servers")
    p.add_argument("--trace-seed", type=int, default=3,
                   help="synthetic trace seed for booted servers")
    p.add_argument("--cache-capacity", type=int, default=128,
                   help="booted servers' in-memory plan-cache entries")
    p.add_argument("--deadline", type=float, default=600.0)
    p.add_argument("--window", type=float, default=2000.0)
    p.add_argument("--seed", type=int, default=3,
                   help="hot configuration's channel seed")
    p.add_argument("--tail-seed-base", type=int, default=1000,
                   help="first channel seed of the distinct-config tail")
    p.add_argument("--request-timeout", type=float, default=120.0)
    p.add_argument("--boot-timeout", type=float, default=120.0)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the JSON report here")
    p.add_argument("--assert-zero-errors", action="store_true")
    p.add_argument("--assert-cache-hits", action="store_true",
                   help="fail unless at least one response was cache-served")
    p.add_argument("--assert-min-rps", type=float, default=None)
    p.add_argument("--slo-p99-ms", type=float, default=None,
                   help="fail when ok-request p99 latency exceeds this bound")
    p.add_argument("--slo-error-rate", type=float, default=None,
                   help="fail when errors/requests exceeds this fraction "
                   "(0 means zero tolerance)")
    p.add_argument("--min-speedup", type=float, default=None,
                   help="with --compare: fail when sharded/single throughput "
                   "falls below this ratio")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if args.url is None and not args.boot and not args.compare:
        args.boot = True
    workload = build_workload(args)
    warm_file = None
    report: Dict[str, Any]
    failures: List[str] = []

    try:
        if args.warm_tail and not args.url:
            fd, warm_file = tempfile.mkstemp(suffix=".json", prefix="warm-")
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(warm_bodies(args), f)

        if args.compare:
            identity = IdentityTracker()
            print("# booting single-process baseline (--shards 0)")
            single = BootedServer(args, shards=0, warm_file=warm_file)
            try:
                single_report = run_load(single.url, workload, args, identity)
            finally:
                single.stop()
            print(f"# single: {single_report['throughput_rps']:.1f} rps, "
                  f"p99 {single_report['latency'].get('p99_ms', 0):.1f} ms")
            print(f"# booting {args.shards}-shard server")
            sharded = BootedServer(args, shards=args.shards,
                                   warm_file=warm_file)
            try:
                sharded_report = run_load(sharded.url, workload, args,
                                          identity)
            finally:
                sharded.stop()
            print(f"# sharded: {sharded_report['throughput_rps']:.1f} rps, "
                  f"p99 {sharded_report['latency'].get('p99_ms', 0):.1f} ms")
            ratio = (
                sharded_report["throughput_rps"]
                / single_report["throughput_rps"]
                if single_report["throughput_rps"] else float("inf")
            )
            report = {
                "compare": True,
                "shards": args.shards,
                "speedup": ratio,
                "identity_violations": identity.violations,
                "configs_checked": len(identity.snapshot()),
                "single": single_report,
                "sharded": sharded_report,
            }
            print(f"# speedup: {ratio:.2f}x over "
                  f"{report['configs_checked']} configs "
                  f"({len(identity.violations)} identity violations)")
            if identity.violations:
                failures.append(
                    f"plans diverged across servers for keys "
                    f"{identity.violations[:5]}"
                )
            if args.min_speedup and ratio < args.min_speedup:
                failures.append(
                    f"speedup {ratio:.2f}x < required {args.min_speedup}x"
                )
            for rep, name in ((single_report, "single"),
                              (sharded_report, "sharded")):
                if args.assert_zero_errors and rep["errors"]:
                    failures.append(f"{name}: {rep['errors']} errors "
                                    f"(statuses {rep['error_statuses']})")
                if args.assert_cache_hits and rep["cache_hits"] == 0:
                    failures.append(f"{name}: no cache hits")
                check_slos(rep, args, failures, name)
        else:
            server = None
            url = args.url
            if not url:
                server = BootedServer(
                    args, shards=args.shards, warm_file=warm_file
                )
                url = server.url
            identity = IdentityTracker()
            try:
                report = run_load(url, workload, args, identity)
                prom = check_prometheus(
                    url, report, args, failures,
                    expect_edge=server is not None,
                )
                if prom is not None:
                    report["prometheus"] = prom
            finally:
                if server is not None:
                    server.stop()
            report["identity_violations"] = identity.violations
            report["configs_checked"] = len(identity.snapshot())
            print(f"# {report['throughput_rps']:.1f} rps over "
                  f"{report['ok']}/{report['requests']} ok requests "
                  f"({report['errors']} errors, "
                  f"{report['cache_hits']} cache hits)")
            lat = report["latency"]
            if lat:
                print(f"# latency p50 {lat['p50_ms']:.2f} ms | "
                      f"p95 {lat['p95_ms']:.2f} ms | "
                      f"p99 {lat['p99_ms']:.2f} ms")
            if identity.violations:
                failures.append(
                    f"non-identical plans for keys {identity.violations[:5]}"
                )
            if args.assert_zero_errors and report["errors"]:
                failures.append(f"{report['errors']} errors "
                                f"(statuses {report['error_statuses']})")
            if args.assert_cache_hits and report["cache_hits"] == 0:
                failures.append("no cache hits")
            if (args.assert_min_rps
                    and report["throughput_rps"] < args.assert_min_rps):
                failures.append(
                    f"throughput {report['throughput_rps']:.1f} rps < "
                    f"required {args.assert_min_rps}"
                )
            check_slos(report, args, failures)
    finally:
        if warm_file:
            try:
                os.unlink(warm_file)
            except OSError:
                pass

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"# report written to {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
