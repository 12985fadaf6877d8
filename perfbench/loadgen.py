"""serve-mixed: the planning service under cache-hit and cold traffic.

The server is ``repro serve`` (single-process asyncio front-end, default
settings) hosting the N=12 Haggle-like trace the benchmark writes, started
through ``child.py`` so it is pinned to the program's vCPU.  This process,
on the other vCPU, is the load generator.  Each server sees two phases:

* hits, open loop: hot ``/plan`` repeats (edge-cache hits) and
  ``/plan_many`` (plan-cache hits, :data:`MANY_SHARE` of the phase) fall
  due at :data:`RATE` and are sent by at most :data:`CONNECTIONS` threads,
  each with one keep-alive connection; latency runs from when a request
  was due, so a stall also delays the requests queued behind it;
* cold plans, closed loop: ``/plan`` bodies with a channel seed the server
  has not seen, one at a time on one connection, each between two short
  reference-loop phases on the server's vCPU (see :func:`one_by_one`).

The phases are apart because a cold plan holds the interpreter lock for
100-300 ms on this kind of host: mixed in, it put 15-30 % of the hits
behind it, and both medians then moved 20-60 % between runs of one
commit as the host's speed drifted.

Every response must be 200 and identical, after the volatile timing
fields are stripped, to every other response for the same body.

This file holds its own client and identity check, so no change to the
program's tools can change how the service is measured.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import refloop

#: offered load of the hit phase (requests per second), client connections
RATE = 40.0
CONNECTIONS = 2
#: the hit phase's share of ``--seconds``, and its share of /plan_many
HIT_TIME_SHARE, MANY_SHARE = 0.8, 0.02
#: cold plans per second of ``--seconds``
COLD_PER_SECOND = 2.4
#: seconds of the reference phase before and after each cold plan
COLD_REF_S = 0.05
#: the hosted trace: Haggle-like, 12 nodes, trace seed 0
SERVE_TRACE = {"num_nodes": 12, "seed": 0}
TRACE_NAME = "serve-n12"
BASE = {"trace": TRACE_NAME, "deadline": 2000.0, "window": 9000.0, "seed": 5}
#: response fields that legitimately differ between identical requests
VOLATILE = frozenset({"cached", "wall_seconds", "created_unix", "stage_seconds"})

Request = Tuple[str, str, bytes]  # (class, path, body)
#: one response: (due, sent, done, status, body)
Result = Tuple[float, float, float, int, bytes]


def build_traffic(rng: random.Random, hits: int, colds: int
                  ) -> Tuple[List[Request], List[Request]]:
    """One server's hit phase and cold phase.

    The hit phase has an exact /plan_many share in an order drawn from
    ``rng``.  The cold bodies carry channel seeds 1000, 1001, ... in
    order, so every server plans the same cold set; cold plans differ by
    up to 3x in cost between channel seeds, and a set drawn per seed would
    move the cold medians by more than the run-to-run noise.
    """
    n_many = round(hits * MANY_SHARE)
    kinds = ["many"] * n_many + ["hot"] * (hits - n_many)
    rng.shuffle(kinds)
    many = {"trace": TRACE_NAME, "sources": [None, None],
            "deadlines": BASE["deadline"], "window": BASE["window"],
            "seed": BASE["seed"]}
    hit_phase = [("many", "/plan_many", json.dumps(many).encode())
                 if kind == "many" else
                 ("hot", "/plan", json.dumps(BASE).encode())
                 for kind in kinds]
    cold_phase = [("cold", "/plan", json.dumps(dict(BASE, seed=1000 + j)).encode())
                  for j in range(colds)]
    return hit_phase, cold_phase


def _strip(doc: Any) -> Any:
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k not in VOLATILE}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def _feasible(doc: Dict[str, Any]) -> bool:
    plans = ([doc["plan"]] if "plan" in doc
             else doc.get("planset", {}).get("plans", []))
    return bool(plans) and all(
        p["feasibility"]["all_informed"] and not p["feasibility"]["violations"]
        for p in plans)


class Server:
    """One pinned ``repro serve`` process."""

    def __init__(self, run, trace_path: str, name: str) -> None:
        argv = ["serve", trace_path, "--host", "127.0.0.1", "--port", "0"]
        cmd, _ = run.child_argv({"workload": "serve-mixed", "argv": argv}, name)
        self.proc = subprocess.Popen(cmd, env=run.env, cwd=run.root,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        self.host, self.port = "127.0.0.1", 0
        for line in self.proc.stdout:
            if line.startswith("# serving on http://"):
                hostport = line.split("http://", 1)[1].split()[0]
                self.host, port = hostport.rsplit(":", 1)
                self.port = int(port)
                break
        if not self.port:
            self.stop()
            raise RuntimeError("repro serve exited before listening")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def get(self, path: str) -> Dict[str, Any]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def drive(server: Server, requests: List[Request]) -> List[Optional[Result]]:
    """Send ``requests`` open-loop at :data:`RATE`.

    Returns one :data:`Result` per request, in order; ``None`` for a
    request a stuck client thread never finished.
    """
    results: List[Optional[Result]] = [None] * len(requests)
    due_q: "queue.Queue[Optional[Tuple[int, float]]]" = queue.Queue()

    def worker() -> None:
        conn = server.connect()
        while True:
            item = due_q.get()
            if item is None:
                break
            i, due = item
            _, path, body = requests[i]
            sent = time.monotonic()
            try:
                conn.request("POST", path, body,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                status, data = resp.status, resp.read()
            except (OSError, http.client.HTTPException) as exc:
                status, data = 0, str(exc).encode()
                conn.close()
                conn = server.connect()
            results[i] = (due, sent, time.monotonic(), status, data)
        conn.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    start = time.monotonic() + 0.05
    for i in range(len(requests)):
        due = start + i / RATE
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        due_q.put((i, due))
    for _ in threads:
        due_q.put(None)
    for t in threads:
        t.join(timeout=120)
    return results


def one_by_one(server: Server, run, requests: List[Request]
               ) -> List[Tuple[Result, List[float]]]:
    """Send ``requests`` closed-loop on one connection.

    A :data:`COLD_REF_S` reference phase runs on the server's vCPU, while
    the server idles, before the first request and after each one.
    Returns each request's :data:`Result` with the reference samples of
    the phases right before and right after it.  The host's speed drifts
    within seconds, so these say how fast the server's vCPU was while it
    planned better than phases a whole traffic phase away: across servers
    of one run they took the spread of a cold plan's time from ~18 % to
    ~9 %.
    """
    results: List[Tuple[Result, List[float]]] = []
    conn = server.connect()
    try:
        pre = run.ref_on_program_cpu(COLD_REF_S)
        for _, path, body in requests:
            sent = time.monotonic()
            conn.request("POST", path, body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            status, data = resp.status, resp.read()
            done = time.monotonic()
            post = run.ref_on_program_cpu(COLD_REF_S)
            results.append(((sent, sent, done, status, data), pre + post))
            pre = post
    finally:
        conn.close()
    return results


def _hist(doc: Dict[str, Any], name: str) -> Tuple[float, float]:
    h = doc["telemetry"]["histograms"].get(name, {})
    return float(h.get("sum", 0.0)), float(h.get("count", 0))


def layer_metrics(m0: Dict[str, Any], m1: Dict[str, Any],
                  latencies_s: List[float]) -> Dict[str, float]:
    """Per-layer metrics from two ``GET /metrics`` documents."""
    out: Dict[str, float] = {}
    covered = 0.0
    for doc_of, stage in ((lambda m: m["frontend"], "edge_parse"),
                          (lambda m: m["frontend"], "route"),
                          (lambda m: m, "queue_wait"),
                          (lambda m: m, "batch_wait"),
                          (lambda m: m, "compute"),
                          (lambda m: m, "serialize")):
        s0, c0 = _hist(doc_of(m0), f"stage.{stage}")
        s1, c1 = _hist(doc_of(m1), f"stage.{stage}")
        covered += s1 - s0
        out[f"service.{stage}_ms"] = (s1 - s0) / (c1 - c0) * 1e3 if c1 > c0 else 0.0
    e0, e1 = m0["frontend"]["edge_cache"], m1["frontend"]["edge_cache"]
    hits, misses = e1["hits"] - e0["hits"], e1["misses"] - e0["misses"]
    out["service.edge_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    p0, p1 = m0["cache"], m1["cache"]
    phits, pmiss = p1["hits"] - p0["hits"], p1["misses"] - p0["misses"]
    out["service.plan_cache_hit_share"] = phits / (phits + pmiss) if phits + pmiss else 0.0
    out["service.deduped"] = m1["batcher"]["deduped"] - m0["batcher"]["deduped"]
    out["service.rejected"] = m1["batcher"]["rejected"] - m0["batcher"]["rejected"]
    out["uncovered_share"] = 1.0 - covered / sum(latencies_s)
    return out


def serve_workload(run, trace_path: str, servers: int
                   ) -> Tuple[int, int, Dict[str, float]]:
    """Run serve-mixed on ``servers`` servers in turn, traffic split evenly.

    Returns ``(attempted, failed, metrics)``.
    """
    n_hits = round(RATE * run.seconds * HIT_TIME_SHARE / servers)
    n_cold = max(1, round(COLD_PER_SECOND * run.seconds / servers))
    rng = random.Random(run.seed)
    traffic = [build_traffic(rng, n_hits, n_cold) for _ in range(servers)]
    hot = json.dumps(BASE).encode()
    # (class, body, result, reference samples around it for a cold plan)
    answered: List[Tuple[str, bytes, Optional[Result], Optional[List[float]]]] = []
    setups, rss, ref, late = [], [], [], []
    layer: Dict[str, float] = {}
    edge_hits_ok = True
    for k, (hit_phase, cold_phase) in enumerate(traffic):
        before = run.ref_on_program_cpu()
        t_spawn = time.monotonic()
        server = Server(run, trace_path, f"serve-mixed-{k}")
        try:
            for _ in range(2):  # compute, then the first edge-cache hit
                conn = server.connect()
                conn.request("POST", "/plan", hot,
                             {"Content-Type": "application/json"})
                first = json.loads(conn.getresponse().read())
                conn.close()
            ready = time.monotonic()
            if not first.get("cached"):
                raise RuntimeError("hot /plan was not answered from cache")
            after = run.ref_on_program_cpu()
            setups.append((ready - t_spawn) * refloop.scale(before + after))
            ref += before + after
            t0 = time.monotonic()
            m0 = server.get("/metrics")
            metrics_s = time.monotonic() - t0
            t_traffic = time.monotonic()
            hit_results = drive(server, hit_phase)
            ref += run.ref_on_program_cpu()
            cold_results = one_by_one(server, run, cold_phase)
            traffic_s = time.monotonic() - t_traffic
            t0 = time.monotonic()
            m1 = server.get("/metrics")
            metrics_s += time.monotonic() - t0
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
        hot_sent = sum(1 for cls, _, _ in hit_phase if cls == "hot")
        e0, e1 = m0["frontend"]["edge_cache"], m1["frontend"]["edge_cache"]
        if e1["hits"] - e0["hits"] != hot_sent:
            edge_hits_ok = False
        answered += [(cls, body, r, None)
                     for (cls, _, body), r in zip(hit_phase, hit_results)]
        answered += [(cls, body, r, samples)
                     for (cls, _, body), (r, samples) in zip(cold_phase, cold_results)]
        late += [r[1] - r[0] for r in hit_results if r is not None]
        if run.trace:
            done = ([r for r in hit_results if r is not None]
                    + [r for r, _ in cold_results])
            layer = layer_metrics(m0, m1, [r[2] - r[0] for r in done])
            layer["tracing_overhead_share"] = metrics_s / traffic_s

    failed = 0 if edge_hits_ok else 1
    if not edge_hits_ok:
        print("perfbench: edge-cache hits differ from hot requests sent",
              file=sys.stderr)
    seen: Dict[bytes, Any] = {}
    lat: List[float] = []
    cold_raw: List[float] = []
    cold: List[float] = []
    for cls, body, result, samples in answered:
        if result is None or result[3] != 200:
            failed += 1
            continue
        doc = json.loads(result[4])
        stripped = _strip(doc)
        if not _feasible(doc) or seen.setdefault(body, stripped) != stripped:
            failed += 1
        ms = (result[2] - result[0]) * 1e3
        if samples is None:
            lat.append(ms)
        else:
            cold_raw.append(ms)
            cold.append(ms * refloop.scale(samples))
    late_ms = sorted(x * 1e3 for x in late)
    with open(run.path("serve-mixed.out.json"), "w", encoding="utf-8") as f:
        json.dump({"setups": setups, "ref": ref, "rss": rss, "lat": lat,
                   "cold_raw": cold_raw, "cold": cold}, f)
    if run.trace:
        metrics = dict(layer)
        metrics["loadgen.late_ms"] = statistics.quantiles(late_ms, n=100)[98]
        metrics["ref_ms"] = statistics.fmean(ref)
    else:
        # Hits are scaled by the phases around the hit phases, cold plans
        # by the phases right around each.  Over two sets of ten runs whose
        # mean loop time differed by 19 %, the sets' hit medians differed
        # by 20 % unscaled, 11 % scaled by the square root of the factor
        # and 2 % scaled by the factor itself; the spread within a set was
        # about the same (7-12 %) in all three.
        metrics = {
            "setup_s": statistics.median(setups),
            "op_ms": statistics.median(lat) * refloop.scale(ref),
            "cold_ms": statistics.median(cold),
            "peak_rss_mb": max(rss),
        }
    return len(answered), failed, metrics
