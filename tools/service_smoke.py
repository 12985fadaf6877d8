#!/usr/bin/env python
"""End-to-end smoke test for ``repro serve`` — run by CI, usable locally.

Starts a real planning service over a synthetic trace and drives it the
way a client fleet would, asserting the service's acceptance properties:

1. **cache**: concurrent duplicate ``POST /plan`` requests all succeed,
   return identical plans from one auxiliary-graph build (the batcher
   joins duplicates to the compute already queued or running) under the
   key :func:`repro.api.plan_cache_key` gives the same body on the hosted
   trace, and ``GET /cache/stats`` records at least one hit afterwards;
2. **backpressure**: with a deliberately tiny queue bound, a burst of
   *distinct* (uncacheable) requests yields at least one HTTP 429 carrying
   a ``Retry-After`` header, while every admitted request still completes;
3. **shutdown**: each server drains and its event-loop thread exits;
4. **free worker**: with one of two workers held on a blocked job, a cold
   ``POST /plan`` is answered by the other while the first stays held.

Usage::

    PYTHONPATH=src python tools/service_smoke.py

Exits nonzero with a diagnostic on the first violated property.
"""

from __future__ import annotations

import json
import sys
import threading
import urllib.error
import urllib.request


def _post(url: str, body: dict, timeout: float = 60.0, path: str = "/plan"):
    req = urllib.request.Request(
        url + path, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _get(url: str, path: str):
    with urllib.request.urlopen(url + path, timeout=30) as resp:
        return json.loads(resp.read())


def _concurrent(fn, count: int):
    """Run ``fn(i)`` on ``count`` threads; returns results in thread order."""
    results = [None] * count

    def run(i: int) -> None:
        results[i] = fn(i)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    return results


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def main() -> int:
    from repro import obs
    from repro.api import plan_cache_key
    from repro.service import (
        BackgroundServer,
        LocalBackend,
        PlanCache,
        PlanningService,
    )
    from repro.traces import HaggleLikeConfig, haggle_like_trace

    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=14), seed=3)

    # --- property 1+3: duplicate requests share one computation ----------
    obs.enable()  # tracer counters observe the auxiliary-graph builds
    service = PlanningService({"synthetic": trace}, workers=4)
    server = BackgroundServer(LocalBackend(service), port=0)
    url = "http://%s:%d" % server.address
    print(f"# serving on {url}")

    body = {"deadline": 2000, "window": 9000, "seed": 3}

    def builds() -> float:
        return obs.snapshot().counters.get("auxgraph.numpy_builds", 0)

    builds_before = builds()
    dup = _concurrent(lambda i: _post(url, body), 8)
    builds_after = builds()

    check(all(r is not None and r[0] == 200 for r in dup),
          "8 concurrent duplicate POST /plan all returned 200")
    plans = {json.dumps(r[1]["plan"], sort_keys=True) for r in dup}
    check(len(plans) == 1, "all duplicate responses carry an identical plan")
    check(builds_after - builds_before == 1,
          "8 duplicate requests performed exactly one auxiliary-graph build "
          f"(counter delta {builds_after - builds_before:g})")

    st, replay, _ = _post(url, body)
    check(st == 200 and replay["cached"],
          "follow-up duplicate request is answered from the cache")
    library_key = plan_cache_key(
        trace, None, body["deadline"], window=body["window"],
        seed=body["seed"],
    )
    check({r[1]["key"] for r in dup} == {replay["key"]} == {library_key},
          f"served /plan key is the library's plan_cache_key ({library_key})")

    # --- property 1b: POST /plan_many shares the single-plan cache ------
    many_body = {"sources": [None, None], "deadlines": 2000,
                 "window": 9000, "seed": 3}
    st, many, _ = _post(url, many_body, path="/plan_many")
    check(st == 200 and len(many["keys"]) == 2,
          "POST /plan_many returned a 2-member plan set")
    check(all(k == replay["key"] for k in many["keys"]),
          "plan_many members key the cache identically to POST /plan")
    check(all(many["cached"]),
          "plan_many members were answered from the shared plan cache")
    member = json.dumps(many["planset"]["plans"][0], sort_keys=True)
    check(member == json.dumps(replay["plan"], sort_keys=True),
          "plan_many member plan is byte-identical to the /plan response")
    st, bad, _ = _post(url, {"deadlines": 2000}, path="/plan_many")
    check(st == 400 and "sources" in bad["error"],
          "plan_many without sources is a 400 naming the missing field")
    stats = _get(url, "/cache/stats")
    check(stats["hits"] >= 1, f"/cache/stats records hits ({stats['hits']})")
    health = _get(url, "/healthz")
    check(health["status"] == "ok", "/healthz reports ok")
    metrics = _get(url, "/metrics")
    check(metrics["batcher"]["deduped"] >= 1,
          "batcher joined duplicates to a running compute "
          f"(deduped {metrics['batcher']['deduped']})")

    server.stop()  # drains the backend, which closes the service
    check(not server._thread.is_alive(), "first server shut down cleanly")

    # --- property 2: tiny queue bound produces 429 backpressure ----------
    # One slow worker, one queue slot: a burst of *distinct* problems (the
    # cache can't absorb them) must overflow admission control.
    service = PlanningService(
        {"synthetic": trace},
        cache=PlanCache(capacity=4),
        workers=1, max_queue=1,
    )
    server = BackgroundServer(LocalBackend(service), port=0)
    url = "http://%s:%d" % server.address

    burst = _concurrent(
        lambda i: _post(url, {"deadline": 2000, "window": 9000, "seed": i}),
        12,
    )
    statuses = [r[0] for r in burst if r is not None]
    check(statuses.count(200) >= 1, "admitted burst requests completed")
    rejected = [r for r in burst if r is not None and r[0] == 429]
    check(len(rejected) >= 1,
          f"tiny queue bound produced 429s ({len(rejected)}/12)")
    check(all("Retry-After" in r[2] for r in rejected),
          "every 429 carries a Retry-After header")
    check(all(st in (200, 429) for st in statuses),
          f"burst produced only 200/429 (saw {sorted(set(statuses))})")

    server.stop()
    check(not server._thread.is_alive(), "second server shut down cleanly")

    # --- property 4: a free worker takes a cold plan at once -------------
    service = PlanningService({"synthetic": trace}, workers=2)
    server = BackgroundServer(LocalBackend(service), port=0)
    url = "http://%s:%d" % server.address

    started, release = threading.Event(), threading.Event()
    held = service.batcher.submit(
        "held", lambda: started.set() or release.wait(60)
    )
    check(started.wait(30), "one worker is held on a blocked job")
    st, cold, _ = _post(url, {"deadline": 2000, "window": 9000, "seed": 4})
    check(st == 200 and not cold["cached"] and not release.is_set(),
          "the other worker answered a cold /plan while the first was held")
    release.set()
    held.result(30)

    server.stop()
    check(not server._thread.is_alive(), "third server shut down cleanly")

    print("service smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
