"""Planning service: plan cache, single-flight request queue, HTTP front-end.

The schedulers in this package are deterministic: the same problem
instance always yields the same plan.  This subpackage turns that into a
serving layer — compute once, answer many:

* :mod:`~repro.service.cache` — :class:`PlanCache`, a content-addressed
  two-tier (LRU memory + JSON disk) cache of
  :class:`~repro.api.BroadcastPlan` keyed by the plan's
  ``manifest["config_hash"]``;
* :mod:`~repro.service.batcher` — :class:`Batcher`, a bounded
  single-flight request queue: a duplicate of a queued or running
  request joins its future, and each of ``workers`` threads takes the
  next unique request as soon as it is free;
* :mod:`~repro.service.server` — :class:`PlanningService`, the embeddable
  facade combining both over a set of named traces, plus the request
  parsing and status-code rules every deployment shape shares;
* :mod:`~repro.service.router` — :class:`HashRing` consistent hashing and
  :func:`routing_key`, mapping each plan configuration to the shard whose
  live caches are warm for it;
* :mod:`~repro.service.shard` — :class:`ShardPool`, worker processes each
  running a full :class:`PlanningService` over duplex pipes, sharing one
  disk cache tier;
* :mod:`~repro.service.asgi` — the asyncio HTTP front-end
  (:class:`AsyncPlanningServer`) behind ``repro serve``: keep-alive,
  single-buffer responses, per-shard backpressure, an edge cache of
  serialized responses, and graceful SIGTERM drain;
* :mod:`~repro.service.top` — the ``repro top`` live view: polls
  ``GET /metrics`` and renders per-shard qps, latency percentiles,
  queue depth, and cache hit ratios in the terminal.

Quick embedding::

    from repro import HaggleLikeConfig, haggle_like_trace
    from repro.service import PlanningService

    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=20), seed=7)
    with PlanningService({"demo": trace}) as svc:
        r = svc.plan("demo", 2000.0, window=9000.0, seed=7)
        print(r.plan.total_cost, r.cached)

Quick serving::

    $ python -m repro serve --synthetic 20 --port 8437 &
    $ curl -s -X POST localhost:8437/plan \\
        -d '{"deadline": 2000, "window": 9000, "seed": 7}'
"""

from .asgi import AsyncPlanningServer, BackgroundServer, LocalBackend
from .batcher import Batcher, BatcherStats
from .cache import CacheStats, PlanCache
from .router import HashRing, routing_key
from .server import (
    PlanningService,
    PlanResponse,
    PlanSetResponse,
    read_warm_file,
)
from .shard import ShardHandle, ShardPool
from .top import ShardRow, build_rows, fetch_metrics, render_top, top_loop

__all__ = [
    "AsyncPlanningServer",
    "BackgroundServer",
    "Batcher",
    "BatcherStats",
    "CacheStats",
    "HashRing",
    "LocalBackend",
    "PlanCache",
    "PlanResponse",
    "PlanSetResponse",
    "PlanningService",
    "ShardHandle",
    "ShardPool",
    "ShardRow",
    "build_rows",
    "fetch_metrics",
    "read_warm_file",
    "render_top",
    "routing_key",
    "top_loop",
]
