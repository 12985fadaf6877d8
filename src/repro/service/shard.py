"""Multi-process planning shards: worker processes behind duplex pipes.

One process caps this service twice over: the GIL serializes every
scheduler's pure-Python work, and a single :class:`~repro.service.batcher.
Batcher` is one queue for all traffic.  A
:class:`ShardPool` runs N worker processes instead — each owns a full
:class:`~repro.service.server.PlanningService` (its own hot plan-cache
memory tier with its shared TVEGs, and batcher) — and routes every
request through a :class:`~repro.service.router.HashRing` keyed on the
request's content address, so repeat configurations always land where
the live caches are warm.

Transport is deliberately stdlib-minimal: one duplex
:func:`multiprocessing.Pipe` per shard carrying small dicts.  The parent
side (:class:`ShardHandle`) tags each request with a sequence id,
registers a :class:`~concurrent.futures.Future`, and a reader thread
resolves futures as responses arrive — requests to one shard pipeline
freely and complete out of order.  The child (:func:`_shard_main`)
dispatches onto a thread pool so slow plans don't head-of-line-block
metrics probes or cache hits behind them.

Two tiers stay shared across the pool:

* the **disk cache**: every shard's :class:`~repro.service.cache.
  PlanCache` points at the same ``cache_dir`` — the atomic-rename write
  layout is already multi-writer-safe, so a plan computed on shard 2
  replays from disk on shard 5;
* **failure semantics**: workers run requests through
  :func:`~repro.service.server.execute_request`, shipping
  ``(status, doc)`` back as plain data, so an error surfaces with the
  same HTTP mapping a single-process server would give it.

Backpressure is per shard: each handle bounds its in-flight window and
rejects past it with :class:`~repro.errors.ServiceOverloaded` (HTTP 429)
— one hot shard sheds load while its neighbours keep serving.  Graceful
drain (:meth:`ShardPool.drain`) stops admission, waits for in-flight
work, then asks each worker to flush stats and exit.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .. import obs
from ..errors import ServiceOverloaded
from ..obs.histogram import MetricsRegistry
from ..parallel import mp_context
from ..traces.model import ContactTrace
from .cache import PlanCache
from .router import HashRing, routing_key
from .server import (
    PlanningService,
    execute_request,
    parse_plan_request,
    resolve_trace,
)

__all__ = ["ShardHandle", "ShardPool"]

#: shard-local request methods a worker answers without planning
_CONTROL_METHODS = ("metrics", "healthz", "cache_stats", "warm")


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------


def _shard_main(
    shard_id: int,
    conn,
    traces: Dict[str, ContactTrace],
    cache_kwargs: Dict[str, Any],
    service_kwargs: Dict[str, Any],
    request_threads: int,
    ledger: bool = False,
) -> None:
    """Worker-process entry point: serve one pipe until told to stop.

    Runs in the child.  Shutdown is cooperative — a ``{"method":
    "shutdown"}`` message (or the pipe closing) ends the loop; SIGINT and
    SIGTERM are ignored here because the parent owns lifecycle decisions
    and a forked child shares the terminal's signal delivery.

    ``ledger=True`` (set when the parent's ledger is recording) installs a
    *fresh* recording ledger in this process — never the fork-inherited
    copy, whose pre-fork events would duplicate the parent's — and the
    final drain handshake ships everything it recorded back so the parent
    ledger ends up with one attributable stream.  Either way the process
    declares its shard identity, so every worker-side event carries
    ``shard_id``.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    obs.set_shard_id(shard_id)
    obs.set_ledger(obs.Ledger() if ledger else None)
    service = PlanningService(
        traces, cache=PlanCache(**cache_kwargs), **service_kwargs
    )
    pool = ThreadPoolExecutor(
        max_workers=max(1, request_threads),
        thread_name_prefix=f"repro-shard{shard_id}",
    )
    send_lock = threading.Lock()

    def _execute_plan(
        msg: Dict[str, Any], method: str, kwargs: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        # The pipe message carries the edge-minted request id; re-enter its
        # scope on this worker thread so the plan's cache/batch/ledger
        # events stay attributable across the process boundary.
        rid = msg.get("request_id")
        if rid:
            with obs.request_context(rid):
                return execute_request(service, method, kwargs)
        return execute_request(service, method, kwargs)

    def answer(msg: Dict[str, Any]) -> None:
        method = msg.get("method")
        kwargs = msg.get("kwargs") or {}
        try:
            if method in ("plan", "plan_many"):
                status, doc = _execute_plan(msg, method, kwargs)
            elif method == "metrics":
                doc = service.metrics()
                doc["shard"] = shard_id
                doc["pid"] = os.getpid()
                status = 200
            elif method == "healthz":
                doc = service.healthz()
                doc["shard"] = shard_id
                status = 200
            elif method == "cache_stats":
                status, doc = 200, service.cache.stats()
            elif method == "warm":
                status, doc = 200, service.warm(kwargs.get("configs") or [])
            else:
                status, doc = 500, {"error": f"unknown shard method {method!r}"}
        except BaseException as exc:  # a worker loop must never die silently
            status, doc = 500, {
                "error": f"shard {shard_id} internal error: "
                f"{type(exc).__name__}: {exc}"
            }
        with send_lock:
            try:
                conn.send({"id": msg.get("id"), "status": status, "doc": doc})
            except (BrokenPipeError, OSError):
                pass  # parent is gone; nothing left to tell

    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(msg, dict) or msg.get("method") == "shutdown":
                shutdown_id = msg.get("id") if isinstance(msg, dict) else None
                pool.shutdown(wait=True)  # finish + answer in-flight work
                service.close()
                final = service.metrics()
                final["shard"] = shard_id
                led = obs.get_ledger()
                if led.enabled:
                    # Ship everything this worker recorded; the parent
                    # re-emits it so `--ledger-out` yields one NDJSON
                    # stream attributable by request_id and shard_id.
                    final["ledger_events"] = [
                        {"type": ev.type, "t": ev.t, "fields": dict(ev.fields)}
                        for ev in led.events()
                    ]
                with send_lock:
                    try:
                        conn.send(
                            {"id": shutdown_id, "status": 200, "doc": final}
                        )
                    except (BrokenPipeError, OSError):
                        pass
                break
            pool.submit(answer, msg)
    finally:
        pool.shutdown(wait=False)
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class ShardHandle:
    """Parent-side endpoint of one worker process.

    Owns the pipe, the pending-future table, and the reader thread that
    resolves futures as the worker answers.  ``max_inflight`` is this
    shard's admission bound — :meth:`submit` past it raises
    :class:`~repro.errors.ServiceOverloaded`, which the HTTP layer turns
    into 429 + ``Retry-After`` for *this* shard's keyspace only.
    """

    def __init__(self, shard_id: int, proc, conn, max_inflight: int) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.shard_id = shard_id
        self.proc = proc
        self._conn = conn
        self._max_inflight = int(max_inflight)
        self._pending: Dict[int, "Future[Tuple[int, Dict[str, Any]]]"] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self._requests = 0
        self._reader: Optional[threading.Thread] = None

    def start_reader(self) -> None:
        """Start resolving responses (separate from ``__init__`` so every
        worker forks before any parent thread exists — threads held at
        fork time are a classic child-deadlock source)."""
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-shard{self.shard_id}-reader",
            daemon=True,
        )
        self._reader.start()

    # -- properties ----------------------------------------------------
    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def requests(self) -> int:
        with self._lock:
            return self._requests

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    # -- request path --------------------------------------------------
    def submit(
        self, method: str, kwargs: Optional[Mapping[str, Any]] = None
    ) -> "Future[Tuple[int, Dict[str, Any]]]":
        """Send one request; the future resolves to ``(status, doc)``.

        The ambient request id (when the caller runs inside a
        :func:`repro.obs.request_context` scope) rides along in the pipe
        message, crossing the process boundary with the work.
        """
        future: "Future[Tuple[int, Dict[str, Any]]]" = Future()
        request_id = obs.current_request_id()
        with self._lock:
            if self._closed or not self.proc.is_alive():
                raise ServiceOverloaded(
                    f"shard {self.shard_id} is not accepting requests"
                )
            if (method not in _CONTROL_METHODS
                    and len(self._pending) >= self._max_inflight):
                obs.counter("service.shard_rejected")
                raise ServiceOverloaded(
                    f"shard {self.shard_id} at capacity "
                    f"({self._max_inflight} requests in flight)"
                )
            self._next_id += 1
            msg_id = self._next_id
            self._pending[msg_id] = future
            self._requests += 1
            msg: Dict[str, Any] = {
                "id": msg_id, "method": method, "kwargs": dict(kwargs or {}),
            }
            if request_id is not None:
                msg["request_id"] = request_id
            try:
                self._conn.send(msg)
            except (BrokenPipeError, OSError):
                del self._pending[msg_id]
                raise ServiceOverloaded(
                    f"shard {self.shard_id} pipe is closed"
                ) from None
        obs.counter("service.shard_requests")
        return future

    def _read_loop(self) -> None:
        while True:
            try:
                msg = self._conn.recv()
            except (EOFError, OSError):
                break
            self._resolve(msg)
        self._fail_pending(f"shard {self.shard_id} exited")

    def _resolve(self, msg: Any) -> None:
        if not isinstance(msg, dict):
            return
        with self._lock:
            future = self._pending.pop(msg.get("id"), None)
        if future is not None:
            future.set_result(
                (int(msg.get("status", 500)), msg.get("doc") or {})
            )

    def _fail_pending(self, reason: str) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            try:
                future.set_exception(ServiceOverloaded(reason))
            except Exception:
                pass

    # -- lifecycle -----------------------------------------------------
    def drain(self, timeout: float = 30.0) -> Optional[Dict[str, Any]]:
        """Stop admission, wait out in-flight work, stop the worker.

        Returns the worker's final metrics document when it answered the
        shutdown handshake in time, else ``None`` (the worker is then
        killed rather than waited on forever).
        """
        with self._lock:
            if self._closed:
                return None
            self._closed = True
        deadline = time.monotonic() + timeout
        while self.inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        final: Optional[Dict[str, Any]] = None
        try:
            ack: "Future[Tuple[int, Dict[str, Any]]]" = Future()
            with self._lock:
                self._next_id += 1
                self._pending[self._next_id] = ack
                self._conn.send({"id": self._next_id, "method": "shutdown"})
            _, final = ack.result(timeout=max(0.1, deadline - time.monotonic()))
        except Exception:
            final = None
        self.proc.join(timeout=max(0.1, deadline - time.monotonic()))
        if self.proc.is_alive():
            self.proc.kill()  # the worker ignores SIGTERM
            self.proc.join(timeout=1.0)
        try:
            self._conn.close()
        except OSError:
            pass
        self._fail_pending(f"shard {self.shard_id} shut down")
        return final


class ShardPool:
    """N planning shards behind a consistent-hash ring.

    Implements the same backend surface the asyncio front-end drives for
    a single in-process service — ``submit_request`` / ``metrics`` /
    ``healthz`` / ``cache_stats`` / ``warm`` / ``drain`` — so serving
    code never branches on the deployment shape.

    Parameters
    ----------
    traces:
        Named traces every shard hosts (and the parent routes by).
    shards:
        Worker-process count (``>= 1``).
    cache_kwargs:
        Forwarded to each shard's :class:`~repro.service.cache.PlanCache`;
        pass the same ``disk_dir`` to share the persistent tier.
    service_kwargs:
        Forwarded to each shard's :class:`PlanningService` (workers,
        max_queue, timeout).
    max_inflight:
        Per-shard in-flight request bound (HTTP 429 past it).
    request_threads:
        Per-shard executor width for concurrent requests.
    start_method:
        ``multiprocessing`` start method override (default: the
        :func:`repro.parallel.mp_context` preference — fork where
        available).
    """

    def __init__(
        self,
        traces: Mapping[str, ContactTrace],
        shards: int,
        *,
        cache_kwargs: Optional[Mapping[str, Any]] = None,
        service_kwargs: Optional[Mapping[str, Any]] = None,
        max_inflight: int = 64,
        request_threads: int = 8,
        replicas: int = 64,
        start_method: Optional[str] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._traces = dict(traces)
        self.ring = HashRing(shards, replicas=replicas)
        self._started = time.time()
        ctx = mp_context(start_method)
        cache_kwargs = dict(cache_kwargs or {})
        service_kwargs = dict(service_kwargs or {})
        # Final metrics docs from drained shards: merged into the pool
        # aggregate so /metrics counters stay cumulative across restarts
        # instead of silently resetting when a worker leaves.
        self._retired: List[Dict[str, Any]] = []
        self._retired_lock = threading.Lock()
        ledger_enabled = obs.get_ledger().enabled
        handles: List[ShardHandle] = []
        for shard_id in range(shards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_shard_main,
                args=(shard_id, child_conn, self._traces, cache_kwargs,
                      service_kwargs, request_threads, ledger_enabled),
                name=f"repro-shard-{shard_id}",
                daemon=True,
            )
            proc.start()
            child_conn.close()  # the child's end lives in the child now
            handles.append(
                ShardHandle(shard_id, proc, parent_conn, max_inflight)
            )
        # Readers start only after every fork (see ShardHandle.start_reader).
        for handle in handles:
            handle.start_reader()
        self.handles = handles
        led = obs.get_ledger()
        if led.enabled:
            for handle in handles:
                led.emit(obs.EV_SHARD_STARTED, shard_id=handle.shard_id,
                         pid=handle.proc.pid)

    # -- routing -------------------------------------------------------
    @property
    def shards(self) -> int:
        return self.ring.shards

    def trace_names(self) -> List[str]:
        return sorted(self._traces)

    def routing(self, method: str, kwargs: Mapping[str, Any]) -> str:
        """The content address ``(method, kwargs)`` routes by.

        Raises :class:`KeyError` for an unknown trace name — caught at
        the front-end and mapped to 404 without a worker round-trip.
        """
        trace = resolve_trace(self._traces, kwargs.get("trace"))
        return routing_key(trace, method, kwargs)

    def shard_for(self, method: str, kwargs: Mapping[str, Any]) -> int:
        return self.ring.shard_for(self.routing(method, kwargs))

    # -- request path --------------------------------------------------
    def submit_request(
        self,
        method: str,
        kwargs: Mapping[str, Any],
        key: Optional[str] = None,
    ) -> Tuple[int, "Future[Tuple[int, Dict[str, Any]]]"]:
        """Route one parsed request and dispatch it to its owner shard.

        ``key`` skips recomputing the routing address when the caller
        already derived it (the front-end computes it once for its edge
        cache).  Returns ``(shard_id, future)``.
        """
        if key is None:
            key = self.routing(method, kwargs)
        shard_id = self.ring.shard_for(key)
        return shard_id, self.handles[shard_id].submit(method, kwargs)

    # -- control plane -------------------------------------------------
    def _broadcast(
        self, method: str, kwargs: Optional[Mapping[str, Any]] = None,
        timeout: float = 10.0,
    ) -> List[Optional[Dict[str, Any]]]:
        futures = []
        for handle in self.handles:
            try:
                futures.append(handle.submit(method, kwargs))
            except ServiceOverloaded:
                futures.append(None)
        docs: List[Optional[Dict[str, Any]]] = []
        for future in futures:
            if future is None:
                docs.append(None)
                continue
            try:
                _, doc = future.result(timeout=timeout)
                docs.append(doc)
            except Exception:
                docs.append(None)
        return docs

    def metrics(self) -> Dict[str, Any]:
        """Pool-wide metrics: per-shard service docs + parent-side state.

        Each live shard contributes its full single-process metrics
        document (cache, batcher, latency histograms) plus the parent's
        view of it (in-flight window, total routed requests) — the
        per-shard queue depths ``GET /metrics`` promises.
        """
        shard_docs = self._broadcast("metrics")
        shards = []
        for handle, doc in zip(self.handles, shard_docs):
            entry: Dict[str, Any] = {
                "shard": handle.shard_id,
                "alive": handle.alive,
                "inflight": handle.inflight,
                "routed_requests": handle.requests,
            }
            if doc is not None:
                entry["service"] = doc
                batcher = doc.get("batcher") or {}
                entry["queue_depth"] = batcher.get("queue_depth")
            shards.append(entry)
        with self._retired_lock:
            retired = list(self._retired)
        # Cumulative pool view: live shard docs plus everything drained
        # shards reported in their final handshake, so counters and
        # histograms survive worker exits instead of dropping to zero.
        contributing = [d for d in shard_docs if d] + retired
        telemetry = MetricsRegistry.merge_docs(
            [d.get("telemetry") or {} for d in contributing]
        )
        totals = {
            "requests": sum(int(d.get("requests", 0)) for d in contributing),
            "errors": sum(int(d.get("errors", 0)) for d in contributing),
            "retired_shards": len(retired),
        }
        return {
            "mode": "sharded",
            "uptime_seconds": time.time() - self._started,
            "shards": shards,
            "requests": sum(h.requests for h in self.handles),
            "traces": self.trace_names(),
            "telemetry": telemetry,
            "totals": totals,
        }

    def healthz(self) -> Dict[str, Any]:
        alive = sum(1 for h in self.handles if h.alive)
        return {
            "status": "ok" if alive == len(self.handles) else "degraded",
            "uptime_seconds": time.time() - self._started,
            "shards": len(self.handles),
            "shards_alive": alive,
            "inflight": [h.inflight for h in self.handles],
            "traces": self.trace_names(),
        }

    def cache_stats(self) -> Dict[str, Any]:
        return {
            "shards": self._broadcast("cache_stats"),
        }

    def warm(self, configs: Iterable[Mapping[str, Any]]) -> Dict[str, int]:
        """Replay warm-up configs, each on the shard that will own it.

        Partitioning by routing key is the point: warming shard 0 with a
        config shard 3 serves would prime the wrong memory tier (only the
        shared disk tier would benefit).  Unroutable configs (stale trace
        names, arguments routing cannot read) count as failed, matching
        :meth:`PlanningService.warm`'s never-abort contract.
        """
        per_shard: List[List[Mapping[str, Any]]] = [
            [] for _ in self.handles
        ]
        failed = 0
        for config in configs:
            body = dict(config)
            path = "/plan_many" if body.get("op") == "plan_many" else "/plan"
            try:
                # routed as the live request will be: parsed first, so
                # nested scheduler_kwargs key like the served plan
                method, kwargs = parse_plan_request(
                    path, {k: v for k, v in body.items() if k != "op"}
                )
                per_shard[self.shard_for(method, kwargs)].append(body)
            except Exception:
                failed += 1
        futures = []
        for handle, subset in zip(self.handles, per_shard):
            if subset:
                futures.append(handle.submit("warm", {"configs": subset}))
        warmed = 0
        for future in futures:
            try:
                _, doc = future.result()
                warmed += int(doc.get("warmed", 0))
                failed += int(doc.get("failed", 0))
            except Exception:
                failed += 1
        return {"warmed": warmed, "failed": failed}

    # -- lifecycle -----------------------------------------------------
    def drain(self, timeout: float = 30.0) -> List[Optional[Dict[str, Any]]]:
        """Gracefully stop every shard; returns their final metrics docs.

        Each worker's final handshake is folded into the pool's retained
        aggregate (counters and telemetry stay cumulative in
        :meth:`metrics`), and any ledger events the worker recorded are
        re-emitted into the parent ledger — already tagged with their
        ``shard_id`` and originating ``request_id`` — so one
        ``--ledger-out`` file tells the whole pool's story.
        """
        finals = [h.drain(timeout=timeout) for h in self.handles]
        led = obs.get_ledger()
        for handle, final in zip(self.handles, finals):
            if final is None:
                continue
            shipped = final.pop("ledger_events", None) or []
            if led.enabled:
                for ev in shipped:
                    led.emit(
                        str(ev.get("type", "unknown")),
                        t=ev.get("t"),
                        **dict(ev.get("fields") or {}),
                    )
            with self._retired_lock:
                self._retired.append(final)
        if led.enabled:
            for handle, final in zip(self.handles, finals):
                led.emit(
                    obs.EV_SHARD_EXITED, shard_id=handle.shard_id,
                    pid=handle.proc.pid,
                    requests=(final or {}).get("requests"),
                    clean=final is not None,
                )
        return finals

    def close(self) -> None:
        self.drain(timeout=5.0)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
