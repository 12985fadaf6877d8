"""Single-flight scheduling queue: one compute per plan key, a worker pool.

Serving traffic one request at a time repeats the work the planner is
built to do *once*: the auxiliary-graph build and the per-node contact
components and cost sets it derives.  Concurrent
requests against the same TVEG share those through the graph's component
and cost caches — but only if they run in one process against one TVEG object, and
only the *first* of K identical requests needs to run at all.

:class:`Batcher` provides both:

* requests enqueue as ``(key, compute)`` pairs and return a
  :class:`concurrent.futures.Future`;
* ``submit`` is single-flight: a request whose content-address key is
  already queued or computing joins that job's future instead of
  queueing, so duplicates share one compute for its whole run and every
  queued job is unique;
* ``workers`` daemon threads each pop the next queued job and run it, so
  a job starts as soon as any worker is free (threads, not processes, so
  every job shares the live TVEG caches, plan cache, and obs state).
  K identical requests therefore perform exactly one auxiliary-graph
  build — the property the service smoke test asserts via the
  ``auxgraph.numpy_builds`` counter.

A job leaves the single-flight table before its future resolves, so a
duplicate submitted after the result is out computes afresh.

Admission control is the queue bound: ``submit`` on a full queue raises
:class:`~repro.errors.ServiceOverloaded` immediately (the HTTP layer maps
it to 429 + ``Retry-After``) instead of letting latency grow without
bound; a request that joins a job takes no queue slot.  Every compute
emits an :data:`~repro.obs.EV_BATCH_FLUSHED` event and ``service.*``
counters.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from .. import obs
from ..errors import ServiceOverloaded
from ..obs.histogram import MetricsRegistry
from ..parallel import resolve_workers

__all__ = ["Batcher", "BatcherStats"]


@dataclass
class BatcherStats:
    """Counters one :class:`Batcher` accumulated since construction."""

    submitted: int = 0
    rejected: int = 0
    executed: int = 0
    deduped: int = 0
    failures: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class _Job:
    key: str
    compute: Callable[[], Any]
    future: "Future[Any]"
    # Trace context travels with the job, not the thread: the leader's
    # request id re-enters scope on the worker so the compute's ledger
    # events stay attributable, and the enqueue timestamp feeds the
    # queue-wait histogram.  ``request_ids`` lists every request the
    # compute serves, leader first (``None`` outside any request scope).
    request_ids: List[Optional[str]]
    enqueued_at: float


class Batcher:
    """A bounded single-flight request queue with a worker pool.

    Parameters
    ----------
    workers:
        Threads computing distinct jobs at once (normalized by
        :func:`repro.parallel.resolve_workers`; the GIL serializes
        pure-Python scheduling work, so the pool mainly overlaps distinct
        jobs' I/O and native searches — the real wins are dedupe and the
        shared caches).
    max_queue:
        Admission bound on queued (unique) jobs; ``submit`` past it raises
        :class:`~repro.errors.ServiceOverloaded`.  ``0`` means unbounded.
    metrics:
        Optional :class:`~repro.obs.histogram.MetricsRegistry` receiving
        the ``stage.queue_wait`` / ``stage.compute`` histograms (a
        private registry when omitted).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_queue: int = 256,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self._workers = resolve_workers(workers)
        self._max_queue = int(max_queue)
        # One lock guards the queue, the single-flight table, the stats
        # and the closed flag; idle workers sleep on its condition.
        self._cond = threading.Condition()
        self._queue: Deque[_Job] = collections.deque()
        #: key -> the job queued or computing for it
        self._inflight: Dict[str, _Job] = {}
        self._stats = BatcherStats()
        self._closed = False
        # Stage-latency sink (queue_wait / compute); the owning
        # PlanningService passes its registry so all stages land in one
        # mergeable document.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        # Daemon threads, unlike a ThreadPoolExecutor's: a wedged compute
        # must not hold the interpreter open after close() gave up on it.
        self._threads = [
            threading.Thread(target=self._run, name=f"repro-batcher-{i}",
                             daemon=True)
            for i in range(self._workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting for a worker (approximate by nature)."""
        return len(self._queue)

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            doc = self._stats.as_dict()
        doc["queue_depth"] = self.queue_depth
        doc["workers"] = self._workers
        doc["max_queue"] = self._max_queue
        return doc

    def submit(self, key: str, compute: Callable[[], Any]) -> "Future[Any]":
        """Enqueue one request; the future resolves to ``compute()``'s
        result (or its exception), shared with every duplicate of ``key``
        submitted while that compute is queued or running.

        Raises :class:`~repro.errors.ServiceOverloaded` when the queue is
        at its admission bound, and after :meth:`close`.
        """
        request_id = obs.current_request_id()
        with self._cond:
            if self._closed:
                raise ServiceOverloaded("planning service is shutting down")
            job = self._inflight.get(key)
            if job is not None:
                job.request_ids.append(request_id)
                self._stats.submitted += 1
                self._stats.deduped += 1
                return job.future
            depth = len(self._queue)
            if not self._max_queue or depth < self._max_queue:
                job = _Job(key, compute, Future(), [request_id],
                           time.monotonic())
                self._queue.append(job)
                self._inflight[key] = job
                self._stats.submitted += 1
                self._cond.notify()
                return job.future
            self._stats.rejected += 1
        obs.counter("service.request_rejected")
        led = obs.get_ledger()
        if led.enabled:
            led.emit(
                obs.EV_REQUEST_REJECTED, key=key, reason="queue_full",
                queue_depth=depth,
            )
        raise ServiceOverloaded(f"request queue full ({depth} pending)")

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting work, drain what's queued, and join the workers.

        Shutdown ordering guarantee: every future handed out by
        :meth:`submit` **resolves** — jobs the workers drain before
        exiting complete normally; anything still queued when the join
        times out (every worker is wedged in a compute) fails with
        :class:`~repro.errors.ServiceOverloaded` rather than pending
        forever.  ``timeout`` bounds the whole join, not each worker's.
        Safe to call more than once.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            thread.join(None if deadline is None
                        else max(0.0, deadline - time.monotonic()))
        with self._cond:
            pending = list(self._queue)
            self._queue.clear()
            for job in pending:
                del self._inflight[job.key]
                self._stats.rejected += len(job.request_ids)
        for job in pending:
            job.future.set_exception(ServiceOverloaded(
                "planning service shut down before this request was scheduled"
            ))
            obs.counter("service.request_rejected", len(job.request_ids))

    def __enter__(self) -> "Batcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return
                job = self._queue.popleft()
            self._execute(job)
            del job  # its future holds a plan: don't pin it while idle

    def _execute(self, job: _Job) -> None:
        started = time.monotonic()
        self._metrics.observe("stage.queue_wait", started - job.enqueued_at)
        # Re-enter the leader's request scope on this worker so the
        # compute's cache/plan events carry the originating request id.
        # Jobs submitted outside any request scope run without one — no
        # id is invented for them.
        leader = job.request_ids[0]
        ctx = (obs.request_context(leader) if leader is not None
               else nullcontext())
        error: Optional[BaseException] = None
        with ctx:
            try:
                result = job.compute()
            except BaseException as exc:  # delivered via the future
                error = exc
        self._metrics.observe("stage.compute", time.monotonic() - started)
        # Leave the single-flight table before resolving, so a duplicate
        # that sees the result can only start a new compute; the stats
        # count the compute before any caller sees its outcome.
        with self._cond:
            del self._inflight[job.key]
            self._stats.executed += 1
            self._stats.failures += error is not None
        served = len(job.request_ids)
        obs.counter("service.batched_requests", served)
        if served > 1:
            obs.counter("service.deduped_requests", served - 1)
        led = obs.get_ledger()
        if led.enabled:
            # Request attribution: the ids of every request this compute
            # served, leader first — the ledger record that lets a dedupe
            # victim find whose compute served it.
            rids = [rid for rid in job.request_ids if rid is not None]
            led.emit(
                obs.EV_BATCH_FLUSHED, size=served, deduped=served - 1,
                failures=int(error is not None),
                groups={job.key: rids} if rids else {},
            )
        if error is not None:
            job.future.set_exception(error)
        else:
            job.future.set_result(result)
