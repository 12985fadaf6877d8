"""Batched scheduling queue: group, dedupe, and amortize plan requests.

Serving traffic one request at a time repeats the work the planner is
built to do *once*: the auxiliary-graph build and the per-node contact
components and cost sets it derives.  Concurrent
requests against the same TVEG share those through the graph's component
and cost caches — but only if they run in one process against one TVEG object, and
only the *first* of K identical requests needs to run at all.

:class:`Batcher` provides both amortizations:

* requests enqueue as ``(key, compute)`` pairs and return a
  :class:`concurrent.futures.Future`;
* a flush collects everything queued (up to ``max_batch``, waiting at most
  ``max_wait`` seconds for stragglers after the first arrival), groups it
  by content-address key, and executes **one compute per unique key** on a
  bounded thread pool (:func:`repro.parallel.thread_map` — threads, not
  processes, so every job shares the live TVEG caches, plan cache, and obs
  state); duplicates get the leader's result fanned out to their futures.
  A batch of K identical requests therefore performs exactly one
  auxiliary-graph build — the property the service smoke test asserts via
  the ``auxgraph.numpy_builds`` counter.

Admission control is the queue bound: ``submit`` on a full queue raises
:class:`~repro.errors.ServiceOverloaded` immediately (the HTTP layer maps
it to 429 + ``Retry-After``) instead of letting latency grow without
bound.  Every flush emits an :data:`~repro.obs.EV_BATCH_FLUSHED` event and
``service.*`` counters.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .. import obs
from ..errors import ServiceOverloaded
from ..obs.histogram import MetricsRegistry
from ..parallel import resolve_workers, thread_map

__all__ = ["Batcher", "BatcherStats"]


@dataclass
class BatcherStats:
    """Counters one :class:`Batcher` accumulated since construction."""

    submitted: int = 0
    rejected: int = 0
    batches: int = 0
    executed: int = 0
    deduped: int = 0
    failures: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "batches": self.batches,
            "executed": self.executed,
            "deduped": self.deduped,
            "failures": self.failures,
        }


@dataclass
class _Job:
    key: str
    compute: Callable[[], Any]
    future: "Future[Any]"
    # Trace context travels with the job, not the thread: the submitter's
    # request id re-enters scope on the flush pool so the compute's ledger
    # events stay attributable, and the enqueue timestamp feeds the
    # queue-wait histogram.
    request_id: Optional[str] = None
    enqueued_at: float = 0.0


class Batcher:
    """A bounded request queue with per-batch dedupe and a worker pool.

    Parameters
    ----------
    workers:
        Thread-pool width for executing a batch's *unique* jobs
        (normalized by :func:`repro.parallel.resolve_workers`; the GIL
        serializes pure-Python scheduling work, so the pool mainly overlaps
        distinct jobs' I/O and keeps batch latency bounded — the real wins
        are dedupe and the shared caches).
    max_batch:
        Most requests drained per flush.
    max_wait:
        Seconds the flush loop lingers after the first request arrives,
        letting concurrent duplicates pile into the same batch.
    max_queue:
        Admission bound; ``submit`` past it raises
        :class:`~repro.errors.ServiceOverloaded`.  ``0`` means unbounded.
    metrics:
        Optional :class:`~repro.obs.histogram.MetricsRegistry` receiving
        the ``stage.queue_wait`` / ``stage.batch_wait`` /
        ``stage.compute`` histograms (a private registry when omitted).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        max_batch: int = 32,
        max_wait: float = 0.005,
        max_queue: int = 256,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self._workers = resolve_workers(workers)
        self._max_batch = int(max_batch)
        self._max_wait = float(max_wait)
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue(
            maxsize=int(max_queue)
        )
        self._stats = BatcherStats()
        self._stats_lock = threading.Lock()
        # Stage-latency sink (queue_wait / batch_wait / compute); the
        # owning PlanningService passes its registry so all stages land
        # in one mergeable document.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._closed = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting (approximate, by nature of queues)."""
        return self._queue.qsize()

    def stats(self) -> Dict[str, Any]:
        with self._stats_lock:
            doc = self._stats.as_dict()
        doc["queue_depth"] = self.queue_depth
        doc["workers"] = self._workers
        doc["max_batch"] = self._max_batch
        doc["max_wait"] = self._max_wait
        doc["max_queue"] = self._queue.maxsize
        return doc

    def submit(self, key: str, compute: Callable[[], Any]) -> "Future[Any]":
        """Enqueue one request; the future resolves to ``compute()``'s
        result (or its exception), shared with every concurrent duplicate
        of ``key``.

        Raises :class:`~repro.errors.ServiceOverloaded` when the queue is
        at its admission bound, and after :meth:`close`.
        """
        if self._closed.is_set():
            raise ServiceOverloaded("planning service is shutting down")
        job = _Job(
            key=key,
            compute=compute,
            future=Future(),
            request_id=obs.current_request_id(),
            enqueued_at=time.monotonic(),
        )
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._stats_lock:
                self._stats.rejected += 1
            obs.counter("service.request_rejected")
            led = obs.get_ledger()
            if led.enabled:
                led.emit(
                    obs.EV_REQUEST_REJECTED, key=key, reason="queue_full",
                    queue_depth=self.queue_depth,
                )
            raise ServiceOverloaded(
                f"batch queue full ({self._queue.maxsize} pending)"
            ) from None
        with self._stats_lock:
            self._stats.submitted += 1
        if self._closed.is_set() and not self._thread.is_alive():
            # Raced a concurrent close(): the flush loop may already be gone,
            # so nothing would ever resolve this future.  Sweep the queue —
            # the job either fails with ServiceOverloaded here or was
            # legitimately flushed first; it never hangs.
            self._fail_pending(
                "planning service shut down before this request was scheduled"
            )
        return job.future

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting work, drain what's queued, and join the thread.

        Shutdown ordering guarantee: every future handed out by
        :meth:`submit` **resolves** — jobs the flush loop drains before
        exiting complete normally; anything still queued when the loop is
        gone (including stragglers that raced a concurrent ``submit``)
        fails with :class:`~repro.errors.ServiceOverloaded` rather than
        pending forever.  Safe to call more than once.
        """
        if not self._closed.is_set():
            self._closed.set()
            try:
                self._queue.put_nowait(None)  # wake the flush loop
            except queue.Full:
                pass
        self._thread.join(timeout=timeout)
        # The flush loop drains the queue before returning; this sweep only
        # matters when the join timed out (a compute is wedged) or a submit
        # raced the shutdown — either way the futures must not hang.
        self._fail_pending("planning service shut down before this request "
                           "was scheduled")

    def __enter__(self) -> "Batcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _fail_pending(self, reason: str) -> None:
        """Drain the queue, failing every remaining job's future.

        Runs only during shutdown.  A future that resolved concurrently
        (the flush loop got there first) is left untouched.
        """
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            if job is None:
                continue
            try:
                job.future.set_exception(ServiceOverloaded(reason))
            except Exception:  # already resolved by a racing flush
                continue
            with self._stats_lock:
                self._stats.rejected += 1
            obs.counter("service.request_rejected")

    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch:
                self._flush(batch)
            elif self._closed.is_set() and self._queue.empty():
                return

    def _collect(self) -> List[_Job]:
        """Block for the first job, then linger ``max_wait`` for company."""
        try:
            first = self._queue.get(timeout=0.1)
        except queue.Empty:
            return []
        if first is None:
            return []
        batch = [first]
        deadline = time.monotonic() + self._max_wait
        while len(batch) < self._max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                job = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if job is None:
                break
            batch.append(job)
        return batch

    def _flush(self, batch: List[_Job]) -> None:
        groups: "Dict[str, List[_Job]]" = {}
        for job in batch:
            groups.setdefault(job.key, []).append(job)
        leaders = [jobs[0] for jobs in groups.values()]

        flush_started = time.monotonic()
        metrics = self._metrics
        for job in batch:
            metrics.observe("stage.queue_wait", flush_started - job.enqueued_at)

        def run(leader: _Job) -> Any:
            started = time.monotonic()
            metrics.observe("stage.batch_wait", started - flush_started)
            # Re-enter the leader's request scope on this pool thread so the
            # compute's cache/plan events carry the originating request id.
            # Jobs submitted outside any request scope run without one —
            # no id is invented for them.
            if leader.request_id is not None:
                ctx: Any = obs.request_context(leader.request_id)
            else:
                ctx = nullcontext()
            with ctx:
                try:
                    result = leader.compute()
                except BaseException as exc:  # delivered via the futures
                    metrics.observe(
                        "stage.compute", time.monotonic() - started
                    )
                    return _Failure(exc)
            metrics.observe("stage.compute", time.monotonic() - started)
            return result

        results = thread_map(run, leaders, workers=self._workers)

        failures = 0
        for leader, result in zip(leaders, results):
            for job in groups[leader.key]:
                if isinstance(result, _Failure):
                    job.future.set_exception(result.exc)
                else:
                    job.future.set_result(result)
            if isinstance(result, _Failure):
                failures += 1

        deduped = len(batch) - len(leaders)
        with self._stats_lock:
            self._stats.batches += 1
            self._stats.executed += len(leaders)
            self._stats.deduped += deduped
            self._stats.failures += failures
        obs.counter("service.batches")
        obs.counter("service.batched_requests", len(batch))
        if deduped:
            obs.counter("service.deduped_requests", deduped)
        led = obs.get_ledger()
        if led.enabled:
            # Per-group request attribution: each key maps to the ids of
            # every request that rode this flush, leader first — the ledger
            # record that lets a dedupe victim find whose compute served it.
            flush_groups = {
                key: [j.request_id for j in jobs if j.request_id is not None]
                for key, jobs in groups.items()
            }
            led.emit(
                obs.EV_BATCH_FLUSHED, size=len(batch), unique=len(leaders),
                deduped=deduped, failures=failures,
                groups={k: v for k, v in flush_groups.items() if v},
            )


@dataclass
class _Failure:
    """Wrapper distinguishing a compute's exception from a result of any
    type (including exceptions legitimately *returned*)."""

    exc: BaseException
