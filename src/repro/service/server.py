"""Embeddable planning service and the request rules its front-end shares.

:class:`PlanningService` composes the pieces of this package into one
object an application (or the HTTP front-end in
:mod:`repro.service.asgi`) drives:

* a set of **named contact traces** it plans against, each request
  through :func:`repro.api.plan_broadcast` on the hosted trace — so a
  served plan's key is the one the library gives the same call;
* a :class:`~repro.service.cache.PlanCache` answering repeated problems
  without recomputation, and sharing one live TVEG between the plans on
  one instance;
* a :class:`~repro.service.batcher.Batcher` deduping and amortizing what
  the cache misses.

The module-level functions hold the service's HTTP semantics without any
transport: :func:`parse_plan_request` validates a ``/plan`` or
``/plan_many`` body, :func:`resolve_trace` finds the hosted trace it
names, :func:`exception_status` maps a planning exception to a status
code, and :func:`execute_request` folds one parsed request into
``(status, doc)``.  The front-end, its in-process
:class:`~repro.service.asgi.LocalBackend` and the shard workers all call
them, so every deployment shape judges a request the same way.

Admission control surfaces as status codes: a full request queue is **429**
with a ``Retry-After`` header, a request that waited past the per-request
timeout is **504** (the computation keeps running and lands in the cache,
so the retry is usually a hit), an infeasible instance is **422**, and
malformed input is **400** — the server never turns a bad request into a
stack trace.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..api import (
    BroadcastPlan,
    BroadcastPlanSet,
    _check_deadline,
    plan_broadcast,
    plan_broadcast_many,
    plan_cache_key,
)
from ..errors import (
    InfeasibleError,
    NativeBuildError,
    ReproError,
    ServiceOverloaded,
)
from ..obs.histogram import MetricsRegistry
from ..schedule.io import plan_to_doc, planset_to_doc
from ..traces.model import ContactTrace
from .batcher import Batcher
from .cache import PlanCache

__all__ = [
    "PlanResponse",
    "PlanSetResponse",
    "PlanningService",
    "exception_status",
    "execute_request",
    "parse_plan_request",
    "read_warm_file",
    "resolve_trace",
]


@dataclass(frozen=True)
class PlanResponse:
    """One :meth:`PlanningService.plan` outcome.

    ``cached`` reports whether the key was already present *before* this
    request ran (a peek, so duplicate concurrent misses all honestly say
    ``False`` even though only one of them computes).
    """

    plan: BroadcastPlan
    key: str
    cached: bool
    wall_seconds: float

    def as_doc(self) -> Dict[str, Any]:
        """The JSON document ``POST /plan`` responds with."""
        return {
            "key": self.key,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
            "plan": plan_to_doc(self.plan),
        }


@dataclass(frozen=True)
class PlanSetResponse:
    """One :meth:`PlanningService.plan_many` outcome.

    ``keys`` and ``cached`` run parallel to ``planset`` in request order;
    each ``cached`` flag is the same pre-run peek :class:`PlanResponse`
    reports for single plans.
    """

    planset: BroadcastPlanSet
    keys: Tuple[str, ...]
    cached: Tuple[bool, ...]
    wall_seconds: float

    def as_doc(self) -> Dict[str, Any]:
        """The JSON document ``POST /plan_many`` responds with."""
        return {
            "keys": list(self.keys),
            "cached": list(self.cached),
            "wall_seconds": self.wall_seconds,
            "planset": planset_to_doc(self.planset),
        }


#: request-body fields POST /plan forwards to PlanningService.plan
_PLAN_FIELDS = (
    "trace", "deadline", "source", "algorithm", "channel", "window", "seed",
    "timeout",
)

#: request-body fields POST /plan_many forwards to PlanningService.plan_many
_PLAN_MANY_FIELDS = (
    "trace", "deadlines", "sources", "algorithm", "channel", "window",
    "seed",
)


def parse_plan_request(path: str, body: Any) -> Tuple[str, Dict[str, Any]]:
    """Validate a ``/plan`` or ``/plan_many`` JSON body.

    Returns ``(method_name, kwargs)`` where ``method_name`` is the
    :class:`PlanningService` method to call (``"plan"`` / ``"plan_many"``)
    and ``kwargs`` are its keyword arguments with ``scheduler_kwargs``
    already merged in.  The front-end parses every request through this,
    and ``--warm`` files are checked with it at boot, so a request is
    judged by exactly one set of rules whichever backend serves it.

    Raises :class:`ValueError` with a client-facing message (HTTP 400) on
    malformed input, and :class:`KeyError` for an unknown endpoint path.
    """
    if path == "/plan":
        fields, required, method = _PLAN_FIELDS, "deadline", "plan"
    elif path == "/plan_many":
        fields, required, method = _PLAN_MANY_FIELDS, "sources", "plan_many"
    else:
        raise KeyError(f"no such endpoint: {path}")
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    if required not in body:
        raise ValueError(f'missing required field "{required}"')
    extra = body.get("scheduler_kwargs", {})
    if not isinstance(extra, dict):
        raise ValueError('"scheduler_kwargs" must be an object')
    unknown = set(body) - set(fields) - {"scheduler_kwargs"}
    if unknown:
        raise ValueError(f"unknown fields: {', '.join(sorted(unknown))}")
    kwargs = {k: body[k] for k in fields if k in body}
    window = kwargs.get("window")
    if isinstance(window, list):
        kwargs["window"] = tuple(window)
    overlap = set(kwargs) & set(extra)
    if overlap:
        raise ValueError(
            f"scheduler_kwargs shadow request fields: "
            f"{', '.join(sorted(overlap))}"
        )
    kwargs.update(extra)
    return method, kwargs


def resolve_trace(
    traces: Mapping[str, ContactTrace], name: Optional[str]
) -> ContactTrace:
    """The hosted trace a request's ``trace`` field names.

    ``None`` means the only hosted trace.  Raises :class:`KeyError` (HTTP
    404) for an unknown name, or for no name while several are hosted.
    The service, its in-process backend and the shard pool's router all
    resolve through this, so they agree on what a name means.
    """
    if name is None:
        if len(traces) == 1:
            return next(iter(traces.values()))
        raise KeyError(
            "request names no trace and the service hosts "
            f"{len(traces)} — pass \"trace\""
        )
    try:
        return traces[name]
    except KeyError:
        raise KeyError(
            f"unknown trace {name!r}; hosted: "
            f"{', '.join(sorted(traces)) or '(none)'}"
        ) from None


def exception_status(exc: BaseException) -> Tuple[int, str, Optional[float]]:
    """Map a planning exception to ``(http_status, message, retry_after)``.

    The one place HTTP semantics are decided: the front-end (for failures
    while parsing, routing and admitting a request) and
    :func:`execute_request` (for failures while planning it, in process or
    in a shard worker, which ships the mapping across the process boundary
    as plain data) both call this, so a given failure produces the same
    status code everywhere.
    """
    if isinstance(exc, KeyError):
        return 404, str(exc.args[0] if exc.args else exc), None
    if isinstance(exc, ServiceOverloaded):
        return 429, str(exc), exc.retry_after
    if isinstance(exc, TimeoutError):
        return (
            504,
            "request timed out; the plan is still being computed — "
            "retrying will likely hit the cache",
            1.0,
        )
    if isinstance(exc, InfeasibleError):
        return 422, str(exc), None
    if isinstance(exc, NativeBuildError):
        return 500, str(exc), None  # the server's fault, not the request's
    if isinstance(exc, (ReproError, TypeError, ValueError)):
        return 400, str(exc), None
    raise exc  # genuinely unexpected: let it surface as a bug


def execute_request(
    service: "PlanningService", method: str, kwargs: Mapping[str, Any]
) -> Tuple[int, Dict[str, Any]]:
    """Run one parsed request and fold the outcome into ``(status, doc)``.

    The shard workers and the asyncio front-end's in-process backend both
    serve through this, so an HTTP response is decided by exactly one code
    path whether the service lives in this process or across a pipe —
    failures travel as plain ``{"error": ..., "retry_after": ...}`` data
    that any transport can carry.  Exceptions :func:`exception_status`
    refuses to map (genuine bugs) come back as 500 rather than killing a
    worker loop.
    """
    try:
        response = getattr(service, method)(**kwargs)
    except Exception as exc:
        try:
            status, message, retry_after = exception_status(exc)
        except BaseException:
            status, message, retry_after = (
                500, f"internal error: {type(exc).__name__}: {exc}", None
            )
        doc: Dict[str, Any] = {"error": message}
        if retry_after is not None:
            doc["retry_after"] = retry_after
        return status, doc
    t0 = time.perf_counter()
    doc = response.as_doc()
    service.telemetry.observe("stage.serialize", time.perf_counter() - t0)
    return 200, doc


def read_warm_file(path: str) -> List[Dict[str, Any]]:
    """Parse a ``--warm`` file: a JSON array of request bodies.

    Each entry is a ``POST /plan`` body (``deadline`` required), optionally
    carrying ``"op": "plan_many"`` to warm through the batch API instead.
    Entries are validated through :func:`parse_plan_request` up front so a
    typo fails at boot, not silently mid-warm-up.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, list):
        raise ValueError(f"{path}: a warm file is a JSON array of "
                         "request bodies")
    configs: List[Dict[str, Any]] = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}[{i}]: each warm entry is an object")
        entry = dict(entry)
        op = entry.pop("op", "plan")
        if op not in ("plan", "plan_many"):
            raise ValueError(f"{path}[{i}]: unknown op {op!r}")
        parse_plan_request(
            "/plan" if op == "plan" else "/plan_many", entry
        )
        entry["op"] = op
        configs.append(entry)
    return configs


def _check_timeout(timeout: Any) -> float:
    """``timeout`` as seconds a result wait accepts, else :class:`ValueError`.

    NaN, negative and infinite waits (JSON ``1e309``) would otherwise fail
    only after the plan is submitted — as a bogus 504, or an
    ``OverflowError`` from the lock wait past ``threading.TIMEOUT_MAX``.
    """
    if not (isinstance(timeout, (int, float))
            and 0 < timeout <= threading.TIMEOUT_MAX):
        raise ValueError(
            "timeout must be a positive finite number of seconds (at most "
            f"{threading.TIMEOUT_MAX:g}), got {timeout!r}"
        )
    return float(timeout)


def check_max_inflight(max_inflight: int) -> None:
    """Raise :class:`ValueError` unless the front ends take it."""
    if max_inflight < 1:
        raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")


class PlanningService:
    """Cache- and queue-backed broadcast planning over named traces.

    Parameters
    ----------
    traces:
        Mapping of name → :class:`~repro.traces.model.ContactTrace`
        (one loaded from a ``.ctrace`` file carries its fingerprint, so
        its cache keys cost O(1)).  The names are what ``POST /plan`` requests reference.
        More can be registered later with :meth:`add_trace`.
    cache:
        Plan cache to consult/populate; defaults to a fresh in-memory
        :class:`PlanCache`.
    batcher:
        Request queue; defaults to a fresh :class:`Batcher` built from
        ``workers`` / ``max_queue``.
    timeout:
        Default seconds a :meth:`plan` call waits for its queued result
        before raising :class:`TimeoutError` (HTTP 504).
    """

    def __init__(
        self,
        traces: Optional[Mapping[str, ContactTrace]] = None,
        *,
        cache: Optional[PlanCache] = None,
        batcher: Optional[Batcher] = None,
        workers: Optional[int] = None,
        max_queue: int = 256,
        timeout: float = 30.0,
    ) -> None:
        timeout = _check_timeout(timeout)
        self._traces: Dict[str, ContactTrace] = dict(traces or {})
        self._cache = cache if cache is not None else PlanCache()
        # Streaming request telemetry: per-stage and per-endpoint latency
        # histograms plus outcome counters, mergeable across shard
        # processes and rendered by both /metrics representations.
        self.telemetry = MetricsRegistry()
        self._batcher = batcher if batcher is not None else Batcher(
            workers=workers, max_queue=max_queue, metrics=self.telemetry,
        )
        self._timeout = timeout
        self._lock = threading.Lock()
        self._started = time.time()
        self._requests = 0
        self._errors = 0

    # ------------------------------------------------------------------
    @property
    def cache(self) -> PlanCache:
        return self._cache

    @property
    def batcher(self) -> Batcher:
        return self._batcher

    def trace_names(self) -> List[str]:
        with self._lock:
            return sorted(self._traces)

    def add_trace(self, name: str, trace: ContactTrace) -> None:
        """Register (or replace) a named trace."""
        with self._lock:
            self._traces[name] = trace

    def hosted_trace(self, name: Optional[str]) -> ContactTrace:
        """The hosted trace ``name`` names (see :func:`resolve_trace`)."""
        with self._lock:
            return resolve_trace(self._traces, name)

    def close(self) -> None:
        """Shut the batcher down; in-flight requests finish first."""
        self._batcher.close()

    def __enter__(self) -> "PlanningService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def plan(
        self,
        trace: Optional[str] = None,
        deadline: float = 2000.0,
        *,
        source=None,
        algorithm: str = "eedcb",
        channel: str = "static",
        window=None,
        seed=None,
        timeout: Optional[float] = None,
        **scheduler_kwargs,
    ) -> PlanResponse:
        """Plan one broadcast through the cache and the request queue.

        The request queue runs :func:`repro.plan_broadcast` on the hosted
        trace, so the response ``key`` — the plan's
        ``manifest["config_hash"]`` — is :func:`repro.api.plan_cache_key`
        of the same arguments.

        Raises :class:`KeyError` for an unknown trace name,
        :class:`ValueError` for a ``timeout`` that is not a positive
        finite number of seconds (before anything is submitted),
        :class:`~repro.errors.ServiceOverloaded` when admission control
        turns the request away, :class:`TimeoutError` when the result
        doesn't arrive within ``timeout`` seconds (the computation still
        completes and populates the cache), and whatever the planner
        itself raises (e.g. :class:`~repro.errors.InfeasibleError`).
        """
        t0 = time.perf_counter()
        with self._lock:
            self._requests += 1
        try:
            timeout = (
                self._timeout if timeout is None else _check_timeout(timeout)
            )
            args = (self.hosted_trace(trace), source, deadline)
            kw = dict(algorithm=algorithm, channel=channel, window=window,
                      seed=seed, **scheduler_kwargs)
            key = plan_cache_key(*args, **kw)
            cached = key in self._cache
            future = self._batcher.submit(
                key, lambda: plan_broadcast(*args, cache=self._cache, **kw)
            )
            plan = future.result(timeout=timeout)
        except BaseException:
            with self._lock:
                self._errors += 1
            self.telemetry.inc("service.plan_errors")
            raise
        wall = time.perf_counter() - t0
        self.telemetry.observe("request.plan", wall)
        return PlanResponse(plan=plan, key=key, cached=cached,
                            wall_seconds=wall)

    def plan_many(
        self,
        trace: Optional[str] = None,
        deadlines=2000.0,
        *,
        sources,
        algorithm: str = "eedcb",
        channel: str = "static",
        window=None,
        seed=None,
        **scheduler_kwargs,
    ) -> PlanSetResponse:
        """Plan a batch of broadcasts over one shared instance.

        ``sources`` is the per-request source list (``None`` entries
        auto-pick); ``deadlines`` is a scalar applied to every request or
        a sequence running parallel to ``sources``.  Each request keys the
        plan cache exactly as the equivalent :meth:`plan` call would, so
        batch and single requests share hits both ways.

        The batch runs inline through one :func:`repro.plan_broadcast_many`
        call rather than the request queue: the point of the batch API is
        amortizing graph construction across the member requests, which a
        per-request queue would undo.  Deduplication against concurrent
        single requests still happens at the plan cache.
        """
        t0 = time.perf_counter()
        src_list = list(sources)
        if isinstance(deadlines, (int, float)):
            dl_list = [float(deadlines)] * len(src_list)
        else:
            dl_list = [float(d) for d in deadlines]
            if len(dl_list) != len(src_list):
                raise ValueError(
                    f"plan_many got {len(src_list)} source(s) but "
                    f"{len(dl_list)} deadline(s)"
                )
        if not src_list:
            raise ValueError("plan_many needs at least one source")
        with self._lock:
            self._requests += len(src_list)
        try:
            base = self.hosted_trace(trace)
            for d in dl_list:  # before the windows, which deadlines size
                _check_deadline(d)
            kw = dict(algorithm=algorithm, channel=channel, window=window,
                      seed=seed, **scheduler_kwargs)
            keys = tuple(
                plan_cache_key(base, s, d, **kw)
                for s, d in zip(src_list, dl_list)
            )
            cached = tuple(key in self._cache for key in keys)
            planset = plan_broadcast_many(
                base, src_list, dl_list, cache=self._cache, **kw
            )
        except BaseException:
            with self._lock:
                self._errors += 1
            self.telemetry.inc("service.plan_many_errors")
            raise
        wall = time.perf_counter() - t0
        self.telemetry.observe("request.plan_many", wall)
        return PlanSetResponse(
            planset=planset, keys=keys, cached=cached, wall_seconds=wall,
        )

    def warm(self, configs: Iterable[Mapping[str, Any]]) -> Dict[str, int]:
        """Replay a list of request bodies to prime the plan cache.

        Each config is a ``POST /plan`` body (optionally ``"op":
        "plan_many"``) as produced by :func:`read_warm_file`.  A config
        whose trace is unknown or whose instance is infeasible counts as
        failed rather than aborting the warm-up — a stale warm file must
        never prevent the service from booting.  Returns
        ``{"warmed": n, "failed": n}``.
        """
        warmed = failed = 0
        for config in configs:
            body = dict(config)
            op = body.pop("op", "plan")
            try:
                method, kwargs = parse_plan_request(
                    "/plan" if op == "plan" else "/plan_many", body
                )
                getattr(self, method)(**kwargs)
                warmed += 1
            except Exception:
                failed += 1
        return {"warmed": warmed, "failed": failed}

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        """Everything ``GET /metrics`` serves, one JSON-ready document."""
        with self._lock:
            requests, errors = self._requests, self._errors
            traces = sorted(self._traces)
        return {
            "uptime_seconds": time.time() - self._started,
            "requests": requests,
            "errors": errors,
            "traces": traces,
            "shared_tvegs": self._cache.shared_tvegs,
            "cache": self._cache.stats(),
            "batcher": self._batcher.stats(),
            "telemetry": self.telemetry.as_doc(),
        }

    def healthz(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self._started,
            "queue_depth": self._batcher.queue_depth,
            "traces": self.trace_names(),
        }
