"""The HTTP front-end of ``repro serve``: one asyncio event loop.

JSON in / JSON out over ``POST /plan``, ``POST /plan_many``,
``GET /healthz``, ``GET /metrics`` (JSON, or Prometheus text via
``Accept: text/plain``) and ``GET /cache/stats``; ``docs/SERVICE.md``
documents the bodies and status codes.

:class:`AsyncPlanningServer` is a single-threaded ``asyncio`` server that:

* parses HTTP/1.1 with keep-alive and pipelining, and answers with
  **one** ``write()`` of a fully assembled response buffer, with
  ``TCP_NODELAY`` set — on loopback, headers and body written as separate
  segments interact with Nagle + delayed ACKs into tens of milliseconds
  of stall per request;
* answers a request it cannot frame (a malformed request line or
  ``Content-Length``, a head over 64 KiB, a declared body over 8 MiB, a
  ``Transfer-Encoding``) with 400 / 431 / 413 / 501 and
  ``Connection: close``, so no byte of it is ever read as the start of
  another request;
* accepts as many concurrent connections as the OS will hand it — a
  connection costs a coroutine, not a thread;
* forwards planning work to a **backend** — :class:`LocalBackend`
  wrapping one in-process :class:`~repro.service.server.PlanningService`,
  or a :class:`~repro.service.shard.ShardPool` of worker processes — and
  maps every failure, whether raised while routing, admitting or planning
  the request, through :func:`~repro.service.server.exception_status`
  (:class:`~repro.errors.ServiceOverloaded` → 429 + ``Retry-After``,
  waited-too-long → 504, bad arguments → 400);
* keeps an **edge response cache**: the serialized ``plan`` fragment of
  recent ``/plan`` answers, keyed by the request's routing address (the
  plan's own key).
  Plans are deterministic, so a repeat configuration's response bytes
  are known before any worker is consulted — the envelope is assembled
  around the cached fragment byte-identically to a fresh serialization
  (``cached`` is honestly ``true``: the plan *was* served from cache).

Graceful drain: :meth:`AsyncPlanningServer.drain` stops accepting,
waits for in-flight requests, then drains the backend (shards flush
their stats and exit).  The CLI wires SIGTERM/SIGINT to it;
:class:`BackgroundServer` runs the server on its own thread for
embedding and tests.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterable, Mapping, Optional, Set, Tuple

from .. import obs
from ..errors import ServiceOverloaded
from ..obs.histogram import MetricsRegistry
from ..obs.promtext import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
    wants_prometheus,
)
from .router import routing_key
from .server import (
    PlanningService,
    _check_timeout,
    exception_status,
    execute_request,
    parse_plan_request,
)

__all__ = ["AsyncPlanningServer", "BackgroundServer", "LocalBackend"]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not "
    "Allowed", 408: "Request Timeout", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: request head (request line + headers) size bound
_MAX_HEAD = 64 * 1024
#: request body size bound — a plan request is a small JSON object
_MAX_BODY = 8 * 1024 * 1024


class _Unframeable(Exception):
    """A request whose end cannot be found: answered, then the connection
    closes, so none of its bytes is read as the start of another request."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class LocalBackend:
    """The single-process deployment shape behind the async front-end.

    Wraps one :class:`~repro.service.server.PlanningService` and exposes
    the same surface :class:`~repro.service.shard.ShardPool` does —
    ``submit_request`` (a :class:`concurrent.futures.Future` of
    ``(status, doc)``), ``routing``, the control-plane docs, ``warm``,
    and ``drain`` — so the server code never branches on deployment.
    Requests run on a bounded thread pool (they block on the batcher);
    admission past ``max_inflight`` raises
    :class:`~repro.errors.ServiceOverloaded` exactly like a saturated
    shard would.
    """

    def __init__(
        self,
        service: PlanningService,
        *,
        max_inflight: int = 64,
        request_threads: int = 16,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.service = service
        self._max_inflight = int(max_inflight)
        self._inflight = 0
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, request_threads),
            thread_name_prefix="repro-local-backend",
        )

    @property
    def shards(self) -> int:
        return 0

    def routing(self, method: str, kwargs: Mapping[str, Any]) -> str:
        trace = self.service.hosted_trace(kwargs.get("trace"))
        return routing_key(trace, method, kwargs)

    def submit_request(
        self,
        method: str,
        kwargs: Mapping[str, Any],
        key: Optional[str] = None,
    ) -> Tuple[int, Any]:
        with self._lock:
            if self._inflight >= self._max_inflight:
                raise ServiceOverloaded(
                    f"service at capacity ({self._max_inflight} requests "
                    "in flight)"
                )
            self._inflight += 1

        # Capture the edge's request id here (the event-loop task holds
        # the context); the pool thread re-enters it so in-process serving
        # is attributable exactly like a shard worker's.
        request_id = obs.current_request_id()

        def run() -> Tuple[int, Dict[str, Any]]:
            try:
                if request_id is not None:
                    with obs.request_context(request_id):
                        return execute_request(self.service, method, kwargs)
                return execute_request(self.service, method, kwargs)
            finally:
                with self._lock:
                    self._inflight -= 1

        return 0, self._pool.submit(run)

    def metrics(self) -> Dict[str, Any]:
        doc = self.service.metrics()
        doc["mode"] = "local"
        doc["inflight"] = self._inflight
        return doc

    def healthz(self) -> Dict[str, Any]:
        doc = self.service.healthz()
        doc["inflight"] = self._inflight
        return doc

    def cache_stats(self) -> Dict[str, Any]:
        return self.service.cache.stats()

    def trace_names(self):
        return self.service.trace_names()

    def warm(self, configs: Iterable[Mapping[str, Any]]) -> Dict[str, int]:
        return self.service.warm(configs)

    def drain(self, timeout: float = 30.0) -> Any:
        self._pool.shutdown(wait=True)
        self.service.close()
        return [self.service.metrics()]


class _EdgeCache:
    """Bounded LRU of serialized ``/plan`` response fragments.

    Keyed by the request's routing key, which is its plan's key; each
    value is the exact ``json.dumps(doc["plan"], sort_keys=True)`` bytes
    a fresh response would embed, so assembling an envelope around it
    stays byte-identical to serving the request through a worker.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[bytes]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value: bytes) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def stats(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
        }


def _plan_envelope(doc: Mapping[str, Any]) -> Tuple[bytes, bytes]:
    """Serialize a ``/plan`` response doc, returning ``(body, fragment)``.

    Assembled part-wise so the ``plan`` fragment is serialized exactly
    once and can be reused by the edge cache; the concatenation equals
    ``json.dumps(doc, sort_keys=True)`` byte-for-byte (keys ``cached`` <
    ``key`` < ``plan`` < ``wall_seconds`` are already sorted).
    """
    fragment = json.dumps(doc["plan"], sort_keys=True).encode("utf-8")
    body = b"".join((
        b'{"cached": ', b"true" if doc["cached"] else b"false",
        b', "key": ', json.dumps(doc["key"]).encode("utf-8"),
        b', "plan": ', fragment,
        b', "wall_seconds": ',
        json.dumps(doc["wall_seconds"]).encode("utf-8"),
        b"}",
    ))
    return body, fragment


def _edge_envelope(key: str, fragment: bytes, wall_seconds: float) -> bytes:
    return b"".join((
        b'{"cached": true, "key": ', json.dumps(key).encode("utf-8"),
        b', "plan": ', fragment,
        b', "wall_seconds": ', json.dumps(wall_seconds).encode("utf-8"),
        b"}",
    ))


class AsyncPlanningServer:
    """The asyncio HTTP server over one backend (local or sharded)."""

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 8437,
        *,
        timeout: float = 30.0,
        edge_cache: int = 1024,
        logger=None,
    ) -> None:
        self._timeout = _check_timeout(timeout)
        self.backend = backend
        self._host = host
        self._port = port
        self._edge = _EdgeCache(edge_cache)
        self._logger = logger
        self._server: Optional[asyncio.AbstractServer] = None
        self._active_requests = 0
        #: writers of connections waiting for their next request
        self._idle: Set[asyncio.StreamWriter] = set()
        self._served = 0
        self._errors = 0
        self._draining = False
        # Edge-side telemetry: parse/route stage latencies plus the
        # end-to-end wall of every POST (including edge-cache hits that
        # never reach a worker) — reported under /metrics "frontend".
        self.telemetry = MetricsRegistry()

    @property
    def served(self) -> int:
        """Requests answered (any status) since boot."""
        return self._served

    @property
    def errors(self) -> int:
        """Responses with status >= 400 since boot."""
        return self._errors

    def edge_stats(self) -> Dict[str, Any]:
        return self._edge.stats()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )

    @property
    def server_address(self) -> Tuple[str, int]:
        assert self._server is not None, "call start() first"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_until(self, stop: "asyncio.Event") -> None:
        """Serve until ``stop`` is set, then drain gracefully."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.start_serving()
            await stop.wait()
            await self.drain()

    async def drain(self, timeout: float = 30.0) -> Any:
        """Stop accepting, finish in-flight requests, close the idle
        keep-alive connections, drain the backend."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._active_requests and loop.time() < deadline:
            await asyncio.sleep(0.01)
        # Their handlers read EOF and return, so none is left for the
        # loop's shutdown to cancel.
        for writer in list(self._idle):
            writer.close()
        finals = await loop.run_in_executor(
            None, lambda: self.backend.drain(timeout)
        )
        if self._logger is not None:
            self._logger.info(
                "drained: served=%d errors=%d edge=%s",
                self._served, self._errors, self._edge.stats(),
            )
        return finals

    # -- connection handling -------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        cancelled = False
        try:
            # leftover carries bytes read past the end of one request —
            # the start of the next when a client pipelines — so
            # back-to-back requests on a keep-alive connection are
            # framed exactly and answered in order
            leftover = b""
            while True:
                self._idle.add(writer)
                try:
                    request, leftover = await self._read_request(
                        reader, leftover
                    )
                except _Unframeable as exc:
                    payload, _ = self._error_doc(str(exc))
                    await self._send(writer, "-", exc.status, payload, False)
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                keep_alive = await self._respond(request, writer)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # Cancelled at loop shutdown: nothing awaits this task, and the
            # stream server would log its cancellation as an error.
            cancelled = True
        finally:
            writer.close()
            if not cancelled:
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

    async def _read_request(
        self, reader: asyncio.StreamReader, leftover: bytes = b""
    ) -> Tuple[Optional[Tuple[str, str, Dict[str, str], bytes]], bytes]:
        """One parsed request plus any bytes read beyond it.

        Returns ``((verb, path, headers, body), leftover)`` — ``leftover``
        is the prefix of the *next* pipelined request when the client
        wrote several back-to-back — or ``(None, b"")`` when the client
        closes the connection.  ``leftover`` from the previous call must
        be fed back in so no bytes are dropped between requests.  Raises
        :class:`_Unframeable` — 400 for a malformed request line or
        ``Content-Length``, 431 for a head over ``_MAX_HEAD``, 413 for a
        declared body over ``_MAX_BODY`` (not read), 501 for a
        ``Transfer-Encoding`` (its chunks would otherwise be read as the
        next request).
        """
        buf = leftover
        end = buf.find(b"\r\n\r\n")
        while end < 0 and len(buf) <= _MAX_HEAD:
            chunk = await reader.read(4096)
            if not chunk:
                return None, b""
            buf += chunk
            end = buf.find(b"\r\n\r\n")
        if not 0 <= end <= _MAX_HEAD:
            raise _Unframeable(431, f"request head exceeds {_MAX_HEAD} bytes")
        lines = buf[:end].decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _Unframeable(
                400, f"malformed request line {lines[0][:80]!r}"
            )
        verb, path = parts[0], parts[1]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _Unframeable(
                501, "Transfer-Encoding is not supported; send the body "
                "with a Content-Length"
            )
        raw_length = headers.get("content-length") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _Unframeable(
                400, f"bad Content-Length {raw_length[:40]!r}"
            )
        # int() refuses strings past 4300 digits; 19 already exceed 8 MiB
        length = int(raw_length) if len(raw_length) < 19 else _MAX_BODY + 1
        if length > _MAX_BODY:
            raise _Unframeable(413, f"request body exceeds {_MAX_BODY} bytes")
        body = buf[end + 4:]
        while len(body) < length:
            chunk = await reader.read(length - len(body))
            if not chunk:
                return None, b""
            body += chunk
        return (verb, path, headers, body[:length]), body[length:]

    def _response_bytes(
        self,
        status: int,
        body: bytes,
        keep_alive: bool,
        extra_headers: Optional[Mapping[str, str]] = None,
    ) -> bytes:
        extra = dict(extra_headers or {})
        content_type = extra.pop("Content-Type", "application/json")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: " + ("keep-alive" if keep_alive else "close"),
        ]
        for name, value in extra.items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + body

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        request_line: str,
        status: int,
        payload: bytes,
        keep_alive: bool,
        extra: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Count, write and log one response."""
        self._served += 1
        if status >= 400:
            self._errors += 1
        writer.write(self._response_bytes(status, payload, keep_alive, extra))
        await writer.drain()
        if self._logger is not None:
            self._logger.info("%s -> %d", request_line, status)

    async def _respond(
        self,
        request: Tuple[str, str, Dict[str, str], bytes],
        writer: asyncio.StreamWriter,
    ) -> bool:
        verb, path, headers, body = request
        keep_alive = headers.get("connection", "").lower() != "close"
        self._active_requests += 1
        rid: Optional[str] = None
        t0 = time.perf_counter()
        try:
            if verb == "POST":
                # Trace context is minted here, at the edge; an upstream
                # X-Request-Id wins so proxy correlation ids survive.
                rid = headers.get("x-request-id") or obs.new_request_id()
                with obs.request_context(rid):
                    status, payload, extra = await self._handle(
                        verb, path, headers, body
                    )
            else:
                status, payload, extra = await self._handle(
                    verb, path, headers, body
                )
        except Exception as exc:  # last-resort: never kill the connection loop
            status, extra = 500, None
            payload = json.dumps(
                {"error": f"internal error: {type(exc).__name__}: {exc}"}
            ).encode("utf-8")
        finally:
            self._active_requests -= 1
        if rid is not None:
            extra = dict(extra or {})
            extra["X-Request-Id"] = rid
            self.telemetry.observe("request.edge", time.perf_counter() - t0)
        await self._send(
            writer, f"{verb} {path}", status, payload, keep_alive, extra
        )
        return keep_alive

    # -- request handling ----------------------------------------------
    def _error_doc(
        self, message: str, retry_after: Optional[float] = None
    ) -> Tuple[bytes, Optional[Dict[str, str]]]:
        doc: Dict[str, Any] = {"error": message}
        extra: Optional[Dict[str, str]] = None
        if retry_after is not None:
            doc["retry_after"] = retry_after
            extra = {"Retry-After": str(int(max(1, retry_after)))}
        return json.dumps(doc, sort_keys=True).encode("utf-8"), extra

    def _error(
        self, exc: BaseException
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        """The response :func:`exception_status` gives ``exc``; one it
        refuses to map (a bug) propagates to the 500 handler."""
        status, message, retry_after = exception_status(exc)
        payload, extra = self._error_doc(message, retry_after)
        return status, payload, extra

    async def _handle(
        self, verb: str, path: str, headers: Mapping[str, str], body: bytes
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        if verb == "GET":
            return await self._handle_get(path, headers)
        if verb != "POST":
            payload, extra = self._error_doc(f"method {verb} not allowed")
            return 405, payload, extra
        return await self._handle_post(path, body)

    async def _handle_get(
        self, path: str, headers: Mapping[str, str]
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        loop = asyncio.get_running_loop()
        path = path.partition("?")[0]
        if path == "/healthz":
            doc = await loop.run_in_executor(None, self.backend.healthz)
        elif path == "/metrics":
            doc = await loop.run_in_executor(None, self.backend.metrics)
            doc["frontend"] = {
                "active_requests": self._active_requests,
                "served": self._served,
                "errors": self._errors,
                "edge_cache": self._edge.stats(),
                "telemetry": self.telemetry.as_doc(),
            }
            if wants_prometheus(headers.get("accept")):
                # Same document, negotiated representation: Prometheus
                # exposition text.  JSON clients see identical bytes to
                # what they always got.
                text = render_prometheus(doc)
                return 200, text.encode("utf-8"), {
                    "Content-Type": PROMETHEUS_CONTENT_TYPE,
                }
        elif path == "/cache/stats":
            doc = await loop.run_in_executor(None, self.backend.cache_stats)
        else:
            payload, extra = self._error_doc(f"no such endpoint: {path}")
            return 404, payload, extra
        return 200, json.dumps(doc, sort_keys=True).encode("utf-8"), None

    async def _handle_post(
        self, path: str, body: bytes
    ) -> Tuple[int, bytes, Optional[Dict[str, str]]]:
        t0 = asyncio.get_running_loop().time()
        t_parse = time.perf_counter()
        try:
            parsed = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as exc:
            payload, extra = self._error_doc(f"bad request body: {exc}")
            return 400, payload, extra
        try:
            method, kwargs = parse_plan_request(path, parsed)
        except (KeyError, ValueError) as exc:
            return self._error(exc)
        self.telemetry.observe("stage.edge_parse", time.perf_counter() - t_parse)
        if self._draining:
            payload, extra = self._error_doc(
                "service is draining", retry_after=1.0
            )
            return 503, payload, extra

        t_route = time.perf_counter()
        try:
            # routing validates the request's arguments the way planning
            # would (deadline, window, algorithm, sources): a bad one is a
            # 400 here, before any backend sees it
            key = self.backend.routing(method, kwargs)
        except Exception as exc:
            return self._error(exc)
        self.telemetry.observe("stage.route", time.perf_counter() - t_route)

        if method == "plan":
            fragment = self._edge.get(key)
            if fragment is not None:
                wall = asyncio.get_running_loop().time() - t0
                return 200, _edge_envelope(key, fragment, wall), None

        try:
            _, future = self.backend.submit_request(method, kwargs, key=key)
        except ServiceOverloaded as exc:
            return self._error(exc)
        try:
            status, doc = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=self._timeout
            )
        except asyncio.TimeoutError:
            return self._error(TimeoutError())

        if status != 200:
            retry_after = doc.get("retry_after")
            extra = (
                {"Retry-After": str(int(max(1, retry_after)))}
                if retry_after is not None else None
            )
            return status, json.dumps(doc, sort_keys=True).encode("utf-8"), extra

        if method == "plan":
            payload, fragment = _plan_envelope(doc)
            self._edge.put(key, fragment)
            return 200, payload, None
        return 200, json.dumps(doc, sort_keys=True).encode("utf-8"), None


class BackgroundServer:
    """An :class:`AsyncPlanningServer` on its own event-loop thread.

    The embedding (and test) convenience::

        srv = BackgroundServer(LocalBackend(service), port=0)
        host, port = srv.address
        ...
        srv.stop()          # graceful drain, joins the thread
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        **server_kwargs: Any,
    ) -> None:
        self.server = AsyncPlanningServer(
            backend, host, port, **server_kwargs
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional["asyncio.Event"] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-async-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("async server failed to start in time")

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.serve_until(self._stop)

        asyncio.run(main())

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.server_address

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60.0)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
