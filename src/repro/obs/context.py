"""Request-scoped trace context: request ids and shard identity.

A request entering the planning service — through the HTTP front-end
(in process or sharded), or an embedded :class:`~repro.service.server.
PlanningService` call — is stamped with a **request id**: 16 hex chars,
minted at the edge (or accepted from an ``X-Request-Id`` header so an
upstream proxy's id survives).  The id travels *with the work*, not with
the thread: across the batcher's flush pool, across the shard pipe into a
worker process, and into every ledger event and log record emitted while
serving it — so one grep over a ledger reconstructs a request's full
journey, including which shard served it and whether it was deduped into
another request's compute.

Two pieces of state:

* a :mod:`contextvars` variable holding the current request id.  Context
  variables are task-local under asyncio and thread-local otherwise —
  exactly the propagation HTTP handlers need.  Thread pools do **not**
  inherit it automatically; code that moves work across threads (the
  batcher, the shard dispatch loop) captures :func:`current_request_id`
  at submit time and re-enters it with :func:`request_context` on the
  worker thread.
* a process-global **shard id**, set once by a shard worker at boot
  (:func:`set_shard_id`).  Every ledger event the process emits carries
  it, making multi-shard ledgers attributable per shard.

:class:`~repro.obs.ledger.Ledger` reads both on every ``emit`` and tags
the event's fields (``request_id`` / ``shard_id``) unless the call site
already supplied them; the no-op ledger skips the lookups entirely.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

__all__ = [
    "new_request_id",
    "current_request_id",
    "request_context",
    "set_shard_id",
    "current_shard_id",
]

#: the current request id, or None outside any request scope
_request_id: "ContextVar[Optional[str]]" = ContextVar(
    "repro_request_id", default=None
)

#: this process's shard id (None in the front-end / single-process case)
_shard_id: Optional[int] = None


def new_request_id() -> str:
    """A fresh 16-hex request id (64 random bits)."""
    return os.urandom(8).hex()


def current_request_id() -> Optional[str]:
    """The request id of the current context, or ``None``."""
    return _request_id.get()


@contextmanager
def request_context(request_id: Optional[str] = None) -> Iterator[str]:
    """Enter a request scope; yields the effective request id.

    ``request_id=None`` keeps the current scope's id when one is already
    set (nested spans of the same request) and mints a fresh one
    otherwise — so call sites can wrap themselves unconditionally without
    breaking an id minted further up the stack.
    """
    rid = request_id or _request_id.get() or new_request_id()
    token = _request_id.set(rid)
    try:
        yield rid
    finally:
        _request_id.reset(token)


def set_shard_id(shard_id: Optional[int]) -> None:
    """Declare this process's shard identity (``None`` clears it)."""
    global _shard_id
    _shard_id = int(shard_id) if shard_id is not None else None


def current_shard_id() -> Optional[int]:
    """The shard id this process declared, or ``None``."""
    return _shard_id
