"""Consistent-hash routing: which shard owns which plan configuration.

A sharded service only beats a single process if repeat configurations
keep landing on the shard whose live caches — the registry TVEG, its
contact components, cost caches and aux-graph builds, the hot tier of the
plan cache — are already warm for them.  Random or round-robin dispatch
would spread K repeats of one configuration over K shards and pay the
cold build K times; the paper's workload shape (many ``(source,
deadline, algorithm)`` sweeps over one trace, cf. ROADMAP item 1) makes
that the common case, not the corner case.

:class:`HashRing` is the classic consistent-hash ring over md5 with
virtual nodes: each shard owns ``replicas`` points on a 64-bit circle and
a key routes to the first point at or clockwise of its own hash.  Adding
or removing one shard therefore remaps only ~1/N of the key space —
resizing a pool keeps most shards' warm caches relevant, where modulo
hashing would reshuffle nearly everything.

:func:`routing_key` reduces a parsed ``/plan`` / ``/plan_many`` request
to the content address it routes by.  It is built on
:func:`repro.api.plan_cache_key` over the **raw contact trace** — no TVEG
is constructed, so the front-end pays ~tens of microseconds per request,
not a graph build.  The routing key is *not* byte-equal to the plan
cache's key (that one hashes the window-restricted TVEG the shard builds)
but it is deterministic and injective over request configurations, which
is all routing and front-end response caching need: identical requests
share a routing key, and a routing key never aliases two configurations
that could yield different plans.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..api import plan_cache_key
from ..traces.model import ContactTrace

__all__ = ["HashRing", "routing_key"]


class HashRing:
    """Consistent-hash ring mapping string keys to shard indices.

    Parameters
    ----------
    shards:
        Number of shards (``>= 1``); keys map to ``0..shards-1``.
    replicas:
        Virtual nodes per shard.  More replicas smooth the key-space split
        (64 keeps the max/min shard share within ~2x for realistic pool
        sizes) at the cost of a longer sorted point list; lookups stay
        O(log(shards * replicas)) via bisect.
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.shards = int(shards)
        self.replicas = int(replicas)
        points: List[Tuple[int, int]] = []
        for shard in range(self.shards):
            for replica in range(self.replicas):
                points.append((self._hash(f"shard:{shard}:{replica}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    @staticmethod
    def _hash(value: str) -> int:
        digest = hashlib.md5(value.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def shard_for(self, key: str) -> int:
        """The shard index owning ``key`` (first point clockwise)."""
        if self.shards == 1:
            return 0
        i = bisect_right(self._hashes, self._hash(key))
        if i == len(self._hashes):
            i = 0  # wrap past the top of the circle
        return self._owners[i]

    def distribution(self, keys: Mapping[str, Any] | List[str]) -> List[int]:
        """Per-shard key counts for ``keys`` — a load-skew diagnostic."""
        counts = [0] * self.shards
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts


#: request fields that are NOT scheduler kwargs (mirrors
#: server.parse_plan_request's field whitelists, plus plan_many spellings)
_NON_SCHEDULER_FIELDS = frozenset((
    "trace", "deadline", "deadlines", "source", "sources", "algorithm",
    "channel", "window", "seed", "timeout",
))


def routing_key(
    trace: ContactTrace,
    method: str,
    kwargs: Mapping[str, Any],
) -> str:
    """The content address a parsed request routes by.

    ``method`` / ``kwargs`` are :func:`repro.service.server.parse_plan_request`
    output; ``trace`` is the already-resolved
    :class:`~repro.traces.model.ContactTrace` the request names.  A
    ``plan_many`` request routes by its *first* member — every member
    shares the trace/channel/window/seed that determine which live TVEG
    serves it, so one shard owns the whole batch.
    """
    if method == "plan_many":
        sources = list(kwargs.get("sources") or [None])
        source: Optional[Any] = sources[0] if sources else None
        deadlines = kwargs.get("deadlines", 2000.0)
        if isinstance(deadlines, (list, tuple)):
            deadline = float(deadlines[0]) if deadlines else 2000.0
        else:
            deadline = float(deadlines)
    else:
        source = kwargs.get("source")
        deadline = float(kwargs.get("deadline", 2000.0))
    scheduler_kwargs: Dict[str, Any] = {
        k: v for k, v in kwargs.items() if k not in _NON_SCHEDULER_FIELDS
    }
    window = kwargs.get("window")
    if isinstance(window, list):
        window = tuple(window)
    return plan_cache_key(
        trace,
        source,
        deadline,
        algorithm=kwargs.get("algorithm", "eedcb"),
        channel=kwargs.get("channel", "static"),
        window=window,
        seed=kwargs.get("seed"),
        **scheduler_kwargs,
    )
