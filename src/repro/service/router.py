"""Consistent-hash routing: which shard owns which plan configuration.

A sharded service only beats a single process if repeat configurations
keep landing on the shard whose live caches — the shared TVEG, its
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
to the content address it routes by: :func:`repro.api.plan_cache_key`
over the hosted contact trace — no TVEG is constructed, so the front-end
pays ~tens of microseconds per request, not a graph build.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Any, List, Mapping, Tuple

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


def routing_key(
    trace: ContactTrace,
    method: str,
    kwargs: Mapping[str, Any],
) -> str:
    """The content address a parsed request routes by.

    ``method`` / ``kwargs`` are :func:`repro.service.server.parse_plan_request`
    output; ``trace`` is the already-resolved
    :class:`~repro.traces.model.ContactTrace` the request names.  A
    ``/plan`` request's key is its plan's key.  A ``plan_many`` request
    routes by its *first* member — every member shares the
    trace/channel/window/seed that determine which live TVEG serves it,
    so one shard owns the whole batch.
    """
    kw = dict(kwargs)
    kw.pop("trace", None)
    kw.pop("timeout", None)
    if method == "plan_many":
        source = list(kw.pop("sources", None) or [None])[0]
        deadline = kw.pop("deadlines", 2000.0)
        if isinstance(deadline, (list, tuple)):
            deadline = deadline[0] if deadline else 2000.0
    else:
        source = kw.pop("source", None)
        deadline = kw.pop("deadline", 2000.0)
    return plan_cache_key(trace, source, deadline, **kw)
