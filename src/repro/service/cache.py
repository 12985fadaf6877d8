"""Content-addressed plan cache: LRU + TTL memory tier, JSON disk tier.

Identical planning problems produce identical plans — every scheduler in
this package is deterministic given its inputs — so a plan computed once
never needs computing again.  :class:`PlanCache` exploits that: plans are
keyed by the :func:`~repro.obs.manifest.config_hash` of their full problem
configuration (algorithm, channel, deadline, window, scheduler kwargs,
seed, physical parameters, and the *content fingerprint* of the trace or
TVEG — see :meth:`repro.traces.model.ContactTrace.fingerprint` /
:meth:`repro.tveg.graph.TVEG.fingerprint`), which
:func:`repro.api.plan_broadcast` records as ``manifest["config_hash"]`` on
every plan.  Same hash ⇒ same problem ⇒ same plan.

Two tiers:

* **memory** — a bounded LRU of live :class:`~repro.api.BroadcastPlan`
  objects (TVEG included), optionally TTL-expired.  A hit is a dict lookup
  and returns the original plan object: byte-identical schedule, cost, and
  info, in well under a millisecond (the ``plan_cache_hit`` benchmark op
  gates this).
* **disk** — optional; plans persist as JSON plan documents
  (:func:`repro.schedule.io.write_plan_json`) under
  ``<dir>/<config_hash>.json``.  A memory miss falls through to disk, the
  document is replayed into a fresh ``BroadcastPlan``
  (:func:`repro.schedule.io.doc_to_plan`) against a TVEG the caller
  supplies lazily, and the entry is promoted back into memory.  The disk
  tier survives process restarts, so a restarted ``repro serve`` warms up
  from its predecessor's work.

The cache also shares **live TVEGs**: :meth:`PlanCache.tveg` maps the
TVEG-defining part of a plan's configuration (trace fingerprint, window
bounds, channel, params, seed) to the graph built for it, weakly, so
concurrent and later plans on one instance — say, differing only in
algorithm or source — run on one graph and share its contact
components, cost sets and aux-graph builds.  A graph lives exactly as
long as a cached plan or a running compute holds it; the memory tier's
plans already hold theirs.

Every lookup emits :data:`~repro.obs.EV_PLAN_CACHE_HIT` /
:data:`~repro.obs.EV_PLAN_CACHE_MISS` ledger events (no-ops when recording
is off) plus ``service.plan_cache_*`` tracer counters, and updates the local
:class:`CacheStats` the ``/cache/stats`` endpoint serves.

All operations are thread-safe — the batcher's worker pool and
:class:`~repro.service.asgi.LocalBackend`'s request threads call them
concurrently.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .. import obs
from ..errors import TraceFormatError

__all__ = ["CacheStats", "PlanCache"]


@dataclass
class CacheStats:
    """Counters one :class:`PlanCache` accumulated since construction."""

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    puts: int = 0
    evictions: int = 0
    expirations: int = 0
    disk_writes: int = 0
    disk_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        n = self.lookups
        return self.hits / n if n else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "puts": self.puts,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "disk_writes": self.disk_writes,
            "disk_errors": self.disk_errors,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    plan: Any  # BroadcastPlan (typed loosely: api imports this module's pkg)
    stored_at: float = field(default_factory=time.time)


def _is_key(key: str) -> bool:
    """Config hashes are short lowercase hex — exactly what makes them safe
    file names for the disk tier."""
    return (
        isinstance(key, str)
        and 0 < len(key) <= 64
        and all(c in "0123456789abcdef" for c in key)
    )


class PlanCache:
    """Two-tier content-addressed cache of :class:`~repro.api.BroadcastPlan`.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries; the least recently used entry is evicted
        past it (evicted plans remain on disk when a disk tier is set).
    ttl:
        Seconds after which a stored plan expires, or ``None`` for no
        expiry.  Applies to both tiers (disk entries carry their storage
        time in the document).
    disk_dir:
        Directory for the persistent tier, created on first write; ``None``
        disables it.
    """

    def __init__(
        self,
        capacity: int = 128,
        ttl: Optional[float] = None,
        disk_dir: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"cache ttl must be positive, got {ttl}")
        self._capacity = int(capacity)
        self._ttl = float(ttl) if ttl is not None else None
        self._disk_dir = os.fspath(disk_dir) if disk_dir is not None else None
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._stats = CacheStats()
        self._tvegs: "weakref.WeakValueDictionary[str, Any]" = (
            weakref.WeakValueDictionary()
        )

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def ttl(self) -> Optional[float]:
        return self._ttl

    @property
    def disk_dir(self) -> Optional[str]:
        return self._disk_dir

    @property
    def shared_tvegs(self) -> int:
        """Live TVEGs :meth:`tveg` can hand out."""
        with self._lock:
            return len(self._tvegs)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Non-mutating peek: would :meth:`lookup` hit either tier?

        Touches no LRU order and no statistics (the HTTP layer uses it to
        label responses without distorting hit rates).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and not self._expired(entry.stored_at):
                return True
        return self._disk_path_if_exists(key) is not None

    def keys(self) -> List[str]:
        """Memory-tier keys, most recently used last."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, Any]:
        """A snapshot of the counters plus tier sizing."""
        with self._lock:
            doc = self._stats.as_dict()
            doc["entries"] = len(self._entries)
        doc["capacity"] = self._capacity
        doc["ttl"] = self._ttl
        doc["disk_dir"] = self._disk_dir
        doc["disk_entries"] = len(self.disk_keys()) if self._disk_dir else 0
        return doc

    # ------------------------------------------------------------------
    def lookup(
        self,
        key: str,
        tveg_factory: Optional[Callable[[], Any]] = None,
    ) -> Optional[Any]:
        """The cached plan for ``key``, or ``None`` on a miss.

        A memory hit returns the stored plan object directly (no graph
        work at all).  A disk hit needs a TVEG to replay the document
        against: ``tveg_factory`` is called — lazily, only in this case —
        to supply one.  Without a factory the disk tier is skipped.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if self._expired(entry.stored_at):
                    del self._entries[key]
                    self._stats.expirations += 1
                else:
                    self._entries.move_to_end(key)
                    self._stats.hits += 1
                    self._stats.memory_hits += 1
                    self._record(obs.EV_PLAN_CACHE_HIT, key, tier="memory")
                    return entry.plan

        plan = self._disk_lookup(key, tveg_factory)
        with self._lock:
            if plan is not None:
                self._stats.hits += 1
                self._stats.disk_hits += 1
                self._record(obs.EV_PLAN_CACHE_HIT, key, tier="disk")
                self._remember(key, plan)
                return plan
            self._stats.misses += 1
            self._record(obs.EV_PLAN_CACHE_MISS, key)
            return None

    def tveg(self, key: str, build: Callable[[], Any]) -> Any:
        """The live TVEG under ``key``, or ``build()``'s, shared from now on.

        ``key`` names the TVEG-defining part of a plan configuration (see
        :func:`repro.api.plan_broadcast`).  Two threads missing at once
        both build; the first to finish is kept and both get it.
        """
        with self._lock:
            tveg = self._tvegs.get(key)
        if tveg is None:
            built = build()
            with self._lock:
                tveg = self._tvegs.setdefault(key, built)
        return tveg

    def put(self, key: str, plan: Any) -> None:
        """Store a freshly computed plan under its config hash."""
        if not _is_key(key):
            raise ValueError(f"not a config-hash cache key: {key!r}")
        with self._lock:
            self._stats.puts += 1
            self._remember(key, plan)
        self._disk_store(key, plan)

    def clear(self, disk: bool = False) -> int:
        """Drop the memory tier (and the disk tier when ``disk=True``).

        Returns the number of entries removed across both tiers.
        """
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
        if disk and self._disk_dir:
            for key in self.disk_keys():
                try:
                    os.unlink(os.path.join(self._disk_dir, key + ".json"))
                    n += 1
                except OSError:
                    with self._lock:
                        self._stats.disk_errors += 1
        return n

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _record(self, event: str, key: str, **fields: Any) -> None:
        obs.counter(f"service.{event}")
        led = obs.get_ledger()
        if led.enabled:
            led.emit(event, key=key, **fields)

    def _expired(self, stored_at: float) -> bool:
        return self._ttl is not None and time.time() - stored_at > self._ttl

    def _remember(self, key: str, plan: Any) -> None:
        """Insert into the memory tier, evicting LRU entries past capacity.

        Caller holds the lock.
        """
        self._entries[key] = _Entry(plan)
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._stats.evictions += 1

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------
    def disk_keys(self) -> List[str]:
        """Keys present in the disk tier (empty without one)."""
        if not self._disk_dir or not os.path.isdir(self._disk_dir):
            return []
        return sorted(
            name[:-5]
            for name in os.listdir(self._disk_dir)
            if name.endswith(".json") and _is_key(name[:-5])
        )

    def _disk_path_if_exists(self, key: str) -> Optional[str]:
        if not self._disk_dir or not _is_key(key):
            return None
        path = os.path.join(self._disk_dir, key + ".json")
        return path if os.path.isfile(path) else None

    def _disk_lookup(
        self, key: str, tveg_factory: Optional[Callable[[], Any]]
    ) -> Optional[Any]:
        from ..schedule.io import doc_to_plan, read_plan_json

        path = self._disk_path_if_exists(key)
        if path is None or tveg_factory is None:
            return None
        try:
            doc = read_plan_json(path)
        except (OSError, TraceFormatError):
            with self._lock:
                self._stats.disk_errors += 1
            return None
        stored_at = doc.get("cached_unix")
        if isinstance(stored_at, (int, float)) and self._expired(stored_at):
            with self._lock:
                self._stats.expirations += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        try:
            return doc_to_plan(doc, tveg_factory())
        except TraceFormatError:
            with self._lock:
                self._stats.disk_errors += 1
            return None

    def _disk_store(self, key: str, plan: Any) -> None:
        from ..schedule.io import plan_to_doc, write_plan_json

        if not self._disk_dir:
            return
        try:
            os.makedirs(self._disk_dir, exist_ok=True)
            doc = plan_to_doc(plan)
            doc["cached_unix"] = time.time()
            path = os.path.join(self._disk_dir, key + ".json")
            tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
            write_plan_json(doc, tmp)
            os.replace(tmp, path)  # atomic: readers never see partial JSON
        except (OSError, TraceFormatError):
            with self._lock:
                self._stats.disk_errors += 1
            return
        with self._lock:
            self._stats.disk_writes += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tiers = f"entries={len(self)}/{self._capacity}"
        if self._disk_dir:
            tiers += f", disk={self._disk_dir!r}"
        return f"PlanCache({tiers})"
