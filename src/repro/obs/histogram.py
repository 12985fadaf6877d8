"""Fixed-bucket latency histograms and a mergeable metrics registry.

Batch reports (:func:`repro.obs.metrics.aggregate`) retain every span
duration — exact, but unusable for a service that must answer
``GET /metrics`` after millions of requests.  :class:`FixedHistogram`
is the streaming counterpart: a fixed, shared bucket layout (so shards
can merge), integer counts, and an *exact* running sum kept as Shewchuk
partials, which makes :meth:`merge` genuinely associative and
commutative — merging shard A into B yields bit-identical state to
merging B into A, and a shard-merged histogram equals the histogram a
single process would have recorded.  That exactness is what the
hypothesis merge-algebra tests pin down.

:class:`MetricsRegistry` bundles monotonic counters, gauges, and named
histograms behind one lock-cheap facade; its :meth:`~MetricsRegistry.
as_doc`/:meth:`~MetricsRegistry.merge_doc` pair is the wire format the
shard workers ship to the front-end (both on-demand for ``/metrics``
and in the final drain handshake), and what
:func:`repro.obs.promtext.render_prometheus` renders.

Cost model: ``observe`` is a bisect, two integer adds, and a short
compensated-sum cascade under a per-histogram lock — tens of
nanoseconds hot, no allocation growth, safe from the batcher's thread
pool.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "FixedHistogram",
    "MetricsRegistry",
]

#: Default latency bucket upper bounds, in seconds.  Spans 100 µs (a
#: warm edge-cache hit) to 30 s (a cold CRAWDAD-scale plan); the final
#: +Inf bucket is implicit.  Roughly geometric with ~2.2× steps so p99
#: interpolation stays within a factor of ~2 of truth everywhere.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


def _accumulate(partials: List[float], x: float) -> None:
    """Add ``x`` into a Shewchuk partials list, in place.

    The partials represent the *exact* real-number sum of everything
    accumulated so far (each element non-overlapping in magnitude), so
    order of accumulation cannot change the represented value — the
    property the merge-algebra guarantees rest on.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class FixedHistogram:
    """A streaming histogram over a fixed set of bucket upper bounds.

    ``bounds`` are inclusive upper bounds (Prometheus ``le`` semantics);
    an implicit final bucket catches everything above the last bound.
    State is bounded: ``len(bounds)+1`` integer counts, an exact sum,
    observation count, and min/max.
    """

    __slots__ = ("bounds", "_counts", "_partials", "_count", "_min", "_max", "_lock")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        b = tuple(float(x) for x in bounds)
        if not b:
            raise ValueError("FixedHistogram needs at least one bucket bound")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"bucket bounds must be strictly increasing: {b!r}")
        self.bounds = b
        self._counts = [0] * (len(b) + 1)
        self._partials: List[float] = []
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (typically seconds of latency)."""
        v = float(value)
        i = bisect_left(self.bounds, v)
        with self._lock:
            self._counts[i] += 1
            self._count += 1
            _accumulate(self._partials, v)
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        """Correctly-rounded exact sum of all observations."""
        return math.fsum(self._partials)

    @property
    def min(self) -> Optional[float]:
        return self._min if self._count else None

    @property
    def max(self) -> Optional[float]:
        return self._max if self._count else None

    def counts(self) -> Tuple[int, ...]:
        """Per-bucket counts, final element being the overflow bucket."""
        with self._lock:
            return tuple(self._counts)

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        with self._lock:
            for bound, c in zip(self.bounds, self._counts):
                running += c
                out.append((bound, running))
            out.append((math.inf, running + self._counts[-1]))
        return out

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile by linear interpolation in-bucket.

        Bounded by the observed min/max so a single observation reports
        itself rather than a bucket edge.  Returns ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            total = self._count
            if not total:
                return None
            rank = q * total
            running = 0
            for i, c in enumerate(self._counts):
                if not c:
                    continue
                lo_run = running
                running += c
                if running >= rank:
                    lo = self.bounds[i - 1] if i > 0 else 0.0
                    hi = self.bounds[i] if i < len(self.bounds) else self._max
                    if hi < lo:  # overflow bucket with max below last bound
                        hi = lo
                    frac = (rank - lo_run) / c if c else 0.0
                    est = lo + (hi - lo) * min(max(frac, 0.0), 1.0)
                    return min(max(est, self._min), self._max)
            return self._max

    def merge(self, other: "FixedHistogram") -> "FixedHistogram":
        """A new histogram holding both operands' observations.

        Exact and order-independent: counts are integers, the sum is
        carried as partials, min/max commute.  Raises ``ValueError`` on
        mismatched bucket layouts — merging those would silently corrupt
        quantiles.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds!r} != {other.bounds!r}"
            )
        out = FixedHistogram(self.bounds)
        with self._lock:
            a_counts = list(self._counts)
            a_partials = list(self._partials)
            a_count, a_min, a_max = self._count, self._min, self._max
        with other._lock:
            b_counts = list(other._counts)
            b_partials = list(other._partials)
            b_count, b_min, b_max = other._count, other._min, other._max
        out._counts = [x + y for x, y in zip(a_counts, b_counts)]
        out._count = a_count + b_count
        for p in a_partials:
            _accumulate(out._partials, p)
        for p in b_partials:
            _accumulate(out._partials, p)
        out._min = min(a_min, b_min)
        out._max = max(a_max, b_max)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixedHistogram):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.counts() == other.counts()
            and self._count == other._count
            and self.sum == other.sum
            and (self._min == other._min or (self._count == 0 == other._count))
            and (self._max == other._max or (self._count == 0 == other._count))
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FixedHistogram(count={self._count}, sum={self.sum:.6g}, "
            f"buckets={len(self.bounds)})"
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot; the shard→front-end wire format."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": math.fsum(self._partials),
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "FixedHistogram":
        h = cls(doc["bounds"])  # type: ignore[arg-type]
        counts = [int(c) for c in doc["counts"]]  # type: ignore[union-attr]
        if len(counts) != len(h._counts):
            raise ValueError("histogram doc counts do not match bounds")
        h._counts = counts
        h._count = int(doc.get("count", sum(counts)))
        s = float(doc.get("sum", 0.0))
        if s:
            h._partials = [s]
        if doc.get("min") is not None:
            h._min = float(doc["min"])  # type: ignore[arg-type]
        if doc.get("max") is not None:
            h._max = float(doc["max"])  # type: ignore[arg-type]
        return h


class MetricsRegistry:
    """Counters, gauges, and fixed-bucket histograms behind one facade.

    Names are dotted strings (``"stage.compute"``, ``"request.plan"``,
    ``"edge.cache_hits"``).  Counters are monotonic floats, gauges are
    last-write-wins locally and *summed* across shards on merge (the
    merged view of ``inflight`` over shards is their sum), histograms
    merge exactly.  Everything serializes through :meth:`as_doc` and
    folds back with :meth:`merge_doc` — that pair is associative, so
    front-end aggregation over any subset order of shard docs agrees.
    """

    __slots__ = ("_lock", "_counters", "_gauges", "_histograms", "_bounds")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, FixedHistogram] = {}
        self._bounds = tuple(float(b) for b in bounds)

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the monotonic counter."""
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease (amount={amount})")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the named histogram (created on first use)."""
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.get(name)
                if h is None:
                    h = FixedHistogram(self._bounds)
                    self._histograms[name] = h
        h.observe(value)

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[FixedHistogram]:
        with self._lock:
            return self._histograms.get(name)

    def as_doc(self) -> Dict[str, object]:
        """JSON-safe snapshot of every metric, sorted for stable output."""
        with self._lock:
            counters = dict(sorted(self._counters.items()))
            gauges = dict(sorted(self._gauges.items()))
            hists = sorted(self._histograms.items())
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": {name: h.as_dict() for name, h in hists},
        }

    def merge_doc(self, doc: Mapping[str, object]) -> None:
        """Fold another registry's :meth:`as_doc` snapshot into this one."""
        for name, v in (doc.get("counters") or {}).items():  # type: ignore[union-attr]
            self.inc(name, float(v))
        for name, v in (doc.get("gauges") or {}).items():  # type: ignore[union-attr]
            with self._lock:
                self._gauges[name] = self._gauges.get(name, 0.0) + float(v)
        for name, hdoc in (doc.get("histograms") or {}).items():  # type: ignore[union-attr]
            incoming = FixedHistogram.from_dict(hdoc)
            with self._lock:
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = incoming
                else:
                    self._histograms[name] = mine.merge(incoming)

    @classmethod
    def merge_docs(
        cls, docs: Iterable[Mapping[str, object]]
    ) -> Dict[str, object]:
        """Merge any number of :meth:`as_doc` snapshots into one doc."""
        reg = cls()
        for doc in docs:
            if doc:
                reg.merge_doc(doc)
        return reg.as_doc()
