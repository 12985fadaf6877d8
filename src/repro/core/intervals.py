"""Half-open interval algebra on the real line.

This module is the substrate for every temporal object in the library:
presence functions of time-varying graphs (Section III-A of the paper),
adjacent/status partitions (Section V), and contact traces.  Intervals are
half-open ``[start, end)`` which makes unions of adjacent intervals exact and
lets a partition of ``[0, T)`` (Definition 5.1) be expressed without overlap.

Two classes are provided:

* :class:`Interval` — an immutable half-open interval ``[start, end)``.
* :class:`IntervalSet` — a normalized (sorted, disjoint, non-adjacent) union
  of intervals supporting the usual set algebra, membership queries, and
  boundary extraction.

The implementation keeps interval sets as plain tuples of floats and uses
binary search (``bisect``) for point queries, so membership is ``O(log k)``
and the algebra is ``O(k)`` in the number of component intervals — fast
enough that presence queries never show up in profiles (the guide's rule:
measure first; this module is dominated by the Steiner search anyway).
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import IntervalError

__all__ = ["Interval", "IntervalSet", "least_reaching", "merge_sorted"]


@dataclass(frozen=True, order=True)
class Interval:
    """An immutable half-open interval ``[start, end)`` with ``start <= end``.

    Degenerate intervals (``start == end``) are permitted as values but are
    treated as empty by all the algebra below.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if math.isnan(self.start) or math.isnan(self.end):
            raise IntervalError("interval endpoints must not be NaN")
        if self.start > self.end:
            raise IntervalError(
                f"interval start {self.start!r} exceeds end {self.end!r}"
            )

    @property
    def empty(self) -> bool:
        """True iff the interval contains no points."""
        return self.start >= self.end

    @property
    def length(self) -> float:
        """Lebesgue measure of the interval."""
        return max(0.0, self.end - self.start)

    def __contains__(self, t: float) -> bool:
        return self.start <= t < self.end

    def contains_interval(self, other: "Interval") -> bool:
        """True iff ``other`` (non-empty) lies entirely within this interval."""
        if other.empty:
            return True
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Interval") -> bool:
        """True iff the two intervals share at least one point."""
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "Interval") -> "Interval":
        """The (possibly empty) intersection of two intervals."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo >= hi:
            return Interval(lo, lo)
        return Interval(lo, hi)

    def shift(self, delta: float) -> "Interval":
        """The interval translated by ``delta``."""
        return Interval(self.start + delta, self.end + delta)

    def clamp(self, lo: float, hi: float) -> "Interval":
        """The part of the interval inside ``[lo, hi)``."""
        return self.intersection(Interval(lo, hi))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start:g}, {self.end:g})"


def _normalize(pairs: Iterable[Tuple[float, float]]) -> Tuple[Tuple[float, float], ...]:
    """Sort, drop empties, and merge overlapping/adjacent half-open pairs."""
    cleaned = sorted((s, e) for s, e in pairs if s < e)
    merged: List[Tuple[float, float]] = []
    for s, e in cleaned:
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return tuple(merged)


class IntervalSet:
    """A normalized finite union of half-open intervals.

    Invariants (maintained by construction): components are non-empty,
    sorted by start, pairwise disjoint, and never adjacent (an adjacent pair
    ``[a,b) ∪ [b,c)`` is stored merged as ``[a,c)``).

    Instances are immutable; all algebra returns new sets.
    """

    __slots__ = ("_pairs", "_starts")

    def __init__(self, intervals: Iterable = ()) -> None:
        pairs: List[Tuple[float, float]] = []
        for item in intervals:
            if isinstance(item, Interval):
                pairs.append((item.start, item.end))
            else:
                s, e = item
                if s > e:
                    raise IntervalError(f"interval start {s!r} exceeds end {e!r}")
                pairs.append((float(s), float(e)))
        self._pairs = _normalize(pairs)
        self._starts = [p[0] for p in self._pairs]

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _of(cls, pairs: Tuple[Tuple[float, float], ...]) -> "IntervalSet":
        """A set over already normalized ``pairs`` (no check, no merge)."""
        out = cls.__new__(cls)
        out._pairs = pairs
        out._starts = [p[0] for p in pairs]
        return out

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def point_free_span(cls, start: float, end: float) -> "IntervalSet":
        """The single interval ``[start, end)``."""
        return cls(((start, end),))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[float, float]]) -> "IntervalSet":
        return cls(pairs)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def intervals(self) -> Tuple[Interval, ...]:
        return tuple(Interval(s, e) for s, e in self._pairs)

    @property
    def pairs(self) -> Tuple[Tuple[float, float], ...]:
        return self._pairs

    @property
    def is_empty(self) -> bool:
        return not self._pairs

    @property
    def measure(self) -> float:
        """Total Lebesgue measure of the set."""
        return sum(e - s for s, e in self._pairs)

    @property
    def span(self) -> Interval:
        """Smallest interval containing the whole set (empty set → [0,0))."""
        if not self._pairs:
            return Interval(0.0, 0.0)
        return Interval(self._pairs[0][0], self._pairs[-1][1])

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = " ∪ ".join(f"[{s:g},{e:g})" for s, e in self._pairs) or "∅"
        return f"IntervalSet({body})"

    # ------------------------------------------------------------------
    # point / interval queries
    # ------------------------------------------------------------------
    def __contains__(self, t: float) -> bool:
        return self.contains_point(t)

    def contains_point(self, t: float) -> bool:
        """O(log k) membership test for a single time point."""
        idx = bisect_right(self._starts, t) - 1
        if idx < 0:
            return False
        s, e = self._pairs[idx]
        return s <= t < e

    def covers(self, start: float, end: float) -> bool:
        """True iff the whole CLOSED interval ``[start, end]`` is contained.

        This is the paper's ``ρ_τ`` requirement — presence at every
        ``t' ∈ [t, t + τ]`` — so with half-open components the query must end
        strictly inside one (``end < e``), which keeps ``covers`` exactly
        consistent with :meth:`erode`: ``covers(t, t+τ) ⟺ erode(τ) ∋ t``.
        A degenerate query (``start == end``) reduces to point membership.
        """
        if start > end:
            raise IntervalError("covers() requires start <= end")
        if start == end:
            return self.contains_point(start)
        idx = bisect_right(self._starts, start) - 1
        if idx < 0:
            return False
        s, e = self._pairs[idx]
        return s <= start and end < e

    def interval_at(self, t: float) -> Interval:
        """The maximal component interval containing ``t``.

        Raises :class:`IntervalError` if ``t`` is not in the set.
        """
        idx = bisect_right(self._starts, t) - 1
        if idx >= 0:
            s, e = self._pairs[idx]
            if s <= t < e:
                return Interval(s, e)
        raise IntervalError(f"time {t!r} is not in the interval set")

    def next_start_after(self, t: float) -> float:
        """The smallest component start strictly greater than ``t``.

        Returns ``math.inf`` when no component starts after ``t``.  Used by
        schedulers to skip to the next contact opportunity.
        """
        idx = bisect_right(self._starts, t)
        if idx < len(self._starts):
            return self._starts[idx]
        return math.inf

    # ------------------------------------------------------------------
    # set algebra
    # ------------------------------------------------------------------
    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet._of(_normalize(self._pairs + other._pairs))

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        result: List[Tuple[float, float]] = []
        i = j = 0
        a, b = self._pairs, other._pairs
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                result.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet._of(tuple(result))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other.complement(*self._span_bounds()))

    def complement(self, lo: float, hi: float) -> "IntervalSet":
        """The complement of the set within ``[lo, hi)``."""
        if lo > hi:
            raise IntervalError("complement() requires lo <= hi")
        result: List[Tuple[float, float]] = []
        cursor = lo
        for s, e in self._pairs:
            if e <= lo:
                continue
            if s >= hi:
                break
            s_c, e_c = max(s, lo), min(e, hi)
            if cursor < s_c:
                result.append((cursor, s_c))
            cursor = max(cursor, e_c)
        if cursor < hi:
            result.append((cursor, hi))
        return IntervalSet._of(tuple(p for p in result if p[0] < p[1]))

    def _span_bounds(self) -> Tuple[float, float]:
        if not self._pairs:
            return (0.0, 0.0)
        return (self._pairs[0][0], self._pairs[-1][1])

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other)

    # ------------------------------------------------------------------
    # geometric transforms
    # ------------------------------------------------------------------
    def shift(self, delta: float) -> "IntervalSet":
        return IntervalSet((s + delta, e + delta) for s, e in self._pairs)

    def clamp(self, lo: float, hi: float) -> "IntervalSet":
        """Restrict the set to ``[lo, hi)``."""
        return self.intersection(IntervalSet(((lo, hi),)))

    def erode(self, tau: float) -> "IntervalSet":
        """Shrink every component to starts whose ``τ``-window stays inside.

        ``erode(τ)`` maps each component ``[s, e)`` to ``[s, e − τ)``: the set
        of times ``t`` with ``[t, t + τ] ⊆ [s, e]``.  This is exactly the
        paper's ``ρ_τ`` operator (Section IV): a transmission started at ``t``
        completes iff the link is present throughout ``[t, t + τ]``.

        In floating point the end is the least ``x`` whose rounded
        ``x + τ`` reaches ``e``, and a component is kept iff ``s + τ < e``,
        so membership agrees with :meth:`covers` at every float ``t``;
        the rounded ``e − τ`` can be an ulp off either way.
        """
        if tau < 0:
            raise IntervalError("erode() requires tau >= 0")
        if tau == 0:
            return self
        return IntervalSet(
            (s, least_reaching(e, tau)) for s, e in self._pairs if s + tau < e
        )

    # ------------------------------------------------------------------
    # boundary extraction (feeds partitions, Section V)
    # ------------------------------------------------------------------
    def boundaries(self) -> Tuple[float, ...]:
        """All component endpoints, sorted ascending, deduplicated."""
        points: List[float] = []
        for s, e in self._pairs:
            points.append(s)
            points.append(e)
        return tuple(sorted(set(points)))

    def boundaries_within(self, lo: float, hi: float) -> Tuple[float, ...]:
        """Boundary points falling inside ``[lo, hi]``."""
        return tuple(p for p in self.boundaries() if lo <= p <= hi)


_SIGN = 1 << 63


def _float_position(x: float) -> int:
    """``x``'s rank in the order of the floats (``±0.0`` rank 0)."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return bits if bits < _SIGN else _SIGN - bits


def _float_at(k: int) -> float:
    """The float of rank ``k`` (:func:`_float_position`'s inverse)."""
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else _SIGN - k))[0]


def least_reaching(e: float, tau: float) -> float:
    """The least float ``x`` with ``x + tau >= e`` in floating point.

    Rounded addition is monotone in ``x``, so the answer is a boundary in
    the order of the floats.  It usually lies within an ulp or two of the
    rounded ``e - tau``; when ``e - tau`` is far smaller than ``e`` its
    ulps are too, and the boundary is found by bisecting the float ranks.
    """
    x = e - tau
    for _ in range(4):
        if x + tau < e:
            x = math.nextafter(x, math.inf)
            continue
        below = math.nextafter(x, -math.inf)
        if below + tau < e:
            return x
        x = below
    lo, hi = _float_position(-math.inf), _float_position(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _float_at(mid) + tau >= e:
            hi = mid
        else:
            lo = mid
    return _float_at(hi)


def merge_all(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Union of an arbitrary collection of interval sets."""
    pairs: List[Tuple[float, float]] = []
    for s in sets:
        pairs.extend(s.pairs)
    return IntervalSet._of(_normalize(pairs))


def merge_sorted(
    group: "np.ndarray", start: "np.ndarray", end: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """:func:`_normalize`'s merge, for many sets at once.

    The rows ``[start, end)`` must be non-empty and sorted by ``(group,
    start, end)``, a group's rows contiguous.  Within a group a row whose
    start is at most the largest end of the rows before it joins their
    component.  Returns ``(first, reach)``: the row opening each merged
    component (it gives the component's group and start) and the
    component's end, the first of its rows' largest ends.
    """
    n = len(start)
    # reach[i]: the largest end of the rows of i's group up to i, the
    # earlier row's on ties, by doubling: after the pass at offset k it
    # covers the 2k rows ending at i (a row k back in the same group has
    # only that group's rows between)
    reach = end.copy()
    k = 1
    while k < n:
        same = group[k:] == group[:-k]
        if not same.any():
            break
        earlier, later = reach[:-k], reach[k:]
        reach[k:] = np.where(same & (earlier >= later), earlier, later)
        k *= 2
    opens = np.ones(n, dtype=bool)
    opens[1:] = (group[1:] != group[:-1]) | (start[1:] > reach[:-1])
    first = np.flatnonzero(opens)
    return first, reach[np.r_[first[1:] - 1, n - 1]] if n else reach
