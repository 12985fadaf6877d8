"""Contact-trace data model.

A *contact trace* is the empirical object behind the paper's evaluation: a
set of records ``(u, v, start, end)`` meaning nodes ``u`` and ``v`` were in
radio range throughout ``[start, end)``.  The Haggle project's iMote traces
(citation [12]) have exactly this shape; :class:`ContactTrace` is the one
representation shared by the parsers, the synthetic generators, the
``.ctrace`` files and the TVEG builders.

A trace keeps its records as four parallel columns rather than one object
per record — a Haggle-like N=1000 trace has ~10^6 contacts, and a million
Python objects dwarf the 32 bytes of payload each record carries:

* ``start``, ``end`` — ``float64`` numpy columns (zero-copy views over the
  file when loaded from ``.ctrace``);
* ``u``, ``v`` — interned node ids indexing the trace's node table.

Rows are in **canonical order**: stably sorted by ``(start, end)``, with
the node table in first-appearance order over that sorted sequence (after
any explicitly given nodes).  Every derived structure — fingerprint,
``pair_presence``, TVG presence sets, DCS floats, schedules — is a pure
function of that ordered record sequence.

Every way of building a trace — the constructor, :meth:`ContactTrace.
from_rows`, :meth:`ContactTrace.from_arrays` and the streaming parsers of
:mod:`repro.traces.parser` — ends in one column check: finite times,
``start <= end`` and ``u != v`` on every row, and a finite horizon, or a
:class:`~repro.errors.TraceFormatError` naming the first offending row.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from hashlib import sha256
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.intervals import IntervalSet
from ..errors import TraceFormatError
from ..temporal.tvg import TVG, edge_key

__all__ = ["Contact", "ContactTrace"]

Node = Hashable
Row = Tuple[Node, Node, float, float]

_CHUNK = 65536  # rows converted to python values per batch


def _row_fault(u: Node, v: Node, start: float, end: float) -> Optional[str]:
    """Why ``(u, v, start, end)`` is not a contact, or ``None``."""
    if not (math.isfinite(start) and math.isfinite(end)):
        return f"contact times must be finite, got start {start} end {end}"
    if start > end:
        return f"contact start {start} exceeds end {end}"
    if u == v:
        return f"self-contact on node {u!r}"
    return None


@dataclass(frozen=True, order=True)
class Contact:
    """One contact: nodes ``u`` and ``v`` in range over ``[start, end)``."""

    start: float
    end: float
    u: Node = field(compare=False)
    v: Node = field(compare=False)

    def __post_init__(self) -> None:
        fault = _row_fault(self.u, self.v, self.start, self.end)
        if fault:
            raise TraceFormatError(fault)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def pair(self) -> Tuple[Node, Node]:
        return edge_key(self.u, self.v)


def _check_rows(ui, vi, start, end, labels: Sequence[Node],
                where: Optional[Callable[[int], str]] = None) -> None:
    """Raise :class:`TraceFormatError` at the first row, in input order,
    that is not a contact.  ``ui``/``vi`` index ``labels``; ``where(i)``
    names row ``i``'s source (a parser's line) in the message."""
    bad = ~(np.isfinite(start) & np.isfinite(end) & (start <= end))
    bad |= ui == vi
    if not bad.any():
        return
    i = int(np.argmax(bad))
    fault = _row_fault(labels[int(ui[i])], labels[int(vi[i])],
                       float(start[i]), float(end[i]))
    raise TraceFormatError(f"{where(i)}: {fault}" if where else fault)


def _plain(label: Node) -> Node:
    """A numpy scalar label as its python value (``np.int64(3)`` → ``3``),
    so the node table, fingerprint and ``.ctrace`` header never depend on
    the scalar type a label arrived in."""
    return label.item() if isinstance(label, np.generic) else label


def _columns(ui, vi, start, end, labels: Sequence[Node],
             nodes: Optional[Sequence[Node]], horizon: Optional[float],
             where: Optional[Callable[[int], str]] = None):
    """Check, sort and intern raw columns (``ui``/``vi`` index ``labels``).

    Returns the private-constructor arguments ``(u, v, start, end, nodes,
    horizon)`` of the canonical trace: rows stably sorted by ``(start,
    end)``, node table = the given ``nodes`` then every other label in
    first-appearance order over the sorted rows.
    """
    _check_rows(ui, vi, start, end, labels, where)
    if horizon is None:
        horizon = float(end.max()) if len(end) else 0.0
    elif not math.isfinite(horizon):
        raise TraceFormatError(f"horizon must be finite, got {horizon!r}")
    order = np.lexsort((end, start))  # stable: ties keep input order
    ui, vi, start, end = ui[order], vi[order], start[order], end[order]
    inter = np.empty(2 * len(ui), dtype=np.int64)
    inter[0::2] = ui
    inter[1::2] = vi
    _, first = np.unique(inter, return_index=True)
    final = [_plain(n) for n in dict.fromkeys(nodes)] if nodes is not None \
        else []
    index = {label: pos for pos, label in enumerate(final)}
    remap = np.zeros(max(len(labels), 1), dtype=np.int64)
    for old in inter[np.sort(first)].tolist():
        label = _plain(labels[old])
        pos = index.get(label)
        if pos is None:
            pos = index[label] = len(final)
            final.append(label)
        remap[old] = pos
    return remap[ui], remap[vi], start, end, tuple(final), horizon


class _Builder:
    """Append-only row collector; :meth:`columns` checks, sorts, interns."""

    __slots__ = ("_u", "_v", "_start", "_end", "_intern", "_labels")

    def __init__(self) -> None:
        self._u = array("q")
        self._v = array("q")
        self._start = array("d")
        self._end = array("d")
        self._intern: Dict[Node, int] = {}
        self._labels: List[Node] = []

    def append(self, u: Node, v: Node, start: float, end: float) -> None:
        intern = self._intern
        ui = intern.get(u)
        if ui is None:
            ui = intern[u] = len(self._labels)
            self._labels.append(u)
        vi = intern.get(v)
        if vi is None:
            vi = intern[v] = len(self._labels)
            self._labels.append(v)
        self._u.append(ui)
        self._v.append(vi)
        self._start.append(start)
        self._end.append(end)

    def columns(self, nodes: Optional[Sequence[Node]] = None,
                horizon: Optional[float] = None,
                where: Optional[Callable[[int], str]] = None):
        return _columns(
            np.frombuffer(self._u, dtype=np.int64),
            np.frombuffer(self._v, dtype=np.int64),
            np.frombuffer(self._start, dtype=np.float64),
            np.frombuffer(self._end, dtype=np.float64),
            self._labels, nodes, horizon, where,
        )

    def trace(self, nodes: Optional[Sequence[Node]] = None,
              horizon: Optional[float] = None,
              where: Optional[Callable[[int], str]] = None) -> "ContactTrace":
        return ContactTrace._from_columns(*self.columns(nodes, horizon, where))


class ContactTrace:
    """An immutable, canonically ordered contact trace held as columns.

    ``ContactTrace(contacts, nodes=None, horizon=None)`` builds one from
    :class:`Contact` records; :meth:`from_rows` takes ``(u, v, start,
    end)`` tuples, :meth:`from_arrays` whole columns of int labels, and
    :meth:`load` a ``.ctrace`` file.  ``nodes`` lists nodes to keep ahead
    of the inferred ones (also nodes with no contact); ``horizon``
    defaults to the latest contact end.  Every transform
    (:meth:`restrict_window`, :meth:`shift`, :meth:`restrict_nodes`)
    returns a new trace.
    """

    __slots__ = ("_u", "_v", "_start", "_end", "_nodes", "_horizon",
                 "_fingerprint", "_mmap")

    def __init__(
        self,
        contacts: Iterable[Contact] = (),
        nodes: Optional[Sequence[Node]] = None,
        horizon: Optional[float] = None,
    ) -> None:
        b = _Builder()
        for c in contacts:
            b.append(c.u, c.v, c.start, c.end)
        self._assign(*b.columns(nodes, horizon))

    def _assign(self, u, v, start, end, nodes, horizon, fingerprint=None,
                mm=None) -> None:
        self._u = u
        self._v = v
        self._start = start
        self._end = end
        self._nodes: Tuple[Node, ...] = nodes
        self._horizon = float(horizon)
        self._fingerprint: Optional[str] = fingerprint
        self._mmap = mm  # keeps a zero-copy load's buffer alive

    @classmethod
    def _from_columns(cls, u, v, start, end, nodes, horizon,
                      fingerprint=None, mm=None) -> "ContactTrace":
        """A trace over already canonical columns (no check, no sort)."""
        self = cls.__new__(cls)
        self._assign(u, v, start, end, nodes, horizon, fingerprint, mm)
        return self

    # ------------------------------------------------------------------
    # pickling (the sharded planning service ships traces to workers)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Columns, nodes, horizon, fingerprint — no mmap.

        numpy pickles array *data* (a mmap-backed view serializes as a
        plain copy), so a loaded ``.ctrace`` trace crosses process
        boundaries intact.
        """
        return (self._u, self._v, self._start, self._end,
                self._nodes, self._horizon, self._fingerprint)

    def __setstate__(self, state) -> None:
        self._assign(*state)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Row],
        nodes: Optional[Sequence[Node]] = None,
        horizon: Optional[float] = None,
    ) -> "ContactTrace":
        """Build a trace from ``(u, v, start, end)`` rows."""
        b = _Builder()
        for u, v, s, e in rows:
            b.append(u, v, s, e)
        return b.trace(nodes, horizon)

    @classmethod
    def from_trace(cls, trace) -> "ContactTrace":
        """A copy of any trace-like object: an iterable of
        :class:`Contact` records with ``nodes`` and ``horizon``."""
        return cls(trace, nodes=trace.nodes, horizon=trace.horizon)

    @classmethod
    def from_arrays(
        cls,
        u,
        v,
        start,
        end,
        nodes: Optional[Sequence[Node]] = None,
        horizon: Optional[float] = None,
    ) -> "ContactTrace":
        """Bulk construction from whole columns of **int node labels** —
        the vectorized entry point for synthetic generators."""
        ua = np.asarray(u, dtype=np.int64)
        va = np.asarray(v, dtype=np.int64)
        labels, ids = np.unique(np.concatenate([ua, va]), return_inverse=True)
        n = len(ua)
        return cls._from_columns(*_columns(
            ids[:n], ids[n:],
            np.asarray(start, dtype=np.float64),
            np.asarray(end, dtype=np.float64),
            labels.tolist(), nodes, horizon,
        ))

    @classmethod
    def load(cls, path) -> "ContactTrace":
        """Load a ``.ctrace`` file, checked row by row; its float columns
        are zero-copy views over an ``mmap`` of the file, and its
        fingerprint is hashed from those rows on first use, not read from
        the header (see :mod:`repro.traces.store`)."""
        from .store import read_ctrace

        u, v, start, end, nodes, horizon, mm = read_ctrace(path)
        return cls._from_columns(u, v, start, end, nodes, horizon, mm=mm)

    def save(self, path) -> None:
        """Write the trace as a ``.ctrace`` file, fingerprint included (see
        :mod:`repro.traces.store`).  Node labels must be ints or strings."""
        from .store import write_ctrace

        write_ctrace(path, self._u, self._v, self._start, self._end,
                     self._nodes, self._horizon, self.fingerprint())

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_contacts(self) -> int:
        return len(self._start)

    @property
    def horizon(self) -> float:
        return self._horizon

    def __len__(self) -> int:
        return len(self._start)

    def iter_rows(self) -> Iterator[Row]:
        """All rows as ``(u, v, start, end)`` python values, in order."""
        nodes = self._nodes
        n = len(self._start)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            for ui, vi, s, e in zip(
                self._u[lo:hi].tolist(),
                self._v[lo:hi].tolist(),
                self._start[lo:hi].tolist(),
                self._end[lo:hi].tolist(),
            ):
                yield nodes[ui], nodes[vi], s, e

    def __iter__(self) -> Iterator[Contact]:
        for u, v, s, e in self.iter_rows():
            yield Contact(s, e, u, v)

    @property
    def contacts(self) -> Tuple[Contact, ...]:
        """All rows as ``Contact`` objects.  **Materializes** — prefer
        :meth:`iter_rows` on large traces."""
        return tuple(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ContactTrace(|V|={self.num_nodes}, "
            f"contacts={self.num_contacts}, horizon={self._horizon:g})"
        )

    def time_span(self) -> Tuple[float, float]:
        """``(earliest start, latest end)`` over all rows (``(0, 0)`` empty)."""
        if not len(self._start):
            return (0.0, 0.0)
        return (float(self._start[0]), float(self._end.max()))

    def fingerprint(self) -> str:
        """Short content hash over nodes, horizon, and every contact.

        Two traces with the same records hash identically no matter how
        they were constructed or what scalar types their times came in;
        any contact, node, or horizon change yields a different hash.
        Computed from the rows on first use (one pass) and memoized; a
        loaded ``.ctrace`` trace hashes its own rows too, never trusting
        the copy in the file's header.  The planning service keys its
        content-addressed plan cache on it (via
        :func:`repro.api.plan_broadcast`'s manifest ``config_hash``).
        """
        if self._fingerprint is None:
            h = sha256()
            h.update(repr((self._nodes, self._horizon)).encode("utf-8"))
            nodes = self._nodes
            n = len(self._start)
            for lo in range(0, n, _CHUNK):
                hi = min(lo + _CHUNK, n)
                # One update per chunk hashes the same byte stream as one
                # per row: repr((s, e, u, v)) is "(" + ", ".join(reprs) + ")".
                h.update(
                    "".join(
                        f"({s!r}, {e!r}, {nodes[ui]!r}, {nodes[vi]!r})"
                        for ui, vi, s, e in zip(
                            self._u[lo:hi].tolist(),
                            self._v[lo:hi].tolist(),
                            self._start[lo:hi].tolist(),
                            self._end[lo:hi].tolist(),
                        )
                    ).encode("utf-8")
                )
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    # ------------------------------------------------------------------
    # bulk queries and transforms
    # ------------------------------------------------------------------
    def pair_presence(self) -> Dict[Tuple[Node, Node], IntervalSet]:
        """Presence interval set per node pair (merging overlapping
        contacts), pairs in first-occurrence order over the rows — the
        :class:`~repro.traces.enrich.DistanceModel` rng draw order, hence
        every DCS float, depends on it."""
        out: Dict[Tuple[Node, Node], List[Tuple[float, float]]] = {}
        for u, v, s, e in self.iter_rows():
            out.setdefault(edge_key(u, v), []).append((s, e))
        return {k: IntervalSet(v) for k, v in out.items()}

    def restrict_nodes(self, nodes: Sequence[Node]) -> "ContactTrace":
        """The sub-trace induced on a node subset (paper's varying-N sweeps).

        Keeps the given node ordering, drops contacts touching other nodes.
        """
        keep = set(nodes)
        inside = np.fromiter((n in keep for n in self._nodes), dtype=bool,
                             count=len(self._nodes))
        rows = inside[self._u] & inside[self._v]
        return self._from_columns(*_columns(
            self._u[rows], self._v[rows], self._start[rows], self._end[rows],
            self._nodes, tuple(nodes), self._horizon,
        ))

    def restrict_window(self, start: float, end: float) -> "ContactTrace":
        """The sub-trace clipped to ``[start, end)`` (Fig. 7's sliding windows).

        Raises :class:`TraceFormatError` unless both bounds are finite and
        ``start < end``.
        """
        if not (math.isfinite(start) and math.isfinite(end) and start < end):
            raise TraceFormatError(
                f"window needs finite bounds with start before end, "
                f"got [{start!r}, {end!r})"
            )
        s_c = np.maximum(self._start, start)
        e_c = np.minimum(self._end, end)
        keep = s_c < e_c
        return self._transformed(keep, s_c[keep], e_c[keep], self._horizon)

    def shift(self, delta: float) -> "ContactTrace":
        """The trace with all times translated by ``delta`` (clamped at 0),
        horizon included.  Raises :class:`TraceFormatError` unless
        ``delta`` is finite."""
        if not math.isfinite(delta):
            raise TraceFormatError(f"shift needs a finite delta, got {delta!r}")
        keep = (self._end + delta) > 0
        return self._transformed(
            keep,
            np.maximum(0.0, self._start[keep] + delta),
            np.maximum(0.0, self._end[keep] + delta),
            self._horizon + delta,
        )

    def _transformed(self, keep, start, end, horizon) -> "ContactTrace":
        """The kept rows with new times, re-sorted; the node table is kept
        verbatim (it already holds every label the rows use)."""
        order = np.lexsort((end, start))
        return self._from_columns(
            self._u[keep][order], self._v[keep][order], start[order],
            end[order], self._nodes, horizon,
        )

    def to_tvg(self, tau: float = 0.0, horizon: Optional[float] = None) -> TVG:
        """Materialize the trace as a :class:`~repro.temporal.tvg.TVG`:
        one bulk presence set per edge, edges added in first-occurrence
        order over the rows (which fixes every node's incident order)."""
        h = self._horizon if horizon is None else horizon
        tvg = TVG(self._nodes, h, tau)
        per_edge: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        for ui, vi, s, e in zip(
            self._u.tolist(), self._v.tolist(),
            self._start.tolist(), self._end.tolist(),
        ):
            key = (ui, vi) if ui < vi else (vi, ui)
            per_edge.setdefault(key, []).append((s, e))
        nodes = self._nodes
        for (ai, bi), pairs in per_edge.items():
            tvg.set_presence(nodes[ai], nodes[bi], IntervalSet(pairs))
        return tvg
