"""Columnar contact storage: million-contact traces with bounded memory.

A :class:`~repro.traces.model.ContactTrace` keeps one frozen ``Contact``
dataclass per record — convenient at N=50, but a Haggle-like N=1000 trace
has ~10^6 contacts, and a million Python objects (plus the per-object dict
entries the TVG build layers on top) dwarf the 32 bytes of payload each
record actually carries.  :class:`ContactStore` keeps the same records as
four parallel columns instead:

* ``start``, ``end`` — ``float64`` columns (stdlib ``array('d')``, or
  zero-copy numpy views when the store is mmap-loaded);
* ``u``, ``v`` — interned node ids (``int`` columns indexing the store's
  node table).

Rows are kept in the **same canonical order** as ``ContactTrace``: stably
sorted by ``(start, end)``, with the node table in first-appearance order
over that sorted sequence.  Because every derived structure — fingerprint,
``pair_presence``, TVG presence sets, adjacency events, DCS floats,
schedules — is a pure function of that ordered record sequence, the store
is a drop-in trace backend with **byte-identical** results; the dict-backed
``ContactTrace`` remains the parity oracle, exactly as the networkx
auxiliary-graph build is for the graph layer.

On-disk format (``repro.ctrace/1``)
-----------------------------------
A ``.ctrace`` file is mmap-friendly: a fixed 16-byte magic, a little-endian
``uint64`` header length, a JSON header (node table, horizon, row count,
fingerprint, absolute block offsets), then 8-byte-aligned struct-packed
column blocks::

    magic   b"repro.ctrace/1\\n\\0"
    u64     header length in bytes
    bytes   header JSON (utf-8)
    ...     padding to 8-byte alignment
    block   u        uint32 × count        interned node ids
    block   v        uint32 × count
    block   start    float64 × count
    block   end      float64 × count
    block   indptr   uint64 × (nodes + 1)  CSR per-node row index
    block   indices  uint32 × (2 × count)  row ids, time-sorted per node

The fingerprint is computed **during finalize** and persisted in the
header, so loading a ``.ctrace`` answers :meth:`ContactStore.fingerprint`
— the planning service's cache key — in O(1) without re-reading a single
row.  The CSR index gives every consumer (``NodeSweep`` event lists,
adjacency queries, windowed slicing) contiguous per-node row slices
instead of dict scans.

Streaming ingestion (:func:`ingest_crawdad` / :func:`ingest_csv`) parses
one line at a time straight into the columns — the trace is never
materialized as Python objects — with exactly the validation semantics of
:mod:`repro.traces.parser` (same skips, same error messages).
"""

from __future__ import annotations

import csv
import io
import json
import mmap
import struct
from array import array
from hashlib import sha256
from pathlib import Path
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from ..core.intervals import IntervalSet
from ..errors import TraceFormatError
from ..temporal.tvg import TVG, edge_key
from .model import Contact, ContactTrace

__all__ = [
    "ContactStore",
    "ingest_crawdad",
    "ingest_csv",
    "ingest_path",
    "CTRACE_SUFFIX",
]

Node = Hashable
PathLike = Union[str, Path]

#: file extension :func:`repro.traces.parser.load_trace` dispatches on
CTRACE_SUFFIX = ".ctrace"

_MAGIC = b"repro.ctrace/1\n\0"
_FP_CHUNK = 65536  # rows hashed per fingerprint batch


def _np():
    """numpy when importable, else None (the store is stdlib-complete)."""
    try:
        import numpy

        return numpy
    except ImportError:  # pragma: no cover - exercised on numpy-free legs
        return None


def _tolist(column, lo: int = 0, hi: Optional[int] = None) -> list:
    """A python-value list slice of a column (array or ndarray)."""
    part = column[lo:hi] if hi is not None else column[lo:]
    return part.tolist()


class ContactStore:
    """A contact trace as four parallel columns plus an interned node table.

    Construct via :meth:`from_rows`, :meth:`from_trace`, :meth:`from_arrays`,
    :meth:`load`, or the streaming :func:`ingest_crawdad` / :func:`ingest_csv`
    parsers — never directly.  Instances are immutable; every transform
    (:meth:`restrict_window`, :meth:`shift`, :meth:`restrict_nodes`) returns
    a new store.
    """

    __slots__ = (
        "_u",
        "_v",
        "_start",
        "_end",
        "_nodes",
        "_horizon",
        "_fingerprint",
        "_csr",
        "_mmap",
        "_nindex",
    )

    def __init__(self, u, v, start, end, nodes, horizon, fingerprint=None,
                 csr=None, mm=None):
        self._u = u
        self._v = v
        self._start = start
        self._end = end
        self._nodes: Tuple[Node, ...] = nodes
        self._horizon = float(horizon)
        self._fingerprint: Optional[str] = fingerprint
        #: (indptr, indices) CSR row index, built lazily or mmap-loaded
        self._csr = csr
        self._mmap = mm  # keeps a zero-copy load's buffer alive
        self._nindex: Optional[Dict[Node, int]] = None

    # ------------------------------------------------------------------
    # pickling (the sharded planning service ships traces to workers)
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Columns, nodes, horizon, fingerprint — no mmap, no lazy caches.

        numpy pickles array *data* (a mmap-backed view serializes as a
        plain copy), so a loaded ``.ctrace`` store crosses process
        boundaries intact; the CSR index and node-position dict rebuild
        lazily on the other side.
        """
        return (self._u, self._v, self._start, self._end,
                self._nodes, self._horizon, self._fingerprint)

    def __setstate__(self, state) -> None:
        u, v, start, end, nodes, horizon, fingerprint = state
        self.__init__(u, v, start, end, nodes, horizon,
                      fingerprint=fingerprint)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Tuple[Node, Node, float, float]],
        nodes: Optional[Sequence[Node]] = None,
        horizon: Optional[float] = None,
    ) -> "ContactStore":
        """Build a store from ``(u, v, start, end)`` rows.

        Validation matches :class:`~repro.traces.model.Contact`: a row with
        ``start > end`` or ``u == v`` raises
        :class:`~repro.errors.TraceFormatError` with the same message.
        """
        b = _Builder()
        for u, v, s, e in rows:
            b.append(u, v, s, e)
        return b.finalize(nodes=nodes, horizon=horizon)

    @classmethod
    def from_trace(cls, trace: ContactTrace) -> "ContactStore":
        """The columnar twin of a dict-backed trace (same nodes, horizon,
        fingerprint, and derived structures — the parity tests assert it)."""
        b = _Builder()
        for c in trace:
            b.append(c.u, c.v, c.start, c.end)
        return b.finalize(nodes=trace.nodes, horizon=trace.horizon)

    @classmethod
    def from_arrays(
        cls,
        u,
        v,
        start,
        end,
        nodes: Optional[Sequence[Node]] = None,
        horizon: Optional[float] = None,
    ) -> "ContactStore":
        """Bulk construction from whole columns of **int node labels**.

        The vectorized entry point for synthetic generators: no per-row
        Python loop when numpy is available.  Rows violating the
        :class:`Contact` invariants raise like :meth:`from_rows`.
        """
        np = _np()
        if np is None:
            return cls.from_rows(
                zip(list(u), list(v), list(start), list(end)),
                nodes=nodes,
                horizon=horizon,
            )
        ua = np.asarray(u, dtype=np.int64)
        va = np.asarray(v, dtype=np.int64)
        sa = np.asarray(start, dtype=np.float64)
        ea = np.asarray(end, dtype=np.float64)
        bad = np.flatnonzero(sa > ea)
        if len(bad):
            i = int(bad[0])
            raise TraceFormatError(
                f"contact start {float(sa[i])} exceeds end {float(ea[i])}"
            )
        selfc = np.flatnonzero(ua == va)
        if len(selfc):
            raise TraceFormatError(
                f"self-contact on node {int(ua[int(selfc[0])])!r}"
            )
        order = np.lexsort((ea, sa))  # stable: ties keep input order
        ua, va, sa, ea = ua[order], va[order], sa[order], ea[order]
        # First-appearance node order over the sorted (u, v) sequence.
        inter = np.empty(2 * len(ua), dtype=np.int64)
        inter[0::2] = ua
        inter[1::2] = va
        uniq, first = np.unique(inter, return_index=True)
        appearance = inter[np.sort(first)]
        inferred = [int(x) for x in appearance.tolist()]
        if nodes is not None:
            final_nodes = tuple(dict.fromkeys(list(nodes) + inferred))
        else:
            final_nodes = tuple(inferred)
        index = {n: i for i, n in enumerate(final_nodes)}
        remap = np.empty(len(uniq), dtype=np.int64)
        for pos, label in enumerate(uniq.tolist()):
            remap[pos] = index[int(label)]
        ui = remap[np.searchsorted(uniq, ua)]
        vi = remap[np.searchsorted(uniq, va)]
        if horizon is None:
            horizon = float(ea.max()) if len(ea) else 0.0
        return cls(ui, vi, sa, ea, final_nodes, horizon)

    # ------------------------------------------------------------------
    # basic accessors (the ContactTrace surface)
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

    def iter_rows(self) -> Iterator[Tuple[Node, Node, float, float]]:
        """All rows as ``(u, v, start, end)`` python values, sorted order."""
        nodes = self._nodes
        n = len(self._start)
        for lo in range(0, n, _FP_CHUNK):
            hi = min(lo + _FP_CHUNK, n)
            for ui, vi, s, e in zip(
                _tolist(self._u, lo, hi),
                _tolist(self._v, lo, hi),
                _tolist(self._start, lo, hi),
                _tolist(self._end, lo, hi),
            ):
                yield nodes[ui], nodes[vi], s, e

    def __iter__(self) -> Iterator[Contact]:
        for u, v, s, e in self.iter_rows():
            yield Contact(s, e, u, v)

    @property
    def contacts(self) -> Tuple[Contact, ...]:
        """All rows as ``Contact`` objects.  **Materializes** — prefer
        :meth:`iter_rows` on large stores."""
        return tuple(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ContactStore(|V|={self.num_nodes}, "
            f"contacts={self.num_contacts}, horizon={self._horizon:g})"
        )

    def time_span(self) -> Tuple[float, float]:
        """``(earliest start, latest end)`` over all rows (``(0, 0)`` empty)."""
        if not len(self._start):
            return (0.0, 0.0)
        first = float(self._start[0])
        np = _np()
        if np is not None and isinstance(self._end, np.ndarray):
            last = float(self._end.max())
        else:
            last = max(self._end)
        return (first, last)

    # ------------------------------------------------------------------
    # fingerprint (byte-identical to ContactTrace.fingerprint)
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """The trace content hash, exactly as the dict-backed path computes
        it — same sha256 byte stream, same 16-hex-digit prefix — so service
        plan-cache keys and manifests are backend-independent.  Persisted in
        the ``.ctrace`` header, so mmap-loaded stores answer in O(1)."""
        if self._fingerprint is None:
            h = sha256()
            h.update(repr((self._nodes, self._horizon)).encode("utf-8"))
            nodes = self._nodes
            n = len(self._start)
            for lo in range(0, n, _FP_CHUNK):
                hi = min(lo + _FP_CHUNK, n)
                # "".join of per-row reprs == the per-contact update stream:
                # repr((s, e, u, v)) is "(" + ", ".join(reprs) + ")".
                h.update(
                    "".join(
                        f"({s!r}, {e!r}, {nodes[ui]!r}, {nodes[vi]!r})"
                        for ui, vi, s, e in zip(
                            _tolist(self._u, lo, hi),
                            _tolist(self._v, lo, hi),
                            _tolist(self._start, lo, hi),
                            _tolist(self._end, lo, hi),
                        )
                    ).encode("utf-8")
                )
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    # ------------------------------------------------------------------
    # CSR per-node row index
    # ------------------------------------------------------------------
    def _build_csr(self):
        n = len(self._start)
        np = _np()
        if np is not None:
            ua = np.asarray(self._u, dtype=np.int64)
            va = np.asarray(self._v, dtype=np.int64)
            inter = np.empty(2 * n, dtype=np.int64)
            inter[0::2] = ua
            inter[1::2] = va
            rows = np.repeat(np.arange(n, dtype=np.int64), 2)
            order = np.argsort(inter, kind="stable")
            indices = rows[order]
            counts = np.bincount(inter, minlength=self.num_nodes)
            indptr = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
            )
            return indptr, indices
        per: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for row, (ui, vi) in enumerate(zip(self._u, self._v)):
            per[ui].append(row)
            per[vi].append(row)
        indptr = array("q", [0])
        indices = array("q")
        total = 0
        for lst in per:
            total += len(lst)
            indptr.append(total)
            indices.extend(lst)
        return indptr, indices

    def _csr_index(self):
        if self._csr is None:
            self._csr = self._build_csr()
        return self._csr

    def _node_pos(self, node: Node) -> int:
        if self._nindex is None:
            self._nindex = {n: i for i, n in enumerate(self._nodes)}
        try:
            return self._nindex[node]
        except KeyError:
            raise TraceFormatError(f"unknown node {node!r}") from None

    def node_contacts(self, node: Node) -> list:
        """Row ids of every contact incident to ``node``, in the global
        time-sorted row order — one contiguous CSR slice, no dict scan."""
        ni = self._node_pos(node)
        indptr, indices = self._csr_index()
        lo, hi = int(indptr[ni]), int(indptr[ni + 1])
        return _tolist(indices, lo, hi)

    def adjacency_events(
        self,
        node: Node,
        tau: float = 0.0,
        horizon: Optional[float] = None,
    ) -> Tuple:
        """The node's sorted adjacency-change events straight from the CSR
        slice — tuple-for-tuple what
        :func:`repro.temporal.sweep.adjacency_events` derives on the
        equivalent TVG (same neighbor order, same clamped/eroded floats,
        same stable time sort)."""
        from ..temporal.sweep import events_from_components

        h = self._horizon if horizon is None else horizon
        ni = self._node_pos(node)
        indptr, indices = self._csr_index()
        lo, hi = int(indptr[ni]), int(indptr[ni + 1])
        rows = _tolist(indices, lo, hi)
        by_neighbor: Dict[int, List[Tuple[float, float]]] = {}
        ucol, vcol, scol, ecol = self._u, self._v, self._start, self._end
        for r in rows:
            ui = int(ucol[r])
            oi = int(vcol[r]) if ui == ni else ui
            by_neighbor.setdefault(oi, []).append(
                (float(scol[r]), float(ecol[r]))
            )
        nodes = self._nodes
        return events_from_components(
            (
                nodes[oi],
                IntervalSet(pairs).clamp(0.0, h).erode(tau).pairs,
            )
            for oi, pairs in by_neighbor.items()
        )

    # ------------------------------------------------------------------
    # bulk queries (parity surface of ContactTrace)
    # ------------------------------------------------------------------
    def pair_presence(self) -> Dict[Tuple[Node, Node], IntervalSet]:
        """Presence interval set per node pair — pairs in first-occurrence
        order over the sorted rows, exactly like the dict-backed path (the
        :class:`~repro.traces.enrich.DistanceModel` rng draw order, hence
        every DCS float, depends on it)."""
        nodes = self._nodes
        out: Dict[Tuple[Node, Node], List[Tuple[float, float]]] = {}
        for u, v, s, e in self.iter_rows():
            out.setdefault(edge_key(u, v), []).append((s, e))
        return {k: IntervalSet(v) for k, v in out.items()}

    def restrict_nodes(self, nodes: Sequence[Node]) -> "ContactStore":
        """The sub-store induced on a node subset (keeps the given order)."""
        keep = {n for n in nodes}
        keep_idx = {i for i, n in enumerate(self._nodes) if n in keep}
        b = _Builder()
        node_tab = self._nodes
        for ui, vi, s, e in zip(
            _tolist(self._u), _tolist(self._v),
            _tolist(self._start), _tolist(self._end),
        ):
            if ui in keep_idx and vi in keep_idx:
                b.append(node_tab[ui], node_tab[vi], s, e)
        return b.finalize(nodes=tuple(nodes), horizon=self._horizon)

    def restrict_window(self, start: float, end: float) -> "ContactStore":
        """The sub-store clipped to ``[start, end)`` — same clipped floats
        and row order as :meth:`ContactTrace.restrict_window`."""
        if start >= end:
            raise TraceFormatError("window start must precede end")
        np = _np()
        if np is not None:
            sa = np.asarray(self._start, dtype=np.float64)
            ea = np.asarray(self._end, dtype=np.float64)
            s_c = np.maximum(sa, start)
            e_c = np.minimum(ea, end)
            keep = s_c < e_c
            return self._transformed(
                np.asarray(self._u, dtype=np.int64)[keep],
                np.asarray(self._v, dtype=np.int64)[keep],
                s_c[keep],
                e_c[keep],
                self._horizon,
                np,
            )
        b = _Builder()
        node_tab = self._nodes
        for ui, vi, s, e in zip(self._u, self._v, self._start, self._end):
            s_c, e_c = max(s, start), min(e, end)
            if s_c < e_c:
                b.append(node_tab[ui], node_tab[vi], s_c, e_c)
        return b.finalize(nodes=self._nodes, horizon=self._horizon)

    def shift(self, delta: float) -> "ContactStore":
        """All times translated by ``delta`` (clamped at 0), horizon
        included — the float expressions of :meth:`ContactTrace.shift`."""
        np = _np()
        if np is not None:
            sa = np.asarray(self._start, dtype=np.float64)
            ea = np.asarray(self._end, dtype=np.float64)
            keep = (ea + delta) > 0
            s_c = np.maximum(0.0, sa[keep] + delta)
            e_c = np.maximum(0.0, ea[keep] + delta)
            return self._transformed(
                np.asarray(self._u, dtype=np.int64)[keep],
                np.asarray(self._v, dtype=np.int64)[keep],
                s_c,
                e_c,
                self._horizon + delta,
                np,
            )
        b = _Builder()
        node_tab = self._nodes
        for ui, vi, s, e in zip(self._u, self._v, self._start, self._end):
            if e + delta > 0:
                b.append(
                    node_tab[ui],
                    node_tab[vi],
                    max(0.0, s + delta),
                    max(0.0, e + delta),
                )
        return b.finalize(nodes=self._nodes, horizon=self._horizon + delta)

    def _transformed(self, ui, vi, sa, ea, horizon, np) -> "ContactStore":
        """Re-sort transformed columns; node table kept verbatim (matching
        ``ContactTrace(..., nodes=self._nodes, ...)``: inferred ⊆ nodes)."""
        order = np.lexsort((ea, sa))
        return ContactStore(
            ui[order], vi[order], sa[order], ea[order],
            self._nodes, horizon,
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_trace(self) -> ContactTrace:
        """Materialize as a dict-backed :class:`ContactTrace` (the oracle)."""
        return ContactTrace(self, nodes=self._nodes, horizon=self._horizon)

    def to_tvg(self, tau: float = 0.0, horizon: Optional[float] = None) -> TVG:
        """Materialize the trace as a TVG — one bulk presence set per edge
        (grouped CSR pass) instead of a per-contact union chain, with
        adjacency-event lists served from the store's CSR index.

        Presence sets, node order, incident order, and event tuples are
        element-identical to ``ContactTrace.to_tvg`` (clamping distributes
        over union; interval normalization is one-shot associative).
        """
        h = self._horizon if horizon is None else horizon
        tvg = _StoreBackedTVG(self._nodes, h, tau)
        # Group rows per edge in first-occurrence order over sorted rows —
        # the dict-backed path's edge-first-add (hence incident) order.
        per_edge: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        for ui, vi, s, e in zip(
            _tolist(self._u), _tolist(self._v),
            _tolist(self._start), _tolist(self._end),
        ):
            key = (ui, vi) if ui < vi else (vi, ui)
            per_edge.setdefault(key, []).append((s, e))
        nodes = self._nodes
        for (ai, bi), pairs in per_edge.items():
            tvg.set_presence(nodes[ai], nodes[bi], IntervalSet(pairs))
        tvg._attach_store(self)
        return tvg

    # ------------------------------------------------------------------
    # .ctrace on-disk format
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Write the store as a ``repro.ctrace/1`` file (see module doc).

        Node labels must be ints or strings (JSON-representable); the
        fingerprint and the CSR index are computed now and persisted.
        """
        nodes = self._nodes
        if all(isinstance(n, int) and not isinstance(n, bool) for n in nodes):
            node_kind = "int"
        elif all(isinstance(n, str) for n in nodes):
            node_kind = "str"
        else:
            raise TraceFormatError(
                "only int or str node labels can be saved to .ctrace "
                f"(got {sorted({type(n).__name__ for n in nodes})})"
            )
        n = len(self._start)
        fp = self.fingerprint()
        indptr, indices = self._csr_index()
        blocks = [
            ("u", "<%dI" % n, _tolist(self._u)),
            ("v", "<%dI" % n, _tolist(self._v)),
            ("start", "<%dd" % n, _tolist(self._start)),
            ("end", "<%dd" % n, _tolist(self._end)),
            ("indptr", "<%dQ" % (self.num_nodes + 1), _tolist(indptr)),
            ("indices", "<%dI" % (2 * n), _tolist(indices)),
        ]
        # Two-pass offset computation: header size depends on the offsets,
        # so fix the header with placeholder offsets of equal width first.
        def layout(offsets: Dict[str, int]) -> bytes:
            header = {
                "format": "repro.ctrace",
                "version": 1,
                "count": n,
                "node_kind": node_kind,
                "nodes": list(nodes),
                "horizon": self._horizon,
                "fingerprint": fp,
                "blocks": {
                    name: [offsets.get(name, 0), struct.calcsize(fmt)]
                    for name, fmt, _ in blocks
                },
            }
            return json.dumps(header, separators=(",", ":")).encode("utf-8")

        offsets = {name: 0 for name, _, _ in blocks}
        for _ in range(8):  # fixpoint: offset digits can widen the header
            hdr = layout(offsets)
            pos = _align(len(_MAGIC) + 8 + len(hdr))
            new_offsets = {}
            for name, fmt, _ in blocks:
                new_offsets[name] = pos
                pos = _align(pos + struct.calcsize(fmt))
            if new_offsets == offsets:
                break
            offsets = new_offsets
        hdr = layout(offsets)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(hdr)))
            fh.write(hdr)
            pos = len(_MAGIC) + 8 + len(hdr)
            for name, fmt, values in blocks:
                fh.write(b"\0" * (offsets[name] - pos))
                payload = struct.pack(fmt, *values)
                fh.write(payload)
                pos = offsets[name] + len(payload)

    @classmethod
    def load(cls, path: PathLike) -> "ContactStore":
        """Load a ``.ctrace`` file.

        With numpy the columns are zero-copy views over an ``mmap`` of the
        file; without it they are copied into stdlib arrays.  Either way the
        fingerprint comes from the header — no row pass.
        """
        fh = open(path, "rb")
        try:
            head = fh.read(len(_MAGIC))
            if head != _MAGIC:
                raise TraceFormatError(
                    f"{path}: not a repro.ctrace/1 file (bad magic)"
                )
            (hlen,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(hlen).decode("utf-8"))
            if header.get("version") != 1:
                raise TraceFormatError(
                    f"{path}: unsupported ctrace version "
                    f"{header.get('version')!r}"
                )
            n = header["count"]
            nodes = tuple(header["nodes"])
            blocks = header["blocks"]
            np = _np()
            if np is not None:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)

                def col(name, dtype, count):
                    off, _size = blocks[name]
                    return np.frombuffer(mm, dtype=dtype, count=count,
                                         offset=off)

                store = cls(
                    col("u", "<u4", n).astype(np.int64),
                    col("v", "<u4", n).astype(np.int64),
                    col("start", "<f8", n),
                    col("end", "<f8", n),
                    nodes,
                    header["horizon"],
                    fingerprint=header["fingerprint"],
                    csr=(
                        col("indptr", "<u8", len(nodes) + 1).astype(np.int64),
                        col("indices", "<u4", 2 * n).astype(np.int64),
                    ),
                    mm=mm,
                )
                return store

            def acol(name, code, fmt_char, count):
                off, size = blocks[name]
                fh.seek(off)
                out = array(code)
                out.frombytes(fh.read(struct.calcsize("<%d%s" % (count,
                                                                 fmt_char))))
                return out

            return cls(
                acol("u", "I", "I", n),
                acol("v", "I", "I", n),
                acol("start", "d", "d", n),
                acol("end", "d", "d", n),
                nodes,
                header["horizon"],
                fingerprint=header["fingerprint"],
                csr=(
                    acol("indptr", "Q", "Q", len(nodes) + 1),
                    acol("indices", "I", "I", 2 * n),
                ),
            )
        except (KeyError, ValueError, struct.error) as exc:
            raise TraceFormatError(f"{path}: corrupt ctrace file: {exc}") \
                from exc
        finally:
            fh.close()


def _align(pos: int, to: int = 8) -> int:
    return (pos + to - 1) // to * to


class _StoreBackedTVG(TVG):
    """A TVG whose adjacency-event lists come from the store's CSR index.

    Behaviorally identical to a plain TVG (the store events are
    tuple-for-tuple the sweep derivation); mutating the TVG after
    construction falls back to the generic event builder, so the usual
    version discipline holds.
    """

    def _attach_store(self, store: ContactStore) -> None:
        self._store = store
        self._store_version = self._version

    def adjacency_events(self, node):
        store = getattr(self, "_store", None)
        if store is None or self._version != self._store_version:
            return super().adjacency_events(node)
        self._check_node(node)
        cached = self._events.get(node)
        if cached is None:
            cached = store.adjacency_events(
                node, tau=self._tau, horizon=self._horizon
            )
            self._events[node] = cached
        return cached


# ----------------------------------------------------------------------
# streaming construction
# ----------------------------------------------------------------------

class _Builder:
    """Append-only column builder; :meth:`finalize` sorts, interns, hashes."""

    __slots__ = ("_u", "_v", "_start", "_end", "_intern", "_labels")

    def __init__(self) -> None:
        self._u = array("q")
        self._v = array("q")
        self._start = array("d")
        self._end = array("d")
        self._intern: Dict[Node, int] = {}
        self._labels: List[Node] = []

    def append(self, u: Node, v: Node, start: float, end: float) -> None:
        if start > end:
            raise TraceFormatError(
                f"contact start {start} exceeds end {end}"
            )
        if u == v:
            raise TraceFormatError(f"self-contact on node {u!r}")
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

    def finalize(
        self,
        nodes: Optional[Sequence[Node]] = None,
        horizon: Optional[float] = None,
    ) -> ContactStore:
        n = len(self._start)
        np = _np()
        if np is not None:
            sa = np.frombuffer(self._start, dtype=np.float64).copy()
            ea = np.frombuffer(self._end, dtype=np.float64).copy()
            ua = np.frombuffer(self._u, dtype=np.int64).copy()
            va = np.frombuffer(self._v, dtype=np.int64).copy()
            order = np.lexsort((ea, sa))
            sa, ea, ua, va = sa[order], ea[order], ua[order], va[order]
            u_list, v_list = ua.tolist(), va.tolist()
        else:
            perm = sorted(
                range(n), key=lambda i: (self._start[i], self._end[i])
            )
            sa = array("d", (self._start[i] for i in perm))
            ea = array("d", (self._end[i] for i in perm))
            u_list = [self._u[i] for i in perm]
            v_list = [self._v[i] for i in perm]
        # Node order: first appearance over the *sorted* (u, v) sequence.
        labels = self._labels
        old_to_new: Dict[int, int] = {}
        inferred: List[Node] = []
        if nodes is not None:
            final_nodes = list(dict.fromkeys(nodes))
            index = {lab: i for i, lab in enumerate(final_nodes)}
            for old in _first_appearance(u_list, v_list):
                lab = labels[old]
                pos = index.get(lab)
                if pos is None:
                    pos = index[lab] = len(final_nodes)
                    final_nodes.append(lab)
                old_to_new[old] = pos
        else:
            for old in _first_appearance(u_list, v_list):
                old_to_new[old] = len(inferred)
                inferred.append(labels[old])
            final_nodes = inferred
        if np is not None:
            remap = np.zeros(max(len(labels), 1), dtype=np.int64)
            for old, new in old_to_new.items():
                remap[old] = new
            ua = remap[ua]
            va = remap[va]
        else:
            ua = array("q", (old_to_new[i] for i in u_list))
            va = array("q", (old_to_new[i] for i in v_list))
        if horizon is None:
            if n:
                horizon = float(ea.max()) if np is not None else max(ea)
            else:
                horizon = 0.0
        return ContactStore(ua, va, sa, ea, tuple(final_nodes), horizon)


def _first_appearance(u_list: List[int], v_list: List[int]) -> List[int]:
    """Provisional intern ids in first-appearance order over sorted rows."""
    seen = set()
    out: List[int] = []
    for ui, vi in zip(u_list, v_list):
        if ui not in seen:
            seen.add(ui)
            out.append(ui)
        if vi not in seen:
            seen.add(vi)
            out.append(vi)
    return out


def _open_text(source: Union[PathLike, TextIO]) -> Tuple[TextIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def ingest_crawdad(
    source: Union[PathLike, TextIO],
    node_type: type = int,
    horizon: Optional[float] = None,
) -> ContactStore:
    """Stream a CRAWDAD one-contact-per-line trace into a store.

    Line semantics — column count, ``#`` comments, self-sighting skips,
    error messages — are exactly
    :func:`repro.traces.parser.parse_crawdad`'s; the difference is that no
    ``Contact`` object is ever created: each line lands directly in the
    column builder.
    """
    fh, owns = _open_text(source)
    b = _Builder()
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 4:
                raise TraceFormatError(
                    f"line {lineno}: expected at least 4 columns, "
                    f"got {len(parts)}"
                )
            try:
                u = node_type(parts[0])
                v = node_type(parts[1])
                start = float(parts[2])
                end = float(parts[3])
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
            if u == v:
                continue  # some traces log spurious self-sightings
            if end < start:
                raise TraceFormatError(
                    f"line {lineno}: contact end {end} precedes start {start}"
                )
            b.append(u, v, start, end)
    finally:
        if owns:
            fh.close()
    return b.finalize(horizon=horizon)


def ingest_csv(
    source: Union[PathLike, TextIO],
    node_type: type = int,
    horizon: Optional[float] = None,
) -> ContactStore:
    """Stream a headered ``u,v,start,end`` CSV trace into a store
    (validation semantics of :func:`repro.traces.parser.parse_csv`)."""
    fh, owns = _open_text(source)
    b = _Builder()
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise TraceFormatError("CSV trace is empty")
        required = {"u", "v", "start", "end"}
        missing = required - {f.strip().lower() for f in reader.fieldnames}
        if missing:
            raise TraceFormatError(f"CSV trace lacks columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            norm = {k.strip().lower(): val for k, val in row.items() if k}
            try:
                b.append(
                    node_type(norm["u"]),
                    node_type(norm["v"]),
                    float(norm["start"]),
                    float(norm["end"]),
                )
            except (ValueError, KeyError, TraceFormatError) as exc:
                raise TraceFormatError(f"row {lineno}: {exc}") from exc
    finally:
        if owns:
            fh.close()
    return b.finalize(horizon=horizon)


def ingest_path(
    path: PathLike,
    node_type: type = int,
    horizon: Optional[float] = None,
) -> ContactStore:
    """Load any trace file as a store, dispatching on extension
    (``.ctrace`` → :meth:`ContactStore.load`, ``.csv`` → CSV, else
    CRAWDAD)."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == CTRACE_SUFFIX:
        return ContactStore.load(p)
    if suffix == ".csv":
        return ingest_csv(p, node_type=node_type, horizon=horizon)
    return ingest_crawdad(p, node_type=node_type, horizon=horizon)
