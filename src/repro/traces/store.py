"""The ``.ctrace`` on-disk format of a contact trace.

A :class:`~repro.traces.model.ContactTrace` keeps its records as four
columns (see :mod:`repro.traces.model`); a ``.ctrace`` file stores exactly
those columns, so a million-contact trace loads zero-copy in milliseconds.
The header also carries the trace's fingerprint, for readers that take it
from there; :meth:`ContactTrace.load <repro.traces.model.ContactTrace.load>`
does not: a loaded trace hashes its own rows on its first
:meth:`~repro.traces.model.ContactTrace.fingerprint` call, so a file whose
columns were edited never shares the original's plan-cache keys.
``ContactStore`` is the same class under its columnar name.

Format (``repro.ctrace/1``)
---------------------------
A fixed 16-byte magic, a little-endian ``uint64`` header length, a JSON
header, then 8-byte-aligned column blocks::

    magic   b"repro.ctrace/1\\n\\0"
    u64     header length in bytes
    bytes   header JSON (utf-8): format, version, count, node_kind,
            nodes, horizon, fingerprint, blocks
    ...     padding to 8-byte alignment
    block   u        uint32 × count        interned node ids
    block   v        uint32 × count
    block   start    float64 × count
    block   end      float64 × count

``blocks`` maps each block name to ``[absolute offset, size in bytes]``.
The loader reads the four blocks above by name, so a file that carries
more — earlier writers also stored a per-node row index as ``indptr`` and
``indices`` blocks — loads the same.

Loading checks the whole file before it returns a trace: the header fits
the file and names ``count`` rows, distinct node labels of the declared
kind, a finite horizon and a 16-hex-digit fingerprint; every block lies in
the file and holds ``count`` items; and, vectorized, every row indexes the
node table, joins two distinct nodes, has finite times with ``start <=
end``, and rows come in ``(start, end)`` order.  Any failure raises
:class:`~repro.errors.TraceFormatError`.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from pathlib import Path
from typing import Dict, Hashable, Sequence, Union

import numpy as np

from ..errors import TraceFormatError
from .model import ContactTrace, _check_rows

__all__ = ["ContactStore", "CTRACE_SUFFIX"]

ContactStore = ContactTrace

PathLike = Union[str, Path]

#: file extension :func:`repro.traces.parser.load_trace` dispatches on
CTRACE_SUFFIX = ".ctrace"

_MAGIC = b"repro.ctrace/1\n\0"
_PREFIX = len(_MAGIC) + 8  # magic + header length
#: (block name, little-endian dtype) of the columns, in file order
_BLOCKS = (("u", "<u4"), ("v", "<u4"), ("start", "<f8"), ("end", "<f8"))
_HEX = frozenset("0123456789abcdef")


def _align(pos: int, to: int = 8) -> int:
    return (pos + to - 1) // to * to


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def write_ctrace(path: PathLike, u, v, start, end,
                 nodes: Sequence[Hashable], horizon: float,
                 fingerprint: str) -> None:
    """Write canonical trace columns as a ``repro.ctrace/1`` file.

    Node labels must be ints or strings (JSON-representable).
    """
    if all(_is_int(n) for n in nodes):
        node_kind = "int"
    elif all(isinstance(n, str) for n in nodes):
        node_kind = "str"
    else:
        raise TraceFormatError(
            "only int or str node labels can be saved to .ctrace "
            f"(got {sorted({type(n).__name__ for n in nodes})})"
        )
    payloads = [
        (name, np.asarray(col).astype(dtype).tobytes())
        for (name, dtype), col in zip(_BLOCKS, (u, v, start, end))
    ]

    # The header holds the block offsets and the offsets depend on the
    # header's length: iterate to the fixpoint (digits can widen it).
    def layout(offsets: Dict[str, int]) -> bytes:
        header = {
            "format": "repro.ctrace",
            "version": 1,
            "count": len(start),
            "node_kind": node_kind,
            "nodes": list(nodes),
            "horizon": horizon,
            "fingerprint": fingerprint,
            "blocks": {
                name: [offsets[name], len(data)] for name, data in payloads
            },
        }
        return json.dumps(header, separators=(",", ":")).encode("utf-8")

    offsets = {name: 0 for name, _ in payloads}
    for _ in range(8):
        hdr = layout(offsets)
        pos = _align(_PREFIX + len(hdr))
        new_offsets = {}
        for name, data in payloads:
            new_offsets[name] = pos
            pos = _align(pos + len(data))
        if new_offsets == offsets:
            break
        offsets = new_offsets
    hdr = layout(offsets)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(hdr)))
        fh.write(hdr)
        pos = _PREFIX + len(hdr)
        for name, data in payloads:
            fh.write(b"\0" * (offsets[name] - pos))
            fh.write(data)
            pos = offsets[name] + len(data)


def read_ctrace(path: PathLike):
    """Read and check a ``.ctrace`` file.

    Returns ``(u, v, start, end, nodes, horizon, mm)``: the float columns
    are zero-copy views over ``mm``, a read-only ``mmap`` of the file that
    must outlive them.  The header's fingerprint is checked for form only
    and not returned: it is not derived from the rows read here.
    """

    def corrupt(what: str) -> TraceFormatError:
        return TraceFormatError(f"{path}: corrupt ctrace file: {what}")

    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX)
        if prefix[:len(_MAGIC)] != _MAGIC:
            raise TraceFormatError(
                f"{path}: not a repro.ctrace/1 file (bad magic)"
            )
        if len(prefix) < _PREFIX:
            raise corrupt("truncated before the header")
        (hlen,) = struct.unpack("<Q", prefix[len(_MAGIC):])
        if hlen > size - _PREFIX:
            raise corrupt(f"header length {hlen} overruns the "
                          f"{size}-byte file")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise corrupt(f"unreadable header: {exc}") from exc
        if not isinstance(header, dict) or \
                header.get("format") != "repro.ctrace":
            raise corrupt("header is not a repro.ctrace header")
        if header.get("version") != 1:
            raise TraceFormatError(
                f"{path}: unsupported ctrace version "
                f"{header.get('version')!r}"
            )
        n = header.get("count")
        if not (_is_int(n) and n >= 0):
            raise corrupt(f"bad row count {n!r}")
        kind = {"int": _is_int, "str": lambda x: isinstance(x, str)}.get(
            header.get("node_kind"))
        nodes = header.get("nodes")
        if kind is None or not isinstance(nodes, list) or \
                not all(kind(x) for x in nodes) or \
                len(set(nodes)) != len(nodes):
            raise corrupt("nodes must be distinct labels of the declared "
                          "node_kind")
        horizon = header.get("horizon")
        try:
            finite = (isinstance(horizon, float) or _is_int(horizon)) and \
                math.isfinite(horizon)
        except OverflowError:  # an int beyond float range
            finite = False
        if not finite:
            raise corrupt(f"horizon must be a finite number, got {horizon!r}")
        fingerprint = header.get("fingerprint")
        if not (isinstance(fingerprint, str) and len(fingerprint) == 16
                and set(fingerprint) <= _HEX):
            raise corrupt(f"bad fingerprint {fingerprint!r}")
        blocks = header.get("blocks")
        if not isinstance(blocks, dict):
            raise corrupt("no block table")
        offsets = []
        for name, dtype in _BLOCKS:
            span = blocks.get(name)
            if not (isinstance(span, list) and len(span) == 2
                    and all(_is_int(x) and x >= 0 for x in span)):
                raise corrupt(f"bad {name!r} block entry {span!r}")
            off, nbytes = span
            if nbytes != n * np.dtype(dtype).itemsize or off + nbytes > size:
                raise corrupt(f"{name!r} block [{off}, {nbytes}] does not "
                              f"hold {n} rows inside the {size}-byte file")
            offsets.append(off)
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    u, v, start, end = (
        np.frombuffer(mm, dtype=dtype, count=n, offset=off)
        for (_, dtype), off in zip(_BLOCKS, offsets)
    )
    u, v = u.astype(np.int64), v.astype(np.int64)
    nodes = tuple(nodes)
    if n and max(int(u.max()), int(v.max())) >= len(nodes):
        raise corrupt(f"node id outside the {len(nodes)}-node table")
    _check_rows(u, v, start, end, nodes,
                lambda i: f"{path}: corrupt ctrace file: row {i}")
    later = (start[1:] < start[:-1]) | (
        (start[1:] == start[:-1]) & (end[1:] < end[:-1]))
    if later.any():
        raise corrupt(f"row {int(np.argmax(later)) + 1} breaks the "
                      f"(start, end) row order")
    return u, v, start, end, nodes, float(horizon), mm
