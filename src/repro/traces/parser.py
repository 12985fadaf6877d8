"""Contact-trace file parsing.

Two text formats are supported:

* **CRAWDAD one-contact-per-line** — the format the Haggle project's iMote
  contact traces are distributed in: whitespace-separated
  ``<id1> <id2> <start> <end> [extra columns ignored]``, ``#`` comments.
* **CSV** — headered ``u,v,start,end`` with optional extra columns.

Both stream one line at a time straight into the columns of a
:class:`~repro.traces.model.ContactTrace` — no per-contact object is ever
built — so a real Haggle trace file, or a million-contact one, drops into
every experiment in place of the synthetic generator.  :func:`load_trace`
also reads the binary ``.ctrace`` format of :mod:`repro.traces.store`.

A malformed line raises :class:`~repro.errors.TraceFormatError` naming the
line: too few columns, an unparsable id or time, a non-finite time, or a
start after the end.  CRAWDAD self-sightings (``id1 == id2``) are skipped;
in CSV they are an error.  A file that is not UTF-8 text raises it too.
"""

from __future__ import annotations

import csv
from array import array
from pathlib import Path
from typing import Optional, TextIO, Tuple, Union

from ..errors import TraceFormatError
from .model import ContactTrace, _Builder

__all__ = ["parse_crawdad", "parse_csv", "load_trace"]

PathLike = Union[str, Path]


def _open_text(source: Union[PathLike, TextIO]) -> Tuple[TextIO, bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def parse_crawdad(
    source: Union[PathLike, TextIO],
    node_type: type = int,
    horizon: Optional[float] = None,
) -> ContactTrace:
    """Parse a CRAWDAD-style one-contact-per-line trace.

    Lines are ``id1 id2 start end`` (extra trailing columns — sequence
    numbers etc. — are ignored); blank lines and ``#`` comments are skipped.
    """
    fh, owns = _open_text(source)
    b = _Builder()
    lines = array("q")
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
            b.append(u, v, start, end)
            lines.append(lineno)
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"not UTF-8 text: {exc}") from exc
    finally:
        if owns:
            fh.close()
    return b.trace(horizon=horizon, where=lambda i: f"line {lines[i]}")


def parse_csv(
    source: Union[PathLike, TextIO],
    node_type: type = int,
    horizon: Optional[float] = None,
) -> ContactTrace:
    """Parse a headered CSV trace with columns ``u, v, start, end``."""
    fh, owns = _open_text(source)
    b = _Builder()
    lines = array("q")
    reader = csv.DictReader(fh)
    try:
        fields = reader.fieldnames
        if fields is None:
            raise TraceFormatError("CSV trace is empty")
        required = {"u", "v", "start", "end"}
        missing = required - {f.strip().lower() for f in fields}
        if missing:
            raise TraceFormatError(f"CSV trace lacks columns {sorted(missing)}")
        for row in reader:
            norm = {k.strip().lower(): val for k, val in row.items() if k}
            try:
                b.append(
                    node_type(norm["u"]),
                    node_type(norm["v"]),
                    float(norm["start"]),
                    float(norm["end"]),
                )
            except (ValueError, TypeError) as exc:  # TypeError: short row
                raise TraceFormatError(f"line {reader.line_num}: {exc}") \
                    from exc
            lines.append(reader.line_num)
    except csv.Error as exc:
        raise TraceFormatError(f"line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"not UTF-8 text: {exc}") from exc
    finally:
        if owns:
            fh.close()
    return b.trace(horizon=horizon, where=lambda i: f"line {lines[i]}")


def load_trace(
    path: PathLike,
    node_type: type = int,
    horizon: Optional[float] = None,
) -> ContactTrace:
    """Load a trace, dispatching on file extension.

    ``.ctrace`` loads the binary format (zero-copy columns, fingerprint
    from the header; ``node_type`` and ``horizon`` do not apply), ``.csv``
    parses as headered CSV and anything else as CRAWDAD.
    """
    from .store import CTRACE_SUFFIX

    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == CTRACE_SUFFIX:
        return ContactTrace.load(p)
    if suffix == ".csv":
        return parse_csv(p, node_type=node_type, horizon=horizon)
    return parse_crawdad(p, node_type=node_type, horizon=horizon)
