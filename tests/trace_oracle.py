"""The dict-backed reference trace: the independent side of the parity checks.

:class:`ContactTrace` here keeps one sorted list of frozen
:class:`~repro.traces.model.Contact` records, and :func:`parse_crawdad` /
:func:`parse_csv` build it line by line.  It is the trace model the
columnar :class:`repro.traces.model.ContactTrace` replaced, kept as it was
so ``tests/test_store.py`` and the dict leg of ``tools/scale_smoke.py`` can
compare every row, node table, fingerprint, transform, TVG and plan of the
production class against a second, simpler derivation.  Nothing under
``src/`` imports it.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import (
    Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, TextIO,
    Tuple, Union,
)

from repro.core.intervals import IntervalSet
from repro.errors import TraceFormatError
from repro.temporal.builders import from_contacts
from repro.temporal.tvg import TVG
from repro.traces.model import Contact

__all__ = ["ContactTrace", "parse_crawdad", "parse_csv"]

Node = Hashable
PathLike = Union[str, Path]


class ContactTrace:
    """An ordered collection of contacts with bulk queries and TVG export."""

    def __init__(
        self,
        contacts: Iterable[Contact] = (),
        nodes: Optional[Sequence[Node]] = None,
        horizon: Optional[float] = None,
    ) -> None:
        self._contacts: List[Contact] = sorted(contacts)
        inferred: List[Node] = []
        seen = set()
        for c in self._contacts:
            for n in (c.u, c.v):
                if n not in seen:
                    inferred.append(n)
                    seen.add(n)
        if nodes is not None:
            self._nodes = tuple(dict.fromkeys(list(nodes) + inferred))
        else:
            self._nodes = tuple(inferred)
        if horizon is None:
            horizon = max((c.end for c in self._contacts), default=0.0)
        self._horizon = float(horizon)

    # ------------------------------------------------------------------
    @property
    def contacts(self) -> Tuple[Contact, ...]:
        return tuple(self._contacts)

    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_contacts(self) -> int:
        return len(self._contacts)

    @property
    def horizon(self) -> float:
        return self._horizon

    def __len__(self) -> int:
        return len(self._contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ContactTrace(|V|={self.num_nodes}, contacts={self.num_contacts}, "
            f"horizon={self._horizon:g})"
        )

    def fingerprint(self) -> str:
        """Short content hash over nodes, horizon, and every contact.

        Two traces with the same records hash identically no matter how
        they were constructed; any contact, node, or horizon change yields
        a different hash.  Memoized (the trace is immutable).  The planning
        service keys its content-addressed plan cache on it (via
        :func:`repro.api.plan_broadcast`'s manifest ``config_hash``).
        """
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            h = hashlib.sha256()
            h.update(repr((self._nodes, self._horizon)).encode("utf-8"))
            for c in self._contacts:
                h.update(repr((c.start, c.end, c.u, c.v)).encode("utf-8"))
            fp = self._fingerprint = h.hexdigest()[:16]
        return fp

    # ------------------------------------------------------------------
    def pair_presence(self) -> Dict[Tuple[Node, Node], IntervalSet]:
        """Presence interval set per node pair (merging overlapping contacts)."""
        out: Dict[Tuple[Node, Node], List[Tuple[float, float]]] = {}
        for c in self._contacts:
            out.setdefault(c.pair, []).append((c.start, c.end))
        return {k: IntervalSet(v) for k, v in out.items()}

    def restrict_nodes(self, nodes: Sequence[Node]) -> "ContactTrace":
        """The sub-trace induced on a node subset (paper's varying-N sweeps).

        Keeps the given node ordering, drops contacts touching other nodes.
        """
        keep = set(nodes)
        kept = [c for c in self._contacts if c.u in keep and c.v in keep]
        return ContactTrace(kept, nodes=tuple(nodes), horizon=self._horizon)

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
        kept = []
        for c in self._contacts:
            s, e = max(c.start, start), min(c.end, end)
            if s < e:
                kept.append(Contact(s, e, c.u, c.v))
        return ContactTrace(kept, nodes=self._nodes, horizon=self._horizon)

    def shift(self, delta: float) -> "ContactTrace":
        """The trace with all times translated by ``delta`` (clamped at 0)."""
        shifted = [
            Contact(max(0.0, c.start + delta), max(0.0, c.end + delta), c.u, c.v)
            for c in self._contacts
            if c.end + delta > 0
        ]
        return ContactTrace(shifted, nodes=self._nodes, horizon=self._horizon + delta)

    # ------------------------------------------------------------------
    def to_tvg(self, tau: float = 0.0, horizon: Optional[float] = None) -> TVG:
        """Materialize the trace as a :class:`~repro.temporal.tvg.TVG`."""
        h = self._horizon if horizon is None else horizon
        return from_contacts(
            ((c.u, c.v, c.start, c.end) for c in self._contacts),
            horizon=h,
            nodes=self._nodes,
            tau=tau,
        )


def _open_text(source: Union[PathLike, TextIO]) -> TextIO:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8")
    return source


def parse_crawdad(
    source: Union[PathLike, TextIO],
    node_type: type = int,
    horizon: Optional[float] = None,
) -> ContactTrace:
    """Parse a CRAWDAD-style one-contact-per-line trace.

    Lines are ``id1 id2 start end`` (extra trailing columns — sequence
    numbers etc. — are ignored); blank lines and ``#`` comments are skipped.
    """
    fh = _open_text(source)
    owns = isinstance(source, (str, Path))
    contacts: List[Contact] = []
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 4:
                raise TraceFormatError(
                    f"line {lineno}: expected at least 4 columns, got {len(parts)}"
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
            contacts.append(Contact(start, end, u, v))
    finally:
        if owns:
            fh.close()
    return ContactTrace(contacts, horizon=horizon)


def parse_csv(
    source: Union[PathLike, TextIO],
    node_type: type = int,
    horizon: Optional[float] = None,
) -> ContactTrace:
    """Parse a headered CSV trace with columns ``u, v, start, end``."""
    fh = _open_text(source)
    owns = isinstance(source, (str, Path))
    contacts: List[Contact] = []
    try:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise TraceFormatError("CSV trace is empty")
        required = {"u", "v", "start", "end"}
        missing = required - {f.strip().lower() for f in reader.fieldnames}
        if missing:
            raise TraceFormatError(f"CSV trace lacks columns {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            norm = {k.strip().lower(): v for k, v in row.items() if k}
            try:
                contacts.append(
                    Contact(
                        float(norm["start"]),
                        float(norm["end"]),
                        node_type(norm["u"]),
                        node_type(norm["v"]),
                    )
                )
            except (ValueError, KeyError, TraceFormatError) as exc:
                raise TraceFormatError(f"row {lineno}: {exc}") from exc
    finally:
        if owns:
            fh.close()
    return ContactTrace(contacts, horizon=horizon)
