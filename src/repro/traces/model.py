"""Contact-trace data model.

A *contact trace* is the empirical object behind the paper's evaluation: a
set of records ``(u, v, start, end)`` meaning nodes ``u`` and ``v`` were in
radio range throughout ``[start, end)``.  The Haggle project's iMote traces
(citation [12]) have exactly this shape; :class:`ContactTrace` is the
in-memory representation shared by the parser, the synthetic generators, and
the TVEG builders.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.intervals import IntervalSet
from ..errors import TraceFormatError
from ..temporal.builders import from_contacts
from ..temporal.tvg import TVG, edge_key

__all__ = ["Contact", "ContactTrace"]

Node = Hashable


@dataclass(frozen=True, order=True)
class Contact:
    """One contact: nodes ``u`` and ``v`` in range over ``[start, end)``."""

    start: float
    end: float
    u: Node = field(compare=False)
    v: Node = field(compare=False)

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise TraceFormatError(
                f"contact start {self.start} exceeds end {self.end}"
            )
        if self.u == self.v:
            raise TraceFormatError(f"self-contact on node {self.u!r}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def pair(self) -> Tuple[Node, Node]:
        return edge_key(self.u, self.v)


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
    @classmethod
    def from_store(cls, store) -> "ContactTrace":
        """Materialize a :class:`~repro.traces.store.ContactStore` as a
        dict-backed trace (same nodes, horizon, and fingerprint — the
        columnar rows are already in this class's canonical sort order)."""
        return cls(store, nodes=store.nodes, horizon=store.horizon)

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
