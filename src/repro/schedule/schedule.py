"""Broadcast relay schedules (Section IV).

A schedule is the ``n × 3`` matrix ``S = [R, T, W]``: each row — a
:class:`Transmission` — says relay ``r_k`` forwards the packet at time
``t_k`` with cost ``w_k``.  A relay may appear multiple times (the paper
explicitly allows repeated relays).  The class stores rows sorted by time,
which every downstream consumer (probability engine, simulator, ET-law
normalizer) relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence, Tuple

import numpy as np

from ..errors import ScheduleError

__all__ = ["Transmission", "Schedule"]

Node = Hashable


@dataclass(frozen=True)
class Transmission:
    """One schedule row ``s_k = [r_k, t_k, w_k]``."""

    relay: Node
    time: float
    cost: float

    def __post_init__(self) -> None:
        if self.time < 0 or math.isnan(self.time):
            raise ScheduleError(f"transmission time must be >= 0, got {self.time!r}")
        if self.cost < 0 or math.isnan(self.cost):
            raise ScheduleError(f"transmission cost must be >= 0, got {self.cost!r}")

    def with_cost(self, cost: float) -> "Transmission":
        return Transmission(self.relay, self.time, cost)

    def with_time(self, time: float) -> "Transmission":
        return Transmission(self.relay, time, self.cost)


class Schedule:
    """An immutable, time-sorted broadcast relay schedule."""

    __slots__ = ("_rows",)

    def __init__(self, transmissions: Iterable[Transmission] = ()) -> None:
        rows = list(transmissions)
        rows.sort(key=lambda s: (s.time, repr(s.relay)))
        self._rows: Tuple[Transmission, ...] = tuple(rows)

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        relays: Sequence[Node],
        times: Sequence[float],
        costs: Sequence[float],
    ) -> "Schedule":
        """Build from the paper's column vectors ``R``, ``T``, ``W``."""
        if not (len(relays) == len(times) == len(costs)):
            raise ScheduleError("R, T, W must have equal length")
        return cls(
            Transmission(r, float(t), float(w))
            for r, t, w in zip(relays, times, costs)
        )

    @classmethod
    def empty(cls) -> "Schedule":
        return cls(())

    # ------------------------------------------------------------------
    @property
    def transmissions(self) -> Tuple[Transmission, ...]:
        return self._rows

    @property
    def relays(self) -> Tuple[Node, ...]:
        """The relay vector ``R``."""
        return tuple(s.relay for s in self._rows)

    @property
    def times(self) -> Tuple[float, ...]:
        """The time vector ``T``."""
        return tuple(s.time for s in self._rows)

    @property
    def costs(self) -> Tuple[float, ...]:
        """The cost vector ``W``."""
        return tuple(s.cost for s in self._rows)

    @property
    def total_cost(self) -> float:
        """``Σ_k w_k`` — the schedule's objective value."""
        return float(sum(s.cost for s in self._rows))

    @property
    def num_transmissions(self) -> int:
        return len(self._rows)

    @property
    def is_empty(self) -> bool:
        return not self._rows

    def latency(self, tau: float = 0.0) -> float:
        """``max_k t_k + τ`` — broadcast latency (condition (iii))."""
        if not self._rows:
            return 0.0
        return self._rows[-1].time + tau

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Transmission]:
        return iter(self._rows)

    def __getitem__(self, k: int) -> Transmission:
        return self._rows[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if len(self._rows) <= 6:
            body = ", ".join(
                f"[{s.relay!r}@{s.time:g}, w={s.cost:.3g}]" for s in self._rows
            )
        else:
            body = f"{len(self._rows)} transmissions, cost={self.total_cost:.3g}"
        return f"Schedule({body})"

    # ------------------------------------------------------------------
    def append(self, transmission: Transmission) -> "Schedule":
        """A new schedule with one more row (re-sorted)."""
        return Schedule(self._rows + (transmission,))

    def extend(self, transmissions: Iterable[Transmission]) -> "Schedule":
        return Schedule(self._rows + tuple(transmissions))

    def with_costs(self, costs: Sequence[float]) -> "Schedule":
        """The same backbone ``[R, T]`` with a new cost vector ``W``.

        This is exactly what FR-EEDCB's energy-allocation stage produces
        (Section VI-B): relays and times fixed, costs re-optimized.
        """
        if len(costs) != len(self._rows):
            raise ScheduleError(
                f"cost vector length {len(costs)} != schedule length {len(self._rows)}"
            )
        return Schedule(
            s.with_cost(float(w)) for s, w in zip(self._rows, costs)
        )

    def before(self, t: float, inclusive: bool = True) -> "Schedule":
        """Rows with ``time <= t`` (or strictly earlier)."""
        if inclusive:
            return Schedule(s for s in self._rows if s.time <= t)
        return Schedule(s for s in self._rows if s.time < t)

    def by_relay(self, relay: Node) -> Tuple[Transmission, ...]:
        return tuple(s for s in self._rows if s.relay == relay)

    def cost_array(self) -> np.ndarray:
        return np.array([s.cost for s in self._rows], dtype=float)
