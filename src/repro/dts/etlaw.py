"""The earliest-transmission law (Proposition 5.1).

A feasible schedule stays feasible when each transmission is moved to its
*earliest* time within the relay's current adjacent-partition interval:

    t_earliest = t'   if the relay's informed time t' lies in [t_s, t_e)
    t_earliest = t_s  otherwise

(the relay keeps the same connected set throughout the interval, and it is
already informed at the new time).  Iterating this to a fixpoint yields an
ET-law schedule whose transmission times all lie on the DTS — the
constructive half of Theorem 5.2 and the property the equivalence tests
exercise.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional

from ..core.partitions import Partition
from ..schedule.probability import informed_time
from ..schedule.schedule import Schedule
from ..tveg.graph import TVEG
from .adjacent import adjacent_partition

__all__ = ["earliest_transmission_time", "apply_et_law", "follows_et_law"]

Node = Hashable


def earliest_transmission_time(
    partition: Partition, t: float, informed_at: float
) -> float:
    """Proposition 5.1's ``t_earliest`` for one transmission.

    ``partition`` is the relay's adjacent partition, ``t`` its current
    transmission time, ``informed_at`` the instant the relay became informed
    (``t' ≤ t`` for any feasible schedule).
    """
    interval = partition.interval_of(t)
    if interval.start <= informed_at < interval.end:
        return informed_at
    return interval.start


def apply_et_law(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    eps: Optional[float] = None,
    start_time: float = 0.0,
    max_rounds: Optional[int] = None,
) -> Schedule:
    """Normalize a feasible schedule to follow the ET-law.

    Repeatedly replaces each transmission time with its ``t_earliest`` under
    the *current* schedule (moving one transmission earlier can only make
    informed times earlier, so the iteration decreases monotonically and
    terminates — the argument of Theorem 5.2).  Raises nothing on an
    infeasible input; it simply returns the best-effort normalization.
    """
    e = tveg.params.epsilon if eps is None else eps
    partitions = {}
    current = schedule
    rounds = max_rounds if max_rounds is not None else max(4, len(schedule) + 1)

    for _ in range(rounds):
        changed = False
        rows = list(current)
        for k, s in enumerate(rows):
            if s.relay not in partitions:
                partitions[s.relay] = adjacent_partition(tveg.tvg, s.relay)
            t_inf = informed_time(tveg, current, s.relay, source, e, start_time)
            if not math.isfinite(t_inf):
                continue  # relay never informed; leave the row alone
            t_new = earliest_transmission_time(partitions[s.relay], s.time, t_inf)
            # Never move before the relay is informed or the broadcast start.
            t_new = max(t_new, t_inf, start_time)
            if t_new < s.time - 1e-12:
                rows[k] = s.with_time(t_new)
                changed = True
                current = Schedule(rows)
                rows = list(current)
        if not changed:
            break
    return current


def follows_et_law(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    eps: Optional[float] = None,
    start_time: float = 0.0,
    tol: float = 1e-9,
) -> bool:
    """True iff every transmission already departs at its ``t_earliest``."""
    e = tveg.params.epsilon if eps is None else eps
    partitions = {}
    for s in schedule:
        if s.relay not in partitions:
            partitions[s.relay] = adjacent_partition(tveg.tvg, s.relay)
        t_inf = informed_time(tveg, schedule, s.relay, source, e, start_time)
        if not math.isfinite(t_inf):
            return False
        t_earliest = max(
            earliest_transmission_time(partitions[s.relay], s.time, t_inf),
            t_inf,
            start_time,
        )
        if s.time > t_earliest + tol:
            return False
    return True
