"""Schedule reduction: drop redundant transmissions, lower excess costs.

Steiner-tree extraction can leave artifacts: when two cost levels of the
same (relay, time) are merged to the higher one, transmissions grafted for
receivers the merged level now covers become pure waste.  The passes here
only ever *remove* energy, and every candidate change is kept only if the
schedule still meets the Section IV feasibility conditions, so they are
safe for any channel model:

* :func:`remove_redundant` — try deleting each transmission, most expensive
  first; keep deletions that preserve feasibility.
* :func:`upgrade_and_prune` — raise one transmission's DCS level, prune
  what becomes redundant, keep the move iff total cost falls.
* :func:`lower_costs` — try rounding each transmission down to lower DCS
  levels (static-channel semantics: coverage shrinks level by level).

**Incremental feasibility.**  Each pass runs on a :class:`ReduceSession`.
A candidate deletes one row or moves it to another cost; the session
answers whether the schedule stays feasible without replaying it from
``t = 0``.  It replays the current schedule once, keeping every node's
uninformed probability before each timestamp group.  A candidate replays
its row's group from that state, then only the later groups whose relays
or receivers meet ``D``, the nodes whose probability now differs from
the current schedule's.  A skipped group behaves exactly as it does in
the current schedule, and once ``D`` is empty the rest of the replay is
the current schedule's, which is feasible.  Groups fire through
:func:`~repro.schedule.feasibility.fire_group`, the checker's own firing
rule, in the same row and fan-out order, so every product and every
decision equals a full :func:`~repro.schedule.feasibility.check_feasibility`
replay of the candidate schedule.  That checker stays the authority on
emitted plans; the candidates here build no report and no
:class:`Schedule`.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .. import obs
from ..tveg.costsets import discrete_cost_set
from ..tveg.graph import TVEG
from .feasibility import (
    fanout, fire_group, node_index, replay_eps, time_groups,
)
from .schedule import Schedule, Transmission

__all__ = [
    "ReduceSession", "remove_redundant", "lower_costs", "upgrade_and_prune",
]

Node = Hashable
Unit = Tuple[int, Tuple[Tuple[int, float], ...]]


def _touched(units: Sequence[Unit]) -> frozenset:
    """The node indices a group's rows read or write: their relays, and
    the receivers of their fan-outs."""
    nodes = {relay for relay, _ in units}
    for _, fan in units:
        nodes.update(v for v, _ in fan)
    return frozenset(nodes)


class ReduceSession:
    """A schedule under reduction, with its replay state per timestamp group.

    Rows keep their positions ``k`` in the input schedule; a deleted row
    becomes ``None`` in :attr:`rows`.  :meth:`apply` deletes row ``k``
    (``cost=None``) or moves it to ``cost`` when the schedule stays
    feasible, and its answer is exactly
    :func:`~repro.schedule.feasibility.check_feasibility`'s verdict on
    the changed schedule, given a feasible current one
    (:attr:`feasible`); :meth:`save` and :meth:`restore` undo changes.
    An explicit ``eps`` and the source and targets are validated as
    :func:`~repro.schedule.feasibility.check_feasibility` validates them.
    """

    def __init__(
        self,
        tveg: TVEG,
        schedule: Schedule,
        source: Node,
        deadline: float,
        eps: Optional[float] = None,
        targets=None,
    ) -> None:
        self._eps = e = replay_eps(tveg, eps)
        required = tveg.nodes if targets is None else tuple(targets)
        self._index = index = node_index(
            tveg, source, () if targets is None else required
        )
        self._tveg = tveg
        self._cache = tveg.replay_cache()
        self._required = [False] * len(index)
        for node in required:
            self._required[index[node]] = True
        limit = deadline - tveg.tau
        #: the rows by input position; ``None`` once deleted
        self.rows: List[Optional[Transmission]] = list(schedule)
        self._group: List[int] = []          # row position → group
        self._members: List[Tuple[int, ...]] = []  # group → live rows
        # group → whether a required node crossing ε there is too late
        # for condition (ii)
        self._late: List[bool] = []
        rows = self.rows
        for positions in time_groups(rows):
            self._group.extend([len(self._members)] * len(positions))
            self._members.append(tuple(positions))
            self._late.append(not rows[positions[0]].time <= limit)
        self._units: List[List[Unit]] = [
            [self._unit(rows[k], rows[k].cost) for k in m]
            for m in self._members
        ]
        self._touch: List[frozenset] = [_touched(u) for u in self._units]

        probs = [1.0] * len(index)
        informed = [math.inf] * len(index)
        probs[index[source]] = 0.0
        informed[index[source]] = 0.0
        #: ``_snaps[g]``: every node's probability before group ``g``
        self._snaps: List[List[float]] = []
        fired = True
        for g, units in enumerate(self._units):
            self._snaps.append(list(probs))
            t = rows[self._members[g][0]].time
            if fire_group(units, probs, e, informed, t):
                fired = False
        self._snaps.append(probs)
        #: the current schedule meets conditions (i)–(iii)
        self.feasible = (
            fired
            and all(
                informed[index[n]] != math.inf and informed[index[n]] <= limit
                for n in required
            )
            and schedule.latency(tveg.tau) <= deadline
        )
        self.candidates = 0
        self.groups_replayed = 0

    def _unit(self, s: Transmission, cost: float) -> Unit:
        return (
            self._index[s.relay],
            fanout(self._tveg, self._index, self._cache, s.relay, s.time,
                   cost),
        )

    # ------------------------------------------------------------------
    def live(self) -> List[int]:
        """Positions of the rows not deleted, in schedule order."""
        return [k for k, s in enumerate(self.rows) if s is not None]

    def total_cost(self) -> float:
        """``Σ_k w_k`` in row order, as :attr:`Schedule.total_cost`
        sums it."""
        return float(sum(s.cost for s in self.rows if s is not None))

    def schedule(self) -> Schedule:
        """The current schedule."""
        return Schedule(s for s in self.rows if s is not None)

    def save(self):
        """A state :meth:`restore` returns to.  Changes replace list
        entries and never mutate them, so shallow copies suffice."""
        return (list(self.rows), list(self._members), list(self._units),
                list(self._touch), list(self._snaps))

    def restore(self, state) -> None:
        (self.rows, self._members, self._units, self._touch,
         self._snaps) = state

    def record(self) -> None:
        """Add this session's work to the ``reduce.*`` counters."""
        obs.counter("reduce.candidates", self.candidates)
        obs.counter("reduce.groups_replayed", self.groups_replayed)

    # ------------------------------------------------------------------
    def apply(self, k: int, cost: Optional[float] = None) -> bool:
        """Delete row ``k`` (``cost`` None) or move it to ``cost`` if the
        schedule stays feasible; returns whether it did."""
        self.candidates += 1
        g = self._group[k]
        units = list(self._units[g])
        j = self._members[g].index(k)
        if cost is None:
            del units[j]
        else:
            units[j] = self._unit(self.rows[k], cost)
        # the nodes either version of the group touches
        scope = self._touch[g] | _touched(units)
        if not self._walk(g, units, scope, commit=False):
            return False
        self._walk(g, units, scope, commit=True)
        if cost is None:
            self.rows[k] = None
            self._members[g] = tuple(m for m in self._members[g] if m != k)
        else:
            self.rows[k] = self.rows[k].with_cost(cost)
        self._units[g] = units
        self._touch[g] = _touched(units)
        return True

    def _walk(self, g: int, units: List[Unit], scope: frozenset,
              commit: bool) -> bool:
        """Replay group ``g`` with ``units`` over the nodes in ``scope``,
        and each later group that meets ``D``; the candidate's verdict.

        ``diff`` holds ``D`` with the candidate's probabilities.  A group
        that leaves a row unfired breaks (i); a required node that crosses
        ε in a group after T − τ breaks (ii).  Latency (iii) needs no
        check: a candidate keeps every time or drops a row, so its last
        time is at most the current schedule's.  With ``commit`` the
        snapshots after ``g`` become the candidate's.
        """
        eps, snaps, touch = self._eps, self._snaps, self._touch
        late, required = self._late, self._required
        diff: Dict[int, float] = {}
        last = len(self._units) - 1
        h, replay = g, True
        while True:
            if replay:
                self.groups_replayed += 1
                before, after = snaps[h], snaps[h + 1]
                vals = {x: diff[x] if x in diff else before[x] for x in scope}
                if fire_group(units, vals, eps):
                    return False
                if late[h] and any(
                    required[x] and p <= eps
                    and not (diff[x] if x in diff else before[x]) <= eps
                    for x, p in vals.items()
                ):
                    return False
                for x, p in vals.items():
                    if p != after[x]:
                        diff[x] = p
                    elif x in diff:
                        del diff[x]
            if commit and diff:
                patched = list(snaps[h + 1])
                for x, p in diff.items():
                    patched[x] = p
                snaps[h + 1] = patched
            if not diff:
                return True
            if h == last:
                return all(p <= eps for x, p in diff.items() if required[x])
            h += 1
            scope = touch[h]
            replay = not diff.keys().isdisjoint(scope)
            units = self._units[h]

    def prune(self) -> bool:
        """Delete every row whose deletion keeps the schedule feasible,
        the most expensive first; True if any went."""
        rows = self.rows
        # Most expensive first: dropping a big transmission saves the most
        # and is most often enabled by the level-merge artifact.
        order = sorted(self.live(), key=lambda k: -rows[k].cost)
        removed = False
        for k in order:
            if self.apply(k):
                removed = True
        return removed


def remove_redundant(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    deadline: float,
    eps: Optional[float] = None,
    targets=None,
) -> Schedule:
    """Greedily delete transmissions whose removal keeps the schedule
    feasible, trying the most expensive ones first.

    If the input schedule is itself infeasible it is returned unchanged —
    reduction is defined relative to a feasible baseline.
    """
    session = ReduceSession(tveg, schedule, source, deadline, eps, targets)
    if session.feasible and session.prune():
        schedule = session.schedule()
    session.record()
    return schedule


def upgrade_and_prune(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    deadline: float,
    eps: Optional[float] = None,
    max_rounds: int = 3,
    targets=None,
) -> Schedule:
    """Local search: raise one transmission's DCS level, drop what becomes
    redundant, keep the move iff total cost falls.

    This repairs the characteristic weakness of path-based Steiner
    heuristics on broadcast instances: paying two medium transmissions where
    one higher level (the wireless multicast advantage) covers both.  Each
    accepted move strictly decreases cost, so the search terminates; rounds
    are bounded for predictable runtime.
    """
    session = ReduceSession(tveg, schedule, source, deadline, eps, targets)
    moved = False
    for _ in range(max_rounds if session.feasible else 0):
        improved = False
        current_cost = session.total_cost()
        for k in session.live():
            s = session.rows[k]
            dcs = discrete_cost_set(tveg, s.relay, s.time)
            if dcs.is_empty:
                continue
            for level in (c for c in dcs.costs if c > s.cost):
                state = session.save()
                # A raise that breaks feasibility is no move: pruning
                # leaves an infeasible schedule as it is, and the raised
                # schedule costs more than the current one.
                if (session.apply(k, level) and session.prune()
                        and session.total_cost() < current_cost * (1 - 1e-12)):
                    improved = True
                    break
                session.restore(state)
            if improved:
                break
        if not improved:
            break
        moved = True
    if moved:
        schedule = session.schedule()
    session.record()
    return schedule


def lower_costs(
    tveg: TVEG,
    schedule: Schedule,
    source: Node,
    deadline: float,
    eps: Optional[float] = None,
    targets=None,
) -> Schedule:
    """Round each transmission down to the lowest DCS level that keeps the
    schedule feasible (Property 6.1(ii) in reverse, re-verified per step)."""
    session = ReduceSession(tveg, schedule, source, deadline, eps, targets)
    if session.feasible:
        for k in session.live():
            s = session.rows[k]
            dcs = discrete_cost_set(tveg, s.relay, s.time)
            if dcs.is_empty:
                continue
            # Candidate levels strictly below the current cost, cheapest first.
            for level in [c for c in dcs.costs if c < s.cost]:
                if session.apply(k, level):
                    break
        schedule = session.schedule()
    session.record()
    return schedule
