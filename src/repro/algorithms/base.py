"""Scheduler interface and registry.

Every broadcast algorithm of Section VI/VII — EEDCB, FR-EEDCB, GREED,
FR-GREED, RAND, FR-RAND — implements :class:`Scheduler`: given a TVEG, a
source, and a deadline, produce a broadcast relay schedule.  The registry
maps the paper's algorithm names to constructors so experiments can be
configured with strings.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable

from .. import obs
from ..errors import SolverError
from ..schedule.schedule import Schedule
from ..tveg.graph import TVEG

__all__ = [
    "SchedulerResult",
    "Scheduler",
    "register",
    "canonical_scheduler_name",
    "make_scheduler",
    "record_schedule",
    "SCHEDULERS",
]

Node = Hashable


@dataclass(frozen=True)
class SchedulerResult:
    """A schedule plus solver metadata (sizes, methods, fallbacks used)."""

    schedule: Schedule
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return self.schedule.total_cost


class Scheduler(ABC):
    """Base class: computes a broadcast relay schedule on a TVEG.

    **Standardized ``SchedulerResult.info`` keys.**  Schedulers report
    solver metadata under shared names so experiments and the obs exporters
    can read any algorithm's numbers uniformly:

    ``stage_seconds``
        Dict of per-stage wall times in seconds.  EEDCB-family stages:
        ``reachability``, ``dts``, ``auxgraph``, ``steiner``, ``extract``,
        ``reduce``; FR-* algorithms add ``allocation``; the event-driven
        baselines report ``event_sim``.  Recorded whether or not tracing
        is enabled.
    ``aux_nodes`` / ``aux_edges``
        Auxiliary-graph size (Section VI-A reduction).
    ``dts_points``
        Total points in the instance's discrete time set.
    ``dcs_levels``
        Total discrete-cost-set levels over every usable (node, point).
    ``steiner_expansions``
        Work counter of the Steiner solve (settled Dijkstra pops for the
        greedy solver, recursive subproblems for Charikar, 0 for sptree).
    ``memt_method`` / ``tree_cost`` / ``raw_cost``
        Method label and pre-reduction costs, where applicable.

    FR-EEDCB, FR-GREED and FR-RAND add the Section VI-B allocation's
    ``allocation_method``, ``nlp_iterations`` (total SLSQP iterations),
    ``slsqp_converged``, ``num_constraints`` (Eqs. 15–16),
    ``backbone_feasible`` (the ``w0`` backbone already meets ε),
    ``backbone_cost`` and ``allocated_cost`` to their backbone's keys; a
    GREED/RAND backbone that leaves nodes uninformed adds only
    ``allocation_method = "backbone (partial coverage)"``.

    Keys beyond these are algorithm-specific extras.
    """

    #: registry key and display name (the paper's algorithm acronym)
    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        tveg: TVEG,
        source: Node,
        deadline: float,
        start_time: float = 0.0,
    ) -> SchedulerResult:
        """Compute a schedule for broadcasting from ``source`` by ``deadline``.

        ``deadline`` is an absolute time (the delay constraint ``T`` added to
        ``start_time`` by callers that think in durations).
        """

    def schedule(
        self,
        tveg: TVEG,
        source: Node,
        deadline: float,
        start_time: float = 0.0,
    ) -> Schedule:
        """Convenience wrapper returning just the schedule."""
        return self.run(tveg, source, deadline, start_time).schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


def record_schedule(schedule: Schedule, algorithm: str) -> None:
    """Emit a scheduler's final rows as ledger events (no-op when off).

    Every scheduler calls this on its result so a recorded run carries one
    :data:`~repro.obs.EV_TRANSMISSION_SCHEDULED` event per (relay, time,
    power) row, tagged with the algorithm that produced it.
    """
    led = obs.get_ledger()
    if not led.enabled:
        return
    for s in schedule:
        led.emit(
            obs.EV_TRANSMISSION_SCHEDULED, t=s.time, relay=s.relay,
            cost=s.cost, algorithm=algorithm,
        )


SCHEDULERS: Dict[str, Callable[..., Scheduler]] = {}


def register(name: str):
    """Class decorator adding a scheduler to the registry under ``name``."""

    def deco(cls):
        cls.name = name
        SCHEDULERS[name] = cls
        return cls

    return deco


def canonical_scheduler_name(name: str) -> str:
    """Resolve a scheduler name or alias to its canonical registry key.

    Accepted spellings are case-insensitive and treat hyphens, underscores,
    and spaces interchangeably — ``"fr-eedcb"``, ``"FR-EEDCB"``,
    ``"fr_eedcb"``, and the fully collapsed ``"freedcb"`` all resolve to
    ``"fr-eedcb"``.  Raises :class:`~repro.errors.SolverError` listing the
    canonical names when nothing matches.
    """
    key = str(name).strip().lower().replace("_", "-").replace(" ", "-")
    if key in SCHEDULERS:
        return key
    collapsed = key.replace("-", "")
    for canonical in SCHEDULERS:
        if canonical.replace("-", "") == collapsed:
            return canonical
    raise SolverError(
        f"unknown scheduler {name!r}; canonical names: "
        f"{', '.join(sorted(SCHEDULERS))}"
    )


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a registered scheduler by its paper acronym.

    Canonical names: ``eedcb``, ``fr-eedcb``, ``greed``, ``fr-greed``,
    ``rand``, ``fr-rand``, ``oracle``.  Aliases are normalized by
    :func:`canonical_scheduler_name` (``"FR-EEDCB"``, ``"fr_eedcb"``, and
    ``"freedcb"`` are all the same scheduler).
    """
    return SCHEDULERS[canonical_scheduler_name(name)](**kwargs)
