"""Non-deterministic time-varying graphs (the paper's stated future work).

Section III-A defines the general presence function ``ρ : E × T → [0, 1]``
but the paper analyzes only the deterministic case, naming non-deterministic
TVGs as future work (Section VIII).  This module provides the natural
contact-level instantiation: every *candidate contact* carries an
availability probability, and a realization keeps each candidate
independently.  Two consumption patterns are supported:

* :meth:`ProbabilisticTVG.sample` — draw a deterministic TVG / contact
  trace and run any of the paper's machinery on it unchanged;
* :func:`schedule_robustness` — Monte-Carlo over realizations: schedule on
  each (or evaluate one fixed schedule on all) and report the feasibility
  rate and cost distribution, quantifying how brittle a deterministic plan
  is under contact uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as np

from ..core.rng import SeedLike, as_generator, spawn
from ..errors import GraphModelError, InfeasibleError, TraceFormatError
from ..traces.model import Contact, ContactTrace
from .tvg import TVG, edge_key

__all__ = ["CandidateContact", "ProbabilisticTVG", "RobustnessReport", "schedule_robustness"]

Node = Hashable


@dataclass(frozen=True)
class CandidateContact:
    """A contact that materializes with probability ``prob``."""

    u: Node
    v: Node
    start: float
    end: float
    prob: float

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise TraceFormatError("candidate contact needs start < end")
        if not (0.0 < self.prob <= 1.0):
            raise TraceFormatError("prob must lie in (0, 1]")
        if self.u == self.v:
            raise TraceFormatError("self-contact")


class ProbabilisticTVG:
    """A TVG whose contacts exist with independent probabilities.

    The presence function ``ρ(e, t)`` returns the probability that some
    candidate contact of the pair covers ``t`` (candidates of one pair are
    assumed non-overlapping; overlapping candidates are rejected).
    """

    def __init__(self, nodes: Iterable[Node], horizon: float, tau: float = 0.0):
        self._nodes = tuple(dict.fromkeys(nodes))
        if len(self._nodes) < 1:
            raise GraphModelError("need at least one node")
        if horizon <= 0:
            raise GraphModelError("horizon must be positive")
        if tau < 0:
            raise GraphModelError("tau must be non-negative")
        self._horizon = float(horizon)
        self._tau = float(tau)
        self._node_set = frozenset(self._nodes)
        self._candidates: Dict[Tuple[Node, Node], List[CandidateContact]] = {}

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        return self._nodes

    @property
    def horizon(self) -> float:
        return self._horizon

    @property
    def tau(self) -> float:
        return self._tau

    def num_candidates(self) -> int:
        return sum(len(v) for v in self._candidates.values())

    def add_candidate(
        self, u: Node, v: Node, start: float, end: float, prob: float = 1.0
    ) -> None:
        """Register a candidate contact (clamped to the horizon)."""
        if u not in self._node_set or v not in self._node_set:
            raise GraphModelError(f"unknown node in pair ({u!r}, {v!r})")
        start, end = max(0.0, start), min(end, self._horizon)
        if start >= end:
            return
        cand = CandidateContact(u, v, start, end, prob)
        key = edge_key(u, v)
        for other in self._candidates.get(key, ()):
            if cand.start < other.end and other.start < cand.end:
                raise GraphModelError(
                    f"overlapping candidates on pair {key!r}: "
                    f"[{other.start:g},{other.end:g}) and "
                    f"[{cand.start:g},{cand.end:g})"
                )
        self._candidates.setdefault(key, []).append(cand)

    @classmethod
    def from_trace(
        cls,
        trace: ContactTrace,
        availability: float = 0.9,
        tau: float = 0.0,
    ) -> "ProbabilisticTVG":
        """Lift a deterministic trace: every maximal contact gets one
        availability.  Overlapping raw contacts of a pair are merged first
        (the per-pair presence normalization), since candidates must be
        disjoint."""
        out = cls(trace.nodes, trace.horizon, tau)
        for (u, v), presence in trace.pair_presence().items():
            for iv in presence:
                out.add_candidate(u, v, iv.start, iv.end, availability)
        return out

    # ------------------------------------------------------------------
    def rho(self, u: Node, v: Node, t: float) -> float:
        """The non-deterministic presence ``ρ(e, t) ∈ [0, 1]``."""
        for cand in self._candidates.get(edge_key(u, v), ()):
            if cand.start <= t < cand.end:
                return cand.prob
        return 0.0

    def expected_degree(self, node: Node, t: float) -> float:
        """``Σ_j ρ(e_{node,j}, t)`` — expected instantaneous degree."""
        total = 0.0
        for (a, b), cands in self._candidates.items():
            if node in (a, b):
                other = b if a == node else a
                total += self.rho(node, other, t)
        return total

    # ------------------------------------------------------------------
    def sample_trace(self, seed: SeedLike = None) -> ContactTrace:
        """One realization as a contact trace (candidates kept i.i.d.)."""
        rng = as_generator(seed)
        kept: List[Contact] = []
        for cands in self._candidates.values():
            for c in cands:
                if c.prob >= 1.0 or rng.random() < c.prob:
                    kept.append(Contact(c.start, c.end, c.u, c.v))
        return ContactTrace(kept, nodes=self._nodes, horizon=self._horizon)

    def sample(self, seed: SeedLike = None) -> TVG:
        """One realization as a deterministic TVG."""
        return self.sample_trace(seed).to_tvg(tau=self._tau, horizon=self._horizon)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProbabilisticTVG(|V|={len(self._nodes)}, "
            f"candidates={self.num_candidates()}, horizon={self._horizon:g})"
        )


@dataclass(frozen=True)
class RobustnessReport:
    """Outcome of a realization sweep."""

    realizations: int
    feasible: int
    costs: Tuple[float, ...]  # total costs of the feasible realizations

    @property
    def feasibility_rate(self) -> float:
        return self.feasible / self.realizations if self.realizations else 0.0

    @property
    def mean_cost(self) -> float:
        return float(np.mean(self.costs)) if self.costs else math.nan

    @property
    def p90_cost(self) -> float:
        return float(np.percentile(self.costs, 90)) if self.costs else math.nan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RobustnessReport(rate={self.feasibility_rate:.2f}, "
            f"mean_cost={self.mean_cost:.4g}, n={self.realizations})"
        )


def schedule_robustness(
    ptvg: ProbabilisticTVG,
    source: Node,
    deadline: float,
    scheduler_name: str = "eedcb",
    channel: str = "static",
    realizations: int = 20,
    seed: SeedLike = None,
    distance_seed: int = 0,
) -> RobustnessReport:
    """Schedule on each sampled realization; report rate and cost spread.

    Each realization is an independent world: the scheduler sees the
    realized contacts (a clairvoyant per-realization plan), so the
    feasibility rate measures how often the *instance itself* admits a
    broadcast — the contact-uncertainty analog of the paper's delay sweeps.
    """
    from ..algorithms.base import make_scheduler
    from ..tveg.builders import tveg_from_trace

    rng = as_generator(seed)
    children = spawn(rng, realizations)
    feasible = 0
    costs: List[float] = []
    for child in children:
        trace = ptvg.sample_trace(child)
        if trace.num_contacts == 0:
            continue
        tveg = tveg_from_trace(trace, channel, tau=ptvg.tau, seed=distance_seed)
        kwargs = {"seed": child} if "rand" in scheduler_name else {}
        try:
            schedule = make_scheduler(scheduler_name, **kwargs).schedule(
                tveg, source, deadline
            )
        except InfeasibleError:
            continue
        feasible += 1
        costs.append(schedule.total_cost)
    return RobustnessReport(
        realizations=realizations, feasible=feasible, costs=tuple(costs)
    )
