"""The optimal-energy-allocation problem structure (Section VI-B).

After backbone selection fixes the relays ``R`` and times ``T``, the cost
vector ``W`` solves (Eqs. 14–17):

    min Σ w_k
    s.t. Π_{k ∈ K_j}        φ_{β_{k,j}}(w_k) ≤ ε   for every node v_j   (15)
         Π_{k ∈ K_j, t_k ≤ t_j} φ(w_k) ≤ ε          for every relay row  (16)
         w_min ≤ w_k ≤ w_max                                              (17)

``K_j`` collects the transmissions adjacent to ``v_j`` at their departure.
In log domain each product constraint becomes ``Σ_k log φ(w_k) ≤ log ε`` —
the form all three solvers in this package consume.

The paper formulates the NLP for the Rayleigh channel
(``log φ(w) = log(1 − e^{−β/w})``); this implementation generalizes each
constraint term to an arbitrary fading :class:`~repro.channels.base.EDFunction`
(Rician, Nakagami, user-defined), so FR-EEDCB runs unchanged on the
footnote-1 channel extensions.  Bare floats in a term are interpreted as
Rayleigh ``β`` scales for backward compatibility.  Building the problem on
a static channel is rejected — nothing to optimize, the step thresholds are
the unique minimal costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..channels.base import EDFunction
from ..channels.rayleigh import RayleighED
from ..errors import InfeasibleError, SolverError
from ..schedule.feasibility import time_groups
from ..schedule.schedule import Schedule
from ..tveg.graph import TVEG

__all__ = ["Constraint", "AllocationProblem", "build_allocation_problem", "term_ed"]

Node = Hashable

#: Numerical floor for transmit costs — φ is singular at w = 0.
MIN_COST_FLOOR = 1e-30

#: a channel's bound ``log_failure`` or ``dlog_failure_dw``
TermFn = Callable[[float], float]


def term_ed(term) -> EDFunction:
    """Coerce a constraint term's channel spec to an ED-function.

    A bare float is a Rayleigh ``β`` scale (the paper's case); anything else
    must already be a fading :class:`EDFunction`.
    """
    if isinstance(term, EDFunction):
        return term
    return RayleighED(float(term))


@dataclass(frozen=True)
class Constraint:
    """One log-domain product constraint: ``Σ log φ_k(w_k) ≤ log ε``.

    ``terms`` pairs each participating variable index ``k`` with its
    channel: an :class:`EDFunction` or a bare Rayleigh ``β`` float.
    """

    label: str
    terms: Tuple[Tuple[int, object], ...]

    @property
    def indices(self) -> Tuple[int, ...]:
        return tuple(k for k, _ in self.terms)


@dataclass
class AllocationProblem:
    """All data the allocation solvers need.

    Construction also builds the problem's term table: one entry per
    distinct ``(variable, channel object)`` pair, holding the channel's
    bound ``log_failure`` and ``dlog_failure_dw``, and for every
    constraint row the positions of its terms in that table, in term
    order.  :meth:`residuals` and :meth:`jacobian` evaluate each entry
    once and assemble every row from it, which is what SLSQP consumes as
    its single vector constraint.  Rows share entries because
    :func:`build_allocation_problem` gives a relay row (Eq. 16) the very
    ``(k, ED-function)`` terms of the same node's node row (Eq. 15).
    """

    num_vars: int
    constraints: List[Constraint]
    log_eps: float
    w_min: float
    w_max: float
    #: per-variable lower bound actually used (≥ MIN_COST_FLOOR)
    lb: float = field(init=False)
    #: ``(k, log_failure, dlog_failure_dw)`` of each distinct term
    _terms: List[Tuple[int, TermFn, TermFn]] = field(
        init=False, repr=False, compare=False
    )
    #: per row, the term-table position of each of its terms, in term order
    _rows: List[List[int]] = field(init=False, repr=False, compare=False)
    #: flat Jacobian index ``row · num_vars + k`` of every term, row by row
    _jac_at: np.ndarray = field(init=False, repr=False, compare=False)
    #: term-table position of every term, aligned with ``_jac_at``
    _jac_term: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.lb = max(self.w_min, MIN_COST_FLOOR)
        if self.w_max <= self.lb:
            raise SolverError("w_max must exceed the effective lower bound")
        n = self.num_vars
        # Keyed by the channel object's identity: the constraints keep
        # every channel alive, and one object always yields one function.
        position: Dict[Tuple[int, int], int] = {}
        self._terms = []
        self._rows = []
        jac_at: List[int] = []
        jac_term: List[int] = []
        for i, c in enumerate(self.constraints):
            row = []
            for k, ch in c.terms:
                if not 0 <= k < n:
                    raise SolverError(
                        f"constraint {c.label!r} names variable {k}, "
                        f"outside 0..{n - 1}"
                    )
                at = position.get((k, id(ch)))
                if at is None:
                    at = position[(k, id(ch))] = len(self._terms)
                    ed = term_ed(ch)
                    self._terms.append((k, ed.log_failure, ed.dlog_failure_dw))
                row.append(at)
                jac_at.append(i * n + k)
                jac_term.append(at)
            self._rows.append(row)
        self._jac_at = np.array(jac_at, dtype=np.intp)
        self._jac_term = np.array(jac_term, dtype=np.intp)

    # ------------------------------------------------------------------
    @staticmethod
    def log_phi(channel, w: float) -> float:
        """``log φ(w)`` — one factor of a constraint (any fading family)."""
        return term_ed(channel).log_failure(w)

    def residuals(self, w: np.ndarray) -> np.ndarray:
        """Slack ``log ε − Σ log φ`` per constraint (≥ 0 ⇔ satisfied).

        Each distinct term's ``log φ`` is evaluated once; each row is then
        a ``sum()`` over its terms' values in term order, so it rounds as
        a per-row ``sum()`` does on every Python version (compensated from
        3.12 on).
        """
        x = np.asarray(w, dtype=float).tolist()
        values = [f(x[k]) for k, f, _ in self._terms]
        value = values.__getitem__
        log_eps = self.log_eps
        return np.array([log_eps - sum(map(value, row)) for row in self._rows])

    def jacobian(self, w: np.ndarray) -> np.ndarray:
        """``∂ residuals / ∂ w`` as a dense rows × variables matrix.

        Each distinct term's derivative is taken once, at ``max(w_k, lb)``
        where φ is not singular, and every row's terms are accumulated
        onto 0.0 in term order (``np.add.at``): an entry whose derivative
        is ``+0.0`` stays ``+0.0``, and a row naming a variable twice adds
        its two terms in order.
        """
        lb = self.lb
        x = [max(v, lb) for v in np.asarray(w, dtype=float).tolist()]
        slopes = np.array([-dlog(x[k]) for k, _, dlog in self._terms],
                          dtype=float)
        flat = np.zeros(len(self._rows) * self.num_vars)
        np.add.at(flat, self._jac_at, slopes[self._jac_term])
        return flat.reshape(len(self._rows), self.num_vars)

    def is_feasible(self, w: np.ndarray, tol: float = 1e-9) -> bool:
        if np.any(w < self.lb - tol) or np.any(w > self.w_max + tol):
            return False
        return bool(np.all(self.residuals(w) >= -tol))

    def min_single_cost(self, channel) -> float:
        """Cost driving a single factor alone to ε (``ed.min_cost(ε)``)."""
        eps = math.exp(self.log_eps)
        return term_ed(channel).min_cost(eps)


def causal_order(tveg: TVEG, backbone: Schedule, source: Node) -> Dict[int, int]:
    """A causal firing rank for every backbone row.

    Under the τ ≈ 0 idealization several transmissions share a timestamp;
    Eq. (16)'s literal ``t_k ≤ t_j`` would then let two same-instant relays
    inform each *other* — a circular dependency no physical execution can
    realize.  This fixpoint replays the backbone with optimistic coverage
    (every adjacent node counts as informed once a relay fires) and assigns
    each row a strictly increasing rank; restricting Eq. (16) to
    lower-ranked terms admits same-instant chains but never cycles, exactly
    matching the simulator's within-timestamp resolution.

    Raises :class:`InfeasibleError` if some relay can never be informed by
    its own transmission time even optimistically.
    """
    rows = backbone.transmissions
    informed = {source}
    seq: Dict[int, int] = {}
    counter = 0
    for positions in time_groups(rows):
        pending = list(positions)
        progress = True
        while pending and progress:
            progress = False
            still = []
            for k in pending:
                if rows[k].relay in informed:
                    seq[k] = counter
                    counter += 1
                    informed.update(tveg.neighbors(rows[k].relay, rows[k].time))
                    progress = True
                else:
                    still.append(k)
            pending = still
        if pending:
            k = pending[0]
            raise InfeasibleError(
                f"relay {rows[k].relay!r} cannot be informed by its "
                f"transmission at t={rows[k].time:g} in any causal order"
            )
    return seq


def build_allocation_problem(
    tveg: TVEG,
    backbone: Schedule,
    source: Node,
    eps: Optional[float] = None,
    safety_margin: float = 1e-4,
    targets: Optional[Sequence[Node]] = None,
) -> AllocationProblem:
    """Assemble Eqs. (15)–(17) from a backbone ``[R, T]`` on a fading TVEG.

    ``safety_margin`` tightens the solver's target to ``ε·(1 − margin)`` so
    boundary-exact numerical solutions still satisfy the *strict* ``p ≤ ε``
    feasibility predicate (the energy impact is O(margin), negligible).

    Raises :class:`InfeasibleError` when some node (or some relay, by its
    transmission time) is not covered by any transmission — no cost vector
    can then satisfy the constraints.
    """
    if not tveg.is_fading:
        raise SolverError(
            "the allocation NLP is defined for fading channels (Section VI-B)"
        )
    e = tveg.params.epsilon if eps is None else e_check(eps)
    n = len(backbone)
    rows = backbone.transmissions

    # The ED-function of every (transmission k, reachable node j) pair.
    reach: Dict[Node, List[Tuple[int, EDFunction]]] = {v: [] for v in tveg.nodes}
    for k, s in enumerate(rows):
        for v in tveg.neighbors(s.relay, s.time):
            if v == s.relay:
                continue
            reach[v].append((k, tveg.ed(s.relay, v, s.time)))

    constraints: List[Constraint] = []
    # (15): every (target) node informed by the end of the schedule.
    required = tveg.nodes if targets is None else tuple(targets)
    for v in required:
        if v == source:
            continue
        terms = tuple(reach[v])
        if not terms:
            raise InfeasibleError(
                f"node {v!r} is covered by no backbone transmission"
            )
        constraints.append(Constraint(label=f"node:{v!r}", terms=terms))

    # (16): every relay informed by its own transmission time.  The causal
    # rank replaces the literal ``t_k ≤ t_j`` so same-instant cycles (a τ=0
    # artifact) are excluded while same-instant chains remain allowed.
    seq = causal_order(tveg, backbone, source)
    for j, s in enumerate(rows):
        if s.relay == source:
            continue
        terms = tuple(
            (k, ed) for k, ed in reach[s.relay] if seq[k] < seq[j]
        )
        if not terms:
            raise InfeasibleError(
                f"relay {s.relay!r} cannot be informed before its "
                f"transmission at t={s.time:g}"
            )
        constraints.append(
            Constraint(label=f"relay:{s.relay!r}@{s.time:g}", terms=terms)
        )

    if not (0 <= safety_margin < 1):
        raise SolverError("safety_margin must lie in [0, 1)")
    return AllocationProblem(
        num_vars=n,
        constraints=constraints,
        log_eps=math.log(e) + math.log1p(-safety_margin),
        w_min=tveg.params.w_min,
        w_max=tveg.params.w_max,
    )


def e_check(eps: float) -> float:
    if not (0 < eps < 1):
        raise SolverError("eps must lie in (0, 1)")
    return eps
