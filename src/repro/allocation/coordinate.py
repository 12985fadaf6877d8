"""Coordinate-descent energy allocation.

Starting from any feasible point, repeatedly sets each variable to the
*smallest* value that keeps every constraint it participates in satisfied
given the current values of the others.  Each update preserves feasibility
and never increases the objective, so the iteration converges monotonically;
it stops when a full sweep changes no variable by more than ``tol``.

For one constraint with slack-excluding-k ``rhs = log ε − Σ_{l≠k} log φ_l``,
the requirement on ``w_k`` is ``log φ_k(w_k) ≤ rhs``, i.e.
``w_k ≥ ed_k.min_cost(e^{rhs})`` (no bound when rhs ≥ 0) — the generalized
inverse works for every fading family.  The variable's new value is the max
over its constraints, clamped to ``[lb, w_max]``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ..errors import InfeasibleError
from .problem import AllocationProblem

__all__ = ["coordinate_descent_allocation"]


def _required_cost(channel, rhs: float) -> float:
    """Smallest ``w`` with ``log φ(w) ≤ rhs`` — ``ed.min_cost(e^{rhs})``."""
    if rhs >= 0.0:
        return 0.0  # any cost satisfies (φ ≤ 1 always)
    from .problem import term_ed

    return term_ed(channel).min_cost(math.exp(rhs))


def coordinate_descent_allocation(
    problem: AllocationProblem,
    w0: np.ndarray,
    tol: float = 1e-12,
    max_sweeps: int = 200,
) -> np.ndarray:
    """Monotone coordinate descent from the feasible start ``w0``."""
    w = np.array(w0, dtype=float)
    if not problem.is_feasible(w, tol=1e-6):
        raise InfeasibleError("coordinate descent requires a feasible start")

    # Constraint membership and cached per-term log-φ values.
    member: Dict[int, List[Tuple[int, object]]] = {k: [] for k in range(problem.num_vars)}
    for ci, c in enumerate(problem.constraints):
        for k, ch in c.terms:
            member[k].append((ci, ch))
    values = [
        [problem.log_phi(ch, w[k]) for k, ch in c.terms]
        for c in problem.constraints
    ]
    totals = [sum(vals) for vals in values]
    # index of variable k within constraint ci's term list
    pos: Dict[Tuple[int, int], int] = {}
    for ci, c in enumerate(problem.constraints):
        for slot, (k, _) in enumerate(c.terms):
            pos[(ci, k)] = slot

    for _ in range(max_sweeps):
        max_change = 0.0
        for k in range(problem.num_vars):
            if not member[k]:
                new_w = problem.lb
            else:
                need = problem.lb
                for ci, ch in member[k]:
                    rhs = problem.log_eps - (totals[ci] - values[ci][pos[(ci, k)]])
                    need = max(need, _required_cost(ch, rhs))
                new_w = min(need, problem.w_max)
                # Monotone descent: the current value is feasible by the
                # invariant, so float noise in `need` must never raise it.
                new_w = min(new_w, w[k])
            change = abs(new_w - w[k])
            if change > tol * max(1.0, abs(w[k])):
                w[k] = new_w
                for ci, ch in member[k]:
                    slot = pos[(ci, k)]
                    totals[ci] += problem.log_phi(ch, new_w) - values[ci][slot]
                    values[ci][slot] = problem.log_phi(ch, new_w)
                max_change = max(max_change, change)
        if max_change == 0.0:
            break
    return w
