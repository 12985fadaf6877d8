"""SLSQP solution of the allocation NLP (Eqs. 14–17).

Solves ``min Σ w_k`` under the log-domain product constraints with
analytic gradients.  The constraint functions are

    g_j(w) = log ε − Σ_{k ∈ K_j} log(1 − e^{−β/w_k}) ≥ 0

with ``∂g_j/∂w_k = (β/w_k²) · e^{−β/w_k} / (1 − e^{−β/w_k})`` — positive, so
raising any participating cost always loosens the constraint.

SLSQP gets all rows as one vector constraint: ``fun`` is
:meth:`AllocationProblem.residuals` and ``jac`` is
:meth:`AllocationProblem.jacobian`, which walk the problem's term table
once per evaluation.  scipy copies that output into the ``d`` vector and
``C`` matrix of its kernel exactly as it would copy one scalar and one
gradient row per constraint dict.  Each row is the same ``sum()`` over the
same per-term ``log φ`` calls as a per-row closure, so the iterates do not
change.  Log φ is deliberately left to the channels' ``math`` calls: numpy's
SIMD ``expm1``, ``log`` and ``exp`` round differently on some arguments.

The solver is warm-started from the closed-form feasible point, polished by
SLSQP, and cross-checked: if SLSQP fails, wanders infeasible, or does worse
than monotone coordinate descent, the better of the fallbacks is returned.
The problem is non-convex in general (the paper solves it with generic NLP
methods [19]); this belt-and-braces arrangement guarantees the returned
vector is feasible and no worse than the closed form.

SLSQP runs on the OpenBLAS bundled with scipy, and its iterates depend on
that library's thread count.  So fr-* allocations, and the Fig. 5(b)/6
series built from them, are byte-reproducible only at a fixed thread
count.  To compare outputs across machines, run with
``OPENBLAS_NUM_THREADS=1``; the repository benchmark pins it to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .. import obs
from ..errors import InfeasibleError
from .closed_form import balanced_allocation, closed_form_allocation
from .coordinate import coordinate_descent_allocation
from .problem import AllocationProblem

__all__ = ["AllocationResult", "solve_allocation"]


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of the allocation solve."""

    costs: np.ndarray
    total: float
    method: str            # winning candidate: "slsqp" | "coordinate" | "balanced" | "closed_form" | "backbone"
    slsqp_converged: bool
    #: total SLSQP iterations over every polish attempt (0 when disabled)
    nlp_iterations: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AllocationResult(total={self.total:.4g}, method={self.method!r}, "
            f"slsqp_converged={self.slsqp_converged})"
        )


def solve_allocation(
    problem: AllocationProblem,
    use_slsqp: bool = True,
    max_iter: int = 200,
    fallback: Optional[np.ndarray] = None,
) -> AllocationResult:
    """Solve the NLP; always returns a feasible allocation (see module doc).

    ``fallback`` is an optional cost vector the *caller* already knows to be
    feasible for the original ``ε`` (typically the backbone's ``w0`` costs).
    The solver's candidates target the margin-tightened ``ε·(1 − margin)``,
    which on small instances can cost slightly more than the ε-exact
    backbone; when every candidate is more expensive than ``fallback``, the
    fallback is returned (method ``"backbone"``) so the allocation never
    does worse than the schedule it started from.
    """
    with obs.span(
        "allocation.solve",
        num_vars=problem.num_vars,
        num_constraints=len(problem.constraints),
    ):
        w_closed = closed_form_allocation(problem)
        if not problem.is_feasible(w_closed, tol=1e-6):
            raise InfeasibleError(
                "closed-form warm start is infeasible — the backbone cannot "
                "satisfy the delivery constraints within the cost bounds"
            )
        candidates = [("closed_form", w_closed)]

        w_balanced = balanced_allocation(problem)
        if problem.is_feasible(w_balanced, tol=1e-6):
            candidates.append(("balanced", w_balanced))

        for label, start in (("coordinate", w_closed), ("coordinate", w_balanced)):
            if not problem.is_feasible(start, tol=1e-6):
                continue
            w_coord = coordinate_descent_allocation(problem, start)
            if problem.is_feasible(w_coord, tol=1e-6):
                candidates.append((label, w_coord))

        slsqp_ok = False
        nit_total = 0
        if use_slsqp and problem.num_vars > 0:
            ub = problem.w_max if math.isfinite(problem.w_max) else None
            bounds = [(problem.lb, ub)] * problem.num_vars
            # One vector constraint: SLSQP fills its ``d`` and ``C`` from
            # every row at once, with the same numbers a dict per row gives.
            cons = [{"type": "ineq", "fun": problem.residuals,
                     "jac": problem.jacobian}]
            # Polish from every candidate: the closed-form vertex, the
            # balanced interior point and the coordinate-descent points (the
            # vertex is singular in the flat w → 0 region, so the interior
            # starts are what let SLSQP exploit overlap).
            for _, start in list(candidates):
                with obs.span("allocation.slsqp"):
                    res = minimize(
                        fun=lambda w: float(np.sum(w)),
                        x0=np.array(start, dtype=float),
                        jac=lambda w: np.ones_like(w),
                        bounds=bounds,
                        constraints=cons,
                        method="SLSQP",
                        options={"maxiter": max_iter, "ftol": 1e-12},
                    )
                slsqp_ok = slsqp_ok or bool(res.success)
                nit_total += int(getattr(res, "nit", 0) or 0)
                if res.x is not None and problem.is_feasible(res.x, tol=1e-6):
                    candidates.append(("slsqp", np.array(res.x, dtype=float)))

        method, best = min(candidates, key=lambda mw: float(np.sum(mw[1])))
        if fallback is not None and float(np.sum(fallback)) < float(np.sum(best)):
            method, best = "backbone", np.array(fallback, dtype=float)
        obs.counter("allocation.solves")
        obs.counter("allocation.slsqp_iterations", nit_total)
        return AllocationResult(
            costs=best,
            total=float(np.sum(best)),
            method=method,
            slsqp_converged=slsqp_ok,
            nlp_iterations=nit_total,
        )
