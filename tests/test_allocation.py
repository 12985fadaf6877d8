"""Energy allocation (Eqs. 14–17): problem build, all three solvers."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from repro.algorithms import make_scheduler
from repro.algorithms.eedcb import EEDCB
from repro.allocation import (
    AllocationProblem,
    Constraint,
    balanced_allocation,
    build_allocation_problem,
    closed_form_allocation,
    coordinate_descent_allocation,
    nlp,
    solve_allocation,
)
from repro.allocation.problem import term_ed
from repro.channels.nakagami import NakagamiED
from repro.channels.rician import RicianED
from repro.errors import InfeasibleError, SolverError
from repro.schedule import Schedule, Transmission

from .conftest import make_random_instance


def _problem(constraints, eps=0.01, w_max=math.inf):
    return AllocationProblem(
        num_vars=max(k for c in constraints for k, _ in c.terms) + 1,
        constraints=list(constraints),
        log_eps=math.log(eps),
        w_min=0.0,
        w_max=w_max,
    )


class TestProblemStructure:
    def test_build_from_backbone(self, det_fading):
        w01 = det_fading.min_cost(0, 1, 15.0)
        w03 = det_fading.min_cost(0, 3, 15.0)
        w12 = det_fading.min_cost(1, 2, 25.0)
        backbone = Schedule(
            [Transmission(0, 15.0, max(w01, w03)), Transmission(1, 25.0, w12)]
        )
        prob = build_allocation_problem(det_fading, backbone, 0)
        assert prob.num_vars == 2
        # constraints: nodes 1, 2, 3 (Eq. 15) + relay 1 at t=25 (Eq. 16)
        labels = [c.label for c in prob.constraints]
        assert sum(l.startswith("node:") for l in labels) == 3
        assert sum(l.startswith("relay:") for l in labels) == 1

    def test_uncovered_node_infeasible(self, det_fading):
        backbone = Schedule([Transmission(0, 15.0, 1.0)])
        with pytest.raises(InfeasibleError):
            build_allocation_problem(det_fading, backbone, 0)

    def test_uninformable_relay_infeasible(self, det_fading):
        w0 = max(det_fading.min_cost(0, 1, 15.0), det_fading.min_cost(0, 3, 15.0))
        # relay 2 transmits at 45, but the only transmission that could reach
        # it (from 1 on contact [20,50)) happens later, at 46 → Eq. (16) has
        # no terms for the relay row and the problem is infeasible.
        backbone = Schedule(
            [
                Transmission(0, 15.0, w0),
                Transmission(2, 45.0, 1.0),
                Transmission(1, 46.0, 1.0),
            ]
        )
        with pytest.raises(InfeasibleError):
            build_allocation_problem(det_fading, backbone, 0)

    def test_static_channel_rejected(self, det_static):
        with pytest.raises(SolverError):
            build_allocation_problem(det_static, Schedule.empty(), 0)

    def test_residuals_and_feasibility(self):
        prob = _problem([Constraint("c", ((0, 2.0),))])
        w_ok = np.array([prob.min_single_cost(2.0) * 1.01])
        w_bad = np.array([prob.min_single_cost(2.0) * 0.5])
        assert prob.is_feasible(w_ok)
        assert not prob.is_feasible(w_bad)
        assert prob.residuals(w_ok)[0] > 0
        assert prob.residuals(w_bad)[0] < 0


class TestClosedForm:
    def test_single_constraint_exact(self):
        prob = _problem([Constraint("c", ((0, 2.0),))])
        w = closed_form_allocation(prob)
        # alone on the constraint: w = β / ln(1/(1−ε))
        assert w[0] == pytest.approx(2.0 / math.log(1 / 0.99))

    def test_designates_cheapest_beta(self):
        # variable 1 has the smaller β → designated; variable 0 stays at lb
        prob = _problem([Constraint("c", ((0, 5.0), (1, 2.0)))])
        w = closed_form_allocation(prob)
        assert w[1] > w[0]
        assert prob.is_feasible(w)

    def test_max_over_constraints(self):
        prob = _problem(
            [Constraint("a", ((0, 2.0),)), Constraint("b", ((0, 7.0),))]
        )
        w = closed_form_allocation(prob)
        assert w[0] == pytest.approx(7.0 / math.log(1 / 0.99))

    def test_always_feasible(self):
        prob = _problem(
            [
                Constraint("a", ((0, 2.0), (1, 3.0))),
                Constraint("b", ((1, 1.0), (2, 4.0))),
                Constraint("c", ((0, 6.0),)),
            ]
        )
        assert prob.is_feasible(closed_form_allocation(prob))


class TestCoordinateDescent:
    def test_never_worse_than_start(self):
        prob = _problem(
            [
                Constraint("a", ((0, 2.0), (1, 3.0))),
                Constraint("b", ((1, 1.0), (2, 4.0))),
            ]
        )
        w0 = closed_form_allocation(prob)
        w = coordinate_descent_allocation(prob, w0)
        assert prob.is_feasible(w)
        assert w.sum() <= w0.sum() + 1e-12

    def test_requires_feasible_start(self):
        prob = _problem([Constraint("c", ((0, 2.0),))])
        with pytest.raises(InfeasibleError):
            coordinate_descent_allocation(prob, np.array([1e-20]))

    def test_monotone_never_worse(self):
        # Coordinate descent is a descent method: from any feasible start it
        # must never increase the objective (even under float noise).
        prob = _problem([Constraint("c", ((0, 2.0), (1, 2.0)))])
        w_closed = closed_form_allocation(prob)
        w = coordinate_descent_allocation(prob, w_closed)
        assert prob.is_feasible(w)
        assert w.sum() <= w_closed.sum()

    def test_unconstrained_variable_floors(self):
        prob = _problem([Constraint("c", ((0, 2.0),))])
        prob2 = AllocationProblem(
            num_vars=2,
            constraints=prob.constraints,
            log_eps=prob.log_eps,
            w_min=0.0,
            w_max=math.inf,
        )
        w = coordinate_descent_allocation(prob2, closed_form_allocation(prob2))
        assert w[1] == prob2.lb


class TestBalanced:
    def test_always_feasible(self):
        prob = _problem(
            [
                Constraint("a", ((0, 2.0), (1, 3.0))),
                Constraint("b", ((1, 1.0), (2, 4.0))),
                Constraint("c", ((0, 6.0),)),
            ]
        )
        assert prob.is_feasible(balanced_allocation(prob))

    def test_symmetric_split_is_optimal(self):
        # two identical transmissions → equal split: (1−e^{−β/w})² = ε
        import math

        prob = _problem([Constraint("c", ((0, 2.0), (1, 2.0)))])
        w = balanced_allocation(prob)
        expected = 2.0 / math.log(1.0 / (1.0 - 0.1))  # per-term target √ε=0.1
        assert w[0] == pytest.approx(expected)
        assert w[1] == pytest.approx(expected)


class TestSolveAllocation:
    def test_exploits_overlap(self):
        # Two transmissions both covering one node: sharing the failure
        # budget (≈19 each) must beat the single-designee closed form
        # (≈199) by a wide margin.
        prob = _problem([Constraint("c", ((0, 2.0), (1, 2.0)))])
        res = solve_allocation(prob)
        w_closed = closed_form_allocation(prob)
        assert prob.is_feasible(res.costs)
        assert res.total < 0.3 * float(w_closed.sum())

    def test_returns_feasible_best(self):
        prob = _problem(
            [
                Constraint("a", ((0, 2.0), (1, 3.0))),
                Constraint("b", ((1, 1.0), (2, 4.0))),
            ]
        )
        res = solve_allocation(prob)
        assert prob.is_feasible(res.costs)
        assert res.total == pytest.approx(float(res.costs.sum()))
        assert res.method in ("slsqp", "coordinate", "closed_form", "balanced")

    def test_disjoint_singletons_match_closed_form(self):
        # One transmission per node: the closed form is provably optimal.
        prob = _problem(
            [Constraint("a", ((0, 2.0),)), Constraint("b", ((1, 5.0),))]
        )
        res = solve_allocation(prob)
        w_closed = closed_form_allocation(prob)
        assert res.total == pytest.approx(float(w_closed.sum()), rel=1e-6)

    def test_never_worse_than_closed_form(self, det_fading):
        w01 = det_fading.min_cost(0, 1, 15.0)
        w03 = det_fading.min_cost(0, 3, 15.0)
        w12 = det_fading.min_cost(1, 2, 25.0)
        backbone = Schedule(
            [Transmission(0, 15.0, max(w01, w03)), Transmission(1, 25.0, w12)]
        )
        prob = build_allocation_problem(det_fading, backbone, 0)
        res = solve_allocation(prob)
        assert res.total <= float(closed_form_allocation(prob).sum()) + 1e-18

    def test_without_slsqp(self):
        prob = _problem([Constraint("a", ((0, 2.0), (1, 2.0)))])
        res = solve_allocation(prob, use_slsqp=False)
        assert prob.is_feasible(res.costs)
        assert res.method in ("coordinate", "closed_form", "balanced")

    def test_w_max_binding(self):
        need = 2.0 / math.log(1 / 0.99)  # unconstrained requirement
        prob = _problem([Constraint("c", ((0, 2.0),))], w_max=need / 2)
        with pytest.raises(InfeasibleError):
            solve_allocation(prob)


# ----------------------------------------------------------------------
# The term table against the per-row evaluation it replaced.  SLSQP copies
# each constraint dict's output into its ``d`` vector and ``C`` matrix, so
# byte-equal rows mean byte-equal iterates.

prop = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Rayleigh β scales from 1e-12 to 1e2, spread over the exponents
betas = st.floats(-12.0, 2.0).map(lambda e: 10.0 ** e)
channels = st.one_of(
    betas,
    st.builds(RicianED, betas, st.floats(0.0, 10.0)),
    st.builds(NakagamiED, betas, st.floats(0.5, 5.0)),
)


@st.composite
def problems(draw, max_vars=6, max_rows=8, max_terms=4):
    """1–6 variables and 1–8 rows; a row may name a variable twice, and
    rows share ``(variable, channel)`` term objects drawn from one pool,
    the way :func:`build_allocation_problem`'s relay rows share their
    node row's terms."""
    n = draw(st.integers(1, max_vars))
    term = st.tuples(st.integers(0, n - 1), channels)
    pool = draw(st.lists(term, min_size=1, max_size=2 * max_terms))
    rows = [
        Constraint(
            f"r{i}",
            tuple(
                draw(st.lists(st.one_of(st.sampled_from(pool), term),
                              min_size=1, max_size=max_terms))
            ),
        )
        for i in range(draw(st.integers(1, max_rows)))
    ]
    return AllocationProblem(
        num_vars=n,
        constraints=rows,
        log_eps=math.log(draw(st.floats(1e-6, 0.5))),
        w_min=draw(st.sampled_from([0.0, 1e-9, 1e-3])),
        w_max=math.inf,
    )


def cost_vectors(problem):
    """Entries 0.0, below ``lb``, at ``lb`` and up to 1e300, where
    ``d log φ / dw`` underflows to zero."""
    lb = problem.lb
    entry = st.one_of(
        st.sampled_from([0.0, lb / 2, lb, 1e300]),
        st.floats(lb, 1e300),
        st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
    )
    return st.lists(entry, min_size=problem.num_vars,
                    max_size=problem.num_vars).map(np.array)


def per_row_residual(problem, c, w):
    return problem.log_eps - sum(
        term_ed(ch).log_failure(w[k]) for k, ch in c.terms
    )


def per_row_jacobian(problem, c, w):
    out = np.zeros(problem.num_vars)
    with np.errstate(over="ignore"):  # w·w overflows for w ≳ 1e154
        for k, ch in c.terms:
            out[k] += -term_ed(ch).dlog_failure_dw(max(w[k], problem.lb))
    return out


def per_row_constraints(problem):
    """One SLSQP constraint dict per row, as the solver once built them."""
    return [
        {"type": "ineq",
         "fun": lambda w, c=c: per_row_residual(problem, c, w),
         "jac": lambda w, c=c: per_row_jacobian(problem, c, w)}
        for c in problem.constraints
    ]


def assert_polishes_match_per_row(problem):
    """Run every SLSQP polish of ``solve_allocation`` with the problem's one
    vector constraint and again with a dict per row; same ``x``, ``nit``
    and ``success``."""
    polishes = []

    def both(**kw):
        (con,) = kw["constraints"]
        assert con["fun"] == problem.residuals
        assert con["jac"] == problem.jacobian
        x0 = np.array(kw["x0"])
        one = minimize(**kw)
        rows = minimize(**dict(kw, x0=x0,
                               constraints=per_row_constraints(problem)))
        polishes.append((one, rows))
        return one

    with mock.patch.object(nlp, "minimize", both):
        solve_allocation(problem)
    assert polishes
    for one, rows in polishes:
        assert one.x.tobytes() == rows.x.tobytes()
        assert one.nit == rows.nit
        assert one.success == rows.success


BACKBONE_INSTANCES = [(2, 8), (5, 10), (7, 10), (11, 8)]


def _shared_terms_problem(tveg, backbone):
    """The backbone's allocation problem, whose relay rows (Eq. 16) reuse
    their node rows' (Eq. 15) term objects: fewer table entries than
    terms."""
    problem = build_allocation_problem(tveg, backbone, 0)
    assert len(problem._terms) < sum(len(c.terms) for c in problem.constraints)
    return problem


class TestTermTable:
    @prop
    @given(st.data())
    def test_residuals_and_jacobian_byte_equal_per_row(self, data):
        problem = data.draw(problems())
        for _ in range(5):
            w = data.draw(cost_vectors(problem))
            want_d = np.array(
                [per_row_residual(problem, c, w) for c in problem.constraints]
            )
            want_c = np.vstack(
                [per_row_jacobian(problem, c, w) for c in problem.constraints]
            )
            assert problem.residuals(w).tobytes() == want_d.tobytes()
            assert problem.jacobian(w).tobytes() == want_c.tobytes()

    @settings(prop, max_examples=15)
    @given(problems(max_vars=4, max_rows=4, max_terms=3))
    def test_slsqp_polishes_match_per_row(self, problem):
        assert_polishes_match_per_row(problem)

    @pytest.mark.parametrize("seed, num_nodes", BACKBONE_INSTANCES)
    def test_slsqp_polishes_match_per_row_on_backbones(self, seed, num_nodes):
        _, tveg = make_random_instance(num_nodes, seed=seed, channel="rayleigh")
        backbone = EEDCB().run(tveg, 0, 300.0).schedule
        assert_polishes_match_per_row(_shared_terms_problem(tveg, backbone))

    @pytest.mark.parametrize("algo", ["greed", "rand"])
    @pytest.mark.parametrize("seed, num_nodes", BACKBONE_INSTANCES)
    def test_slsqp_polishes_match_per_row_on_event_backbones(
        self, algo, seed, num_nodes
    ):
        # the FR-GREED and FR-RAND backbones: GREED / RAND run on the
        # fading instance itself
        _, tveg = make_random_instance(num_nodes, seed=seed, channel="rayleigh")
        kwargs = {"seed": seed} if algo == "rand" else {}
        backbone = make_scheduler(algo, **kwargs).run(tveg, 0, 300.0).schedule
        assert_polishes_match_per_row(_shared_terms_problem(tveg, backbone))

    def test_variable_index_out_of_range_rejected(self):
        with pytest.raises(SolverError, match="variable 2"):
            AllocationProblem(
                num_vars=2,
                constraints=[Constraint("c", ((2, 1.0),))],
                log_eps=math.log(0.01),
                w_min=0.0,
                w_max=math.inf,
            )
