"""Schedule reduction passes: removal, cost lowering, upgrade-and-prune."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms import make_scheduler
from repro.errors import InfeasibleError
from repro.schedule import (
    Schedule,
    Transmission,
    check_feasibility,
    lower_costs,
    reduce,
    remove_redundant,
    upgrade_and_prune,
)
from repro.schedule.reduce import ReduceSession
from repro.temporal.reachability import reachable_set
from repro.traces import ContactTrace, uniform_trace
from repro.traces.model import Contact
from repro.tveg import tveg_from_trace
from repro.tveg.costsets import discrete_cost_set

from . import reduce_oracle


def _w(tveg, u, v, t):
    return tveg.min_cost(u, v, t)


@pytest.fixture
def feasible_with_waste(det_static):
    """A feasible schedule with one plainly redundant transmission."""
    w_cover = max(_w(det_static, 0, 1, 15.0), _w(det_static, 0, 3, 15.0))
    return Schedule(
        [
            Transmission(0, 15.0, w_cover),                      # covers 1, 3
            Transmission(1, 25.0, _w(det_static, 1, 2, 25.0)),   # covers 2
            Transmission(0, 62.0, _w(det_static, 0, 1, 62.0)),   # redundant
        ]
    )


class TestRemoveRedundant:
    def test_drops_waste(self, det_static, feasible_with_waste):
        reduced = remove_redundant(det_static, feasible_with_waste, 0, 100.0)
        assert len(reduced) == 2
        assert check_feasibility(det_static, reduced, 0, 100.0).feasible
        assert reduced.total_cost < feasible_with_waste.total_cost

    def test_keeps_necessary(self, det_static):
        sched = Schedule(
            [
                Transmission(
                    0, 15.0,
                    max(_w(det_static, 0, 1, 15.0), _w(det_static, 0, 3, 15.0)),
                ),
                Transmission(1, 25.0, _w(det_static, 1, 2, 25.0)),
            ]
        )
        assert remove_redundant(det_static, sched, 0, 100.0) == sched

    def test_infeasible_input_unchanged(self, det_static):
        bad = Schedule([Transmission(2, 45.0, 1.0)])
        assert remove_redundant(det_static, bad, 0, 100.0) == bad

    def test_never_increases_cost(self, det_static, feasible_with_waste):
        reduced = remove_redundant(det_static, feasible_with_waste, 0, 100.0)
        assert reduced.total_cost <= feasible_with_waste.total_cost


class TestLowerCosts:
    def test_rounds_down_overpowered(self, det_static):
        # transmit at 3× the needed cost; lowering should recover the level
        w_needed = max(_w(det_static, 0, 1, 15.0), _w(det_static, 0, 3, 15.0))
        sched = Schedule(
            [
                Transmission(0, 15.0, 3.0 * w_needed),
                Transmission(1, 25.0, _w(det_static, 1, 2, 25.0)),
            ]
        )
        lowered = lower_costs(det_static, sched, 0, 100.0)
        assert lowered.total_cost < sched.total_cost
        assert check_feasibility(det_static, lowered, 0, 100.0).feasible
        assert lowered[0].cost == pytest.approx(w_needed)

    def test_minimal_costs_untouched(self, det_static):
        sched = Schedule(
            [
                Transmission(
                    0, 15.0,
                    max(_w(det_static, 0, 1, 15.0), _w(det_static, 0, 3, 15.0)),
                ),
                Transmission(1, 25.0, _w(det_static, 1, 2, 25.0)),
            ]
        )
        assert lower_costs(det_static, sched, 0, 100.0).total_cost == pytest.approx(
            sched.total_cost
        )


class TestUpgradeAndPrune:
    def test_merges_split_coverage(self, det_static):
        # Two separate transmissions by 0 (one per neighbor) where one
        # higher-level transmission covers both.
        w1 = _w(det_static, 0, 1, 15.0)
        w3 = _w(det_static, 0, 3, 15.0)
        sched = Schedule(
            [
                Transmission(0, 15.0, min(w1, w3)),   # covers the nearer one
                Transmission(0, 16.0, max(w1, w3)),   # covers both, later
                Transmission(1, 25.0, _w(det_static, 1, 2, 25.0)),
            ]
        )
        improved = upgrade_and_prune(det_static, sched, 0, 100.0)
        assert improved.total_cost <= sched.total_cost
        assert check_feasibility(det_static, improved, 0, 100.0).feasible

    def test_never_increases_cost(self, det_static, feasible_with_waste):
        improved = upgrade_and_prune(det_static, feasible_with_waste, 0, 100.0)
        assert improved.total_cost <= feasible_with_waste.total_cost
        assert check_feasibility(det_static, improved, 0, 100.0).feasible

    def test_infeasible_input_unchanged(self, det_static):
        bad = Schedule([Transmission(2, 45.0, 1.0)])
        assert upgrade_and_prune(det_static, bad, 0, 100.0) == bad


# ----------------------------------------------------------------------
# The reduce session against the reference passes and the checker
# ----------------------------------------------------------------------

HORIZON = 300.0
PASSES = ("remove_redundant", "upgrade_and_prune", "lower_costs")


def _hex(schedule):
    return [(s.relay, s.time.hex(), s.cost.hex()) for s in schedule]


@st.composite
def reduce_cases(draw):
    """A random static or Rayleigh instance (N ≤ 9, τ ∈ {0, 1, 5}), a
    broadcast or multicast target set, a default or explicit ε, and
    EEDCB's unreduced schedule with up to three extra rows injected at
    its existing times: exact duplicates and waste rows of relays that
    already transmitted."""
    n = draw(st.integers(3, 9))
    seed = draw(st.integers(0, 2**16))
    trace = uniform_trace(num_nodes=n, horizon=HORIZON, mean_gap=80.0,
                          mean_duration=40.0, seed=seed)
    tveg = tveg_from_trace(
        trace, draw(st.sampled_from(("static", "rayleigh"))), seed=seed,
        tau=draw(st.sampled_from((0.0, 1.0, 5.0))),
    )
    source = draw(st.integers(0, n - 1))
    reached = sorted(set(reachable_set(tveg.tvg, source, 0.0, HORIZON))
                     - {source})
    assume(reached)
    targets = None
    if len(reached) < n - 1 or draw(st.booleans()):
        targets = tuple(draw(st.lists(st.sampled_from(reached), min_size=1,
                                      unique=True)))
    eps = draw(st.sampled_from((None, 1e-3, 0.05, 0.3)))
    try:
        rows = list(make_scheduler("eedcb", reduce=False, targets=targets)
                    .run(tveg, source, HORIZON).schedule)
    except InfeasibleError:
        rows = []
    first = {}
    for s in rows:
        first.setdefault(s.relay, s.time)
    times = sorted({s.time for s in rows})
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        base = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            rows.append(base)
            continue
        relay = draw(st.sampled_from(sorted(first)))
        t = draw(st.sampled_from([t for t in times if t >= first[relay]]))
        dcs = discrete_cost_set(tveg, relay, t)
        cost = base.cost if dcs.is_empty else draw(st.sampled_from(dcs.costs))
        rows.append(Transmission(relay, t, cost))
    return tveg, Schedule(rows), source, HORIZON, eps, targets


@given(reduce_cases())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_passes_match_reference(case):
    """Each pass, and the three in EEDCB's order, return the reference
    passes' schedule (``tests/reduce_oracle.py``) float for float."""
    tveg, sched, source, deadline, eps, targets = case
    chained = {"session": sched, "oracle": sched}
    for name in PASSES:
        kw = dict(eps=eps, targets=targets)
        got = getattr(reduce, name)(tveg, sched, source, deadline, **kw)
        want = getattr(reduce_oracle, name)(tveg, sched, source, deadline, **kw)
        assert _hex(got) == _hex(want), name
        chained["session"] = getattr(reduce, name)(
            tveg, chained["session"], source, deadline, **kw)
        chained["oracle"] = getattr(reduce_oracle, name)(
            tveg, chained["oracle"], source, deadline, **kw)
        assert _hex(chained["session"]) == _hex(chained["oracle"]), name


def _verdicts(tveg, source, deadline, eps, targets):
    """The production checker's and the reference checker's verdicts."""
    def verdict(sched):
        kw = dict(eps=eps, targets=targets)
        got = check_feasibility(tveg, sched, source, deadline, **kw).feasible
        ref = reduce_oracle.check_feasibility(tveg, sched, source, deadline,
                                              **kw).feasible
        assert got == ref
        return got
    return verdict


def _edited(session, k, cost):
    rows = list(session.rows)
    rows[k] = None if cost is None else rows[k].with_cost(cost)
    return Schedule(s for s in rows if s is not None)


def _edit_costs(tveg, s, kind):
    """Raise or lower targets for row ``s``: its DCS levels above or below
    its cost, and one off-grid cost."""
    dcs = discrete_cost_set(tveg, s.relay, s.time)
    if kind == "raise":
        return [c for c in dcs.costs if c > s.cost] + [2.0 * s.cost]
    return [c for c in dcs.costs if c < s.cost] + [0.5 * s.cost]


@given(
    reduce_cases(),
    st.lists(st.tuples(st.sampled_from(("delete", "raise", "lower")),
                       st.integers(0, 2**16), st.integers(0, 2**16)),
             max_size=12),
)
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_session_verdicts_match_checker(case, edits):
    """Random delete / raise / lower sequences, feasibility-breaking ones
    included: after every edit the session's verdict equals
    ``check_feasibility(...).feasible``, and an accepted edit leaves the
    session on exactly the edited schedule."""
    tveg, sched, source, deadline, eps, targets = case
    verdict = _verdicts(tveg, source, deadline, eps, targets)
    session = ReduceSession(tveg, sched, source, deadline, eps, targets)
    assert session.feasible == verdict(sched)
    if not session.feasible:
        return
    for kind, a, b in edits:
        live = session.live()
        if not live:
            break
        k = live[a % len(live)]
        cost = None
        if kind != "delete":
            costs = _edit_costs(tveg, session.rows[k], kind)
            cost = costs[b % len(costs)]
        trial = _edited(session, k, cost)
        expected = verdict(trial)
        assert session.apply(k, cost) == expected
        if expected:
            assert session.schedule() == trial


def _assert_every_edit(tveg, sched, source, deadline, eps=None, targets=None):
    """Every single-row deletion and every DCS move of ``sched`` gets the
    checker's verdict from a session; returns the verdicts."""
    verdict = _verdicts(tveg, source, deadline, eps, targets)
    session = ReduceSession(tveg, sched, source, deadline, eps, targets)
    assert session.feasible
    seen = []
    for k in session.live():
        s = session.rows[k]
        dcs = discrete_cost_set(tveg, s.relay, s.time)
        for cost in [None] + [c for c in dcs.costs if c != s.cost]:
            expected = verdict(_edited(session, k, cost))
            state = session.save()
            assert session.apply(k, cost) == expected, (k, cost)
            session.restore(state)
            seen.append(expected)
    return seen


class TestReduceSession:
    def test_same_instant_chain(self, det_static):
        # 3→0→1→2 all fire at t=20, in a second and third fixpoint round;
        # each row is needed, and a duplicate of 0's row is not
        w = _w
        chain = [
            Transmission(3, 20.0, w(det_static, 3, 0, 20.0)),
            Transmission(0, 20.0, w(det_static, 0, 1, 20.0)),
            Transmission(1, 20.0, w(det_static, 1, 2, 20.0)),
        ]
        assert not any(_assert_every_edit(det_static, Schedule(chain), 3,
                                          100.0))
        doubled = Schedule(chain + [chain[1]])
        assert any(_assert_every_edit(det_static, doubled, 3, 100.0))
        assert remove_redundant(det_static, doubled, 3, 100.0) == Schedule(chain)

    def test_group_emptied_by_deletion(self, det_static, feasible_with_waste):
        # a redundant row alone at t=20 between the two needed ones, and
        # the redundant one alone at t=62
        extra = Transmission(0, 20.0, _w(det_static, 0, 1, 20.0))
        sched = feasible_with_waste.append(extra)
        verdict = _verdicts(det_static, 0, 100.0, None, None)
        session = ReduceSession(det_static, sched, 0, 100.0)
        assert [s.time for s in session.rows] == [15.0, 20.0, 25.0, 62.0]
        assert session.apply(1) and session.apply(3)
        assert session.schedule() == Schedule(sched[k] for k in (0, 2))
        for k in session.live():
            s = session.rows[k]
            for cost in [None] + _edit_costs(det_static, s, "raise") \
                    + _edit_costs(det_static, s, "lower"):
                expected = verdict(_edited(session, k, cost))
                state = session.save()
                assert session.apply(k, cost) == expected
                session.restore(state)

    def test_eps_between_one_factor_and_two(self, det_fading):
        # at ε = 1e-3 a 0.4·w0 row leaves 0.0248 (0→1) or 0.0067 (0→3):
        # nodes 1 and 3 are informed only by the second row at t=16
        w = _w
        sched = Schedule([
            Transmission(0, 15.0, 0.4 * w(det_fading, 0, 1, 15.0)),
            Transmission(0, 16.0, 0.4 * w(det_fading, 0, 1, 16.0)),
            Transmission(0, 17.0, 0.4 * w(det_fading, 0, 3, 17.0)),
            Transmission(1, 25.0, 0.4 * w(det_fading, 1, 2, 25.0)),
        ])
        verdicts = _assert_every_edit(det_fading, sched, 0, 100.0, eps=1e-3,
                                      targets=(1, 3))
        assert not all(verdicts) and any(verdicts)
        session = ReduceSession(det_fading, sched, 0, 100.0, eps=1e-3,
                                targets=(1, 3))
        assert not session.apply(0) and not session.apply(1)
        assert session.apply(3) and session.apply(2)
        assert session.live() == [0, 1]

    def test_crossing_after_deadline_minus_tau(self):
        # t + τ rounds down to T while t > T − τ: a row at t passes the
        # latency bound (iii), but a node it first informs fails (ii)
        trace = ContactTrace([Contact(0.0, 10.0, 0, 1)], nodes=(0, 1),
                             horizon=10.0)
        tveg = tveg_from_trace(trace, "static", tau=1.0, seed=1)
        late = 0.5000000000000001
        assert late + 1.0 <= 1.5 and not late <= 1.5 - 1.0
        sched = Schedule([Transmission(0, 0.2, tveg.min_cost(0, 1, 0.2)),
                          Transmission(0, late, tveg.min_cost(0, 1, late))])
        assert _assert_every_edit(tveg, sched, 0, 1.5)[:1] == [False]
        assert remove_redundant(tveg, sched, 0, 1.5) == Schedule(sched[:1])

    def test_counters(self, det_static, feasible_with_waste):
        obs.enable()
        try:
            remove_redundant(det_static, feasible_with_waste, 0, 100.0)
            counters = obs.snapshot().counters
        finally:
            obs.disable()
        assert counters["reduce.candidates"] == 3
        assert counters["reduce.groups_replayed"] >= 3
        assert "feasibility.checks" not in counters
