"""Monte-Carlo simulator: determinism, causality, statistical agreement."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.algorithms import make_scheduler
from repro.errors import InfeasibleError, ReproError
from repro.schedule import Schedule, Transmission, uninformed_probability
from repro.sim import (
    SimulationSummary,
    delivery_ratio,
    run_trials,
    schedule_normalized_energy,
    simulate_schedule,
)
from repro.traces import uniform_trace
from repro.tveg import tveg_from_trace

from . import sim_oracle


def _w(tveg, u, v, t):
    return tveg.min_cost(u, v, t)


def full_static_schedule(tveg):
    return Schedule(
        [
            Transmission(0, 15.0, max(_w(tveg, 0, 1, 15.0), _w(tveg, 0, 3, 15.0))),
            Transmission(1, 25.0, _w(tveg, 1, 2, 25.0)),
        ]
    )


class TestStaticExecution:
    def test_deterministic_delivery(self, det_static):
        out = simulate_schedule(det_static, full_static_schedule(det_static), 0, seed=0)
        assert out.received == frozenset({0, 1, 2, 3})
        assert out.delivery_ratio(4) == 1.0

    def test_energy_counts_fired_only(self, det_static):
        # relay 1 never informed (first transmission omitted) → silent
        sched = Schedule([Transmission(1, 25.0, 5.0)])
        out = simulate_schedule(det_static, sched, 0, seed=0)
        assert out.energy == 0.0
        assert out.transmissions == 0

    def test_scheduled_energy_option(self, det_static):
        sched = Schedule([Transmission(1, 25.0, 5.0)])
        out = simulate_schedule(
            det_static, sched, 0, seed=0, count_scheduled_energy=True
        )
        assert out.energy == 5.0

    def test_causality(self, det_static):
        # reception times must be ≥ the informing transmission's time
        out = simulate_schedule(det_static, full_static_schedule(det_static), 0, seed=0)
        times = dict(out.reception_times)
        assert times[1] == 15.0 and times[2] == 25.0

    def test_insufficient_power_never_delivers(self, det_static):
        sched = Schedule([Transmission(0, 15.0, 0.5 * _w(det_static, 0, 1, 15.0))])
        out = simulate_schedule(det_static, sched, 0, seed=0)
        assert 1 not in out.received


class TestFadingExecution:
    def test_seeded_reproducibility(self, det_fading):
        sched = full_static_schedule(det_fading)
        a = simulate_schedule(det_fading, sched, 0, seed=7)
        b = simulate_schedule(det_fading, sched, 0, seed=7)
        assert a.received == b.received and a.energy == b.energy

    def test_delivery_matches_analytic_probability(self, det_fading):
        # single-hop: MC delivery of node 1 must converge to 1 − φ(w)
        w = 0.3 * _w(det_fading, 0, 1, 15.0)
        sched = Schedule([Transmission(0, 15.0, w)])
        p_fail = det_fading.failure(0, 1, 15.0, w)
        n, hits = 4000, 0
        rng = np.random.default_rng(123)
        for _ in range(n):
            out = simulate_schedule(det_fading, sched, 0, seed=rng)
            if 1 in out.received:
                hits += 1
        estimate = hits / n
        sigma = math.sqrt(p_fail * (1 - p_fail) / n)
        assert abs(estimate - (1.0 - p_fail)) < 5 * sigma

    def test_static_schedule_loses_packets_under_fading(self, paired_tvegs):
        static, fading = paired_tvegs
        sched = full_static_schedule(static)
        summary = run_trials(fading, sched, 0, num_trials=300, seed=5)
        # static min-cost gives per-hop failure 1−e^{−1} ≈ 0.63 under fading
        assert summary.mean_delivery < 0.95

    def test_w0_schedule_delivers_under_fading(self, det_fading):
        w01 = _w(det_fading, 0, 1, 15.0)
        w03 = _w(det_fading, 0, 3, 15.0)
        w12 = _w(det_fading, 1, 2, 25.0)
        sched = Schedule(
            [Transmission(0, 15.0, max(w01, w03)), Transmission(1, 25.0, w12)]
        )
        summary = run_trials(det_fading, sched, 0, num_trials=300, seed=5)
        assert summary.mean_delivery > 0.95


class TestRunner:
    def test_summary_fields(self, det_static):
        s = run_trials(det_static, full_static_schedule(det_static), 0, 10, seed=0)
        assert isinstance(s, SimulationSummary)
        assert s.num_trials == 10 and s.num_nodes == 4
        assert s.mean_delivery == 1.0
        assert s.std_delivery == 0.0
        lo, hi = s.delivery_ci95()
        assert lo <= s.mean_delivery <= hi

    def test_order_independent_trials(self, det_fading):
        sched = full_static_schedule(det_fading)
        a = run_trials(det_fading, sched, 0, 50, seed=9)
        b = run_trials(det_fading, sched, 0, 50, seed=9)
        assert a.mean_delivery == b.mean_delivery
        assert a.mean_energy == b.mean_energy


    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, det_static, trials):
        sched = full_static_schedule(det_static)
        for workers in (1, 2):
            with pytest.raises(ReproError, match="num_trials must be at least 1"):
                run_trials(det_static, sched, 0, trials, seed=0, workers=workers)

    def test_fanout_counter(self, det_static):
        # Relay 2 is never informed at t=10, so its row never fires and
        # gets no fan-out; the other two rows get one per call (serial)
        # or one per worker chunk.
        sched = Schedule(
            list(full_static_schedule(det_static))
            + [Transmission(2, 10.0, 1.0)]
        )
        obs.enable()
        try:
            counts = []
            for workers in (1, 2):
                obs.reset()
                run_trials(det_static, sched, 0, 6, seed=0, workers=workers)
                counts.append(obs.snapshot().counters)
        finally:
            obs.disable()
        assert [c["sim.fanouts"] for c in counts] == [2, 4]
        assert [c["sim.trials"] for c in counts] == [6, 6]


class TestMetrics:
    def test_normalized_energy(self, det_static):
        sched = full_static_schedule(det_static)
        n = schedule_normalized_energy(sched, det_static.params)
        assert n == pytest.approx(sched.total_cost / det_static.params.decode_energy)

    def test_delivery_ratio_aggregate(self, det_static):
        outs = [
            simulate_schedule(det_static, full_static_schedule(det_static), 0, seed=s)
            for s in range(3)
        ]
        assert delivery_ratio(outs, 4) == 1.0
        assert delivery_ratio([], 4) == 0.0


# ----------------------------------------------------------------------
# The production simulator against the per-trial reference simulator
# (``tests/sim_oracle.py``), output for output.

HORIZON = 300.0
FR_ALGOS = ("fr-eedcb", "fr-greed", "fr-rand")

sim_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def sim_cases(draw):
    """A random static or Rayleigh instance (N ≤ 8, τ ∈ {0, 1.5}), one
    scheduler's schedule on it (EEDCB/GREED/RAND, and the FR-* trio on
    Rayleigh), and up to four injected rows: exact duplicates, rows of an
    arbitrary relay at an existing time (often never informed) and
    zero-cost rows, whose receivers all have failure factor 1.0."""
    n = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 2**16))
    channel = draw(st.sampled_from(("static", "rayleigh")))
    trace = uniform_trace(num_nodes=n, horizon=HORIZON, mean_gap=80.0,
                          mean_duration=40.0, seed=seed)
    tveg = tveg_from_trace(trace, channel, seed=seed,
                           tau=draw(st.sampled_from((0.0, 1.5))))
    source = draw(st.integers(0, n - 1))
    algo = draw(st.sampled_from(
        ("eedcb", "greed", "rand") + (FR_ALGOS if channel == "rayleigh" else ())
    ))
    kwargs = {"seed": seed} if "rand" in algo else {}
    try:
        rows = list(make_scheduler(algo, **kwargs).schedule(tveg, source,
                                                            HORIZON))
    except InfeasibleError:
        rows = []
    times = sorted({0.0} | {s.time for s in rows})
    costs = [s.cost for s in rows] or [1.0]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("duplicate", "stray", "zero")))
        if kind == "duplicate" and rows:
            rows.append(draw(st.sampled_from(rows)))
            continue
        cost = 0.0 if kind == "zero" else draw(st.sampled_from(costs))
        rows.append(Transmission(draw(st.integers(0, n - 1)),
                                 draw(st.sampled_from(times)), cost))
    return tveg, Schedule(rows), source


interference_models = st.sampled_from(("none", "collision"))


def _trial(out):
    return (
        out.received,
        [(v, t.hex()) for v, t in out.reception_times],
        out.energy.hex(),
        out.transmissions,
    )


def _summary(s):
    return (s.num_trials, s.num_nodes) + tuple(
        float(x).hex() for x in (s.mean_delivery, s.std_delivery,
                                 s.mean_energy, s.std_energy,
                                 s.mean_transmissions)
    )


def _events():
    return [(e.type, e.t, e.fields) for e in obs.ledger_events()]


@sim_settings
@given(sim_cases(), interference_models, st.booleans(),
       st.integers(0, 2**32 - 1))
def test_trial_matches_reference(case, interference, scheduled, seed):
    """One trial: same received set, reception times, energy
    (``float.hex``), transmissions and ledger events as the reference."""
    tveg, sched, source = case
    kw = dict(seed=seed, count_scheduled_energy=scheduled,
              interference=interference, trial_id=3)
    got = simulate_schedule(tveg, sched, source, **kw)
    want = sim_oracle.simulate_schedule(tveg, sched, source, **kw)
    assert _trial(got) == _trial(want)
    try:
        obs.enable_ledger()
        simulate_schedule(tveg, sched, source, **kw)
        got_events = _events()
        obs.disable_ledger()
        obs.enable_ledger()
        sim_oracle.simulate_schedule(tveg, sched, source, **kw)
        assert got_events == _events()
    finally:
        obs.disable_ledger()


@settings(sim_settings, max_examples=25)
@given(sim_cases(), interference_models, st.booleans(), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
def test_run_trials_matches_reference(case, interference, scheduled,
                                      trials, seed):
    """The summary, serial and on two workers, is the reference's serial
    summary float for float."""
    tveg, sched, source = case
    want = sim_oracle.run_trials(tveg, sched, source, trials, seed,
                                 scheduled, interference)
    for workers in (1, 2):
        got = run_trials(tveg, sched, source, trials, seed, scheduled,
                         interference, workers=workers)
        assert _summary(got) == _summary(want), workers
