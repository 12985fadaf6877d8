"""Protocol-level simulator: determinism, analytic parity, protocol knobs."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from .conftest import make_random_instance
from repro import obs
from repro.algorithms import make_scheduler
from repro.channels import RayleighChannel, StaticChannel
from repro.errors import GraphModelError, ReproError, ScheduleError
from repro.params import PAPER_PARAMS
from repro.protosim import (
    MessageCounts,
    ProtocolConfig,
    check_analytic_parity,
    execute_plan,
    execute_schedule,
    run_protocol_trials,
)
from repro.schedule.schedule import Schedule, Transmission
from repro.sim import simulate_schedule
from repro.traces import DistanceModel, uniform_trace
from repro.tveg import TVEG

ALL_SCHEDULERS = (
    "eedcb", "greed", "rand", "oracle", "fr-eedcb", "fr-greed", "fr-rand"
)


def paired_instance(seed=2, num_nodes=8, horizon=400.0):
    """Static + Rayleigh TVEGs sharing one distance provider.

    The fr-* schedulers refuse static channels, so the parity sweep plans
    them on the Rayleigh twin and then *executes* the resulting schedule
    on the static twin — the same geometry, so the schedule is physically
    meaningful, and the lossless channel makes both engines deterministic.
    """
    trace = uniform_trace(
        num_nodes=num_nodes, horizon=horizon, mean_gap=80.0,
        mean_duration=40.0, seed=seed,
    )
    tvg = trace.to_tvg()
    provider = DistanceModel().attach(trace, seed=1)
    return (
        TVEG(tvg, StaticChannel(PAPER_PARAMS), provider),
        TVEG(tvg, RayleighChannel(PAPER_PARAMS), provider),
    )


@pytest.fixture(autouse=True)
def _clean_global_ledger():
    obs.disable_ledger()
    yield
    obs.disable_ledger()


class TestAnalyticParity:
    """The issue's acceptance criterion: lossless runs match `repro.sim`."""

    @pytest.mark.parametrize("algorithm", ALL_SCHEDULERS)
    def test_parity_across_all_schedulers(self, algorithm):
        static, fading = paired_instance(seed=2)
        kwargs = {"seed": 1} if "rand" in algorithm else {}
        planning = fading if algorithm.startswith("fr-") else static
        schedule = make_scheduler(algorithm, **kwargs).schedule(
            planning, 0, 250.0
        )
        report = check_analytic_parity(static, schedule, 0, 250.0)
        assert report.ok, report.mismatches
        assert report.informed_match
        assert report.energy_match
        assert report.reception_match

    @pytest.mark.parametrize("seed", range(5))
    def test_parity_across_random_instances(self, seed):
        _, tveg = make_random_instance(num_nodes=6, seed=seed)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 200.0)
        report = check_analytic_parity(tveg, schedule, 0, 200.0)
        assert report.ok, report.mismatches

    def test_parity_energy_is_bit_identical(self):
        _, tveg = make_random_instance(num_nodes=6, seed=3)
        schedule = make_scheduler("greed").schedule(tveg, 0, 200.0)
        res = execute_schedule(
            tveg, schedule, 0, 200.0, seed=0, config=ProtocolConfig.parity()
        )
        analytic = simulate_schedule(tveg, schedule, 0, seed=0)
        # Totals agree exactly, not merely within tolerance.
        assert res.energy == analytic.energy
        assert res.informed == analytic.received
        assert dict(res.reception_times) == dict(analytic.reception_times)

    def test_abandoned_rows_stay_silent_in_both_engines(self):
        _, tveg = make_random_instance(num_nodes=6, seed=0)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 200.0)
        # A relay that is never informed by its fire instant must stay
        # silent forever in both engines (no energy, no receptions).
        uninformed = next(
            n for n in tveg.nodes
            if n != 0 and all(r.relay != n for r in schedule)
        )
        stale = schedule.extend([Transmission(uninformed, 0.0, 1e-9)])
        report = check_analytic_parity(tveg, stale, 0, 200.0)
        assert report.ok, report.mismatches
        assert report.protocol.silent_rows >= 1

    def test_parity_refuses_fading_channels(self):
        _, fading = paired_instance(seed=2)
        schedule = make_scheduler("fr-eedcb").schedule(fading, 0, 250.0)
        with pytest.raises(GraphModelError):
            check_analytic_parity(fading, schedule, 0, 250.0)
        report = check_analytic_parity(
            fading, schedule, 0, 250.0, allow_fading=True
        )
        assert report.protocol.num_nodes == fading.num_nodes


class TestDeterminism:
    """Fixed seed → byte-identical results, for any worker count."""

    @settings(
        max_examples=5, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_workers_byte_identical(self, seed):
        static, fading = paired_instance(seed=2)
        schedule = make_scheduler("fr-eedcb").schedule(fading, 0, 250.0)
        serial = run_protocol_trials(
            fading, schedule, 0, 250.0, num_trials=6, seed=seed,
            workers=1, keep_outcomes=True,
        )
        parallel = run_protocol_trials(
            fading, schedule, 0, 250.0, num_trials=6, seed=seed,
            workers=3, keep_outcomes=True,
        )
        assert serial == parallel
        assert serial.outcomes == parallel.outcomes

    def test_same_seed_same_result(self):
        _, fading = paired_instance(seed=2)
        schedule = make_scheduler("fr-eedcb").schedule(fading, 0, 250.0)
        a = execute_schedule(fading, schedule, 0, 250.0, seed=11)
        b = execute_schedule(fading, schedule, 0, 250.0, seed=11)
        assert a == b

    def test_lossless_outcome_is_seed_independent(self):
        _, tveg = make_random_instance(num_nodes=6, seed=1)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 200.0)
        cfg = ProtocolConfig.parity()
        runs = [
            execute_schedule(tveg, schedule, 0, 200.0, seed=s, config=cfg)
            for s in (0, 7, 12345)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_ledger_recording_does_not_change_results(self):
        _, fading = paired_instance(seed=2)
        schedule = make_scheduler("fr-eedcb").schedule(fading, 0, 250.0)
        bare = execute_schedule(fading, schedule, 0, 250.0, seed=4)
        obs.enable_ledger()
        recorded = execute_schedule(fading, schedule, 0, 250.0, seed=4)
        obs.disable_ledger()
        assert bare == recorded


class TestProtocolBehavior:
    def test_retransmissions_recover_losses(self):
        _, fading = paired_instance(seed=2)
        schedule = make_scheduler("fr-eedcb").schedule(fading, 0, 250.0)
        single = run_protocol_trials(
            fading, schedule, 0, 250.0, num_trials=40, seed=9,
            config=ProtocolConfig(max_retries=0, ack=False),
        )
        retried = run_protocol_trials(
            fading, schedule, 0, 250.0, num_trials=40, seed=9,
            config=ProtocolConfig(max_retries=3, backoff=1.0),
        )
        assert retried.mean_retransmits > 0
        assert retried.mean_delivery >= single.mean_delivery

    def test_ack_overhead_is_counted(self):
        _, tveg = make_random_instance(num_nodes=6, seed=1)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 200.0)
        no_ack = execute_schedule(
            tveg, schedule, 0, 200.0, seed=0,
            config=ProtocolConfig(max_retries=0, ack=False),
        )
        with_ack = execute_schedule(
            tveg, schedule, 0, 200.0, seed=0,
            config=ProtocolConfig(max_retries=0, ack=True),
        )
        assert with_ack.counts.ack_sent == len(with_ack.informed) - 1
        assert with_ack.energy > no_ack.energy
        assert no_ack.counts.ack_sent == 0

    def test_bounded_queue_drops_bursts(self):
        _, tveg = make_random_instance(num_nodes=6, seed=1)
        base = make_scheduler("eedcb").schedule(tveg, 0, 200.0)
        first = base[0]
        # A burst of frames from one relay at one instant: with a long
        # service time and a one-slot queue, most of the burst must be
        # shed as queue_full drops.
        burst = Schedule(
            [first] + [
                Transmission(first.relay, first.time, first.cost)
                for _ in range(5)
            ]
        )
        res = execute_schedule(
            tveg, burst, first.relay, 200.0, seed=0,
            config=ProtocolConfig(
                max_retries=0, ack=False, service_time=1000.0,
                queue_capacity=1,
            ),
        )
        assert res.counts.queue_dropped == 4  # 1 on air + 1 queued + 4 shed
        res_roomy = execute_schedule(
            tveg, burst, first.relay, 200.0, seed=0,
            config=ProtocolConfig(
                max_retries=0, ack=False, service_time=0.0,
                queue_capacity=1,
            ),
        )
        assert res_roomy.counts.queue_dropped == 0

    def test_clock_offsets_shift_fire_instants(self):
        _, tveg = make_random_instance(num_nodes=6, seed=1)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 200.0)
        synced = execute_schedule(
            tveg, schedule, 0, 200.0, seed=0,
            config=ProtocolConfig.parity(),
        )
        # Explicit zero offsets are exactly the synchronized run.
        zeros = ProtocolConfig(
            max_retries=0, ack=False,
            clock_offsets={n: 0.0 for n in tveg.nodes},
        )
        assert execute_schedule(
            tveg, schedule, 0, 200.0, seed=0, config=zeros
        ) == synced
        # Jittered clocks change fire instants deterministically per seed.
        jittered_cfg = ProtocolConfig(
            max_retries=0, ack=False, clock_jitter=3.0
        )
        j1 = execute_schedule(
            tveg, schedule, 0, 200.0, seed=5, config=jittered_cfg
        )
        j2 = execute_schedule(
            tveg, schedule, 0, 200.0, seed=5, config=jittered_cfg
        )
        assert j1 == j2

    def test_hello_cost_charged_per_contact_endpoint(self):
        _, tveg = make_random_instance(num_nodes=6, seed=1)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 200.0)
        free = execute_schedule(
            tveg, schedule, 0, 200.0, seed=0, config=ProtocolConfig.parity()
        )
        priced = execute_schedule(
            tveg, schedule, 0, 200.0, seed=0,
            config=ProtocolConfig(max_retries=0, ack=False, hello_cost=1.0),
        )
        assert priced.counts.hello_sent == free.counts.hello_sent > 0
        assert priced.energy == pytest.approx(
            free.energy + priced.counts.hello_sent
        )

    def test_execute_plan_accepts_broadcast_plan(self):
        from repro import plan_broadcast

        trace, _ = make_random_instance(num_nodes=6, seed=1)
        plan = plan_broadcast(
            trace, 0, 200.0, algorithm="eedcb", window=(0.0, 300.0), seed=1
        )
        res = execute_plan(plan, seed=0, config=ProtocolConfig.parity())
        assert res.informed >= {0}
        assert res.num_nodes == plan.tveg.num_nodes
        # An explicit TVEG override executes the same schedule elsewhere.
        override = execute_plan(
            plan, tveg=plan.tveg, seed=0, config=ProtocolConfig.parity()
        )
        assert override == res

    def test_invalid_config_rejected(self):
        with pytest.raises(ScheduleError):
            ProtocolConfig(max_retries=-1)
        with pytest.raises(ScheduleError):
            ProtocolConfig(backoff=0.0)
        with pytest.raises(ScheduleError):
            ProtocolConfig(service_time=-1.0)

    def test_unknown_source_rejected(self):
        _, tveg = make_random_instance(num_nodes=6, seed=1)
        with pytest.raises(ScheduleError):
            execute_schedule(tveg, Schedule.empty(), "nope", 100.0)


class TestLedgerEvents:
    def test_msg_events_match_counts(self):
        _, fading = paired_instance(seed=2)
        schedule = make_scheduler("fr-eedcb").schedule(fading, 0, 250.0)
        obs.enable_ledger()
        res = execute_schedule(fading, schedule, 0, 250.0, seed=3, trial_id=7)
        evs = obs.ledger_events()
        obs.disable_ledger()
        by_type = {}
        for e in evs:
            by_type.setdefault(e.type, []).append(e)
        sent = by_type.get(obs.EV_MSG_SENT, [])
        received = by_type.get(obs.EV_MSG_RECEIVED, [])
        dropped = by_type.get(obs.EV_MSG_DROPPED, [])
        retx = by_type.get(obs.EV_MSG_RETRANSMIT, [])
        c = res.counts
        assert len(sent) == c.total_sent
        assert len(received) == c.data_received + c.ack_received
        assert len(dropped) == c.data_dropped + c.ack_dropped
        assert len(retx) == c.retransmits
        assert all(e.fields["trial"] == 7 for e in sent)
        kinds = {e.fields["msg"] for e in sent}
        assert kinds >= {"hello", "data"}

    def test_message_rows_reads_both_engines(self):
        from repro.obs.report import message_rows
        from repro.online import Epidemic, run_online

        _, fading = make_random_instance(seed=2, channel="rayleigh")
        schedule_tveg, _ = paired_instance(seed=2)
        obs.enable_ledger()
        out = run_online(fading, Epidemic(), 0, 300.0, seed=3)
        schedule = make_scheduler("eedcb").schedule(schedule_tveg, 0, 250.0)
        execute_schedule(schedule_tveg, schedule, 0, 250.0, seed=3)
        rows = message_rows(obs.ledger_events())
        obs.disable_ledger()
        assert out.attempts > 0
        online_rows = [r for r in rows if r["msg"] == "data" and
                       r["outcome"] in ("received", "dropped")]
        assert len(online_rows) >= out.attempts
        assert all(r["src"] is not None for r in rows)
        assert {r["outcome"] for r in rows} >= {"sent"}

    def test_report_renders_message_timeline(self, tmp_path):
        from repro.obs.report import render_html

        _, fading = paired_instance(seed=2)
        schedule = make_scheduler("fr-eedcb").schedule(fading, 0, 250.0)
        obs.enable_ledger()
        execute_schedule(fading, schedule, 0, 250.0, seed=3)
        html = render_html(obs.ledger_events())
        obs.disable_ledger()
        assert "Message timeline" in html
        assert "first DATA reception" in html

    def test_report_omits_timeline_without_msg_events(self):
        from repro.obs.report import render_html

        assert "Message timeline" not in render_html([])


class TestSummary:
    def test_summary_aggregates(self):
        _, tveg = make_random_instance(num_nodes=6, seed=1)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 200.0)
        s = run_protocol_trials(
            tveg, schedule, 0, 200.0, num_trials=5, seed=1,
            config=ProtocolConfig.parity(), keep_outcomes=True,
        )
        assert s.num_trials == 5
        assert len(s.outcomes) == 5
        assert s.std_delivery == 0.0  # lossless: every trial identical
        assert s.mean_energy == s.outcomes[0].energy
        lo, hi = s.delivery_ci95()
        assert lo <= s.mean_delivery <= hi

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, trials):
        # no trial, no estimate: not a delivery of 0.000
        _, tveg = make_random_instance(num_nodes=6, seed=1)
        schedule = make_scheduler("eedcb").schedule(tveg, 0, 200.0)
        with pytest.raises(ReproError, match="num_trials must be at least 1"):
            run_protocol_trials(tveg, schedule, 0, 200.0, num_trials=trials,
                                seed=1)

    def test_counts_value_object(self):
        c = MessageCounts(hello_sent=2, data_sent=3, ack_sent=1)
        assert c.total_sent == 6
        assert c == MessageCounts(hello_sent=2, data_sent=3, ack_sent=1)
