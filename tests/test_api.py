"""High-level API: plan_broadcast facade and scheduler alias resolution."""

from __future__ import annotations

import math

import pytest

from repro import (
    BroadcastPlan,
    canonical_scheduler_name,
    check_feasibility,
    make_scheduler,
    obs,
    plan_broadcast,
    plan_broadcast_many,
    tveg_from_trace,
)
from repro.api import plan_cache_key
from repro.errors import GraphModelError, InfeasibleError, SolverError
from repro.traces import (
    Contact,
    ContactStore,
    ContactTrace,
    HaggleLikeConfig,
    haggle_like_trace,
)

from .conftest import make_random_instance


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    obs.disable()
    yield
    obs.disable()


class TestAliasResolution:
    @pytest.mark.parametrize(
        "alias",
        ["fr-eedcb", "FR-EEDCB", "fr_eedcb", "FR_EEDCB", "freedcb",
         "FREEDCB", " fr eedcb "],
    )
    def test_aliases_resolve_to_canonical(self, alias):
        assert canonical_scheduler_name(alias) == "fr-eedcb"

    def test_canonical_names_resolve_to_themselves(self):
        for name in ("eedcb", "fr-eedcb", "greed", "fr-greed", "rand",
                     "fr-rand", "oracle"):
            assert canonical_scheduler_name(name) == name

    def test_unknown_name_lists_canonical_names(self):
        with pytest.raises(SolverError, match="canonical names:.*eedcb"):
            canonical_scheduler_name("dijkstra")

    def test_make_scheduler_accepts_aliases(self, det_static):
        a = make_scheduler("EEDCB").run(det_static, 0, 100.0)
        b = make_scheduler("eedcb").run(det_static, 0, 100.0)
        assert a.schedule == b.schedule


class TestPlanBroadcast:
    def test_matches_manual_pipeline(self):
        trace, _ = make_random_instance(seed=2)
        plan = plan_broadcast(trace, 0, 300.0, algorithm="eedcb", seed=2)
        tveg = tveg_from_trace(trace, "static", seed=2)
        manual = make_scheduler("eedcb").run(tveg, 0, 300.0)
        assert isinstance(plan, BroadcastPlan)
        assert plan.schedule == manual.schedule
        assert plan.total_cost == manual.schedule.total_cost
        assert plan.info["aux_nodes"] == manual.info["aux_nodes"]
        report = check_feasibility(tveg, manual.schedule, 0, 300.0)
        assert plan.feasible == report.feasible
        assert plan.feasibility.feasible == report.feasible

    def test_window_restricts_and_shifts(self, det_trace):
        # planning on [0, 100] of the deterministic trace explicitly ...
        plan = plan_broadcast(det_trace, 0, 100.0, window=(0.0, 100.0), seed=1)
        # ... must equal planning with no window (trace already starts at 0)
        direct = plan_broadcast(det_trace, 0, 100.0, seed=1)
        assert plan.schedule == direct.schedule
        # scalar window start means (start, start + deadline)
        scalar = plan_broadcast(det_trace, 0, 100.0, window=0.0, seed=1)
        assert scalar.schedule == plan.schedule

    def test_auto_source_picks_smallest_feasible(self, det_trace):
        plan = plan_broadcast(det_trace, None, 100.0, seed=1)
        assert plan.source == 0
        assert plan.feasible

    def test_auto_source_infeasible_window_raises(self, det_trace):
        with pytest.raises(InfeasibleError):
            # nobody can reach everyone by t=5
            plan_broadcast(det_trace, None, 5.0, seed=1)

    def test_accepts_prebuilt_tveg(self, det_static):
        plan = plan_broadcast(det_static, 0, 100.0)
        manual = make_scheduler("eedcb").run(det_static, 0, 100.0)
        assert plan.schedule == manual.schedule
        assert plan.channel == "StaticChannel"
        assert plan.tveg is det_static

    def test_tveg_with_window_rejected(self, det_static):
        with pytest.raises(GraphModelError, match="window"):
            plan_broadcast(det_static, 0, 100.0, window=(0.0, 50.0))

    def test_bad_input_type_rejected(self):
        with pytest.raises(TypeError, match="ContactTrace or TVEG"):
            plan_broadcast([("not", "a", "trace")], 0, 100.0)

    @pytest.mark.parametrize("deadline", [math.inf, -math.inf, math.nan])
    def test_non_finite_deadline_rejected(self, deadline):
        # T = inf used to return an empty schedule marked feasible
        trace, _ = make_random_instance(seed=1)
        with pytest.raises(ValueError, match="deadline must be finite"):
            plan_broadcast(trace, 0, deadline)
        with pytest.raises(ValueError, match="deadline must be finite"):
            plan_broadcast_many(trace, [0], deadline)
        with pytest.raises(ValueError, match="deadline must be finite"):
            plan_cache_key(trace, 0, deadline)

    @pytest.mark.parametrize("deadline", [-5.0, -1e-9])
    def test_negative_deadline_rejected(self, deadline):
        # T = -5 used to end in "InfeasibleError: no journey reaches
        # [0, 1, ..., 7] from 0 by -5", which named the source itself
        trace = haggle_like_trace(HaggleLikeConfig(num_nodes=8), seed=0)
        window = (9000.0, 11000.0)
        with pytest.raises(ValueError, match="deadline must be non-negative"):
            plan_broadcast(trace, 0, deadline, window=window, seed=5)
        with pytest.raises(ValueError, match="deadline must be non-negative"):
            plan_broadcast_many(trace, [0, 0], [2000.0, deadline],
                                window=window, seed=5)
        with pytest.raises(ValueError, match="deadline must be non-negative"):
            plan_cache_key(trace, 0, deadline, window=window)

    @pytest.mark.parametrize(
        "window",
        [(9000.0, math.nan), (math.nan, math.nan), (-math.inf, 2000.0),
         (0.0, math.inf), math.nan, -math.inf],
    )
    def test_non_finite_window_rejected(self, window):
        # (9000, nan) used to plan over [9000, horizon); (nan, nan) kept
        # every contact and ended in InfeasibleError
        trace, _ = make_random_instance(seed=1)
        for inp in (trace, ContactStore.from_trace(trace)):
            with pytest.raises(ValueError, match="window must be finite"):
                plan_broadcast(inp, 0, 100.0, window=window)
            with pytest.raises(ValueError, match="window must be finite"):
                plan_broadcast_many(inp, [0], 100.0, window=window)
            with pytest.raises(ValueError, match="window must be finite"):
                plan_cache_key(inp, 0, 100.0, window=window)

    @pytest.mark.parametrize(
        "algorithm", ["eedcb", "fr-eedcb", "oracle", "greed", "rand"]
    )
    def test_zero_deadline_plans_like_a_tiny_one(self, algorithm):
        # T = 0 is a one-point span: every node's DTS is {0}.  EEDCB,
        # FR-EEDCB and the oracle used to raise PartitionError there.
        trace = ContactTrace([Contact(0.0, 100.0, 0, 1),
                              Contact(0.0, 100.0, 1, 2)], horizon=200.0)
        channel = "rayleigh" if algorithm.startswith("fr-") else "static"

        def rows(deadline):
            plan = plan_broadcast(trace, 0, deadline, algorithm=algorithm,
                                  channel=channel, seed=5)
            assert plan.feasible
            return [(s.relay, s.time) for s in plan.schedule]

        assert rows(0.0) == rows(1e-300) == [(0, 0.0), (1, 0.0)]

    def test_algorithm_alias_and_channel(self):
        trace, _ = make_random_instance(seed=2)
        plan = plan_broadcast(
            trace, 0, 300.0, algorithm="FR_EEDCB", channel="rayleigh", seed=2
        )
        assert plan.algorithm == "fr-eedcb"
        assert plan.channel == "rayleigh"
        assert plan.info["nlp_iterations"] >= 0

    def test_seed_forwarded_to_rand_scheduler(self):
        trace, _ = make_random_instance(seed=2)
        a = plan_broadcast(trace, 0, 300.0, algorithm="rand", seed=11)
        b = plan_broadcast(trace, 0, 300.0, algorithm="rand", seed=11)
        assert a.schedule == b.schedule

    def test_scheduler_kwargs_forwarded(self):
        trace, _ = make_random_instance(seed=2)
        plan = plan_broadcast(
            trace, 0, 300.0, algorithm="eedcb", seed=2, memt_method="sptree"
        )
        assert plan.info["memt_method"] == "sptree"

    def test_obs_snapshot_attached_only_when_enabled(self):
        trace, _ = make_random_instance(seed=2)
        plan = plan_broadcast(trace, 0, 300.0, seed=2)
        assert plan.obs is None
        obs.enable()
        traced = plan_broadcast(trace, 0, 300.0, seed=2)
        assert traced.obs is not None
        assert "api.plan_broadcast" in traced.obs.span_names
        assert traced.schedule == plan.schedule  # tracing must not perturb

    def test_normalized_energy_uses_graph_params(self):
        trace, _ = make_random_instance(seed=2)
        plan = plan_broadcast(trace, 0, 300.0, seed=2)
        expected = plan.tveg.params.normalize_energy(plan.schedule.total_cost)
        assert plan.normalized_energy() == pytest.approx(expected)


class TestChannelIdentity:
    """A channel instance is keyed by everything that fixes its costs."""

    TRACE = haggle_like_trace(HaggleLikeConfig(num_nodes=8), seed=0)
    KW = dict(window=9000.0, seed=5)

    @pytest.mark.parametrize("algorithm", ["eedcb", "greed"])
    def test_rician_k_factor_is_part_of_the_key(self, algorithm):
        from repro.channels import RicianChannel
        from repro.params import PAPER_PARAMS
        from repro.service import PlanCache

        def plan(k, cache=None):
            return plan_broadcast(
                self.TRACE, None, 2000.0, algorithm=algorithm,
                channel=RicianChannel(PAPER_PARAMS, k_factor=k),
                cache=cache, **self.KW,
            )

        cache = PlanCache()
        k1, k10 = plan(1.0, cache), plan(10.0, cache)
        assert k10.manifest["config_hash"] != k1.manifest["config_hash"]
        assert cache.stats()["hits"] == 0
        assert k10.total_cost == plan(10.0).total_cost
        assert k10.total_cost != k1.total_cost
        assert k10.tveg is not k1.tveg
        assert k10.channel == "RicianChannel"

    def test_every_part_of_a_channel_changes_key_and_fingerprint(self):
        from dataclasses import replace

        from repro.channels import (
            NakagamiChannel,
            RayleighChannel,
            RicianChannel,
        )
        from repro.channels.pathloss import PowerLawPathLoss
        from repro.params import PAPER_PARAMS as P

        channels = [
            RayleighChannel(P),
            RayleighChannel(P, gain_model=PowerLawPathLoss(3.0)),
            RayleighChannel(replace(P, epsilon=P.epsilon / 2)),
            RicianChannel(P, k_factor=1.0),
            RicianChannel(P, k_factor=10.0),
            NakagamiChannel(P, m=1.0),
            NakagamiChannel(P, m=3.0),
        ]
        keys = {
            plan_cache_key(self.TRACE, 0, 2000.0, channel=c, **self.KW)
            for c in channels
        }
        fingerprints = {
            tveg_from_trace(self.TRACE, c, seed=5).fingerprint()
            for c in channels
        }
        assert len(keys) == len(fingerprints) == len(channels)

    def test_string_channel_keys_are_unchanged(self):
        trace = haggle_like_trace(HaggleLikeConfig(num_nodes=12), seed=0)
        assert plan_cache_key(
            trace, None, 2000.0, window=9000.0, seed=5
        ) == "662770e365f77407"
        assert plan_cache_key(
            trace, 3, 2000.0, window=(9000.0, 11000.0), channel="rayleigh",
            algorithm="greed", seed=5,
        ) == "4c8720fe4d3e7d10"

    def test_unknown_channel_name_rejected_by_the_key(self):
        with pytest.raises(GraphModelError, match="unknown channel 'bogus'"):
            plan_cache_key(self.TRACE, 0, 2000.0, channel="bogus")
