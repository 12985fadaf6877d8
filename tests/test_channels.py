"""ED-functions (Property 3.1) and channel models, incl. hypothesis checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels import (
    AbsentED,
    ConstantGain,
    LogDistancePathLoss,
    NakagamiChannel,
    NakagamiED,
    PowerLawPathLoss,
    RayleighChannel,
    RayleighED,
    RicianChannel,
    RicianED,
    StaticChannel,
    StepED,
    verify_properties,
)
from repro.errors import ChannelModelError
from repro.params import PAPER_PARAMS

betas = st.floats(min_value=1e-18, max_value=1e-6, allow_nan=False)
costs = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)
eps_targets = st.floats(min_value=1e-4, max_value=0.5, allow_nan=False)


# ----------------------------------------------------------------------
# StepED (Eq. 2)
# ----------------------------------------------------------------------
class TestStepED:
    def test_threshold_behaviour(self):
        ed = StepED(2.0)
        assert ed.failure(1.999) == 1.0
        assert ed.failure(2.0) == 0.0
        assert ed.failure(100.0) == 0.0
        assert ed.success(2.0) == 1.0

    def test_min_cost(self):
        ed = StepED(2.0)
        assert ed.min_cost(0.01) == 2.0
        assert ed.min_cost(0.0) == 2.0
        assert ed.min_cost(1.0) == 0.0

    def test_invalid_threshold(self):
        with pytest.raises(ChannelModelError):
            StepED(0.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ChannelModelError):
            StepED(1.0).failure(-1.0)

    def test_equality_hash(self):
        assert StepED(1.0) == StepED(1.0)
        assert StepED(1.0) != StepED(2.0)
        assert hash(StepED(1.0)) == hash(StepED(1.0))


# ----------------------------------------------------------------------
# RayleighED (Eq. 5)
# ----------------------------------------------------------------------
class TestRayleighED:
    def test_formula(self):
        ed = RayleighED(beta=3.0)
        assert ed.failure(1.0) == pytest.approx(1.0 - math.exp(-3.0))
        assert ed.failure(0.0) == 1.0

    def test_min_cost_inverse(self):
        ed = RayleighED(beta=2.5)
        for target in (0.5, 0.1, 0.01):
            w = ed.min_cost(target)
            assert ed.failure(w) == pytest.approx(target, rel=1e-9)

    def test_min_cost_limits(self):
        ed = RayleighED(1.0)
        assert ed.min_cost(1.0) == 0.0
        assert ed.min_cost(0.0) == math.inf

    def test_log_failure(self):
        ed = RayleighED(beta=1.7)
        assert ed.log_failure(3.0) == pytest.approx(math.log(ed.failure(3.0)))
        assert ed.log_failure(0.0) == 0.0


# ----------------------------------------------------------------------
# Rician / Nakagami extensions and their limits
# ----------------------------------------------------------------------
class TestFadingFamilies:
    def test_rician_k0_equals_rayleigh(self):
        r = RayleighED(beta=2.0)
        ric = RicianED(beta=2.0, k_factor=0.0)
        for w in (0.1, 1.0, 5.0, 50.0):
            assert ric.failure(w) == pytest.approx(r.failure(w), rel=1e-9)

    def test_nakagami_m1_equals_rayleigh(self):
        r = RayleighED(beta=2.0)
        nak = NakagamiED(beta=2.0, m=1.0)
        for w in (0.1, 1.0, 5.0, 50.0):
            assert nak.failure(w) == pytest.approx(r.failure(w), rel=1e-9)

    def test_nakagami_large_m_approaches_step(self):
        # m → ∞: outage → 1{w < β} (sharp threshold at w = β)
        nak = NakagamiED(beta=2.0, m=200.0)
        assert nak.failure(1.0) > 0.999
        assert nak.failure(4.0) < 1e-6

    def test_rician_los_reduces_outage(self):
        # More LOS power (higher K) → lower outage at the same mean SNR.
        w = 5.0
        f0 = RicianED(beta=2.0, k_factor=0.0).failure(w)
        f5 = RicianED(beta=2.0, k_factor=5.0).failure(w)
        assert f5 < f0

    def test_min_cost_inverse_rician(self):
        ed = RicianED(beta=2.0, k_factor=3.0)
        for target in (0.3, 0.05, 0.01):
            assert ed.failure(ed.min_cost(target)) == pytest.approx(target, rel=1e-6)

    def test_min_cost_inverse_nakagami(self):
        ed = NakagamiED(beta=2.0, m=2.5)
        for target in (0.3, 0.05, 0.01):
            assert ed.failure(ed.min_cost(target)) == pytest.approx(target, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ChannelModelError):
            RicianED(2.0, -1.0)
        with pytest.raises(ChannelModelError):
            NakagamiED(2.0, 0.3)
        with pytest.raises(ChannelModelError):
            RayleighED(-1.0)


# ----------------------------------------------------------------------
# AbsentED and Property 3.1 (hypothesis)
# ----------------------------------------------------------------------
class TestAbsentED:
    def test_always_fails(self):
        ed = AbsentED()
        for w in (0.0, 1.0, 1e12):
            assert ed.failure(w) == 1.0
        assert ed.min_cost(0.5) == math.inf
        assert ed.min_cost(1.0) == 0.0

    def test_singleton(self):
        assert AbsentED() is AbsentED()


@given(betas)
def test_property31_rayleigh(beta):
    ws = [0.0, beta * 0.1, beta, beta * 10, beta * 1e6]
    verify_properties(RayleighED(beta), ws)


@given(betas, st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=30)
def test_property31_rician(beta, k):
    ws = [0.0, beta * 0.1, beta, beta * 10, beta * 1e6]
    verify_properties(RicianED(beta, k), ws)


@given(betas, st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=30)
def test_property31_nakagami(beta, m):
    ws = [0.0, beta * 0.1, beta, beta * 10, beta * 1e6]
    verify_properties(NakagamiED(beta, m), ws)


@given(betas)
def test_property31_step(beta):
    verify_properties(StepED(beta), [0.0, beta * 0.5, beta, beta * 2])


@given(betas, eps_targets)
def test_rayleigh_min_cost_is_generalized_inverse(beta, target):
    ed = RayleighED(beta)
    w = ed.min_cost(target)
    assert ed.failure(w) <= target + 1e-12
    if w > 1e-30:
        assert ed.failure(w * 0.999) > target - 1e-9


# ----------------------------------------------------------------------
# Path-loss models
# ----------------------------------------------------------------------
class TestPathLoss:
    def test_power_law(self):
        pl = PowerLawPathLoss(2.0)
        assert pl(2.0) == 0.25
        with pytest.raises(ChannelModelError):
            pl(0.0)

    def test_log_distance(self):
        pl = LogDistancePathLoss(reference_distance=1.0, reference_gain=0.1, exponent=2.0)
        assert pl(1.0) == pytest.approx(0.1)
        assert pl(10.0) == pytest.approx(0.001)

    def test_constant(self):
        assert ConstantGain(0.5)(123.0) == 0.5
        with pytest.raises(ChannelModelError):
            ConstantGain(0.0)


# ----------------------------------------------------------------------
# Channel models (ψ factories)
# ----------------------------------------------------------------------
class TestChannelModels:
    def test_static_yields_step(self):
        ch = StaticChannel(PAPER_PARAMS)
        ed = ch.ed_from_distance(5.0)
        assert isinstance(ed, StepED)
        assert ed.threshold == pytest.approx(PAPER_PARAMS.static_min_cost(5.0**-2))
        assert not ch.is_fading

    def test_rayleigh_yields_rayleigh(self):
        ch = RayleighChannel(PAPER_PARAMS)
        ed = ch.ed_from_distance(5.0)
        assert isinstance(ed, RayleighED)
        assert ed.beta == pytest.approx(PAPER_PARAMS.rayleigh_beta(5.0))
        assert ch.is_fading

    def test_backbone_weights(self):
        d = 5.0
        static_w = StaticChannel(PAPER_PARAMS).backbone_weight(d)
        fading_w = RayleighChannel(PAPER_PARAMS).backbone_weight(d)
        assert static_w == pytest.approx(PAPER_PARAMS.static_min_cost(d**-2))
        assert fading_w == pytest.approx(PAPER_PARAMS.rayleigh_single_hop_cost(d))
        # fading must pay a large premium to guarantee ε at one hop
        assert fading_w > 10 * static_w

    def test_rician_nakagami_channels(self):
        ric = RicianChannel(PAPER_PARAMS, k_factor=2.0)
        nak = NakagamiChannel(PAPER_PARAMS, m=2.0)
        assert isinstance(ric.ed_from_distance(3.0), RicianED)
        assert isinstance(nak.ed_from_distance(3.0), NakagamiED)
        assert ric.is_fading and nak.is_fading
        # both need less backbone power than Rayleigh (milder fading)
        ray_w = RayleighChannel(PAPER_PARAMS).backbone_weight(3.0)
        assert ric.backbone_weight(3.0) < ray_w
        assert nak.backbone_weight(3.0) < ray_w

    def test_custom_gain_model(self):
        ch = StaticChannel(PAPER_PARAMS, gain_model=ConstantGain(1.0))
        assert ch.ed_from_distance(99.0).threshold == pytest.approx(
            PAPER_PARAMS.decode_energy
        )
