import math
import time

import numpy as np
import pytest

import isoppp as ip
from conftest import (campbell_mean, campbell_peak_mean, compact_mass, rayleigh_channel,
                      unit_channel)

# frozen oracle: QUADPACK value of pi * int_0^inf e^-r log(1+r^2) dr
A2_SCATTERED_RHO1_ORIGIN = 2.1575073628606187


class TestDrivingAlpha2:
    def test_nondecaying_diverges(self):
        with pytest.raises(ip.DivergentIntegral):
            ip.interference_driving(ip.constant_shape(1.0), 5.0, 1.0, 2)

    def test_log_decay_diverges(self):
        with pytest.raises(ip.DivergentIntegral):
            ip.interference_driving(ip.log_decay_shape(10.0), 0.0, 1.0, 2)

    def test_scattered_origin_frozen_value(self):
        res = ip.interference_driving(ip.scenario_scattered(1.0), 0.0, 1.0, 2)
        assert res.converged
        assert res.value == pytest.approx(A2_SCATTERED_RHO1_ORIGIN, rel=1e-10)

    def test_power_tail_origin_closed_form(self):
        # analytic: -pi (log 1 + int f log(1+r^2) dr) with f of the nu=2,
        # r0=1 profile reduces to pi * int_1^inf log(u)/u^2 du = pi
        res = ip.interference_driving(ip.power_tail_shape(2.0, 1.0), 0.0, 1.0, 2)
        assert res.value == pytest.approx(math.pi, rel=1e-9)

    def test_positive_for_valid_shapes(self):
        for shape in (ip.scenario_scattered(50.0), ip.scenario_finite_network(40.0, 70.0)):
            for y0 in (0.0, 10.0, 200.0):
                assert ip.interference_driving(shape, y0, 1.0, 2).value > 0.0

    def test_continuous_across_origin_handoff(self):
        # the asinh/log branch switch must not move the integral
        shape = ip.scenario_scattered(10.0)
        eps = 1e-6  # threshold at c=1
        below = ip.interference_driving(shape, eps * 0.5, 1.0, 2).value
        above = ip.interference_driving(shape, eps * 2.0, 1.0, 2).value
        at_zero = ip.interference_driving(shape, 0.0, 1.0, 2).value
        assert below == pytest.approx(at_zero, rel=1e-9)
        assert above == pytest.approx(at_zero, rel=1e-9)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ip.DomainError):
            ip.interference_driving(ip.scenario_scattered(1.0), 0.0, 0.0, 2)


class TestDrivingAlpha4:
    @pytest.mark.parametrize("c", [0.25, 1.0, 4.0])
    def test_stationary_recovery(self, c):
        res = ip.interference_driving(ip.constant_shape(1.0), 7.0, c, 4)
        assert res.value == pytest.approx(math.pi**2 / (2.0 * math.sqrt(c)), rel=1e-12)

    def test_stationary_at_origin(self):
        res = ip.interference_driving(ip.constant_shape(1.0), 0.0, 4.0, 4)
        assert res.value == pytest.approx(math.pi**2 / 4.0, rel=1e-12)

    def test_partial_level(self):
        res = ip.interference_driving(ip.constant_shape(0.5), 3.0, 1.0, 4)
        assert res.value == pytest.approx(0.5 * math.pi**2 / 2.0, rel=1e-12)

    def test_finite_even_for_carrier_sense_profile(self):
        res = ip.interference_driving(ip.scenario_carrier_sense(1e-5, 4.0), 0.0, 1.0, 4)
        assert res.converged
        assert 0.0 < res.value < math.pi**2 / 2.0


FIG3 = ip.scenario_finite_network(500.0, 800.0)
C25 = ip.scenario_scattered(25.0)


class TestDrivingHardCases:
    """Far-field, small-c and small-tol exponent-4 cases: each converges to a
    nonnegative value within its budget."""

    @pytest.mark.parametrize("shape,y0,c,tol", [
        (FIG3, 6e3, 1.0, 1e-10),
        (FIG3, 1e4, 1.0, 1e-10),
        (FIG3, 1e6, 1.0, 1e-10),
        (C25, 1e6, 1.0, 1e-10),
        (ip.power_tail_shape(0.5, 50.0), 1e4, 1.0, 1e-10),
        (ip.scenario_scattered(100.0), 3e3, 1e-2, 1e-10),
        (ip.power_tail_shape(2.0, 50.0), 3e3, 1e-2, 1e-10),
        (ip.scenario_carrier_sense(1e-5, 4.0), 3e3, 1e-2, 1e-10),
        (FIG3, 2000.0, 5000.5, 1e-13),
        (FIG3, 700.0, 5000.5, 1e-15),
    ])
    def test_converges_within_budget(self, shape, y0, c, tol):
        start = time.perf_counter()
        res = ip.interference_driving(shape, y0, c, 4, tol)
        assert time.perf_counter() - start < 1.0
        assert res.converged
        assert res.value >= 0.0
        if shape is FIG3 and c == 1.0:
            mass, r_end = compact_mass(shape), shape.support_end
            assert mass / (c + (y0 + r_end) ** 4) <= res.value <= mass / (c + (y0 - r_end) ** 4)
        if shape is C25:
            assert abs(res.value * y0**4 / (2.0 * math.pi * 625.0) - 1.0) <= 1e-6


class TestDrivingFarPeak:
    """Receivers far beyond the shape scale: the kernel's peak at r = y0,
    c^(1/alpha) wide, must be found however far out it sits."""

    @pytest.mark.parametrize("shape,alpha", [
        (ip.power_tail_shape(0.5, 50.0), 4),
        (ip.scenario_carrier_sense(1e-5, 4.0), 4),
        (ip.power_tail_shape(0.5, 50.0), 2),
    ], ids=["powerTail-4", "D-4", "powerTail-2"])
    @pytest.mark.parametrize("y0", [1e5, 3e5, 1e6])
    def test_matches_quadpack(self, shape, alpha, y0):
        res = ip.interference_driving(shape, y0, 1.0, alpha)
        assert res.converged
        assert res.value == pytest.approx(campbell_peak_mean(shape, alpha, 1.0, y0), rel=1e-9)

    @pytest.mark.parametrize("shape,alpha", [
        (ip.power_tail_shape(0.5, 50.0), 2),
        (ip.power_tail_shape(0.5, 50.0), 4),
        (ip.scenario_carrier_sense(1e-5, 4.0), 4),
    ])
    def test_unresolvable_offset_raises(self, shape, alpha):
        # 1e100 peak widths out, double-precision radii cannot resolve the peak
        start = time.perf_counter()
        with pytest.raises(ip.DomainError, match="peak widths"):
            ip.interference_driving(shape, 1e100, 1.0, alpha)
        assert time.perf_counter() - start < 1.0


class TestDrivingInputs:
    @pytest.mark.parametrize("y0,c,tol", [
        (math.nan, 1.0, 1e-10), (math.inf, 1.0, 1e-10), (1.0, math.nan, 1e-10),
        (1.0, math.inf, 1e-10), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
    ])
    def test_non_finite_scalars_rejected(self, y0, c, tol):
        for alpha in (2, 4):
            with pytest.raises(ip.DomainError):
                ip.interference_driving(ip.scenario_scattered(100.0), y0, c, alpha, tol)

    def test_laplace_rejects_non_finite(self):
        ch = rayleigh_channel(4, 1.0)
        shape = ip.scenario_scattered(5.0)
        for lam, y0, s in ((math.nan, 0.0, 1.0), (1e-3, math.nan, 1.0), (1e-3, 0.0, math.inf)):
            with pytest.raises(ip.DomainError):
                ip.laplace_transform(shape, ch, lam, y0, s)


class TestMeanInterference:
    def test_stationary_value(self):
        ch = rayleigh_channel(4, 1.0)
        res = ip.mean_interference(ip.constant_shape(1.0), ch, 1e-3, 123.0)
        assert res.value == pytest.approx(1e-3 * math.pi**2 / 2.0, rel=1e-12)

    def test_matches_a2_route(self):
        ch = rayleigh_channel(2, 1.0)
        res = ip.mean_interference(ip.scenario_scattered(1.0), ch, 1.0, 0.0)
        assert res.value == pytest.approx(A2_SCATTERED_RHO1_ORIGIN, rel=1e-10)

    def test_unsupported_alpha(self):
        ch = rayleigh_channel(3, 1.0)
        with pytest.raises(ip.UnsupportedAlpha):
            ip.mean_interference(ip.scenario_scattered(1.0), ch, 1.0, 0.0)

    def test_fading_independent(self):
        shape = ip.scenario_scattered(20.0)
        for ch in (rayleigh_channel(4, 1.0), unit_channel(4, 1.0)):
            value = ip.mean_interference(shape, ch, 1e-2, 5.0).value
            assert value == pytest.approx(
                ip.mean_interference(shape, rayleigh_channel(4, 1.0), 1e-2, 5.0).value
            )

    @pytest.mark.parametrize("alpha", [2, 4])
    @pytest.mark.parametrize("y0", [0.0, 30.0])
    def test_campbell_consistency(self, alpha, y0):
        # independent 2-D polar quadrature of lambda int F * pathloss
        shape = ip.scenario_scattered(25.0)
        lam, c = 1e-2, 1.0
        ours = ip.mean_interference(shape, rayleigh_channel(alpha, c), lam, y0).value
        brute = campbell_mean(shape, alpha, c, lam, y0, r_hi=1200.0)
        assert ours == pytest.approx(brute, rel=1e-4)

    @pytest.mark.parametrize("alpha", [2, 4])
    def test_campbell_consistency_power_tail(self, alpha):
        shape = ip.power_tail_shape(3.0, 10.0)
        ours = ip.mean_interference(shape, rayleigh_channel(alpha, 0.5), 1.0, 15.0).value
        brute = campbell_mean(shape, alpha, 0.5, 1.0, 15.0, r_hi=30000.0)
        assert ours == pytest.approx(brute, rel=1e-4)

    def test_monotone_in_offset_for_decaying_shapes(self):
        offsets = np.linspace(0.0, 900.0, 10)
        for shape in (ip.scenario_finite_network(300.0, 500.0), ip.scenario_scattered(80.0)):
            for alpha in (2, 4):
                ch = rayleigh_channel(alpha, 1.0)
                values = [ip.mean_interference(shape, ch, 1e-3, y).value for y in offsets]
                assert np.all(np.diff(values) <= 1e-12)


class TestLaplaceTransform:
    def test_unity_at_zero(self):
        ch = rayleigh_channel(4, 1.0)
        assert ip.laplace_transform(ip.scenario_scattered(5.0), ch, 1e-3, 2.0, 0.0) == 1.0

    def test_stationary_zero_c_closed_form(self):
        ch = rayleigh_channel(4, 0.0)
        lam, s = 0.01, 4.0
        value = ip.laplace_transform(ip.constant_shape(1.0), ch, lam, 9.0, s)
        assert value == pytest.approx(math.exp(-lam * math.pi**2 * math.sqrt(s) / 2.0), rel=1e-12)

    def test_divergent_regime_is_zero(self):
        ch = rayleigh_channel(2, 1.0)
        assert ip.laplace_transform(ip.constant_shape(1.0), ch, 1e-3, 0.0, 2.0) == 0.0
        assert ip.laplace_transform(ip.log_decay_shape(10.0), ch, 1e-3, 0.0, 2.0) == 0.0

    def test_decreasing_in_s(self):
        ch = rayleigh_channel(2, 1.0)
        shape = ip.scenario_scattered(50.0)
        s_grid = [0.0, 0.1, 1.0, 10.0, 100.0]
        values = [ip.laplace_transform(shape, ch, 1e-3, 10.0, s) for s in s_grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)

    def test_log_matches_independent_driving(self):
        ch = rayleigh_channel(4, 2.0)
        shape = ip.power_tail_shape(2.5, 30.0)
        lam, y0, s = 5e-3, 12.0, 3.0
        value = ip.laplace_transform(shape, ch, lam, y0, s)
        driving = ip.interference_driving(shape, y0, s + 2.0, 4).value
        assert math.log(value) == pytest.approx(-lam * s * driving, rel=1e-10)

    def test_requires_rayleigh(self):
        ch = unit_channel(4, 1.0)
        with pytest.raises(ip.DomainError):
            ip.laplace_transform(ip.scenario_scattered(5.0), ch, 1e-3, 0.0, 1.0)


class TestClassifyFiniteness:
    def test_sparse_power_tail(self):
        verdict = ip.classify_finiteness(ip.power_tail_shape(1.5, 1.0), rayleigh_channel(2, 1.0))
        assert verdict.mean_interference_finite
        assert not verdict.expected_count_finite
        assert verdict.interference_as_finite is True

    def test_stationary_alpha2(self):
        verdict = ip.classify_finiteness(ip.constant_shape(1.0), rayleigh_channel(2, 1.0))
        assert not verdict.mean_interference_finite
        assert not verdict.expected_count_finite
        assert verdict.interference_as_finite is False

    def test_compact_support(self):
        verdict = ip.classify_finiteness(
            ip.scenario_finite_network(500.0, 800.0), rayleigh_channel(2, 1.0)
        )
        assert verdict.mean_interference_finite
        assert verdict.expected_count_finite
        assert verdict.interference_as_finite is True

    def test_alpha4_always_mean_finite(self):
        for shape in (ip.constant_shape(1.0), ip.log_decay_shape(5.0)):
            verdict = ip.classify_finiteness(shape, rayleigh_channel(4, 1.0))
            assert verdict.mean_interference_finite
            assert verdict.interference_as_finite is True

    def test_zero_c_mean_infinite_but_interference_finite(self):
        # the singular path loss 1/r^alpha makes E[I] infinite wherever F(y0) > 0
        for alpha in (2, 4):
            verdict = ip.classify_finiteness(ip.scenario_scattered(100.0),
                                             rayleigh_channel(alpha, 0.0))
            assert verdict.mean_interference_finite is False
            assert verdict.interference_as_finite is True
        verdict = ip.classify_finiteness(ip.constant_shape(1.0), rayleigh_channel(4, 0.0))
        assert verdict.mean_interference_finite is False
        with pytest.raises(ip.DomainError):
            ip.mean_interference(ip.constant_shape(1.0), rayleigh_channel(4, 0.0), 1e-3, 0.0)

    def test_count_threshold_at_nu_two(self):
        ch = rayleigh_channel(2, 1.0)
        assert not ip.classify_finiteness(ip.power_tail_shape(2.0, 1.0), ch).expected_count_finite
        assert ip.classify_finiteness(ip.power_tail_shape(2.5, 1.0), ch).expected_count_finite


def test_divergence_witness_log_decay():
    # truncated mean 2 pi int_0^R r F(r)/(c + r^2) dr keeps growing: factor
    # >= 1.5 from R = 1e3 to R = 1e6 for the log-decay profile
    shape = ip.log_decay_shape(100.0)
    c = 1e4

    def truncated(radius):
        def fn(r):
            return 2.0 * math.pi * r * shape.eval_f(r) / (c + r * r)

        return ip.integrate_interval(fn, 0.0, radius, 1e-10).value

    m3, m6 = truncated(1e3), truncated(1e6)
    assert m6 >= 1.5 * m3


def test_fading_law_unit_mean():
    rng = np.random.default_rng(123)
    n = 10**5
    for law in (ip.FadingLaw.unit(), ip.FadingLaw.rayleigh(),
                ip.FadingLaw.custom(lambda rng, n: rng.gamma(2.0, 0.5, n))):
        sample = law.sampler(rng, n)
        sigma = float(np.std(sample, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(sample)) - 1.0) <= 3.0 * sigma + 1e-12


def test_link_config_eta_conversion():
    assert ip.LinkConfig(1e-3, 0.0, 10.0, 0.5, eta_db=10.0).eta == pytest.approx(10.0)
    assert math.isinf(ip.LinkConfig(1e-3, 0.0, 10.0, 0.5).eta)


def test_link_config_eta_overflow_names_the_limit():
    with pytest.raises(ip.NumericOverflow, match=r"eta_db=10000 dB .*3082\.5 dB"):
        ip.LinkConfig(1e-3, 0.0, 10.0, 0.5, eta_db=1e4)
    assert ip.LinkConfig(1e-3, 0.0, 10.0, 0.5, eta_db=3082.0).eta > 1e308


def test_channel_validation():
    with pytest.raises(ip.DomainError):
        ip.ChannelModel(alpha=1.5, c=1.0, fading=ip.FadingLaw.rayleigh())
    with pytest.raises(ip.DomainError):
        ip.LinkConfig(-1.0, 0.0, 10.0, 0.5)


@pytest.mark.parametrize("kwargs", [dict(alpha=math.nan), dict(c=math.nan), dict(c=math.inf)])
def test_channel_rejects_non_finite(kwargs):
    with pytest.raises(ip.DomainError):
        ip.ChannelModel(**{"alpha": 4, "c": 1.0, "fading": ip.FadingLaw.rayleigh(), **kwargs})


@pytest.mark.parametrize("index", range(5))
@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_link_rejects_non_finite(index, bad):
    args = [1e-3, 0.0, 10.0, 0.5, 10.0]
    args[index] = bad
    with pytest.raises(ip.DomainError):
        ip.LinkConfig(*args)
