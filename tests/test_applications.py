import math

import numpy as np
import pytest
from scipy.integrate import quad

import isoppp as ip
from isoppp import applications
from conftest import profile_slope, rayleigh_channel


def _link(lam=1e-3, y0=0.0, d=10.0, beta=1.0):
    return ip.LinkConfig(lam, y0, d, beta, math.inf)


class TestLocalTransmissionCapacity:
    def test_linear_in_small_epsilon(self):
        shape = ip.scenario_scattered(100.0)
        ch = rayleigh_channel(2, 0.0)
        c1 = ip.local_transmission_capacity(shape, ch, _link(beta=0.5), 1e-4)
        c2 = ip.local_transmission_capacity(shape, ch, _link(beta=0.5), 2e-4)
        assert c2 / c1 == pytest.approx(2.0, rel=1e-3)

    def test_alpha2_formula(self):
        # plugs the independently validated A_2(o, beta d^2)
        shape = ip.scenario_scattered(100.0)
        ch = rayleigh_channel(2, 0.0)
        a2 = ip.interference_driving(shape, 0.0, 50.0, 2).value
        got = ip.local_transmission_capacity(shape, ch, _link(beta=0.5), 0.1)
        assert got == pytest.approx(-math.log(0.9) * 0.9 / (0.5 * 100.0 * a2), rel=1e-12)

    def test_alpha4_stationary_closed_form(self):
        shape = ip.constant_shape(1.0)
        ch = rayleigh_channel(4, 0.0)
        got = ip.local_transmission_capacity(shape, ch, _link(d=10.0, beta=1.0), 0.1)
        expected = -math.log(0.9) * 0.9 / (100.0 * 1.0 * math.pi**2 / 2.0)
        assert got == pytest.approx(expected, rel=1e-10)
        # cross-check by inverting the stationary outage expression
        lam_solve = -math.log(0.9) / (1.0 * 100.0 * math.pi**2 / 2.0)
        assert got == pytest.approx(lam_solve * 0.9, rel=1e-10)

    @pytest.mark.parametrize("alpha,shape_factory", [
        (2, lambda: ip.scenario_scattered(100.0)),
        (4, lambda: ip.constant_shape(1.0)),
        (4, lambda: ip.scenario_scattered(100.0)),
    ])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    def test_capacity_outage_round_trip(self, alpha, shape_factory, eps):
        shape = shape_factory()
        ch = rayleigh_channel(alpha, 0.0)
        link = _link(y0=20.0, beta=0.5)
        capacity = ip.local_transmission_capacity(shape, ch, link, eps)
        implied = capacity / (1.0 - eps)
        back = ip.outage_exact(
            shape, ch, ip.LinkConfig(implied, link.y0_norm, link.d, link.beta, math.inf)
        )
        assert back == pytest.approx(eps, abs=1e-9)

    def test_nonzero_c_requires_zero_c(self):
        shape = ip.scenario_scattered(100.0)
        with pytest.raises(ip.RequiresZeroC):
            ip.local_transmission_capacity(shape, rayleigh_channel(4, 1.0), _link(), 0.1)

    def test_divergent_shape_rejected(self):
        ch = rayleigh_channel(2, 0.0)
        with pytest.raises(ip.DivergentIntegral):
            ip.local_transmission_capacity(ip.constant_shape(1.0), ch, _link(), 0.1)

    def test_preconditions(self):
        shape = ip.scenario_scattered(100.0)
        with pytest.raises(ip.DomainError):
            ip.local_transmission_capacity(shape, rayleigh_channel(2, 1.0), _link(), 0.1)
        with pytest.raises(ip.DomainError):
            ip.local_transmission_capacity(shape, rayleigh_channel(2, 0.0), _link(), 1.5)

    def test_custom_fading_rejected(self):
        fading = ip.FadingLaw.custom(lambda rng, n: rng.exponential(1.0, n))
        ch = ip.ChannelModel(alpha=2, c=0.0, fading=fading)
        with pytest.raises(ip.DomainError, match="assumes Rayleigh fading"):
            ip.local_transmission_capacity(ip.scenario_scattered(100.0), ch, _link(), 0.1)

    def test_noisy_link_rejected(self):
        link = ip.LinkConfig(1e-3, 0.0, 10.0, 1.0, 10.0)
        with pytest.raises(ip.DomainError, match="assumes a noise-free link"):
            ip.local_transmission_capacity(ip.scenario_scattered(100.0), rayleigh_channel(2, 0.0),
                                           link, 0.1)


class TestFhDsGain:
    def test_unity_at_m_one(self, scattered100):
        assert ip.fh_ds_gain(scattered100, 10.0, 0.5, 1.0).ratio == 1.0

    def test_log_slope_of_ratio_sequence(self, scattered100):
        # per factor-4 step the exact ratio climbs by pi F(0) log 4 / A_2
        a2 = ip.interference_driving(scattered100, 0.0, 50.0, 2).value
        slope = math.pi * 1.0 * math.log(4.0) / a2
        ratios = {m: ip.fh_ds_gain(scattered100, 10.0, 0.5, m).ratio for m in (4, 16, 64, 256)}
        for m_prev, m in ((4, 16), (16, 64), (64, 256)):
            diff = ratios[m] - ratios[m_prev]
            assert diff == pytest.approx(slope, rel=0.10)

    def test_strictly_increasing_in_m(self, scattered100):
        values = [ip.fh_ds_gain(scattered100, 10.0, 0.5, m).ratio for m in (1, 2, 8, 64, 1024)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_origin_density_recovered_at_large_m(self, scattered100):
        # (ratio - 1) A_2 / (pi log M) -> F(0) within 5% at M = 1e4
        a2 = ip.interference_driving(scattered100, 0.0, 50.0, 2).value
        gain = ip.fh_ds_gain(scattered100, 10.0, 0.5, 1e4)
        estimate = (gain.ratio - 1.0) * a2 / (math.pi * math.log(1e4))
        assert estimate == pytest.approx(1.0, rel=0.05)
        assert gain.asymptote == pytest.approx(1.0 + math.pi * math.log(1e4) / a2, rel=1e-12)

    def test_remainder_integral_bounded(self, scattered100):
        # the non-log part of the gain stays bounded by max|f| int log(1 + beta d^2/r^2)
        beta, d = 0.5, 10.0
        s = beta * d * d
        for m in (4.0, 256.0, 1e4):
            remainder, _ = quad(
                lambda r: profile_slope(scattered100, r) * math.log((r * r + s) / (r * r + s / m)),
                0.0, np.inf, limit=400,
            )
            bound = (1.0 / 100.0) * math.pi * math.sqrt(s)
            assert abs(remainder) <= bound

    def test_unconverged_driving_raises(self, monkeypatch, scattered100):
        def unconverged(*args, **kwargs):
            return ip.IntegralResult(value=1.0, abs_error=1.0, converged=False, evaluations=15)

        monkeypatch.setattr(applications, "interference_driving", unconverged)
        with pytest.raises(ip.NonConvergence) as info:
            ip.fh_ds_gain(scattered100, 10.0, 0.5, 4.0)
        assert not info.value.result.converged

    def test_no_saturation(self, scattered100):
        # the gain keeps growing with M (no cap), unlike the stationary model
        r1 = ip.fh_ds_gain(scattered100, 10.0, 0.5, 1e4).ratio
        r2 = ip.fh_ds_gain(scattered100, 10.0, 0.5, 1e8).ratio
        assert r2 > r1 + 0.5

    def test_infinite_gain_is_domain_error(self, scattered100):
        with pytest.raises(ip.DomainError, match="m must be finite"):
            ip.fh_ds_gain(scattered100, 10.0, 0.5, math.inf)

    def test_gain_below_one_is_domain_error(self, scattered100):
        with pytest.raises(ip.DomainError, match="processing gain M must be >= 1"):
            ip.fh_ds_gain(scattered100, 10.0, 0.5, 0.5)


class TestCsmaDensity:
    @pytest.mark.parametrize("lam, delta", [(math.nan, 1e-5), (1e-3, math.nan)])
    def test_non_finite_input_is_domain_error(self, lam, delta):
        with pytest.raises(ip.DomainError, match="must be finite"):
            ip.csma_large_scale_density(lam, 4.0, delta)

    def test_thinning_vanishes_for_sparse_networks(self):
        lam = 1e-12
        assert ip.csma_large_scale_density(lam, 4.0, 1e-5) / lam >= 0.999

    def test_alpha_below_two_is_domain_error(self):
        with pytest.raises(ip.DomainError, match="path-loss exponent must be >= 2"):
            ip.csma_large_scale_density(1e-3, 1.5, 1e-5)

    def test_direct_arithmetic(self):
        # gamma-function oracle: Gamma(1.5) = sqrt(pi)/2
        lam, delta = 1e-3, 1e-5
        area = math.pi * (math.sqrt(math.pi) / 2.0) * delta**-0.5
        expected = (1.0 - math.exp(-lam * area)) / area
        assert ip.csma_large_scale_density(lam, 4.0, delta) == pytest.approx(expected, rel=1e-12)

    def test_no_inhibition_limit(self):
        lam = 1e-3
        assert ip.csma_large_scale_density(lam, 4.0, 1e9) == pytest.approx(lam, rel=1e-4)

    def test_monotone_and_saturating(self):
        delta = 1e-5
        area = math.pi * math.gamma(1.5) * delta**-0.5
        lams = np.geomspace(1e-6, 10.0, 12)
        vals = [ip.csma_large_scale_density(l, 4.0, delta) for l in lams]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v <= 1.0 / area + 1e-15 for v in vals)


class TestCsmaShape:
    def test_delegates_to_scenario(self):
        shape = ip.csma_shape(1e-5, 4.0)
        reference = ip.scenario_carrier_sense(1e-5, 4.0)
        r = np.array([0.0, 5.0, 17.0, 100.0])
        np.testing.assert_array_equal(shape.eval_f(r), reference.eval_f(r))
        assert shape.tail.kind is ip.TailKind.NON_DECAYING


class TestCsmaAccuracyLoss:
    def test_vanishes_for_short_links(self):
        assert ip.csma_accuracy_loss(1e-3, 1e-5, 0.01, 1.0) <= 1e-3

    def test_vanishes_for_long_links(self):
        assert ip.csma_accuracy_loss(1e-3, 1e-5, 1e3, 1.0) <= 1e-2

    def test_interior_maximum_and_beta_ordering(self):
        ds = np.geomspace(0.01, 1000.0, 21)
        peaks = {}
        for beta in (0.1, 1.0, 10.0):
            curve = [ip.csma_accuracy_loss(1e-3, 1e-5, d, beta) for d in ds]
            k = int(np.argmax(curve))
            assert 0 < k < len(ds) - 1, "maximum must be interior"
            peaks[beta] = curve[k]
        assert peaks[0.1] > peaks[1.0] > peaks[10.0]

    def test_alpha_restriction(self):
        with pytest.raises(ip.UnsupportedAlpha):
            ip.csma_accuracy_loss(1e-3, 1e-5, 10.0, 1.0, alpha=2.0)
