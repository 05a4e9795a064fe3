import math

import numpy as np
import pytest

import isoppp as ip
from conftest import campbell_divergence, rayleigh_channel


def _link(lam=1e-3, y0=0.0, d=10.0, beta=1.0, eta_db=math.inf):
    return ip.LinkConfig(lam, y0, d, beta, eta_db)


class TestOutageExact:
    def test_vanishing_threshold(self, fig3_shape):
        ch = rayleigh_channel(4, 1.0)
        value = ip.outage_exact(fig3_shape, ch, _link(beta=1e-12, y0=100.0))
        assert 0.0 <= value <= 1e-9

    @pytest.mark.parametrize("alpha", [2, 4])
    def test_monotone_in_offset(self, fig3_shape, alpha):
        ch = rayleigh_channel(alpha, 1.0)
        offsets = np.linspace(0.0, 1500.0, 16)
        curve = [ip.outage_exact(fig3_shape, ch, _link(beta=0.5, y0=y)) for y in offsets]
        assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_noise_floor_far_out(self, fig3_shape):
        # far beyond the support at alpha=4, outage is pure noise outage
        ch = rayleigh_channel(4, 1.0)
        value = ip.outage_exact(fig3_shape, ch, _link(beta=0.5, y0=1500.0, eta_db=10.0))
        floor = 1.0 - math.exp(-0.5 / 10.0)
        assert value == pytest.approx(floor, abs=1e-4)

    def test_stationary_outage_far_from_the_centre(self):
        # constant density at alpha 4: 1 - exp(-lambda s pi^2 / (2 sqrt(s + c))),
        # s = beta (c + d^4), at any offset
        ch = rayleigh_channel(4, 1.0)
        s = 0.5 * (1.0 + 10.0**4)
        exact = -math.expm1(-1e-3 * s * math.pi**2 / (2.0 * math.sqrt(s + 1.0)))
        got = ip.outage_exact(ip.constant_shape(1.0), ch, _link(beta=0.5, y0=1e5))
        assert got == pytest.approx(exact, rel=1e-9)

    def test_noise_decomposition_exact(self, fig3_shape):
        ch = rayleigh_channel(4, 1.0)
        noise_free = ip.outage_exact(fig3_shape, ch, _link(beta=0.5, y0=200.0))
        noisy = ip.outage_exact(fig3_shape, ch, _link(beta=0.5, y0=200.0, eta_db=10.0))
        eta = 10.0
        assert noisy == pytest.approx(1.0 - (1.0 - noise_free) * math.exp(-0.5 / eta), rel=1e-14)

    def test_monotone_in_beta_lambda_d(self, scattered100):
        ch = rayleigh_channel(2, 1.0)
        base = dict(lam=1e-3, y0=20.0, d=10.0, beta=0.5)
        p0 = ip.outage_exact(scattered100, ch, _link(**base))
        for key, grid in (("beta", [0.6, 1.0, 4.0]), ("lam", [2e-3, 8e-3]), ("d", [12.0, 30.0])):
            prev = p0
            for v in grid:
                cur = ip.outage_exact(scattered100, ch, _link(**{**base, key: v}))
                assert cur >= prev - 1e-12
                prev = cur

    def test_bounded_probability(self, scattered100):
        ch = rayleigh_channel(4, 1.0)
        for y0 in (0.0, 50.0, 400.0):
            for beta in (0.1, 1.0, 100.0):
                value = ip.outage_exact(scattered100, ch, _link(beta=beta, y0=y0))
                assert 0.0 <= value <= 1.0


class TestOutageApprox:
    def test_zero_density_region(self, fig3_shape):
        ch = rayleigh_channel(4, 0.0)
        assert ip.outage_approx(fig3_shape, ch, _link(y0=900.0)) == 0.0

    def test_stationary_direct_substitution(self):
        ch = rayleigh_channel(4, 0.0)
        value = ip.outage_approx(ip.constant_shape(1.0), ch, _link(d=10.0, beta=1.0))
        assert value == pytest.approx(1.0 - math.exp(-1e-3 * 100.0 * math.pi**2 / 2.0), rel=1e-12)

    def test_alpha2_rejected(self):
        ch = rayleigh_channel(2, 0.0)
        with pytest.raises(ip.UnsupportedAlpha):
            ip.outage_approx(ip.constant_shape(1.0), ch, _link())

    def test_nonzero_c_and_noise(self):
        # constant density: 1 - exp(-beta/eta) exp(-lambda s pi^2 / (2 sqrt(s + c))),
        # s = beta (c + d^4), which is also the exact outage
        ch = rayleigh_channel(4, 1.0)
        link = _link(beta=0.5, eta_db=10.0)
        s = 0.5 * (1.0 + 10.0**4)
        expected = -math.expm1(-1e-3 * s * math.pi**2 / (2.0 * math.sqrt(s + 1.0)) - 0.05)
        value = ip.outage_approx(ip.constant_shape(1.0), ch, link)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(ip.outage_exact(ip.constant_shape(1.0), ch, link),
                                      rel=1e-10)


@pytest.mark.parametrize("closed_form", [ip.outage_approx, ip.log_divergence])
def test_custom_fading_rejected(closed_form):
    fading = ip.FadingLaw.custom(lambda rng, n: rng.exponential(1.0, n))
    ch = ip.ChannelModel(alpha=4, c=0.0, fading=fading)
    with pytest.raises(ip.DomainError, match="assumes Rayleigh fading"):
        closed_form(ip.constant_shape(1.0), ch, _link())


class TestLogDivergence:
    def test_zero_for_constant_shapes(self):
        ch = rayleigh_channel(4, 0.0)
        for level in (1.0, 0.55):
            for y0 in np.linspace(0.0, 300.0, 7):
                gamma = ip.log_divergence(ip.constant_shape(level), ch, _link(y0=y0))
                assert abs(gamma) <= 1e-9

    def test_matches_definitional_computation(self, fig3_shape):
        ch = rayleigh_channel(4, 0.0)
        lam = 1e-3
        for y0 in np.linspace(0.0, 1000.0, 20):
            link = _link(lam=lam, y0=y0)
            closed = ip.log_divergence(fig3_shape, ch, link)
            exact = ip.outage_exact(fig3_shape, ch, link)
            approx = ip.outage_approx(fig3_shape, ch, link)
            definitional = math.log((1.0 - exact) / (1.0 - approx)) / lam
            assert closed == pytest.approx(definitional, abs=1e-9)

    def test_sign_tracks_over_under_estimation(self):
        ch = rayleigh_channel(4, 0.0)
        cases = [
            (ip.scenario_scattered(30.0), 0.0),      # decay ignored: overestimates
            (ip.scenario_carrier_sense(1e-5, 4.0), 0.0),  # growth ignored: underestimates
            (ip.scenario_finite_network(500.0, 800.0), 200.0),
        ]
        for shape, y0 in cases:
            link = _link(y0=y0)
            gamma = ip.log_divergence(shape, ch, link)
            diff = ip.outage_approx(shape, ch, link) - ip.outage_exact(shape, ch, link)
            assert math.copysign(1.0, gamma) == math.copysign(1.0, diff)

    def test_carrier_sense_large_negative_at_origin(self):
        ch = rayleigh_channel(4, 0.0)
        gamma = ip.log_divergence(ip.scenario_carrier_sense(1e-5, 4.0), ch, _link(y0=0.0))
        assert gamma < -10.0

    @pytest.mark.parametrize("y0", [0.0, 100.0, 300.0, 750.0, 1500.0])
    def test_matches_quadpack_away_from_the_hole(self, y0):
        # far from the hole gamma is tiny beside each O(1) term of the closed
        # form, so it must not be formed as their difference
        shape = ip.scenario_carrier_sense(1e-5, 4.0)
        gamma = ip.log_divergence(shape, rayleigh_channel(4, 0.0), _link(y0=y0, beta=0.5))
        assert gamma == pytest.approx(campbell_divergence(shape, y0, 10.0, 0.5), rel=1e-9)

    def test_preconditions(self):
        with pytest.raises(ip.UnsupportedAlpha):
            ip.log_divergence(ip.constant_shape(1.0), rayleigh_channel(2, 0.0), _link())
        with pytest.raises(ip.UnsupportedAlpha, match=r"in \(2, 9\]"):
            ip.log_divergence(ip.constant_shape(1.0), rayleigh_channel(9.5, 0.0), _link())
        # c > 0, noise and alpha != 4 are served: the approximation is exact for
        # a constant density
        for alpha, c, eta_db in ((4, 1.0, math.inf), (4, 0.0, 10.0), (3, 1.0, 10.0)):
            gamma = ip.log_divergence(ip.constant_shape(1.0), rayleigh_channel(alpha, c),
                                      _link(eta_db=eta_db))
            assert abs(gamma) <= 1e-9

    def test_threshold_underflow_refused(self):
        # beta d^4 = 1e-400 rounds to 0, where the kernel's c must be positive
        with pytest.raises(ip.DomainError, match="beta d\\^4 underflows to 0 at d=1e-100"):
            ip.log_divergence(ip.constant_shape(1.0), rayleigh_channel(4, 0.0), _link(d=1e-100))


class TestRelativeError:
    def test_exact_in_stationary_case(self):
        ch = rayleigh_channel(4, 0.0)
        assert ip.relative_error(ip.constant_shape(1.0), ch, _link(y0=40.0)) <= 1e-12

    @pytest.mark.parametrize("eta_db", [0.0, 10.0, 30.0])
    @pytest.mark.parametrize("alpha", [3, 4])
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_exact_in_stationary_case_with_noise(self, eta_db, alpha, c):
        # both outages carry the noise factor exp(-beta/eta)
        ch = rayleigh_channel(alpha, c)
        link = ip.LinkConfig(1e-5, 0.0, 10.0, 1.0, eta_db)
        assert ip.relative_error(ip.constant_shape(1.0), ch, link) <= 1e-9

    def test_carrier_sense_fails_at_origin(self):
        # the local approximation sees zero density at the origin and
        # predicts zero outage; the error is total
        ch = rayleigh_channel(4, 0.0)
        value = ip.relative_error(ip.scenario_carrier_sense(1e-5, 4.0), ch, _link(y0=0.0))
        assert value >= 1.0

    def test_finite_network_mid_plateau(self, fig3_shape):
        ch = rayleigh_channel(4, 0.0)
        value = ip.relative_error(fig3_shape, ch, _link(y0=250.0))
        assert value <= 0.05
        # measured regression baseline 1.7e-4 (2026-08); keep a loose band
        assert value == pytest.approx(1.708e-4, rel=0.05)

    def test_degenerate_denominator(self, fig3_shape):
        ch = rayleigh_channel(4, 0.0)
        with pytest.raises(ip.DegenerateDenominator):
            ip.relative_error(fig3_shape, ch, _link(beta=1e-14, y0=2000.0))
