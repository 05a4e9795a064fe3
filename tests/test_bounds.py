import math

import numpy as np
import pytest

import isoppp as ip
from isoppp import bounds
from conftest import rayleigh_channel, unit_channel


def _unconverged(*args, **kwargs):
    return ip.IntegralResult(value=1.0, abs_error=1.0, converged=False, evaluations=15)


class TestSubharmonicRegion:
    def test_constant_is_harmonic_everywhere(self):
        region = ip.subharmonic_region(ip.constant_shape(1.0), 0.01)
        assert region.intervals == ((0.0, math.inf),)

    def test_scattered_region_starts_at_decay_length(self):
        # radial Laplacian of exp(-r) is exp(-r)(1 - 1/r): nonnegative for r >= 1
        region = ip.subharmonic_region(ip.scenario_scattered(1.0), 0.002)
        assert len(region.intervals) == 1
        lo, hi = region.intervals[0]
        assert lo == pytest.approx(1.0, abs=5e-3)
        assert math.isinf(hi)

    def test_carrier_sense_contains_origin_neighbourhood(self):
        # density grows convexly near the origin up to the sensing knee
        region = ip.subharmonic_region(ip.scenario_carrier_sense(1e-5, 4.0), 0.05)
        lo, hi = region.intervals[0]
        assert lo == 0.0
        assert hi == pytest.approx(1e-5 ** (-0.25), rel=0.01)

    def test_knots_are_excluded(self):
        shape = ip.scenario_finite_network(50.0, 80.0)
        region = ip.subharmonic_region(shape, 0.25)
        assert region.intervals  # convex rolloff half plus the empty outside
        for knot in shape.knots:
            assert all(not (lo <= knot <= hi) for lo, hi in region.intervals)


class TestMaxInscribedRadius:
    def test_whole_plane(self):
        region = ip.RadialRegion(intervals=((0.0, math.inf),))
        assert math.isinf(ip.max_inscribed_radius(region, 42.0))

    def test_annulus_interior(self):
        region = ip.RadialRegion(intervals=((2.0, 10.0),))
        assert ip.max_inscribed_radius(region, 4.0) == pytest.approx(2.0)

    def test_disc_allows_covering_origin(self):
        region = ip.RadialRegion(intervals=((0.0, 10.0),))
        assert ip.max_inscribed_radius(region, 4.0) == pytest.approx(6.0)

    def test_outside_raises(self):
        region = ip.RadialRegion(intervals=((2.0, 10.0),))
        with pytest.raises(ip.OutsideRegion):
            ip.max_inscribed_radius(region, 1.0)
        with pytest.raises(ip.OutsideRegion):
            ip.max_inscribed_radius(region, 10.0)  # boundary is not interior

    def test_region_validation(self):
        with pytest.raises(ip.DomainError):
            ip.RadialRegion(intervals=((5.0, 4.0),))
        with pytest.raises(ip.DomainError):
            ip.RadialRegion(intervals=((0.0, 5.0), (4.0, 8.0)))


class TestLowerTailBound:
    def test_pure_path_loss_closed_form(self):
        # step-fading quadrature path must reproduce the closed form
        # 1 - exp(-pi lam F(y0) min(rbar^2, (1/z - c)^(2/alpha)))
        shape = ip.scenario_scattered(1.0)
        region = ip.subharmonic_region(shape, 0.002)
        rbar = ip.max_inscribed_radius(region, 3.0)
        for alpha in (2.0, 4.0):
            ch = unit_channel(alpha, 1.0)
            for z in (0.05, 0.3, 0.9):
                got = ip.lower_tail_bound(shape, ch, 1e-2, 3.0, z, region=region)
                expected = -math.expm1(
                    -math.pi * 1e-2 * float(shape.eval_f(3.0))
                    * min(rbar**2, (1.0 / z - 1.0) ** (2.0 / alpha))
                )
                assert got == pytest.approx(expected, rel=1e-12)

    def test_trivial_above_threshold(self):
        shape = ip.scenario_scattered(1.0)
        ch = unit_channel(4, 1.0)
        assert ip.lower_tail_bound(shape, ch, 1e-2, 3.0, 1.0) == 0.0
        assert ip.lower_tail_bound(shape, ch, 1e-2, 3.0, 2.5) == 0.0

    def test_nonincreasing_in_z(self):
        shape = ip.scenario_scattered(1.0)
        region = ip.subharmonic_region(shape, 0.002)
        ch = rayleigh_channel(4, 1.0)
        zs = np.geomspace(1e-3, 1.0, 12)
        vals = [ip.lower_tail_bound(shape, ch, 1e-2, 3.0, z, region=region) for z in zs]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_infinite_inscribed_radius_path(self):
        # constant shape: region is the whole plane, rbar = inf; integral
        # has the closed form int_0^inf r e^(-z(c + r^2)) dr = e^(-zc)/(2z)
        shape = ip.constant_shape(1.0)
        ch = rayleigh_channel(2, 1.0)
        z = 0.25
        got = ip.lower_tail_bound(shape, ch, 1e-3, 5.0, z)
        expected = -math.expm1(-2.0 * math.pi * 1e-3 * math.exp(-z) / (2.0 * z))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_outside_region_propagates(self):
        shape = ip.scenario_scattered(1.0)
        ch = rayleigh_channel(4, 1.0)
        with pytest.raises(ip.OutsideRegion):
            ip.lower_tail_bound(shape, ch, 1e-2, 0.2, 0.1)

    @pytest.mark.parametrize("shape,quadrature", [
        (ip.scenario_scattered(1.0), "integrate_interval"),
        (ip.constant_shape(1.0), "integrate_semi_infinite"),
    ])
    def test_unconverged_quadrature_raises(self, monkeypatch, shape, quadrature):
        monkeypatch.setattr(bounds, quadrature, _unconverged)
        with pytest.raises(ip.NonConvergence) as info:
            ip.lower_tail_bound(shape, rayleigh_channel(4, 1.0), 1e-2, 3.0, 0.1)
        assert not info.value.result.converged

    def test_needs_tail_function(self):
        fading = ip.FadingLaw.custom(lambda rng, n: rng.exponential(1.0, n))
        ch = ip.ChannelModel(alpha=4, c=1.0, fading=fading)
        with pytest.raises(ip.DomainError):
            ip.lower_tail_bound(ip.scenario_scattered(1.0), ch, 1e-2, 3.0, 0.1)


class TestMarkovUpperTail:
    def test_clamped_at_mean(self):
        shape = ip.constant_shape(1.0)
        ch = rayleigh_channel(4, 1.0)
        mean = ip.mean_interference(shape, ch, 1e-3, 5.0).value
        assert ip.markov_upper_tail(shape, ch, 1e-3, 5.0, mean) == 1.0

    def test_stationary_value(self):
        shape = ip.constant_shape(1.0)
        ch = rayleigh_channel(4, 1.0)
        got = ip.markov_upper_tail(shape, ch, 1e-3, 5.0, 1.0)
        assert got == pytest.approx(1e-3 * math.pi**2 / 2.0, rel=1e-12)

    def test_unconverged_driving_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "interference_driving", _unconverged)
        with pytest.raises(ip.NonConvergence) as info:
            ip.markov_upper_tail(ip.scenario_scattered(50.0), rayleigh_channel(2, 1.0),
                                 1e-3, 10.0, 1.0)
        assert not info.value.result.converged

    def test_inverse_in_z_before_clamp(self):
        shape = ip.scenario_scattered(50.0)
        ch = rayleigh_channel(2, 1.0)
        zs = np.geomspace(0.05, 5.0, 8)
        vals = np.array([ip.markov_upper_tail(shape, ch, 1e-3, 10.0, z) for z in zs])
        unclamped = vals < 1.0
        ratios = vals[unclamped] * zs[unclamped]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)

    def test_divergent_regime_propagates(self):
        ch = rayleigh_channel(2, 1.0)
        with pytest.raises(ip.DivergentIntegral):
            ip.markov_upper_tail(ip.constant_shape(1.0), ch, 1e-3, 5.0, 1.0)

    def test_dominates_empirical_tail_alpha2(self):
        # one-sided Monte-Carlo check across a z sweep
        shape = ip.scenario_scattered(1.0)
        ch = rayleigh_channel(2, 1.0)
        lam, y0, trials = 5e-2, 3.0, 2 * 10**4
        link = ip.LinkConfig(lam, y0, 10.0, 0.5, math.inf)
        mean = ip.mean_interference(shape, ch, lam, y0).value
        z_grid = mean * np.geomspace(0.2, 20.0, 8)
        out = ip.simulate(shape, ch, link, ip.SimConfig(trials, 404), z_grid=z_grid)
        for z in z_grid:
            z = float(z)
            upper = ip.markov_upper_tail(shape, ch, lam, y0, z)
            sigma = math.sqrt(max(out.tail_freq[z] * (1 - out.tail_freq[z]), 1e-6) / trials)
            assert out.tail_freq[z] <= upper + 3.0 * sigma
