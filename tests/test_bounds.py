import math

import numpy as np
import pytest

import isoppp as ip
from isoppp import bounds
from isoppp.shapes import _SCENARIOS
from conftest import SCENARIO_PARAMS, rayleigh_channel, unit_channel


def _on_scale_grid(shape):
    return shape, shape.scale / 256.0


# shapes and grid steps whose regions are pinned: every catalogued scenario
# on a grid of scale/256, then other parameters
PINNED_REGION_SHAPES = {
    **{name: _on_scale_grid(build(**SCENARIO_PARAMS[name])) for name, build in _SCENARIOS.items()},
    "fig3@1": (ip.scenario_finite_network(500.0, 800.0), 1.0),
    "A(50,80)@0.25": (ip.scenario_finite_network(50.0, 80.0), 0.25),
    "powerTail(0.5,50)": _on_scale_grid(ip.power_tail_shape(0.5, 50.0)),
}


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

    @pytest.mark.parametrize("scale", [10.0**k for k in range(-3, 8)])
    def test_region_in_units_of_the_scale(self, scale):
        # r f(r) has its minimum at r = scale for C and for powerTail(2) and
        # its maximum there for D, so on a grid of scale/256 the regions are
        # [257/256, inf) and [0, 255/256) scales at every scale; logDecay's
        # region starts at 203/256 scales
        step = scale / 256.0
        for shape in (ip.scenario_scattered(scale), ip.power_tail_shape(2.0, scale)):
            (lo, hi), = ip.subharmonic_region(shape, step).intervals
            assert lo == pytest.approx(257.0 * step, rel=1e-12) and math.isinf(hi)
        (lo, hi), = ip.subharmonic_region(ip.log_decay_shape(scale), step).intervals
        assert lo == pytest.approx(203.0 * step, rel=1e-12) and math.isinf(hi)
        (lo, hi), = ip.subharmonic_region(ip.scenario_carrier_sense(scale**-4.0, 4.0),
                                          step).intervals
        assert lo == 0.0 and hi == pytest.approx(255.0 * step, rel=1e-12)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_non_finite_grid_step_is_domain_error(self, step):
        with pytest.raises(ip.DomainError, match="grid_step must be finite"):
            ip.subharmonic_region(ip.scenario_scattered(100.0), step)

    def test_infinite_derivative_at_origin(self):
        # D with alpha < 1 has F'(0) = inf; the test reads differences of F
        # alone, so no warning escapes (warnings are errors here) and the
        # convex rise from the origin is found, up to r f's maximum at scale
        shape = ip.scenario_carrier_sense(1e-5, 0.5)
        step = shape.scale / 256.0
        assert ip.subharmonic_region(shape, step).intervals == ((0.0, 255.0 * step),)

    @pytest.mark.parametrize("r0", [1e-300, 1e300])
    def test_power_tail_region_at_extreme_knee(self, r0):
        # the same region in units of the scale as at every other knee
        step = r0 / 256.0
        assert ip.subharmonic_region(ip.power_tail_shape(2.0, r0), step).intervals == (
            (257.0 * step, math.inf),)

    @pytest.mark.parametrize("scenario, intervals", [
        ("A", ((0.0, 493.75), (665.625, 793.75), (806.25, math.inf))),
        ("B", ((0.0, 7.8125), (21.875, 28.125), (32.8125, 196.875), (314.0625, 396.875),
               (403.125, math.inf))),
        ("C", ((100.390625, math.inf),)),
        ("D", ((0.0, 17.713330060934585),)),
        ("constant", ((0.0, math.inf),)),
        ("powerTail", ((50.1953125, math.inf),)),
        ("logDecay", ((79.296875, math.inf),)),
        ("fig3@1", ((0.0, 498.0), (664.0, 798.0), (802.0, math.inf))),
        ("A(50,80)@0.25", ((0.0, 49.5), (66.5, 79.5), (80.5, math.inf))),
        # r f rises from r = 2 r0 on, where the grid of twice the scale ends
        ("powerTail(0.5,50)", ()),
    ])
    def test_catalogued_regions_pinned(self, scenario, intervals):
        shape, step = PINNED_REGION_SHAPES[scenario]
        assert ip.subharmonic_region(shape, step).intervals == intervals

    def test_criterion7_regions_pinned(self):
        assert ip.subharmonic_region(ip.scenario_scattered(1.0), 0.002).intervals == (
            (1.002, math.inf),)
        assert ip.subharmonic_region(ip.scenario_carrier_sense(1e-5, 4.0), 0.05).intervals == (
            (0.0, 17.75),)

    def test_knots_are_excluded(self):
        shape = ip.scenario_finite_network(50.0, 80.0)
        region = ip.subharmonic_region(shape, 0.25)
        assert region.intervals  # convex rolloff half plus the empty outside
        for knot in shape.knots:
            assert all(not (lo <= knot <= hi) for lo, hi in region.intervals)

    def test_one_point_run_is_dropped(self):
        # knots 2.6 steps apart leave one qualifying grid point (31) between
        # them: a run with no width, not the invalid interval (31, 31)
        shape = ip.scenario_finite_network(29.5, 32.1)
        region = ip.subharmonic_region(shape, 1.0)
        assert region.intervals == ((0.0, 28.0), (34.0, math.inf))
        with pytest.raises(ip.OutsideRegion):
            ip.lower_tail_bound(shape, rayleigh_channel(4, 1.0), 1e-2, 31.0, 0.1, region=region)


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

    @pytest.mark.parametrize("interval", [(math.nan, 5.0), (0.0, math.nan)])
    def test_nan_bound_is_domain_error(self, interval):
        with pytest.raises(ip.DomainError):
            ip.RadialRegion(intervals=(interval,))


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

    @pytest.mark.parametrize("z", [0.01, 0.1, 0.5])
    def test_unit_fading_unbounded_region_cuts_at_threshold(self, z):
        # constant shape: rbar = inf, so the step tail's cut radius
        # r_cut = (1/z - c)^(1/alpha) bounds the disc alone
        shape, alpha, c, lam = ip.constant_shape(1.0), 4.0, 1.0, 1e-3
        got = ip.lower_tail_bound(shape, unit_channel(alpha, c), lam, 5.0, z)
        r_cut = (1.0 / z - c) ** (1.0 / alpha)
        assert got == pytest.approx(-math.expm1(-math.pi * lam * r_cut**2), rel=1e-13)

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

    def test_non_finite_level_is_domain_error(self):
        with pytest.raises(ip.DomainError, match="z must be finite"):
            ip.lower_tail_bound(ip.scenario_scattered(1.0), rayleigh_channel(4, 1.0), 1e-2, 3.0,
                                math.nan)


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

    @pytest.mark.parametrize("lam, z, message", [
        (-1e-3, 1.0, "lambda_scale must be positive"),
        (math.nan, 1.0, "lambda_scale must be finite"),
        (1e-3, math.nan, "z must be finite"),
    ])
    def test_bad_intensity_or_level_is_domain_error(self, lam, z, message):
        with pytest.raises(ip.DomainError, match=message):
            ip.markov_upper_tail(ip.scenario_scattered(100.0), rayleigh_channel(4, 1.0), lam,
                                 0.0, z)

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
