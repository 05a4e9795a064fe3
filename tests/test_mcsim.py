import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

import isoppp as ip
from isoppp import mcsim, numerics
from isoppp.shapes import _SCENARIOS
from conftest import SCENARIO_PARAMS, campbell_mean, rayleigh_channel, unit_channel


def _unconverged(monkeypatch):
    """Make every ``integrate_interval`` in ``mcsim`` report non-convergence."""
    real = mcsim.integrate_interval

    def flipped(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), converged=False)

    monkeypatch.setattr(mcsim, "integrate_interval", flipped)


class TestTruncationRadius:
    def test_compact_support_truncates_at_support(self):
        shape = ip.scenario_finite_network(400.0, 600.0)
        res = ip.truncation_radius(shape, rayleigh_channel(2, 1.0), 50.0)
        assert res.radius == 600.0
        assert res.mean_tail_bound_per_intensity == 0.0

    def test_scattered_bound_below_tolerance(self, scattered100):
        ch = rayleigh_channel(2, 1.0)
        res = ip.truncation_radius(scattered100, ch, 0.0)
        mean = ip.interference_driving(scattered100, 0.0, 1.0, 2).value
        assert math.isfinite(res.radius)
        assert res.mean_tail_bound_per_intensity <= 1e-3 * mean

    def test_divergent_regime_refused(self):
        with pytest.raises(ip.NoFiniteTruncation):
            ip.truncation_radius(ip.constant_shape(1.0), rayleigh_channel(2, 1.0), 0.0)

    def test_alpha4_nondecaying_is_fine(self):
        res = ip.truncation_radius(ip.constant_shape(1.0), rayleigh_channel(4, 1.0), 5.0)
        assert math.isfinite(res.radius)

    def test_zero_c_needs_override(self):
        with pytest.raises(ip.DomainError):
            ip.truncation_radius(ip.scenario_scattered(10.0), rayleigh_channel(4, 0.0), 0.0)

    def test_unconverged_reference_raises(self, monkeypatch, scattered100):
        unconverged = ip.IntegralResult(1.0, 1.0, False, 10**6)
        monkeypatch.setattr(mcsim, "interference_driving", lambda *args: unconverged)
        with pytest.raises(ip.NonConvergence) as info:
            ip.truncation_radius(scattered100, rayleigh_channel(2, 1.0), 0.0)
        assert info.value.result is unconverged

    def test_unconverged_truncated_mean_raises(self, monkeypatch, scattered100):
        # alpha 3 takes the same exact-mean reference as alpha 2 and 4
        real = mcsim.interference_driving

        def unconverged(*args):
            return dataclasses.replace(real(*args), converged=False)

        monkeypatch.setattr(mcsim, "interference_driving", unconverged)
        with pytest.raises(ip.NonConvergence, match="truncation reference"):
            ip.truncation_radius(scattered100, rayleigh_channel(3, 1.0), 0.0)

    def test_exhausted_doublings_raise(self, monkeypatch, scattered100):
        monkeypatch.setattr(mcsim, "_tail_mean_bound", lambda *args: math.inf)
        with pytest.raises(ip.NoFiniteTruncation, match="within 60 doublings"):
            ip.truncation_radius(scattered100, rayleigh_channel(4, 1.0), 0.0)

    def test_above_alpha_max_needs_a_radius_override(self, scattered100):
        # a compactly supported shape needs no reference and truncates at its edge
        ch = rayleigh_channel(9.5, 1.0)
        compact = ip.scenario_finite_network(400.0, 600.0)
        assert ip.truncation_radius(compact, ch, 0.0).radius == 600.0
        link = ip.LinkConfig(1e-3, 50.0, 10.0, 0.5)
        with pytest.raises(ip.UnsupportedAlpha, match="--max-radius"):
            ip.simulate(scattered100, ch, link, ip.SimConfig(10, 1))
        out = ip.simulate(scattered100, ch, link, ip.SimConfig(10, 1, max_radius_override=800.0))
        assert out.max_radius == 800.0 and math.isfinite(out.truncation_bias_bound)


class TestTailMeanBound:
    """Under a radius override the bias bound is inf where the neglected mean
    is infinite, and no numpy warning escapes (warnings are errors here)."""

    @pytest.mark.parametrize("shape,channel,y0,radius", [
        (ip.constant_shape(), rayleigh_channel(2, 1.0), 0.0, 300.0),
        (ip.log_decay_shape(100.0), rayleigh_channel(2, 1.0), 0.0, 500.0),
        (ip.scenario_scattered(100.0), rayleigh_channel(4, 0.0), 100.0, 50.0),
    ], ids=["constant-a2", "logDecay-a2", "C-a4-c0-pole"])
    def test_infinite_neglected_mean(self, shape, channel, y0, radius):
        sim = ip.SimConfig(10, 1, max_radius_override=radius)
        out = ip.simulate(shape, channel, ip.LinkConfig(1e-3, y0, 10.0, 0.5), sim)
        assert out.truncation_bias_bound == math.inf

    def test_finite_tail_matches_closed_form(self):
        bound = mcsim._tail_mean_bound(ip.constant_shape(), rayleigh_channel(4, 1.0), 0.0, 1e3)
        assert bound == pytest.approx(2.0 * math.pi / (2.0 * 1e3**2), rel=1e-6)


def _sampling_discs(name):
    """(name, radius) cases: the support end, else 4 and 64 shape scales."""
    shape = _SCENARIOS[name](**SCENARIO_PARAMS[name])
    if shape.support_end is not None:
        return [(name, shape.support_end)]
    return [(name, k * shape.scale) for k in (4.0, 64.0)]


class TestPointProcessSampler:
    def test_unconverged_mass_raises(self, monkeypatch):
        _unconverged(monkeypatch)
        with pytest.raises(ip.NonConvergence) as info:
            ip.PointProcessSampler(ip.scenario_scattered(100.0), 1e-3, 1e3)
        assert info.value.result is not None

    def test_mean_count_formula(self):
        sampler = ip.PointProcessSampler(ip.constant_shape(1.0), 1e-3, 100.0)
        assert sampler.mean_count == pytest.approx(10.0 * math.pi, rel=1e-10)

    def test_sample_mean_count(self):
        sampler = ip.PointProcessSampler(ip.constant_shape(1.0), 1e-3, 100.0)
        rng = np.random.default_rng(42)
        draws = 10**4
        counts = [sampler.sample(rng)[0].size for _ in range(draws)]
        sigma = math.sqrt(sampler.mean_count / draws)
        assert abs(np.mean(counts) - 10.0 * math.pi) <= 3.0 * sigma

    def test_no_radius_beyond_support(self):
        shape = ip.scenario_finite_network(400.0, 600.0)
        sampler = ip.PointProcessSampler(shape, 1e-2, 5000.0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            radii, _ = sampler.sample(rng)
            assert radii.size == 0 or radii.max() <= 600.0

    def test_radial_histogram_matches_profile(self):
        # chi-square goodness of fit of sampled radii against r F(r) for the
        # carrier-sense profile; expected masses by independent quadrature
        shape = ip.scenario_carrier_sense(1e-5, 4.0)
        r_max = 60.0
        sampler = ip.PointProcessSampler(shape, 1e-2, r_max)
        rng = np.random.default_rng(11)
        pooled = np.concatenate([sampler.sample(rng)[0] for _ in range(3000)])
        edges = np.linspace(0.0, r_max, 25)
        norm, _ = quad(lambda r: r * float(shape.eval_f(r)), 0.0, r_max, limit=200)
        expected = np.array([
            quad(lambda r: r * float(shape.eval_f(r)), lo, hi, limit=200)[0] / norm
            for lo, hi in zip(edges[:-1], edges[1:])
        ]) * pooled.size
        observed, _ = np.histogram(pooled, bins=edges)
        stat = float(np.sum((observed - expected) ** 2 / expected))
        p_value = float(chi2.sf(stat, len(edges) - 2))
        assert p_value > 0.01

    def test_angles_uniform(self):
        sampler = ip.PointProcessSampler(ip.constant_shape(1.0), 0.1, 50.0)
        rng = np.random.default_rng(3)
        pooled = np.concatenate([sampler.sample(rng)[1] for _ in range(100)])
        observed, _ = np.histogram(pooled, bins=np.linspace(0, 2 * math.pi, 17))
        expected = pooled.size / 16.0
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert float(chi2.sf(stat, 15)) > 0.01

    def test_distorted_table_rejected(self):
        # an inverse that bends the uniforms (u -> u**1.05) misplaces up to
        # 19% of a bin's mass; every rebuild keeps the bend, so the build fails
        class Distorted(ip.PointProcessSampler):
            def _build_table(self, knot_count):
                super()._build_table(knot_count)
                inverse = self._inverse
                self._inverse = lambda u: inverse(np.asarray(u, dtype=float) ** 1.05)

        with pytest.raises(ip.DomainError):
            Distorted(ip.scenario_scattered(100.0), 1e-3, 2000.0)

    @pytest.mark.parametrize("name, radius", [case for name in sorted(SCENARIO_PARAMS)
                                              for case in _sampling_discs(name)])
    def test_inverse_near_origin_holds_its_share(self, name, radius):
        # the 64-bin check does not see the table's first cell: an inverse
        # linear in u between 2^14 + 1 equal quantiles (uniform in r there,
        # not proportional to r) passed it and missed these shares by 100%
        shape = _SCENARIOS[name](**SCENARIO_PARAMS[name])
        sampler = ip.PointProcessSampler(shape, 1e-3, radius)
        mass = sampler.mean_count / (2.0 * math.pi * 1e-3)
        levels = np.array([1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
        for u, r in zip(levels, sampler._inverse(levels)):
            below, _ = quad(lambda x: x * float(shape.eval_f(x)), 0.0, r, epsabs=0.0,
                            epsrel=1e-12, limit=200,
                            points=[k for k in shape.knots if 0.0 < k < r] or None)
            assert below / mass == pytest.approx(u, rel=1e-4)

    @pytest.mark.parametrize("lam, radius", [(math.nan, 100.0), (math.inf, 100.0),
                                             (1e-3, math.nan), (1e-3, math.inf)])
    def test_non_finite_intensity_or_radius_is_domain_error(self, lam, radius):
        with pytest.raises(ip.DomainError, match="must be finite"):
            ip.PointProcessSampler(ip.scenario_scattered(100.0), lam, radius)

    @pytest.mark.parametrize("shape, radius", [
        (ip.scenario_scattered(1e-300), 1e8),  # split at scale 2^k, the mass still underflows
        (ip.scenario_scattered(100.0), 1e-300),
        (ip.scenario_scattered(1e-300), 100.0),
        (ip.power_tail_shape(1e300, 50.0), 100.0),
        (ip.power_tail_shape(2.0, 1e-300), 100.0),
    ])
    def test_massless_disc_is_domain_error(self, shape, radius):
        with pytest.raises(ip.DomainError, match="mass of 0"):
            ip.PointProcessSampler(shape, 1e-3, radius)

    def test_wide_disc_keeps_its_mass(self):
        # 1e6 scales wide: the quadratures split at scale 2^k, so their nodes
        # still find r F(r) = r exp(-r/100), of mass 100^2, near the origin
        sampler = ip.PointProcessSampler(ip.scenario_scattered(100.0), 1e-3, 1e8)
        assert sampler.mean_count == pytest.approx(2.0 * math.pi * 1e-3 * 1e4, rel=1e-12)

    @pytest.mark.parametrize("shape, radius", [(ip.constant_shape(), 1e6),
                                               (ip.scenario_carrier_sense(1e-300, 4.0), 1e76)])
    def test_too_many_points_is_domain_error(self, shape, radius):
        # refused before the table is built: 3.1e9 and 3.1e149 nodes a trial
        with pytest.raises(ip.DomainError, match="nodes expected a trial"):
            ip.PointProcessSampler(shape, 1e-3, radius)

    def test_one_shot_wrapper(self):
        rng = np.random.default_rng(9)
        radii, angles = ip.PointProcessSampler(ip.constant_shape(1.0), 1e-2, 30.0).sample(rng)
        assert radii.shape == angles.shape


class TestSimulate:
    def test_empty_network_never_in_outage(self):
        ch = rayleigh_channel(4, 1.0)
        link = ip.LinkConfig(1e-12, 0.0, 10.0, 0.5, math.inf)
        out = ip.simulate(ip.constant_shape(1.0), ch, link, ip.SimConfig(2000, 5),
                          want_outage=True)
        assert out.outage_freq == 0.0

    def test_stationary_mean_alpha4(self):
        ch = rayleigh_channel(4, 1.0)
        link = ip.LinkConfig(1e-3, 5.0, 10.0, 0.5, math.inf)
        out = ip.simulate(ip.constant_shape(1.0), ch, link, ip.SimConfig(10**4, 21))
        target = 1e-3 * math.pi**2 / 2.0
        assert abs(out.mean - target) <= 3.0 * out.mean_half_width95 / 1.96 + out.truncation_bias_bound

    @pytest.mark.parametrize("alpha,y0", [(2, 0.0), (4, 50.0)])
    def test_mean_against_analytic(self, scattered100, alpha, y0):
        ch = rayleigh_channel(alpha, 1.0)
        link = ip.LinkConfig(1e-3, y0, 10.0, 0.5, math.inf)
        out = ip.simulate(scattered100, ch, link, ip.SimConfig(10**4, 33))
        target = ip.mean_interference(scattered100, ch, 1e-3, y0).value
        sigma = out.mean_half_width95 / 1.96
        assert abs(out.mean - target) <= 3.0 * sigma + out.truncation_bias_bound

    def test_mean_at_alpha3_against_campbell(self, scattered100):
        # no closed form at alpha 3: the truncation reference is the angular
        # rule's mean, the target the Campbell oracle's over the sampling disc
        ch = rayleigh_channel(3, 1.0)
        link = ip.LinkConfig(1e-3, 50.0, 10.0, 0.5, math.inf)
        out = ip.simulate(scattered100, ch, link, ip.SimConfig(2 * 10**4, 303))
        target = campbell_mean(scattered100, 3, 1.0, 1e-3, 50.0, out.max_radius)
        sigma = out.mean_half_width95 / 1.96
        assert abs(out.mean - target) <= 3.0 * sigma + out.truncation_bias_bound

    def test_mean_at_alpha3_against_analytic(self, scattered100):
        # criterion 4's configuration and trial count at alpha 3
        ch = rayleigh_channel(3, 1.0)
        out = ip.simulate(scattered100, ch, ip.LinkConfig(1e-3, 50.0, 10.0, 0.5),
                          ip.SimConfig(10**5, 9301))
        target = ip.mean_interference(scattered100, ch, 1e-3, 50.0).value
        sigma = out.mean_half_width95 / 1.96
        assert abs(out.mean - target) <= 3.0 * sigma + out.truncation_bias_bound

    def test_laplace_against_analytic(self, scattered100):
        ch = rayleigh_channel(2, 1.0)
        link = ip.LinkConfig(1e-3, 10.0, 10.0, 0.5, math.inf)
        s = 1.0
        out = ip.simulate(scattered100, ch, link, ip.SimConfig(10**4, 55), s_grid=[s])
        target = ip.laplace_transform(scattered100, ch, 1e-3, 10.0, s)
        sigma = out.laplace_half_width95[s] / 1.96
        # truncation removes interference, so exp(-sI) is biased up by at
        # most s * E[neglected I]
        assert abs(out.laplace_est[s] - target) <= 3.0 * sigma + s * out.truncation_bias_bound

    def test_outage_against_analytic(self, fig3_shape):
        ch = rayleigh_channel(2, 1.0)
        link = ip.LinkConfig(1e-3, 600.0, 10.0, 0.5, math.inf)
        out = ip.simulate(fig3_shape, ch, link, ip.SimConfig(4000, 77), want_outage=True)
        target = ip.outage_exact(fig3_shape, ch, link)
        sigma = out.outage_half_width95 / 1.96
        slack = link.beta * (ch.c + link.d**2) * out.truncation_bias_bound
        assert abs(out.outage_freq - target) <= 3.0 * sigma + slack

    @pytest.mark.parametrize("alpha, y0, seed", [(4, 850.0, 41), (4, 900.0, 42), (4, 1000.0, 43),
                                                 (2, 1500.0, 44)])
    def test_outage_beyond_network_edge(self, fig3_shape, alpha, y0, seed):
        # outages of 2e-5 to 1e-4 (alpha 4), which 4,000 coins could not resolve
        ch = rayleigh_channel(alpha, 1.0)
        link = ip.LinkConfig(1e-3, y0, 10.0, 0.5, math.inf)
        out = ip.simulate(fig3_shape, ch, link, ip.SimConfig(4000, seed), want_outage=True)
        target = ip.outage_exact(fig3_shape, ch, link)
        sigma = out.outage_half_width95 / 1.96
        slack = link.beta * (ch.c + link.d**alpha) * out.truncation_bias_bound
        assert abs(out.outage_freq - target) <= 3.0 * sigma + slack
        assert out.outage_half_width95 <= 0.05 * out.outage_freq

    def test_unit_fading_supported(self, scattered100):
        ch = unit_channel(2, 1.0)
        link = ip.LinkConfig(1e-3, 0.0, 10.0, 0.5, math.inf)
        out = ip.simulate(scattered100, ch, link, ip.SimConfig(4000, 13))
        target = ip.mean_interference(scattered100, ch, 1e-3, 0.0).value
        assert abs(out.mean - target) <= 3.0 * out.mean_half_width95 / 1.96 + out.truncation_bias_bound

    def test_noise_limited_outage(self, scattered100):
        # tiny density, finite SNR: outage frequency approaches the noise floor
        ch = rayleigh_channel(4, 1.0)
        link = ip.LinkConfig(1e-12, 0.0, 10.0, 0.5, 10.0)
        out = ip.simulate(scattered100, ch, link, ip.SimConfig(10**4, 99), want_outage=True)
        floor = 1.0 - math.exp(-0.5 / 10.0)
        assert abs(out.outage_freq - floor) <= 3.0 * out.outage_half_width95 / 1.96 + 1e-6


class TestReproducibility:
    def test_identical_outcome_for_identical_config(self, scattered100):
        ch = rayleigh_channel(2, 1.0)
        link = ip.LinkConfig(1e-3, 10.0, 10.0, 0.5, math.inf)
        cfg = ip.SimConfig(trials=500, seed=1234)
        first = ip.simulate(scattered100, ch, link, cfg, z_grid=[0.01, 0.1], want_outage=True)
        second = ip.simulate(scattered100, ch, link, cfg, z_grid=[0.01, 0.1], want_outage=True)
        assert first == second

    def test_seed_changes_outcome(self, scattered100):
        ch = rayleigh_channel(2, 1.0)
        link = ip.LinkConfig(1e-3, 10.0, 10.0, 0.5, math.inf)
        a = ip.simulate(scattered100, ch, link, ip.SimConfig(500, 1))
        b = ip.simulate(scattered100, ch, link, ip.SimConfig(500, 2))
        assert a.mean != b.mean

    def test_one_generator_per_run(self, monkeypatch, scattered100):
        made = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        link = ip.LinkConfig(1e-3, 10.0, 10.0, 0.5, math.inf)
        ip.simulate(scattered100, rayleigh_channel(2, 1.0), link, ip.SimConfig(200, 3),
                    z_grid=[0.01], s_grid=[1.0], want_outage=True)
        assert made == [(3,)]

    def test_interference_stream_independent_of_requests(self, scattered100):
        # the outage needs no draw before the field is complete, so
        # requesting it must change no other statistic
        ch = rayleigh_channel(2, 1.0)
        link = ip.LinkConfig(1e-3, 10.0, 10.0, 0.5, math.inf)
        grids = {"z_grid": [0.01, 0.1], "s_grid": [1.0]}
        plain = ip.simulate(scattered100, ch, link, ip.SimConfig(500, 7), **grids)
        with_outage = ip.simulate(scattered100, ch, link, ip.SimConfig(500, 7), want_outage=True,
                                  **grids)
        assert plain.mean == with_outage.mean
        assert dataclasses.replace(with_outage, outage_freq=None, outage_half_width95=None) == plain


@pytest.mark.slow
def test_sparse_dense_witness():
    """Power tail nu = 1.5 at alpha = 2: the point count keeps growing like
    sqrt(R) while the interference mean has already converged."""
    shape = ip.power_tail_shape(1.5, 1.0)
    ch = rayleigh_channel(2, 1.0)

    # counts grow ~ R^0.5 per decade
    mean_counts = {}
    for r_max in (1e2, 1e3, 1e4):
        sampler = ip.PointProcessSampler(shape, 1.0, r_max)
        rng = np.random.default_rng(5)
        counts = [sampler.sample(rng)[0].size for _ in range(400)]
        mean_counts[r_max] = (np.mean(counts), sampler.mean_count)
        sigma = math.sqrt(sampler.mean_count / 400)
        assert abs(mean_counts[r_max][0] - sampler.mean_count) <= 4.0 * sigma
    ratio_expected = mean_counts[1e4][1] / mean_counts[1e3][1]
    assert ratio_expected == pytest.approx(math.sqrt(10.0), rel=0.1)
    assert mean_counts[1e4][0] / mean_counts[1e3][0] >= 2.0

    # mean interference changes by < 1% between R=1e3 and R=1e4 (up to MC noise)
    link = ip.LinkConfig(1.0, 0.0, 10.0, 0.5, math.inf)
    trials = 2 * 10**4
    out3 = ip.simulate(shape, ch, link, ip.SimConfig(trials, 101, max_radius_override=1e3))
    out4 = ip.simulate(shape, ch, link, ip.SimConfig(trials, 202, max_radius_override=1e4))
    sigma_diff = math.hypot(out3.mean_half_width95, out4.mean_half_width95) / 1.96
    assert abs(out4.mean - out3.mean) <= 0.01 * out4.mean + 3.0 * sigma_diff


@pytest.mark.parametrize("grids, message", [
    ({"z_grid": [0.01, math.nan]}, "z must be finite, got nan"),
    ({"z_grid": [math.inf]}, "z must be finite, got inf"),
    ({"s_grid": [0.5, -5.0]}, "s must be nonnegative, got -5.0"),
    ({"s_grid": [math.nan]}, "s must be finite, got nan"),
])
def test_bad_level_or_transform_variable_refused_before_sampling(monkeypatch, scattered100,
                                                                 grids, message):
    # P(I >= nan) and E[exp(5 I)] are no estimates; refused before the disc is built
    def no_build(*args, **kwargs):
        raise AssertionError("the disc was built before the grids were checked")

    monkeypatch.setattr(mcsim, "truncation_radius", no_build)
    monkeypatch.setattr(mcsim, "PointProcessSampler", no_build)
    with pytest.raises(ip.DomainError, match=message):
        ip.simulate(scattered100, rayleigh_channel(4, 1.0), ip.LinkConfig(1e-3, 0.0, 10.0, 0.5),
                    ip.SimConfig(50, 1), **grids)


def test_sim_config_validation():
    with pytest.raises(ip.DomainError):
        ip.SimConfig(trials=0, seed=1)
    with pytest.raises(ip.DomainError):
        ip.SimConfig(trials=10, seed=1, max_radius_override=math.nan)
    with pytest.raises(ip.DomainError):
        ip.SimConfig(trials=10, seed=1, max_radius_override=math.inf)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sim_config_seed_outside_64_bits(seed):
    with pytest.raises(ip.DomainError, match="seed must be a nonnegative 64-bit integer"):
        ip.SimConfig(trials=10, seed=seed)


def test_simulate_needs_a_fading_sampler(scattered100):
    channel = ip.ChannelModel(alpha=4, c=1.0, fading=ip.FadingLaw(kind="custom"))
    with pytest.raises(ip.DomainError, match="fading law has no sampler"):
        ip.simulate(scattered100, channel, ip.LinkConfig(1e-3, 0.0, 10.0, 0.5),
                    ip.SimConfig(10, 1))


def test_truncated_mean_takes_overflow_as_its_limit():
    # the truncation reference's kernel: at alpha = 1e300 every d^alpha beyond
    # unit distance overflows to inf, where the path loss is 0; RuntimeWarnings
    # are errors here
    r = np.array([0.0, 1e-3, 29.5, 30.0, 30.5, 200.0, 1e7])
    value = numerics._kernel_angular(r, 1.0, 30.0, 1e300)
    assert np.all((0.0 <= value) & (value < math.inf))
    assert np.all(value[[0, 1, 5, 6]] == 0.0) and np.all(value[2:5] > 0.0)


@pytest.mark.parametrize("fading", [ip.FadingLaw.rayleigh(),
                                    ip.FadingLaw.custom(lambda rng, n: rng.exponential(1.0, n))],
                         ids=["conditional", "coin"])
def test_one_trial_has_infinite_half_widths(scattered100, fading):
    out = ip.simulate(scattered100, ip.ChannelModel(2, 1.0, fading),
                      ip.LinkConfig(1e-3, 10.0, 10.0, 0.5, math.inf), ip.SimConfig(1, 3),
                      z_grid=[1e-3], s_grid=[1.0], want_outage=True)
    assert out.mean_half_width95 == out.outage_half_width95 == math.inf
    assert out.tail_half_width95 == {1e-3: math.inf}
    assert out.laplace_half_width95 == {1.0: math.inf}


def test_sim_config_radius_override_is_keyword_only():
    # a third positional argument is refused, never taken as a radius
    with pytest.raises(TypeError):
        ip.SimConfig(100, 1, 1e-3)
    assert ip.SimConfig(100, 1, max_radius_override=1e3).max_radius_override == 1e3


@pytest.mark.parametrize("y0", [1e2, 1e4, 1e6])
def test_near_receiver_path_loss_keeps_full_precision(y0):
    # nodes within 3 units of the receiver on either side of its axis, each at
    # the polar position sample() reports: (r, turn * 2 pi)
    rng = np.random.default_rng(5)
    radii = y0 + rng.uniform(-3.0, 3.0, 200)
    turns = (rng.uniform(-3.0, 3.0, 200) / (2.0 * math.pi * y0)) % 1.0
    loss = 1.0 / (1.0 + mcsim._distance2(radii, turns, y0) ** 1.5)
    with mp.workdps(50):
        for r, t, got in zip(radii, turns, loss):
            r, y, angle = mp.mpf(float(r)), mp.mpf(y0), mp.mpf(float(t * mcsim._TWO_PI))
            want = 1 / (1 + (r * r + y * y - 2 * r * y * mp.cos(angle)) ** 1.5)
            assert abs(got / want - 1) <= 4e-15


def _per_trial_simulate(shape, channel, link, sim_cfg, *, z_grid=None, s_grid=None,
                        want_outage=False):
    """``simulate`` as its contract reads, one trial at a time: blocks of
    max(1, floor(4096 / mean count)) trials, capped at the trials left, each
    drawing its Poisson counts, then its uniforms (radial quantiles, then
    turns) and then its fading in one call each; radii by ``np.interp`` on
    the sampler's table; each trial's path loss summed in a plain loop in
    draw order.  The outage is the mean of 1 - tail(x) for a fading law with
    a tail, else the frequency of coins drawn after every trial."""
    alpha, c, y0, lam = channel.alpha, channel.c, link.y0_norm, link.lambda_scale
    fading = channel.fading.sampler
    if sim_cfg.max_radius_override is not None:
        radius = sim_cfg.max_radius_override
        bias = lam * mcsim._tail_mean_bound(shape, channel, y0, radius)
    else:
        trunc = ip.truncation_radius(shape, channel, y0)
        radius, bias = trunc.radius, lam * trunc.mean_tail_bound_per_intensity
    sampler = ip.PointProcessSampler(shape, lam, radius)
    rng = np.random.default_rng(sim_cfg.seed)
    block = max(1, math.floor(4096 / sampler.mean_count))
    sums = []
    while len(sums) < sim_cfg.trials:
        counts = rng.poisson(sampler.mean_count, min(block, sim_cfg.trials - len(sums)))
        n = int(counts.sum())
        v = rng.random(2 * n)
        g = np.broadcast_to(np.asarray(fading(rng, n), dtype=float), (n,))
        radii = np.interp(v[:n], sampler._cum, sampler._grid)
        d2 = (radii - y0) ** 2 + 4.0 * y0 * radii * np.sin(math.pi * v[n:]) ** 2
        loss = g / (c + d2 ** (alpha / 2.0))
        start = 0
        for count in counts:
            total = 0.0
            for x in loss[start:start + count]:
                total += x
            sums.append(total)
            start += count
    interference = np.array(sums)
    outage = (None, None)
    if want_outage:
        x = link.beta * (1.0 / link.eta + interference * (c + link.d**alpha))
        if channel.fading.tail is not None:
            outage = mcsim._estimate(1.0 - np.asarray(channel.fading.tail(x), dtype=float))
        else:
            outage = mcsim._estimate(np.asarray(fading(rng, sim_cfg.trials), dtype=float) < x)
    tail = mcsim._per_key(z_grid, lambda z: mcsim._estimate(interference >= z))
    laplace = mcsim._per_key(s_grid, lambda s: mcsim._estimate(np.exp(-s * interference)))
    return ip.SimOutcome(*mcsim._estimate(interference), *tail, *outage, *laplace, bias,
                         sim_cfg.trials, radius)


_GAMMA_FADING = ip.FadingLaw.custom(lambda rng, n: rng.gamma(2.0, 0.5, n))


class TestBlockEvaluation:
    """The guide-table inverse and the vectorised per-trial sums change no
    bit of any outcome: ``simulate`` equals the loop that draws each block as
    documented, inverts with ``np.interp`` and sums each trial on its own."""

    @pytest.mark.parametrize("shape, channel, link, cfg, requests", [
        (ip.scenario_finite_network(500.0, 800.0), rayleigh_channel(2, 1.0),
         ip.LinkConfig(1e-3, 600.0, 10.0, 0.5, math.inf), ip.SimConfig(301, 5),
         {"want_outage": True}),
        (ip.scenario_finite_network(500.0, 800.0), rayleigh_channel(4, 1.0),
         ip.LinkConfig(1e-3, 400.0, 10.0, 0.5, 10.0), ip.SimConfig(257, 6),
         {"want_outage": True, "z_grid": [1e-4, 1e-3]}),
        (ip.scenario_scattered(100.0), rayleigh_channel(2, 1.0),
         ip.LinkConfig(1e-3, 50.0, 10.0, 0.5, math.inf), ip.SimConfig(1999, 655183525),
         {"z_grid": [0.01, 0.05], "s_grid": [1.0, 20.0]}),
        (ip.scenario_scattered(1.0), rayleigh_channel(4, 1.0),  # mostly empty trials
         ip.LinkConfig(1e-3, 3.0, 10.0, 0.5, math.inf), ip.SimConfig(3001, 7),
         {"want_outage": True, "z_grid": [1e-3]}),
        (ip.scenario_scattered(100.0), unit_channel(3, 1.0),
         ip.LinkConfig(1e-3, 20.0, 10.0, 0.5, math.inf), ip.SimConfig(1001, 8),
         {"s_grid": [0.5]}),
        (ip.scenario_carrier_sense(1e-5, 4.0),
         ip.ChannelModel(alpha=4, c=1.0, fading=_GAMMA_FADING),
         ip.LinkConfig(1e-2, 15.0, 10.0, 0.5, math.inf), ip.SimConfig(777, 9),
         {"want_outage": True}),
        (ip.power_tail_shape(1.5, 1.0), rayleigh_channel(2, 1.0),
         ip.LinkConfig(1.0, 0.0, 10.0, 0.5, math.inf),
         ip.SimConfig(203, 101, max_radius_override=1e3), {}),
        (ip.constant_shape(1.0),  # about 7,000 points a trial, more than a block
         ip.ChannelModel(alpha=4, c=1.0, fading=ip.FadingLaw.custom(lambda rng, n: 1.0)),
         ip.LinkConfig(0.1, 5.0, 10.0, 0.5, math.inf),
         ip.SimConfig(5, 10, max_radius_override=150.0), {"want_outage": True}),
        (ip.scenario_scattered(1.0),  # 0.006 points a trial: the whole block is empty
         ip.ChannelModel(alpha=4, c=1.0,
                         fading=ip.FadingLaw.custom(lambda rng, n: rng.exponential(1.0, n))),
         ip.LinkConfig(1e-3, 3.0, 10.0, 0.5, math.inf), ip.SimConfig(5, 7),
         {"want_outage": True, "z_grid": [1e-3], "s_grid": [1.0]}),
    ], ids=["fig3-a2", "fig3-a4", "C100", "C1", "C100-unit-a3", "D-gamma", "powerTail-override",
            "constant-scalar-fading", "C1-empty-block"])
    def test_outcome_equals_per_trial_loop(self, shape, channel, link, cfg, requests):
        assert ip.simulate(shape, channel, link, cfg, **requests) == _per_trial_simulate(
            shape, channel, link, cfg, **requests)

    @pytest.mark.parametrize("shape", [
        *(_SCENARIOS[name](**SCENARIO_PARAMS[name]) for name in sorted(SCENARIO_PARAMS)),
        # a subnormal CDF step near 0 overflows a slope: every cell falls back
        ip.scenario_carrier_sense(1e-5, 80.0),
    ], ids=[*sorted(SCENARIO_PARAMS), "D-alpha80"])
    def test_inverse_equals_interp(self, shape):
        sampler = ip.PointProcessSampler(shape, 1e-6, shape.support_end or 20.0 * shape.scale)
        cum, grid = sampler._cum, sampler._grid
        u = np.random.default_rng(12).random(10**6)
        knots = cum[:-1]
        # the knots, and the doubles on either side of each
        near = np.concatenate([knots, np.nextafter(knots, 1.0), np.nextafter(cum[1:], 0.0)])
        # draws inside the cells that fall back to np.interp
        cells = np.flatnonzero(sampler._crowded)
        assert cells.size > 0
        crowded = (cells + np.random.default_rng(13).random(cells.size)) / sampler._GUIDE_CELLS
        for x in (u, near, crowded):
            assert np.array_equal(sampler._inverse(x), np.interp(x, cum, grid))

    def test_unit_outage_is_the_coin_frequency(self, scattered100):
        # under unit fading 1 - tail(x) is the coin g0 = 1 < x itself; a copy
        # of the law without its tail takes the coin path on the same stream
        unit = ip.FadingLaw.unit()
        link = ip.LinkConfig(1e-3, 10.0, 10.0, 0.5, 10.0)
        cfg = ip.SimConfig(2000, 12)
        cond, coin = (ip.simulate(scattered100, ip.ChannelModel(2, 1.0, law), link, cfg,
                                  want_outage=True)
                      for law in (unit, ip.FadingLaw.custom(unit.sampler)))
        assert 0.0 < cond.outage_freq < 1.0
        # both paths take the sample-sigma half-width, so the outcomes are equal
        assert cond.outage_half_width95 == coin.outage_half_width95
        assert cond == coin

    def test_sample_keeps_its_stream(self):
        sampler = ip.PointProcessSampler(ip.scenario_finite_network(500.0, 800.0), 1e-3, 800.0)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(5):
            radii, angles = sampler.sample(rng)
            n = ref.poisson(sampler.mean_count)
            assert np.array_equal(radii, np.interp(ref.random(n), sampler._cum, sampler._grid))
            assert np.array_equal(angles, ref.uniform(0.0, 2.0 * math.pi, n))
