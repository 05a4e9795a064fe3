import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

import isoppp as ip
from conftest import rayleigh_channel, unit_channel


class TestTruncationRadius:
    def test_compact_support_truncates_at_support(self):
        shape = ip.scenario_finite_network(400.0, 600.0)
        res = ip.truncation_radius(shape, rayleigh_channel(2, 1.0), 50.0, 1e-3)
        assert res.radius == 600.0
        assert res.mean_tail_bound_per_intensity == 0.0

    def test_scattered_bound_below_tolerance(self, scattered100):
        ch = rayleigh_channel(2, 1.0)
        res = ip.truncation_radius(scattered100, ch, 0.0, 1e-3)
        mean = ip.interference_driving(scattered100, 0.0, 1.0, 2).value
        assert math.isfinite(res.radius)
        assert res.mean_tail_bound_per_intensity <= 1e-3 * mean

    def test_divergent_regime_refused(self):
        with pytest.raises(ip.NoFiniteTruncation):
            ip.truncation_radius(ip.constant_shape(1.0), rayleigh_channel(2, 1.0), 0.0, 1e-3)

    def test_alpha4_nondecaying_is_fine(self):
        res = ip.truncation_radius(ip.constant_shape(1.0), rayleigh_channel(4, 1.0), 5.0, 1e-3)
        assert math.isfinite(res.radius)

    def test_zero_c_needs_override(self):
        with pytest.raises(ip.DomainError):
            ip.truncation_radius(ip.scenario_scattered(10.0), rayleigh_channel(4, 0.0), 0.0, 1e-3)


class TestPointProcessSampler:
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

    def test_interference_stream_independent_of_requests(self, scattered100):
        # the outage coin g0 is drawn after the field, so requesting outage
        # must not change the interference statistics
        ch = rayleigh_channel(2, 1.0)
        link = ip.LinkConfig(1e-3, 10.0, 10.0, 0.5, math.inf)
        plain = ip.simulate(scattered100, ch, link, ip.SimConfig(500, 7))
        with_outage = ip.simulate(scattered100, ch, link, ip.SimConfig(500, 7), want_outage=True)
        assert plain.mean == with_outage.mean


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


def test_sim_config_validation():
    with pytest.raises(ip.DomainError):
        ip.SimConfig(trials=0, seed=1)
    with pytest.raises(ip.DomainError):
        ip.SimConfig(trials=10, seed=1, truncation_tol_fraction=1.5)
    with pytest.raises(ip.DomainError):
        ip.SimConfig(trials=10, seed=1, max_radius_override=math.nan)
    with pytest.raises(ip.DomainError):
        ip.SimConfig(trials=10, seed=1, max_radius_override=math.inf)
