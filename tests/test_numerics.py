import cmath
import heapq
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import isoppp as ip
from isoppp import numerics
from conftest import (angular_closed_form, angular_oracle, angular_oracle_40, arctan_kernel,
                      asinh_kernel, brute_angular_alpha4, kappa, profile_slope)


class TestAngularClosedForm:
    def test_constant_integrand(self):
        assert angular_closed_form(1.0, 0.0) == pytest.approx(math.pi, rel=1e-15)

    def test_known_value(self):
        # oracle: adaptive quadrature of int_0^pi dphi/(2 + cos phi)
        oracle, _ = quad(lambda p: 1.0 / (2.0 + math.cos(p)), 0.0, math.pi, epsabs=1e-14)
        assert angular_closed_form(2.0, 1.0) == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-14)
        assert angular_closed_form(2.0, 1.0) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("a,b", [(2.0, 1.0), (5.0, 3.0), (1.01, 1.0)])
    def test_matches_brute_force(self, a, b):
        oracle, _ = quad(lambda p: 1.0 / (a + b * math.cos(p)), 0.0, math.pi,
                         epsabs=1e-14, epsrel=1e-14, limit=400)
        assert angular_closed_form(a, b) == pytest.approx(oracle, abs=1e-10, rel=1e-10)

    def test_singular_boundary(self):
        with pytest.raises(ip.DomainError):
            angular_closed_form(1.0, 1.0)


class TestAsinhKernel:
    def test_origin_log_form_zero(self):
        assert asinh_kernel(0.0, 1.0, 0.0) == 0.0

    def test_asinh_zero_argument(self):
        assert asinh_kernel(0.0, 4.0, 2.0) == 0.0

    def test_direct_arithmetic(self):
        x = 76.0 / 10.0
        value = asinh_kernel(10.0, 1.0, 5.0)
        assert value == pytest.approx(math.asinh(x), rel=1e-15)
        assert value == pytest.approx(math.log(x + math.sqrt(x * x + 1.0)), rel=1e-14)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ip.DomainError):
            asinh_kernel(1.0, 0.0, 1.0)

    def test_handoff_offset_is_radius_independent(self):
        # just above the origin threshold the asinh form differs from the
        # log form by a constant in r (to well under 1e-6 across [0, 1e3]);
        # constant offsets cancel in every integral against a decaying shape
        for c in (0.25, 1.0, 4.0):
            eps = 1e-6 * max(1.0, math.sqrt(c))
            r = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 200)))
            asinh_form = np.arcsinh((r * r + c - eps * eps) / (2.0 * eps * math.sqrt(c)))
            log_form = np.log(r * r + eps * eps + c)
            offset = asinh_form - log_form
            assert np.max(np.abs(offset - offset[0])) < 1e-6

    def test_vectorised(self):
        r = np.array([0.0, 1.0, 10.0])
        out = asinh_kernel(r, 1.0, 5.0)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(math.asinh(7.6))


class TestKappa:
    def test_unit_modulus_at_zero_radius(self):
        k = kappa(0.0, 1.0, 2.0)
        assert abs(k) == pytest.approx(1.0, abs=1e-14)
        assert k == pytest.approx((-8.0 + 15.0j) / 17.0)

    def test_origin_value(self):
        assert kappa(0.0, 1.0, 0.0) == pytest.approx(-1j)

    def test_large_radius_tends_to_minus_j(self):
        k = kappa(1e8, 2.0, 3.0)
        assert k == pytest.approx(-1j, abs=1e-12)
        assert arctan_kernel(1e8, 2.0, 3.0) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_modulus_bounded_by_one(self):
        for r in (0.0, 0.3, 1.0, 4.0, 25.0, 1e3):
            for c in (0.25, 1.0, 9.0):
                for y0 in (0.0, 0.5, 2.0, 10.0):
                    assert abs(kappa(r, c, y0)) <= 1.0 + 1e-12


class TestArctanKernel:
    def test_limit_at_zero(self):
        assert arctan_kernel(1e-9, 1.0, 3.0) == pytest.approx(-math.pi / 2, abs=1e-4)

    def test_limit_at_infinity(self):
        assert arctan_kernel(1e9, 1.0, 3.0) == pytest.approx(math.pi / 2, abs=1e-4)

    def test_exact_endpoints(self):
        assert arctan_kernel(0.0, 1.0, 3.0) == -math.pi / 2

    def test_matches_two_argument_angle_form(self):
        # where 1 - |kappa|^2 is well conditioned the kernel must equal
        # atan2(2 Re kappa, 1 - |kappa|^2) computed from kappa directly
        for r in (0.3, 0.7, 1.5, 4.0, 9.0):
            for c in (0.25, 1.0, 4.0):
                for y0 in (0.5, 1.0, 3.0):
                    k = kappa(r, c, y0)
                    reference = math.atan2(2.0 * k.real, 1.0 - abs(k) ** 2)
                    assert arctan_kernel(r, c, y0) == pytest.approx(reference, abs=1e-10)

    def test_monotone_in_radius(self):
        r = np.linspace(0.0, 100.0, 5000)
        for y0 in (0.0, 1.0, 7.0):
            theta = arctan_kernel(r, 2.0, y0)
            assert np.all(np.diff(theta) >= -1e-12)

    def test_range(self):
        r = np.geomspace(1e-8, 1e8, 500)
        theta = arctan_kernel(r, 0.5, 2.0)
        assert np.all(theta >= -math.pi / 2 - 1e-12)
        assert np.all(theta <= math.pi / 2 + 1e-12)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("y0", [0.5, 1.0, 2.0, 5.0])
    def test_derivative_relation(self, r, c, y0):
        # d/dr [pi/(2 sqrt(c)) Theta(r)] equals the brute-force angular
        # integral of 2r / (c + (r^2 + y0^2 - 2 r y0 cos phi)^2)
        h = 1e-5 * max(1.0, r)
        lhs = (
            math.pi
            / (2.0 * math.sqrt(c))
            * (arctan_kernel(r + h, c, y0) - arctan_kernel(r - h, c, y0))
            / (2.0 * h)
        )
        rhs = brute_angular_alpha4(r, c, y0)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_integrated_from_zero_matches_2d_oracle(self):
        # Theta(2) + pi/2 must equal (2 sqrt(c)/pi) * double integral of the
        # angular kernel from 0 to 2
        c, y0 = 1.0, 1.0
        outer, _ = quad(lambda t: brute_angular_alpha4(t, c, y0), 0.0, 2.0,
                        epsabs=1e-12, epsrel=1e-12)
        expected = -math.pi / 2 + (2.0 * math.sqrt(c) / math.pi) * outer
        assert arctan_kernel(2.0, c, y0) == pytest.approx(expected, rel=1e-9)

    def test_origin_offset_reduces_to_analytic_form(self):
        r = np.array([0.2, 1.0, 4.0, 30.0])
        expected = 2.0 * np.arctan(r * r / math.sqrt(2.0)) - math.pi / 2
        np.testing.assert_allclose(arctan_kernel(r, 2.0, 0.0), expected, rtol=1e-13)


class TestAngularKernel:
    """The Gauss-Legendre rule that serves every alpha outside {2, 4}."""

    def test_equals_the_closed_forms(self):
        rng = np.random.default_rng(34)
        for draw in range(300):
            c = 10.0 ** rng.uniform(-6.0, 6.0)
            y0 = 0.0 if draw % 10 == 0 else 10.0 ** rng.uniform(-3.0, 6.0)
            r = np.append(10.0 ** rng.uniform(-3.0, 7.0, 20), [y0, 0.0])
            for alpha, closed in ((2, numerics._kernel_alpha2), (4, numerics._kernel_alpha4)):
                got = numerics._kernel_angular(r, c, y0, float(alpha))
                np.testing.assert_allclose(got, closed(r, c, y0), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 5.0, 8.0, 9.0])
    def test_matches_the_angular_oracle(self, alpha):
        # 9 is the largest exponent the mean serves: a 50-digit mpmath
        # quadrature puts the rule's worst error there, at r = y0, near 7e-13
        for c in (1e-3, 1.0, 1e3):
            for y0 in (0.5, 40.0, 3e3):
                w = c ** (1.0 / alpha)
                r = np.array([*(y0 * np.array([0.01, 0.5, 0.99, 1.0, 1.01, 2.0, 100.0])),
                              y0 + 0.3 * w, y0 + w])
                got = numerics._kernel_angular(r, c, y0, alpha)
                want = [angular_oracle(ri, c, y0, alpha) for ri in r]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 5.0, 9.0])
    def test_matches_the_40_digit_oracle_up_to_y0_1e6(self, alpha):
        # above y0 ~ 3e3 QUADPACK loses digits at r = y0; the rule's worst
        # error, at alpha 9 and r = y0 = 1e6, is 4.9e-13
        for c in (1e-6, 1e3):
            for y0 in (1e4, 1e6):
                r = np.array([0.5 * y0, y0, y0 + c ** (1.0 / alpha)])
                got = numerics._kernel_angular(r, c, y0, alpha)
                want = [angular_oracle_40(ri, c, y0, alpha) for ri in r]
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_centre_and_origin_have_no_angle(self):
        # y0 = 0 or r = 0: d = r or y0 at every angle
        assert numerics._kernel_angular(np.array([3.0]), 2.0, 0.0, 3.0)[0] == pytest.approx(
            2.0 * math.pi / (2.0 + 27.0), rel=1e-15)
        assert numerics._kernel_angular(np.array([0.0]), 2.0, 3.0, 3.0)[0] == pytest.approx(
            2.0 * math.pi / (2.0 + 27.0), rel=1e-15)


class TestIntegrateSemiInfinite:
    def test_total_derivative_mass(self):
        shape = ip.scenario_scattered(1.0)
        res = ip.integrate_semi_infinite(lambda r: profile_slope(shape, r), 1e-10, knee=4.0)
        assert res.converged
        assert res.value == pytest.approx(-1.0, abs=1e-10)

    def test_log_kernel_against_reference(self):
        # frozen reference: QUADPACK value of -int_0^inf e^-r log(1+r^2) dr
        reference = -0.6867559231128539
        res = ip.integrate_semi_infinite(lambda r: -np.exp(-r) * np.log(r * r + 1.0), 1e-9)
        assert res.converged
        assert res.value == pytest.approx(reference, abs=1e-9)

    def test_compact_support_skips_tail(self):
        shape = ip.scenario_finite_network(400.0, 600.0)
        res = ip.integrate_semi_infinite(
            lambda r: profile_slope(shape, r), 1e-12, knots=shape.knots,
            support_end=shape.support_end
        )
        assert res.converged
        assert res.value == pytest.approx(-1.0, rel=1e-12)

    def test_error_estimate_honoured(self):
        shape = ip.scenario_scattered(2.0)
        res = ip.integrate_semi_infinite(lambda r: profile_slope(shape, r), 1e-8, knee=8.0)
        assert res.converged
        assert res.abs_error <= max(1e-8, 1e-8 * abs(res.value))
        assert res.abs_error >= 0.0
        assert abs(res.value + 1.0) <= 10 * max(1e-8, res.abs_error)


class TestIntegrateInterval:
    def test_polynomial_exact(self):
        res = ip.integrate_interval(lambda x: 3.0 * x * x, 0.0, 2.0, 1e-12)
        assert res.value == pytest.approx(8.0, rel=1e-14)

    def test_knots_preserve_accuracy_for_kinks(self):
        fn = lambda x: np.where(x < 1.0, x, 2.0 - x)
        res = ip.integrate_interval(fn, 0.0, 2.0, 1e-13, knots=(1.0,))
        assert res.value == pytest.approx(1.0, rel=1e-13)

    def test_budget_exhaustion_flags_nonconvergence(self):
        # integrable endpoint singularity, tiny budget: must flag, not raise
        res = ip.integrate_interval(
            lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300), 0.0, 1.0, 1e-14, max_evals=300
        )
        assert not res.converged
        assert res.evaluations <= 300
        assert res.abs_error > 0.0

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ip.DomainError):
            ip.integrate_interval(lambda x: x, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        with pytest.raises(ip.DomainError):
            ip.integrate_interval(lambda x: x, 0.0, 1.0, tol)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf)])
    def test_rejects_non_finite_bound(self, a, b):
        with pytest.raises(ip.DomainError, match="must be finite"):
            ip.integrate_interval(lambda x: x, a, b)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ip.DomainError, match="need a <= b"):
            ip.integrate_interval(lambda x: x, 1.0, 0.0)

    def test_roundoff_floor_ends_a_cancelling_integral(self):
        # the exact value is 0, so no relative tolerance can be met; every
        # panel must instead stop once resolved to round-off
        start = time.perf_counter()
        res = ip.integrate_interval(
            lambda x: np.sin(x) + 1e-3 * np.cos(37.0 * x), 0.0, 2.0 * math.pi, 1e-10
        )
        assert time.perf_counter() - start < 1.0
        assert res.converged
        assert abs(res.value) <= 1e-12

    def test_tolerance_is_relative(self):
        res = ip.integrate_interval(lambda r: 1e-30 * np.exp(-r), 0.0, 50.0, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(-1e-30 * math.expm1(-50.0), rel=1e-10)

    def test_finds_mass_in_a_small_part_of_a_long_interval(self):
        res = ip.integrate_interval(lambda r: r * np.exp(-r), 0.0, 1e4, 1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_non_finite_panel_stops_unconverged(self):
        res = ip.integrate_interval(lambda x: np.full_like(x, np.nan), 0.0, 1.0, 1e-10)
        assert not res.converged
        assert res.evaluations == 15

    def test_one_ulp_panel_retires_its_error(self):
        # the sqrt kink at 1 drives bisection down to the panel [1, 1 + ulp],
        # whose nodes round to 1 and to the float below it; the step there
        # leaves an error estimate that halving cannot reduce, so the panel
        # keeps its value and its error is retired
        res = ip.integrate_interval(lambda x: (x >= 1.0) * (1.0 + np.sqrt(np.abs(x - 1.0))),
                                    1.0, 2.0, 1e-20)
        assert res.converged
        assert res.value == pytest.approx(5.0 / 3.0, rel=4.0 * np.finfo(float).eps)
        assert res.evaluations <= 31_000

    def test_bounds_near_the_largest_double(self):
        # a + b overflows here, so midpoints and half-widths are halved first
        res = ip.integrate_interval(lambda x: np.exp(-x / 1e307), 0.0, 1.5e308, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(-1e307 * math.expm1(-15.0), rel=1e-14)

    def test_exhausting_the_default_budget_takes_seconds(self):
        # this integral misses its tolerance within the default budget; a
        # re-sum of every panel after each bisection made that cost O(panels^2)
        start = time.perf_counter()
        res = ip.integrate_interval(lambda x: np.sin(1.0 / x), 0.0, 1.0, 1e-14)
        assert time.perf_counter() - start < 5.0
        assert not res.converged
        assert res.evaluations > numerics.MAX_EVALUATIONS - 30

    @pytest.mark.parametrize("fn, a, b, tol", [
        (lambda x: np.sin(x) + 1e-3 * np.cos(37.0 * x), 0.0, 2.0 * math.pi, 1e-10),
        (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-13),
        (lambda x: np.exp(-x) * np.cos(50.0 * x), 0.0, 30.0, 1e-14),
        (lambda x: np.log(x) * np.sin(1.0 / (x + 1e-3)), 0.0, 1.0, 1e-11),
        (lambda x: np.sin(1.0 / x), 0.0, 1.0, 1e-14),
        # tolerances below the running sums' rounding (about 8 eps)
        (lambda x: np.exp(x), 0.0, 1.0, 1e-16),
        (lambda x: np.where(x >= 1.0, np.sqrt(np.abs(x - 1.0)), -1.0), 1.0, 2.0, 1e-20),
    ], ids=["cancelling", "endpoint-singularity", "oscillating", "log-oscillating",
            "out-of-budget", "smooth-tiny-tol", "kink-tiny-tol"])
    def test_running_sums_stop_where_exact_sums_do(self, fn, a, b, tol):
        got = ip.integrate_interval(fn, a, b, tol, max_evals=60_000)
        assert got == _exact_sum_reference(fn, a, b, tol, 60_000)


def _exact_sum_reference(fn, a, b, tol, max_evals):
    """The adaptive loop with both sums re-taken by math.fsum after every
    bisection: the stopping rule that the running sums must reproduce."""
    heap, serial, evals = [], 0, 0

    def push(lo, hi):
        nonlocal serial, evals
        val, err, resabs = numerics._gk15(fn, lo, hi)
        key = 0.0 if err <= numerics._ROUNDOFF * resabs else -err
        heapq.heappush(heap, (key, serial, lo, hi, val, err))
        serial, evals = serial + 1, evals + 15

    push(a, b)
    while True:
        total_err = math.fsum(item[5] for item in heap)
        total = math.fsum(item[4] for item in heap)
        if total_err <= tol * abs(total) or heap[0][0] == 0.0:
            return ip.IntegralResult(total, total_err, True, evals)
        if evals + 30 > max_evals:
            return ip.IntegralResult(total, total_err, False, evals)
        _, _, lo, hi, val, _ = heapq.heappop(heap)
        mid = 0.5 * lo + 0.5 * hi
        if mid <= lo or mid >= hi:
            heapq.heappush(heap, (0.0, serial, lo, hi, val, 0.0))
            serial += 1
            continue
        push(lo, mid)
        push(mid, hi)


def test_integral_result_validation():
    with pytest.raises(ip.DomainError):
        ip.IntegralResult(value=1.0, abs_error=-1.0, converged=True, evaluations=15)
