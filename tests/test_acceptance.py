"""End-to-end acceptance criteria.

Each test prints one `[PASS]`/`[FAIL]` line (run with ``pytest -s`` to see
them live) and asserts the criterion at its stated tolerance.  The
Monte-Carlo criteria use 1e5 trials with fixed seeds.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import isoppp as ip
from isoppp import numerics
from isoppp.cli import main as cli_main
from conftest import (arctan_kernel, brute_angular_alpha2, brute_angular_alpha4, campbell_outage,
                      rayleigh_channel, unit_channel)

pytestmark = pytest.mark.acceptance


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")


def test_criterion_01_stationary_mean_recovery():
    start = time.perf_counter()
    worst = 0.0
    for c in (0.25, 1.0, 4.0):
        value = ip.interference_driving(ip.constant_shape(1.0), 7.0, c, 4).value
        target = math.pi**2 / (2.0 * math.sqrt(c))
        worst = max(worst, abs(value - target) / target)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(1, ok, f"stationary mean: max rel err {worst:.2e} (tol 1e-8), {elapsed:.3f}s")
    assert ok


def test_criterion_02_stationary_laplace_recovery():
    start = time.perf_counter()
    ch = rayleigh_channel(4, 0.0)
    lam = 0.01
    worst = 0.0
    for s in (0.1, 1.0, 10.0):
        value = ip.laplace_transform(ip.constant_shape(1.0), ch, lam, 5.0, s)
        target = math.exp(-lam * math.pi**2 * math.sqrt(s) / 2.0)
        worst = max(worst, abs(value - target) / target)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(2, ok, f"stationary Laplace: max rel err {worst:.2e} (tol 1e-8), {elapsed:.3f}s")
    assert ok


def test_criterion_03_arctan_kernel_oracle():
    # the paper's angle kernel (a test oracle) and the closed-form kernels the
    # library integrates, each against brute-force angular quadrature
    worst = worst2 = worst4 = 0.0
    grid = (0.5, 1.0, 2.0, 5.0)
    for r in grid:
        for c in grid:
            for y0 in grid:
                h = 1e-5 * max(1.0, r)
                lhs = (
                    math.pi
                    / (2.0 * math.sqrt(c))
                    * (arctan_kernel(r + h, c, y0) - arctan_kernel(r - h, c, y0))
                    / (2.0 * h)
                )
                rhs = brute_angular_alpha4(r, c, y0)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
                worst4 = max(worst4, abs(r * numerics._kernel_alpha4(r, c, y0) - rhs) / rhs)
                rhs2 = 2.0 * brute_angular_alpha2(r, c, y0)
                worst2 = max(worst2, abs(numerics._kernel_alpha2(r, c, y0) - rhs2) / rhs2)
    lim_lo = abs(arctan_kernel(1e-9, 1.0, 3.0) + math.pi / 2)
    lim_hi = abs(arctan_kernel(1e9, 1.0, 3.0) - math.pi / 2)
    ok = (worst <= 1e-6 and lim_lo <= 1e-4 and lim_hi <= 1e-4
          and worst2 <= 1e-12 and worst4 <= 1e-12)
    _report(3, ok, f"angle-kernel derivative oracle: max rel err {worst:.2e} on 4^3 grid; "
                   f"limits off by {lim_lo:.1e}/{lim_hi:.1e} (tol 1e-4); library kernels "
                   f"K_2 {worst2:.1e}, K_4 {worst4:.1e} (tol 1e-12)")
    assert ok


def test_criterion_04_mc_vs_analytic_mean():
    shapes = {
        "C(rho=100)": ip.scenario_scattered(100.0),
        "powerTail(2,50)": ip.power_tail_shape(2.0, 50.0),
    }
    lam, trials = 1e-3, 10**5
    seed = 9000
    failures = []
    slowest = 0.0
    for name, shape in shapes.items():
        for alpha in (2, 4):
            ch = rayleigh_channel(alpha, 1.0)
            for y0 in (0.0, 50.0):
                seed += 1
                start = time.perf_counter()
                out = ip.simulate(
                    shape, ch, ip.LinkConfig(lam, y0, 10.0, 0.5),
                    ip.SimConfig(trials, seed),
                )
                elapsed = time.perf_counter() - start
                slowest = max(slowest, elapsed)
                target = ip.mean_interference(shape, ch, lam, y0).value
                slack = 3.0 * out.mean_half_width95 / 1.96 + out.truncation_bias_bound
                if abs(out.mean - target) > slack or elapsed >= 60.0:
                    failures.append(f"{name} alpha={alpha} y0={y0}")
    ok = not failures
    _report(4, ok, f"MC mean vs analytic (8 configs, 1e5 trials, slowest {slowest:.1f}s)"
                   + (f"; failed: {failures}" if failures else ""))
    assert ok, failures


@pytest.fixture(scope="module")
def fig3_curves(fig3_shape):
    offsets = np.arange(0.0, 1501.0, 50.0)
    curves = {}
    for alpha in (2, 4):
        ch = rayleigh_channel(alpha, 1.0)
        for eta_db in (math.inf, 10.0):
            curves[alpha, eta_db] = np.array([
                ip.outage_exact(fig3_shape, ch, ip.LinkConfig(1e-3, y, 10.0, 0.5, eta_db))
                for y in offsets
            ])
    return offsets, curves


def test_criterion_05a_fig3_monotone(fig3_curves):
    offsets, curves = fig3_curves
    ok = all(
        bool(np.all(np.diff(curves[alpha, math.inf]) <= 1e-12)) for alpha in (2, 4)
    )
    _report(5, ok, "(a) noise-free outage curves monotone nonincreasing in offset")
    assert ok


def test_criterion_05b_fig3_alpha_ordering(fig3_curves):
    offsets, curves = fig3_curves
    interior = offsets <= 1200.0
    gap = curves[2, math.inf][interior] - curves[4, math.inf][interior]
    ok = bool(np.all(gap >= -1e-12))
    _report(5, ok, "(b) alpha=2 outage dominates alpha=4 in the interior")
    assert ok


def test_criterion_05c_fig3_noise_floor_alpha4(fig3_shape):
    floor = 1.0 - math.exp(-0.5 / 10.0)
    value = ip.outage_exact(
        fig3_shape, rayleigh_channel(4, 1.0), ip.LinkConfig(1e-3, 1500.0, 10.0, 0.5, 10.0)
    )
    dev = abs(value - floor)
    ok = dev <= 1e-3
    _report(5, ok, f"(c) alpha=4 noisy curve at offset 1500 within {dev:.1e} of the floor")
    assert ok


def test_criterion_05c_fig3_noise_floor_alpha2(fig3_shape):
    # Far outside the network the alpha=2 excess over the noise floor falls
    # like lambda m s / y0^2, with mass m = int 2 pi r F(r) dr and
    # s = beta (c + d^2).  This network is large: m = 1.34e6, so
    # lambda m = 1341 interferers, and s = 50.5.  For y0 > R (the support
    # end) every interferer is at least y0 - R away, hence
    #   0 <= P_out(y0) - floor <= (1 - floor)(1 - exp(-lambda m s / (s + c + (y0 - R)^2))).
    # The right-hand side equals the 1e-3 tolerance at y_settle ~ 8823, where
    # the curve must lie within [floor, floor + 1e-3]; the matching lower
    # bound with (y0 + R)^2 puts the excess at no less than 6.95e-4 there
    # (the program gives 8.29e-4).  At offset 1500 the curve is still 3.1e-2
    # above the floor (0.0488); that excess is interference, which the
    # independent QUADPACK oracle confirms to 1e-9.
    lam, d, beta, c, eta_db, tol = 1e-3, 10.0, 0.5, 1.0, 10.0, 1e-3
    ch = rayleigh_channel(2, c)
    eta = 10.0 ** (eta_db / 10.0)
    floor = 1.0 - math.exp(-beta / eta)
    s = beta * (c + d**2)
    r_end = fig3_shape.knots[-1]
    mass, _ = quad(lambda r: 2.0 * math.pi * r * float(fig3_shape.eval_f(r)), 0.0, r_end,
                   points=fig3_shape.knots[:-1], epsabs=0.0, epsrel=1e-12, limit=200)
    # solve (1 - floor)(1 - exp(-lam m s / (s + c + (y - R)^2))) = tol for y
    y_settle = r_end + math.sqrt(lam * mass * s / -math.log1p(-tol / (1.0 - floor)) - s - c)
    # every interferer is also at most y_settle + R away
    least = (1.0 - floor) * -math.expm1(-lam * mass * s / (s + c + (y_settle + r_end) ** 2))
    settled = ip.outage_exact(fig3_shape, ch, ip.LinkConfig(lam, y_settle, d, beta, eta_db))
    at_1500 = ip.outage_exact(fig3_shape, ch, ip.LinkConfig(lam, 1500.0, d, beta, eta_db))
    oracle = campbell_outage(fig3_shape, 2, c, lam, 1500.0, s, eta, beta)
    ok = floor + least <= settled <= floor + tol and abs(at_1500 - oracle) <= 1e-9
    _report(5, ok, f"(c) alpha=2 noisy curve {settled - floor:.1e} above the floor at offset "
                   f"{y_settle:.0f} (tol {tol:.0e}); offset 1500 matches the QUADPACK "
                   f"oracle within {abs(at_1500 - oracle):.1e} (tol 1e-9)")
    assert ok


def test_criterion_05d_fig3_mc_spot_checks(fig3_shape):
    # offsets chosen where the outage is estimable at this trial count
    # (beyond ~800 the alpha=4 outage drops under 1e-4)
    lam, trials = 1e-3, 2 * 10**4
    offsets = {2: (0.0, 300.0, 600.0, 900.0, 1200.0),
               4: (0.0, 200.0, 400.0, 600.0, 750.0)}
    seed = 7100
    failures = []
    for alpha, y_list in offsets.items():
        ch = rayleigh_channel(alpha, 1.0)
        for y0 in y_list:
            seed += 1
            link = ip.LinkConfig(lam, y0, 10.0, 0.5)
            out = ip.simulate(fig3_shape, ch, link, ip.SimConfig(trials, seed),
                              want_outage=True)
            target = ip.outage_exact(fig3_shape, ch, link)
            se = math.sqrt(target * (1.0 - target) / trials)
            slack = (3.0 * se
                     + link.beta * (ch.c + link.d**alpha) * out.truncation_bias_bound)
            if abs(out.outage_freq - target) > slack:
                failures.append(f"alpha={alpha} y0={y0}")
    ok = not failures
    _report(5, ok, "(d) 10 MC outage spot checks within 3 sigma"
                   + (f"; failed: {failures}" if failures else ""))
    assert ok, failures


def test_criterion_06_log_divergence_zero_case(fig3_shape):
    ch = rayleigh_channel(4, 0.0)
    offsets = np.linspace(0.0, 600.0, 20)
    worst_const = max(
        abs(ip.log_divergence(ip.constant_shape(level), ch, ip.LinkConfig(1e-3, y, 10.0, 1.0)))
        for level in (1.0, 0.5)
        for y in offsets
    )
    worst_consistency = 0.0
    for y in offsets:
        link = ip.LinkConfig(1e-3, y, 10.0, 1.0)
        closed = ip.log_divergence(fig3_shape, ch, link)
        definitional = math.log(
            (1.0 - ip.outage_exact(fig3_shape, ch, link))
            / (1.0 - ip.outage_approx(fig3_shape, ch, link))
        ) / 1e-3
        worst_consistency = max(worst_consistency, abs(closed - definitional))
    ok = worst_const <= 1e-9 and worst_consistency <= 1e-9
    _report(6, ok, f"log-divergence: |gamma| <= {worst_const:.1e} for constant shapes; "
                   f"closed vs definitional within {worst_consistency:.1e} (tol 1e-9)")
    assert ok


def test_criterion_07_bound_sandwich():
    # offsets sit inside each shape's subharmonic region; densities keep the
    # per-trial point count small enough for 1e5/3e4 trials in seconds
    configs = [
        ("C(rho=1)", ip.scenario_scattered(1.0), 3.0, 0.002, 5e-2, 10**5),
        ("D(1e-5)", ip.scenario_carrier_sense(1e-5, 4.0), 15.0, 0.05, 5e-3, 3 * 10**4),
    ]
    failures = []
    eq12_ok = True
    seed = 8800
    for name, shape, y0, grid_step, lam, trials in configs:
        region = ip.subharmonic_region(shape, grid_step)
        rbar = ip.max_inscribed_radius(region, y0)
        for fading_name, ch in (("rayleigh", rayleigh_channel(4, 1.0)),
                                ("unit", unit_channel(4, 1.0))):
            seed += 1
            mean = ip.mean_interference(shape, ch, lam, y0).value
            z_grid = mean * np.geomspace(0.1, 30.0, 10)
            out = ip.simulate(shape, ch, ip.LinkConfig(lam, y0, 10.0, 0.5),
                              ip.SimConfig(trials, seed), z_grid=z_grid)
            assert out.max_radius >= y0 + rbar  # the dominant disc is sampled
            for z in z_grid:
                z = float(z)
                lower = ip.lower_tail_bound(shape, ch, lam, y0, z, region=region)
                upper = ip.markov_upper_tail(shape, ch, lam, y0, z)
                emp = out.tail_freq[z]
                sigma = math.sqrt(max(emp * (1.0 - emp), lower * (1.0 - lower)) / trials)
                if not (lower - 3.0 * sigma <= emp <= upper + 3.0 * sigma):
                    failures.append(f"{name}/{fading_name} z={z:.3g}")
            # pure-path-loss closed form must be reproduced exactly
            for z in (0.05, 0.4):
                got = ip.lower_tail_bound(shape, unit_channel(4, 1.0), lam, y0, z,
                                          region=region)
                expected = -math.expm1(
                    -math.pi * lam * float(shape.eval_f(y0))
                    * min(rbar**2, (1.0 / z - 1.0) ** 0.5)
                )
                if not math.isclose(got, expected, rel_tol=1e-12):
                    eq12_ok = False
    ok = not failures and eq12_ok
    _report(7, ok, "bound sandwich on 10-point z grids (2 shapes x 2 fading laws)"
                   + ("" if eq12_ok else "; pure-path-loss closed form mismatched")
                   + (f"; failed: {failures}" if failures else ""))
    assert ok, failures


def test_criterion_08_sparse_dense_transition():
    # power tail nu=1.5: counts diverge while the truncated mean converges
    shape = ip.power_tail_shape(1.5, 1.0)

    def expected_count(radius):
        return ip.integrate_interval(
            lambda r: 2.0 * math.pi * r * shape.eval_f(r), 0.0, radius, 1e-10
        ).value

    def truncated_mean(radius, profile, c):
        return ip.integrate_interval(
            lambda r: 2.0 * math.pi * r * profile.eval_f(r) / (c + r * r), 0.0, radius, 1e-10
        ).value

    count_ratio = expected_count(1e5) / expected_count(1e3)
    mean_change = abs(truncated_mean(1e5, shape, 1.0) - truncated_mean(1e3, shape, 1.0))
    mean_rel = mean_change / truncated_mean(1e5, shape, 1.0)

    log_shape = ip.log_decay_shape(100.0)
    growth = truncated_mean(1e6, log_shape, 1e4) / truncated_mean(1e3, log_shape, 1e4)
    transform = ip.laplace_transform(log_shape, rayleigh_channel(2, 1.0), 1e-3, 0.0, 1.0)

    ok = count_ratio >= 3.0 and mean_rel <= 0.01 and growth >= 1.5 and transform == 0.0
    _report(8, ok, f"sparse/dense transition: count x{count_ratio:.1f} (need >=3), "
                   f"mean drift {mean_rel:.2e} (need <=1e-2); log-decay mean x{growth:.2f} "
                   f"(need >=1.5), divergent-regime transform {transform}")
    assert ok


def test_criterion_09_fh_ds_gain_scaling(scattered100):
    d, beta = 10.0, 0.5
    a2 = ip.interference_driving(scattered100, 0.0, beta * d * d, 2).value
    slope = math.pi * scattered100.f_zero * math.log(4.0) / a2
    ratios = {m: ip.fh_ds_gain(scattered100, d, beta, m).ratio for m in (1, 4, 16, 64, 256)}
    worst = max(
        abs((ratios[m] - ratios[p]) - slope) / slope
        for p, m in ((4, 16), (16, 64), (64, 256))
    )
    exact_one = ratios[1] == 1.0
    ok = worst <= 0.10 and exact_one
    _report(9, ok, f"FH/DS gain: ratio(1)={ratios[1]}, per-log4-step slope within "
                   f"{worst:.1%} of F(0)-based slope (tol 10%)")
    assert ok


def test_criterion_10_csma_accuracy_curves():
    ds = np.geomspace(0.01, 1000.0, 21)
    peaks = {}
    end_ok = True
    interior_ok = True
    for beta in (0.1, 1.0, 10.0):
        curve = [ip.csma_accuracy_loss(1e-3, 1e-5, float(d), beta) for d in ds]
        k = int(np.argmax(curve))
        interior_ok &= 0 < k < len(ds) - 1
        peaks[beta] = curve[k]
        end_ok &= curve[0] <= 1e-3 and curve[-1] <= 1e-2
    ordered = peaks[0.1] > peaks[1.0] > peaks[10.0]
    ok = interior_ok and ordered and end_ok
    _report(10, ok, f"CSMA accuracy loss: interior maxima {interior_ok}, decreasing in "
                    f"beta {ordered}, endpoints small {end_ok} "
                    f"(peaks {peaks[0.1]:.2f}/{peaks[1.0]:.2f}/{peaks[10.0]:.2f})")
    assert ok


def test_criterion_11_capacity_round_trip(scattered100):
    failures = []
    worst = 0.0
    for alpha, shape in ((2, scattered100), (4, scattered100), (4, ip.constant_shape(1.0))):
        ch = rayleigh_channel(alpha, 0.0)
        for eps in (0.01, 0.1, 0.5):
            link = ip.LinkConfig(1e-3, 25.0, 10.0, 0.5)
            cap = ip.local_transmission_capacity(shape, ch, link, eps)
            back = ip.outage_exact(
                shape, ch, ip.LinkConfig(cap / (1.0 - eps), 25.0, 10.0, 0.5)
            )
            worst = max(worst, abs(back - eps))
            if abs(back - eps) > 1e-9:
                failures.append(f"alpha={alpha} eps={eps}")
    ok = not failures
    _report(11, ok, f"capacity round trip: max |outage - eps| = {worst:.1e} (tol 1e-9)")
    assert ok, failures


def test_criterion_12_reproducibility(scattered100, tmp_path):
    ch = rayleigh_channel(2, 1.0)
    link = ip.LinkConfig(1e-3, 10.0, 10.0, 0.5)
    cfg = ip.SimConfig(trials=2000, seed=77)
    first = ip.simulate(scattered100, ch, link, cfg, z_grid=[0.01, 0.1], want_outage=True)
    second = ip.simulate(scattered100, ch, link, cfg, z_grid=[0.01, 0.1], want_outage=True)
    outcome_ok = first == second

    argv = [
        "simulate", "--shape", '{"scenario":"C","params":{"rho":100}}',
        "--alpha", "2", "--c", "1", "--lambda", "1e-3",
        "--trials", "500", "--seed", "42", "--what", "outage",
        "--d", "10", "--beta", "0.5",
    ]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(path_a)]) == 0
    assert cli_main(argv + ["--out", str(path_b)]) == 0
    csv_ok = path_a.read_bytes() == path_b.read_bytes()

    ok = outcome_ok and csv_ok
    _report(12, ok, f"reproducibility: identical outcomes {outcome_ok}, "
                    f"bit-identical CSV {csv_ok}")
    assert ok
