"""Property tests of the driving function A_alpha(y0, c) over the scale extremes.

Receiver offsets run from 0 to 1e6, path-loss constants from 1e-6 to 1e6 and
shape scales across six decades.  Examples are derandomized, so every run
checks the same points, and each has a wall-clock deadline, so a quadrature
that bisects without end shows as a failure rather than a hang.
"""

import math
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoppp as ip
from conftest import campbell_outage, compact_mass

EXAMPLE_BUDGET = timedelta(seconds=1)
PROPERTIES = settings(derandomize=True, database=None, deadline=EXAMPLE_BUDGET,
                      max_examples=200)


def _decades(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# family name -> (builder from a scale and one shape parameter in [0, 1], alphas)
FAMILIES = {
    "A": (lambda s, p: ip.scenario_finite_network(s, s * (1.1 + 2.0 * p)), (2, 4)),
    "C": (lambda s, p: ip.scenario_scattered(s), (2, 4)),
    "powerTail": (lambda s, p: ip.power_tail_shape(0.5 + 3.5 * p, s), (2, 4)),
    "constant": (lambda s, p: ip.constant_shape(0.25 + 0.75 * p), (4,)),
    "D": (lambda s, p: ip.scenario_carrier_sense(s**-4.0, 4.0), (4,)),
}
CASES = [(name, alpha) for name, (_, alphas) in FAMILIES.items() for alpha in alphas]

offsets = st.one_of(st.just(0.0), _decades(1e-3, 1e6))
constants = _decades(1e-6, 1e6)
scales = _decades(1e-3, 1e3)
params = st.floats(0.0, 1.0)


def _driving(name, scale, p, y0, c, alpha):
    return ip.interference_driving(FAMILIES[name][0](scale, p), y0, c, alpha)


@PROPERTIES
@given(case=st.sampled_from(CASES), scale=scales, p=params, y0=offsets, c=constants)
def test_converged_finite_nonnegative(case, scale, p, y0, c):
    res = _driving(case[0], scale, p, y0, c, case[1])
    assert res.converged
    assert math.isfinite(res.value) and math.isfinite(res.abs_error)
    assert res.value >= 0.0


@PROPERTIES
@given(case=st.sampled_from(CASES), scale=scales, p=params, y0=offsets, c=constants,
       rho=_decades(1e-3, 1e3))
def test_scale_identity(case, scale, p, y0, c, rho):
    # A[F(./rho)](rho y0, rho^alpha c) = rho^(2 - alpha) A[F](y0, c)
    name, alpha = case
    base = _driving(name, scale, p, y0, c, alpha).value
    scaled = _driving(name, rho * scale, p, rho * y0, rho**alpha * c, alpha).value
    assert scaled == pytest.approx(rho ** (2 - alpha) * base, rel=1e-9)


@PROPERTIES
@given(alpha=st.sampled_from((2, 4)), scale=scales, p=params, gap=_decades(1e-3, 1e3),
       c=constants)
def test_compact_far_field_bracket(alpha, scale, p, gap, c):
    # every node of a deployment inside radius R sits at distance y0 -+ R
    # or between from a receiver at y0 > R
    shape = FAMILIES["A"][0](scale, p)
    r_end = shape.support_end
    y0 = r_end * (1.0 + gap)
    mass = compact_mass(shape)
    value = ip.interference_driving(shape, y0, c, alpha).value
    # the slack covers the two quadratures' own relative tolerance
    assert mass / (c + (y0 + r_end) ** alpha) * (1.0 - 1e-10) <= value
    assert value <= mass / (c + (y0 - r_end) ** alpha) * (1.0 + 1e-10)


@PROPERTIES
@given(case=st.sampled_from([case for case in CASES if case[0] in ("A", "C", "powerTail")]),
       scale=scales, p=params, y0=offsets, step=_decades(1e-3, 1e3), c=constants)
def test_nonincreasing_in_offset(case, scale, p, y0, step, c):
    # a radially nonincreasing density convolved with a radially decreasing
    # path loss is radially nonincreasing
    name, alpha = case
    near = _driving(name, scale, p, y0, c, alpha)
    far = _driving(name, scale, p, y0 + step * scale, c, alpha)
    assert far.value <= near.value + near.abs_error + far.abs_error


@PROPERTIES
@given(level=st.floats(0.25, 1.0), y0=offsets, c=constants)
def test_stationary_mean_at_every_offset(level, y0, c):
    # a constant density sees pi^2 / (2 sqrt c) at alpha 4 wherever the
    # receiver is, so the kernel's peak at r = y0 must never be missed
    res = ip.interference_driving(ip.constant_shape(level), y0, c, 4)
    assert res.value == pytest.approx(level * math.pi**2 / (2.0 * math.sqrt(c)), rel=1e-9)


@settings(derandomize=True, database=None, deadline=timedelta(seconds=20), max_examples=20)
@given(alpha=st.sampled_from((2, 4)), r0=st.floats(10.0, 1000.0), width=st.floats(0.1, 2.0),
       y0=st.floats(0.0, 3.0), lam=_decades(1e-5, 1e-2), d=st.floats(1.0, 30.0),
       beta=_decades(0.1, 10.0), c=_decades(1e-2, 1e2), eta_db=st.floats(0.0, 30.0))
def test_outage_matches_campbell_oracle(alpha, r0, width, y0, lam, d, beta, c, eta_db):
    shape = ip.scenario_finite_network(r0, r0 * (1.0 + width))
    channel = ip.ChannelModel(alpha=alpha, c=c, fading=ip.FadingLaw.rayleigh())
    link = ip.LinkConfig(lam, y0 * r0, d, beta, eta_db)
    s = beta * (c + d**alpha)
    oracle = campbell_outage(shape, alpha, c, lam, y0 * r0, s, link.eta, beta)
    assert ip.outage_exact(shape, channel, link) == pytest.approx(oracle, abs=1e-9)


# family name -> builder from a scale: each has a region boundary at O(scale)
REGION_FAMILIES = {
    "A": lambda s: ip.scenario_finite_network(s, 1.6 * s),
    "C": lambda s: ip.scenario_scattered(s),
    "powerTail": lambda s: ip.power_tail_shape(2.0, s),
    "D": lambda s: ip.scenario_carrier_sense(s**-4.0, 4.0),
}


@settings(derandomize=True, database=None, deadline=EXAMPLE_BUDGET, max_examples=60)
@given(name=st.sampled_from(sorted(REGION_FAMILIES)), rho=_decades(1e-3, 1e7))
def test_subharmonic_region_scales(name, rho):
    # the region of F(./rho) is rho times the region of F, to a grid step
    unit = REGION_FAMILIES[name](1.0)
    scaled = REGION_FAMILIES[name](rho)
    base = ip.subharmonic_region(unit, unit.scale / 256.0).intervals
    got = ip.subharmonic_region(scaled, scaled.scale / 256.0).intervals
    assert len(got) == len(base)
    for edges, unit_edges in zip(got, base):
        for edge, unit_edge in zip(edges, unit_edges):
            if math.isinf(unit_edge):
                assert math.isinf(edge)
            else:
                assert abs(edge - rho * unit_edge) <= scaled.scale / 256.0


# family name -> (builder from a scale, alphas with a finite mean)
BOUND_FAMILIES = {
    "C": (lambda s: ip.scenario_scattered(s), (2, 4)),
    "powerTail": (lambda s: ip.power_tail_shape(2.0, s), (2, 4)),
    "D": (lambda s: ip.scenario_carrier_sense(s**-4.0, 4.0), (4,)),
}
BOUND_CASES = [(name, alpha) for name, (_, alphas) in BOUND_FAMILIES.items()
               for alpha in alphas]


def _channel(alpha, c, fading="rayleigh"):
    law = ip.FadingLaw.rayleigh() if fading == "rayleigh" else ip.FadingLaw.unit()
    return ip.ChannelModel(alpha=alpha, c=c, fading=law)


@settings(derandomize=True, database=None, deadline=EXAMPLE_BUDGET, max_examples=100)
@given(case=st.sampled_from(BOUND_CASES), scale=scales, t=st.floats(0.0, 3.0), c=constants,
       lam=_decades(1e-6, 1e-1), z=_decades(1e-6, 1e6),
       fading=st.sampled_from(("rayleigh", "unit")))
def test_tail_bounds_are_ordered_probabilities(case, scale, t, c, lam, z, fading):
    name, alpha = case
    shape = BOUND_FAMILIES[name][0](scale)
    channel = _channel(alpha, c, fading)
    upper = ip.markov_upper_tail(shape, channel, lam, t * scale, z)
    assert 0.0 <= upper <= 1.0
    try:
        lower = ip.lower_tail_bound(shape, channel, lam, t * scale, z)
    except ip.OutsideRegion:
        return  # the dominant-interferer bound needs a subharmonic neighbourhood
    assert 0.0 <= lower <= 1.0
    # slack for the two quadratures' relative tolerance
    assert lower <= upper * (1.0 + 1e-9)


@PROPERTIES
@given(case=st.sampled_from(CASES), scale=scales, p=params, y0=offsets, c=constants,
       lam=_decades(1e-6, 1e-1), s=_decades(1e-6, 1e6), ratio=_decades(1.0, 1e3))
def test_laplace_transform_nonincreasing_in_s(case, scale, p, y0, c, lam, s, ratio):
    name, alpha = case
    shape = FAMILIES[name][0](scale, p)
    channel = _channel(alpha, c)
    near = ip.laplace_transform(shape, channel, lam, y0, s)
    far = ip.laplace_transform(shape, channel, lam, y0, s * ratio)
    assert 0.0 <= far <= 1.0 and 0.0 <= near <= 1.0
    # exp(-x) moves by at most x exp(-x) tol <= tol / e under a relative
    # error tol in its exponent
    assert far <= near + 1e-10


@PROPERTIES
@given(case=st.sampled_from(CASES), scale=scales, p=params, t=st.floats(0.0, 3.0),
       c=constants, lam=_decades(1e-6, 1e-1), d=_decades(1e-2, 1e2),
       beta=_decades(1e-2, 1e2), ratio=_decades(1.0, 1e3), eta_db=st.floats(-10.0, 40.0))
def test_outage_nondecreasing_in_beta(case, scale, p, t, c, lam, d, beta, ratio, eta_db):
    name, alpha = case
    shape = FAMILIES[name][0](scale, p)
    channel = _channel(alpha, c)
    low = ip.outage_exact(shape, channel, ip.LinkConfig(lam, t * scale, d, beta, eta_db))
    high = ip.outage_exact(shape, channel, ip.LinkConfig(lam, t * scale, d, beta * ratio, eta_db))
    assert 0.0 <= low <= 1.0 and 0.0 <= high <= 1.0
    assert high >= low - 1e-10
