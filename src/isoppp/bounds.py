"""Distribution-free tail bounds on the interference.

Upper bound: Markov's inequality applied to the closed-form mean.  Lower
bound: the dominant-interferer construction, valid wherever the intensity is
subharmonic; a single node inside the largest disc around the receiver that
fits in the subharmonic region already pushes the interference past the
threshold with the stated probability.  The radial Laplacian of F is
(r F')' / r, and with r = e^t, (r F')' = (1/r) d^2 F(e^t) / dt^2.  So F is
subharmonic exactly where F(e^t) is convex in t, equivalently where the
dimensionless r F'(r) is nondecreasing; second differences of F decide it,
with no derivative, and the test does not depend on the unit of length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ChannelModel, interference_driving
from .errors import DomainError, OutsideRegion, _check_nonnegative, _check_positive
from .numerics import _converged, integrate_interval, integrate_semi_infinite
from .shapes import ShapeFunction

# r F'(r) may fall by at most this much across two grid cells (half across one)
_RF_DROP = 1e-12
_PROBE_DOUBLINGS = 20
# log step of the probe radii's second differences; a linear step there
# (up to 5e8 times smaller than r) would lose the difference to rounding
_LOG_STEP = 2.0**-8
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RadialRegion:
    """Ordered disjoint radial intervals (lo, hi); hi may be math.inf."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_hi = -1.0
        for lo, hi in self.intervals:
            if not 0 <= lo < hi:
                raise DomainError(f"invalid interval ({lo}, {hi})")
            if lo < prev_hi:
                raise DomainError("intervals must be ordered and disjoint")
            prev_hi = hi


def _convex_in_log_r(shape: ShapeFunction, r: np.ndarray) -> np.ndarray:
    """Whether F(r e^t) is convex in t at t = 0: with d the log step,
    (F(r e^d) - 2 F(r) + F(r e^-d)) / d is about the rise of r F' across the
    step.  It may fall by half the drop tolerance, plus the rounding of F
    (at most 1) in the difference."""
    lower, mid, upper = (np.asarray(shape.eval_f(r * math.exp(k * _LOG_STEP)), dtype=float)
                         for k in (-1, 0, 1))
    return (upper - 2.0 * mid + lower) / _LOG_STEP >= -(0.5 * _RF_DROP + 4.0 * _EPS / _LOG_STEP)


def subharmonic_region(shape: ShapeFunction, grid_step: float) -> RadialRegion:
    """Radii where the intensity is subharmonic, detected on a grid out to
    twice the shape scale (and past the last knot).

    Grid points within one step of a shape knot are excluded (differences
    straddling a knot are meaningless), which conservatively shrinks the
    detected intervals.  When the last grid point qualifies, the final
    interval is extended to infinity provided the test also passes at
    geometrically growing probe radii.  A run of a single grid point has no
    width and is dropped, unless it starts at the origin or reaches infinity.
    """
    _check_positive(grid_step=grid_step)
    r_max = max(2.0 * shape.scale, 10.0 * grid_step, 1.2 * max(shape.knots, default=0.0))
    n = int(math.floor(r_max / grid_step))
    if n < 4:
        raise DomainError("grid too coarse for the requested radius range")
    if n > 2 * 10**6:
        raise DomainError("grid too fine for the requested radius range")
    h = grid_step
    grid = h * np.arange(1, n + 1)
    # the rise of r F' across the cell [r - h/2, r + h/2], from F at the
    # grid points r - h, r and r + h; F (at most 1) rounds in each difference
    values = np.asarray(shape.eval_f(h * np.arange(n + 2)), dtype=float)
    lower, mid, upper = values[:-2], values[1:-1], values[2:]
    rise = ((grid + 0.5 * h) * (upper - mid) - (grid - 0.5 * h) * (mid - lower)) / h
    ok = rise >= -(0.5 * _RF_DROP + 4.0 * _EPS * (grid + h) / h)
    for knot in shape.knots:
        ok &= np.abs(grid - knot) > grid_step * (1.0 + 1e-9)

    # runs of ok as [start, stop) index pairs, from the edges of the padded mask
    edges = np.flatnonzero(np.diff(np.concatenate(([False], ok, [False]))))
    probe = grid[-1] * 2.0 ** np.arange(1, _PROBE_DOUBLINGS + 1)
    intervals: list[tuple[float, float]] = []
    for start, stop in zip(edges[::2], edges[1::2]):
        lo = 0.0 if start == 0 else float(grid[start])
        hi = float(grid[stop - 1])
        if stop == n and np.all(_convex_in_log_r(shape, probe)):
            hi = math.inf
        if lo < hi:  # a one-point run inside the grid has no width
            intervals.append((lo, hi))
    return RadialRegion(intervals=tuple(intervals))


def max_inscribed_radius(region: RadialRegion, y0_norm: float) -> float:
    """Radius of the largest disc centred at offset ``y0_norm`` inside the
    region (annulus geometry; an interval starting at 0 is a full disc, so
    the inscribed disc may cover the origin)."""
    _check_nonnegative(y0_norm=y0_norm)
    for lo, hi in region.intervals:
        interior = (lo == 0.0 and y0_norm < hi) or (lo < y0_norm < hi)
        if not interior:
            continue
        if lo == 0.0:
            return hi - y0_norm
        if math.isinf(hi):
            return y0_norm - lo
        return min(y0_norm - lo, hi - y0_norm)
    raise OutsideRegion(f"offset {y0_norm} is not interior to the subharmonic region")


def lower_tail_bound(
    shape: ShapeFunction,
    channel: ChannelModel,
    lambda_scale: float,
    y0_norm: float,
    z: float,
    tol: float = 1e-10,
    *,
    region: RadialRegion | None = None,
) -> float:
    """Dominant-interferer lower bound on P(I >= z).

    1 - exp(-2 pi lambda F(|y0|) int_0^rbar r P(g >= z (c + r^alpha)) dr),
    with rbar the inscribed radius in the subharmonic region.  Requires a
    fading law with a known tail function.  An infinite rbar is handled by
    the semi-infinite quadrature path.  Without ``region`` the subharmonic
    region is detected on a grid of shape.scale / 256.
    """
    _check_positive(lambda_scale=lambda_scale, z=z)
    if channel.fading.tail is None:
        raise DomainError("lower bound needs a fading law with a known tail P(g >= x)")
    if region is None:
        region = subharmonic_region(shape, shape.scale / 256.0)
    rbar = max_inscribed_radius(region, y0_norm)

    tail = channel.fading.tail
    alpha, c = channel.alpha, channel.c

    def integrand(r):
        r = np.asarray(r, dtype=float)
        return r * np.asarray(tail(z * (c + r**alpha)), dtype=float)

    knots = []
    if channel.fading.kind == "unit":
        # step tail: the integrand is r on [0, r_cut] and 0 beyond
        if z * c >= 1.0:
            return 0.0
        r_cut = (1.0 / z - c) ** (1.0 / alpha)
        knots.append(r_cut)
        if math.isinf(rbar):
            rbar = r_cut

    if math.isinf(rbar):
        integ = integrate_semi_infinite(integrand, tol, knee=max(shape.scale, 1.0))
    else:
        integ = integrate_interval(integrand, 0.0, rbar, tol, knots=knots)
    exponent = (2.0 * math.pi * lambda_scale * float(shape.eval_f(y0_norm))
                * _converged(integ, "dominant-interferer"))
    return -math.expm1(-exponent)


def markov_upper_tail(
    shape: ShapeFunction,
    channel: ChannelModel,
    lambda_scale: float,
    y0_norm: float,
    z: float,
    tol: float = 1e-10,
) -> float:
    """Markov upper bound min(1, lambda A_alpha(y0, c) / z) on P(I >= z)."""
    _check_positive(lambda_scale=lambda_scale, z=z)
    a = interference_driving(shape, y0_norm, channel.c, channel.alpha, tol)
    return min(1.0, lambda_scale * _converged(a, "driving-function") / z)
