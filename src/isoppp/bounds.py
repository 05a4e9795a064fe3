"""Distribution-free tail bounds on the interference.

Upper bound: Markov's inequality applied to the closed-form mean.  Lower
bound: the dominant-interferer construction, valid wherever the intensity is
subharmonic (radial Laplacian F''(r) + F'(r)/r >= 0); a single node inside
the largest disc around the receiver that fits in the subharmonic region
already pushes the interference past the threshold with the stated
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ChannelModel, interference_driving
from .errors import DomainError, NonConvergence, OutsideRegion
from .numerics import integrate_interval, integrate_semi_infinite
from .shapes import ShapeFunction

SUBHARMONIC_TOL = -1e-12
_PROBE_DOUBLINGS = 20


@dataclass(frozen=True)
class RadialRegion:
    """Ordered disjoint radial intervals (lo, hi); hi may be math.inf."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_hi = -1.0
        for lo, hi in self.intervals:
            if lo < 0 or hi <= lo:
                raise DomainError(f"invalid interval ({lo}, {hi})")
            if lo < prev_hi:
                raise DomainError("intervals must be ordered and disjoint")
            prev_hi = hi


def _radial_laplacian(shape: ShapeFunction, r: np.ndarray, h: float) -> np.ndarray:
    """F''(r) + F'(r)/r via a central difference of the analytic derivative."""
    f = shape.eval_deriv
    fpp = (np.asarray(f(r + h)) - np.asarray(f(r - h))) / (2.0 * h)
    return fpp + np.asarray(f(r)) / r


def subharmonic_region(
    shape: ShapeFunction, grid_step: float, *, r_max: float | None = None
) -> RadialRegion:
    """Radii where the intensity is subharmonic, detected on a grid.

    Grid points within one step of a shape knot are excluded (finite
    differences straddling a knot are meaningless), which conservatively
    shrinks the detected intervals.  When the last grid point qualifies, the
    final interval is extended to infinity provided the Laplacian also
    passes at geometrically growing probe radii.
    """
    if grid_step <= 0:
        raise DomainError("grid step must be positive")
    if r_max is None:
        r_max = max(2.0 * shape.scale, 10.0 * grid_step)
        if shape.knots:
            r_max = max(r_max, 1.2 * max(shape.knots))
    n = int(math.floor(r_max / grid_step))
    if n < 4:
        raise DomainError("grid too coarse for the requested radius range")
    if n > 2 * 10**6:
        raise DomainError("grid too fine for the requested radius range")
    grid = grid_step * np.arange(1, n + 1)
    lap = _radial_laplacian(shape, grid, grid_step)
    ok = lap >= SUBHARMONIC_TOL
    for knot in shape.knots:
        ok &= np.abs(grid - knot) > grid_step * (1.0 + 1e-9)

    intervals: list[tuple[float, float]] = []
    start = None
    for i, good in enumerate(ok):
        if good and start is None:
            start = i
        elif not good and start is not None:
            intervals.append((0.0 if start == 0 else float(grid[start]), float(grid[i - 1])))
            start = None
    if start is not None:
        lo = 0.0 if start == 0 else float(grid[start])
        hi = float(grid[-1])
        probe = grid[-1] * 2.0 ** np.arange(1, _PROBE_DOUBLINGS + 1)
        if np.all(_radial_laplacian(shape, probe, grid_step) >= SUBHARMONIC_TOL):
            hi = math.inf
        intervals.append((lo, hi))
    return RadialRegion(intervals=tuple(intervals))


def max_inscribed_radius(region: RadialRegion, y0_norm: float) -> float:
    """Radius of the largest disc centred at offset ``y0_norm`` inside the
    region (annulus geometry; an interval starting at 0 is a full disc, so
    the inscribed disc may cover the origin)."""
    if y0_norm < 0:
        raise DomainError("offset must be nonnegative")
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
    grid_step: float | None = None,
) -> float:
    """Dominant-interferer lower bound on P(I >= z).

    1 - exp(-2 pi lambda F(|y0|) int_0^rbar r P(g >= z (c + r^alpha)) dr),
    with rbar the inscribed radius in the subharmonic region.  Requires a
    fading law with a known tail function.  An infinite rbar is handled by
    the semi-infinite quadrature path.
    """
    if z <= 0:
        raise DomainError("interference level z must be positive")
    if lambda_scale <= 0:
        raise DomainError("intensity scale must be positive")
    if channel.fading.tail is None:
        raise DomainError("lower bound needs a fading law with a known tail P(g >= x)")
    if region is None:
        region = subharmonic_region(shape, grid_step or shape.scale / 256.0)
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
    if not integ.converged:
        raise NonConvergence("dominant-interferer quadrature did not converge", result=integ)

    exponent = 2.0 * math.pi * lambda_scale * float(shape.eval_f(y0_norm)) * integ.value
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
    if z <= 0:
        raise DomainError("interference level z must be positive")
    a = interference_driving(shape, y0_norm, channel.c, channel.alpha, tol)
    if not a.converged:
        raise NonConvergence("driving-function quadrature did not converge", result=a)
    return min(1.0, lambda_scale * a.value / z)
