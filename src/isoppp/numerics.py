"""Kernels and adaptive quadrature for the mean-interference integrals.

The driving function ``A_alpha(y0, c) = int_0^inf r F(r) K_alpha(r) dr`` of
``analytic`` integrates the angular kernel
``K_alpha(r) = int_0^{2 pi} dphi / (c + d^alpha)``,
``d^2 = r^2 + y0^2 - 2 r y0 cos(phi)``, which has a closed form for
alpha in {2, 4} (``_kernel_alpha2``, ``_kernel_alpha4``).  Both kernels are
positive, so the integrand is too and a relative stopping test is safe.
The paper's by-parts forms of A_2 and A_4 integrate the shape derivative
against ``asinh_kernel`` and ``arctan_kernel`` instead.  They are equal
(frozen values in ``tests/test_analytic.py`` pin that), and the kernels
stay public as the paper's own functions, but at exponent 4 the by-parts
form cancels two O(1) terms far from a compact deployment.

Integrals run through an adaptive Gauss-Kronrod 7/15 scheme with a relative
tolerance and a QUADPACK round-off floor (Piessens et al., *QUADPACK*,
1983); semi-infinite ones map their tail through r = knee/u.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonConvergence, _check_finite, _check_nonnegative, _check_positive

MAX_EVALUATIONS = 10**6
# a panel whose error estimate is at most this multiple of the integral of
# |f| over it is resolved to round-off and is not bisected further
_EPS = float(np.finfo(float).eps)
_ROUNDOFF = 50.0 * _EPS

# 15-point Kronrod extension of the 7-point Gauss rule (nodes symmetric
# about 0 on [-1, 1]; the Gauss nodes are every second Kronrod node).
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


@dataclass(frozen=True)
class IntegralResult:
    """Value and error estimate of an adaptive quadrature.

    ``converged`` is True when, before the evaluation budget ran out, the
    accumulated error estimate dropped to the relative tolerance or every
    panel was resolved to round-off.
    """

    value: float
    abs_error: float
    converged: bool
    evaluations: int

    def __post_init__(self):
        # inf is the estimate of an integral that met a non-finite value
        if not 0.0 <= self.abs_error <= math.inf:
            raise DomainError(f"abs_error must lie in [0, inf], got {self.abs_error}")


def _converged(result: IntegralResult, what: str) -> float:
    """Value of a quadrature that converged; NonConvergence otherwise."""
    if not result.converged:
        raise NonConvergence(f"{what} quadrature did not converge", result=result)
    return result.value


def asinh_kernel(r, c: float, y0_norm: float):
    """Radial kernel of the paper's by-parts mean at path-loss exponent 2.

    For offsets above ``1e-6 max(1, sqrt(c))`` this is
    ``asinh((r^2 + c - y0^2) / (2 y0 sqrt(c)))``; at (and near) the origin
    the asinh argument degenerates as 1/y0 and the kernel is replaced by
    ``log(r^2 + y0^2 + c)``.  The two branches differ by an r-independent
    offset that cancels in every integral against a decaying shape.

    Accepts a scalar radius or an array of radii.
    """
    _check_positive(c=c)
    _check_nonnegative(y0_norm=y0_norm)
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 0):
        raise DomainError("radius must be nonnegative")
    if y0_norm <= 1e-6 * max(1.0, math.sqrt(c)):
        out = np.log(arr * arr + y0_norm * y0_norm + c)
    else:
        out = np.arcsinh((arr * arr + c - y0_norm * y0_norm) / (2.0 * y0_norm * math.sqrt(c)))
    if np.ndim(r) == 0:
        return float(out[0])
    return out


def arctan_kernel(r, c: float, y0_norm: float):
    """Angle kernel of the paper's by-parts mean at path-loss exponent 4.

    Mathematically this is ``atan2(2 Re kappa, 1 - |kappa|^2)``, which is
    continuous, nondecreasing in r, and runs from -pi/2 at r = 0 to +pi/2 as
    r -> infinity.  That two-argument form is ill-conditioned wherever
    1 - |kappa|^2 underflows (r near 0, offsets near 0, and large r), so the
    kernel is evaluated through the equivalent stable expression

        Theta(r) = 2 arg(D + s + j u) - pi/2,
        D = sqrt(s^2 - u^2 + 2 j s v),  s = sqrt(c),
        u = r^2 - y0^2,  v = r^2 + y0^2,

    obtained by writing atan2(2 Re k, 1 - |k|^2) = arg((1 + jk)(1 + j conj k))
    and rationalising; Im(D) >= |u| guarantees the argument stays in
    [0, pi/2], hence Theta in [-pi/2, pi/2].  At y0 = 0 it reduces exactly to
    2 atan(r^2 / sqrt(c)) - pi/2.

    Accepts a scalar radius or an array of radii.
    """
    _check_positive(c=c)
    _check_nonnegative(y0_norm=y0_norm)
    s = math.sqrt(c)
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 0):
        raise DomainError("radius must be nonnegative")
    # beyond ~1e70 the intermediate squares overflow; the kernel is pi/2 to
    # well below machine precision there.
    arr = np.minimum(arr, 1e70)
    t2 = arr * arr
    a2 = float(y0_norm) ** 2
    u = t2 - a2
    v = t2 + a2
    inner = (s * s - u * u) + 2j * s * v
    w = np.sqrt(inner) + s + 1j * u
    out = 2.0 * np.angle(w) - 0.5 * math.pi
    if np.ndim(r) == 0:
        return float(out[0])
    return out


def _kernel_alpha2(r, c: float, y0_norm: float):
    """K_2 = 2 pi / sqrt((c + (r - y0)^2) (c + (r + y0)^2)); unchecked."""
    s = math.sqrt(c)
    return 2.0 * math.pi / np.hypot(s, r - y0_norm) / np.hypot(s, r + y0_norm)


def _kernel_alpha4(r, c: float, y0_norm: float):
    """K_4 = (2 pi / s) (-Im z) / |z|^2 with s = sqrt(c), a1,2 = (r -+ y0)^2 and
    z = sqrt(a1 - j s) sqrt(a2 - j s) (principal roots); unchecked.

    The root of a - j s is p - j s/(2p), p^2 = t/2, t = |a - j s| + a, so
    K_4 = pi (t1 + t2) / (sqrt(t1 t2) |a1 - j s| |a2 - j s|): positive terms
    only, divided one at a time so nothing overflows before (r + y0)^2 does.
    """
    s = math.sqrt(c)
    a1 = (r - y0_norm) ** 2
    a2 = (r + y0_norm) ** 2
    m1 = np.hypot(a1, s)
    m2 = np.hypot(a2, s)
    t1 = m1 + a1
    t2 = m2 + a2
    return math.pi * (t1 + t2) / np.sqrt(t1) / np.sqrt(t2) / m1 / m2


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod engine
# ---------------------------------------------------------------------------


def _gk15(fn, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel on [a, b]: (value, error, integral of |f|)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(fn(mid + half * _XGK), dtype=float)
    k = half * float(_WGK @ y)
    g = half * float(_WG @ y[1:14:2])
    return k, abs(k - g), half * float(_WGK @ np.abs(y))


def _adaptive(pieces, tol: float, max_evals: int) -> IntegralResult:
    """Bisect the worst panel until the summed error is at most tol * |total|.

    Panels resolved to round-off are done; so is the whole integral once
    every panel is.  A non-finite panel stops the loop unconverged.  The
    stopping test runs on running sums, widened by a bound on their rounding
    drift, and a stop is confirmed on exact ``math.fsum`` sums, so the panels
    bisected are those that exact sums after every bisection would choose.
    """
    _check_positive(tol=tol)
    heap = []  # (-error, serial, a, b, value, error, fn); key 0.0 marks a done panel
    serial = 0
    evals = 0
    total = total_err = 0.0
    drift = 0.0  # sum of |running sums| after each update: rounding <= eps/2 drift

    def push(fn, a, b):
        nonlocal serial, evals, total, total_err, drift
        val, err, resabs = _gk15(fn, a, b)
        key = 0.0 if err <= _ROUNDOFF * resabs else -err
        heapq.heappush(heap, (key, serial, a, b, val, err, fn))
        serial += 1
        evals += 15
        total += val
        total_err += err
        drift += abs(total) + total_err

    def exact():
        return math.fsum(item[4] for item in heap), math.fsum(item[5] for item in heap)

    for fn, a, b in pieces:
        if a < b:
            push(fn, a, b)

    while True:
        if not math.isfinite(total_err):
            # a non-finite integrand value: bisecting around it cannot help
            return IntegralResult(math.nan, math.inf, False, evals)
        slack = 4.0 * _EPS * drift
        if total_err - slack <= tol * (abs(total) + slack) * (1.0 + _EPS) or heap[0][0] == 0.0:
            total, total_err = exact()
            drift = abs(total) + total_err
            if total_err <= tol * abs(total) or heap[0][0] == 0.0:
                return IntegralResult(total, total_err, True, evals)
        if evals + 30 > max_evals:
            return IntegralResult(*exact(), False, evals)
        _, _, a, b, val, err, fn = heapq.heappop(heap)
        total -= val
        total_err -= err
        drift += abs(total) + total_err
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # interval is at double-precision resolution: keep its value and
            # retire its (sub-ulp) error so the loop cannot spin on it
            heapq.heappush(heap, (0.0, serial, a, b, val, 0.0, fn))
            serial += 1
            total += val
            drift += abs(total)
            continue
        push(fn, a, mid)
        push(fn, mid, b)


def _split_at_knots(a: float, b: float, knots: Sequence[float]):
    cuts = sorted({float(k) for k in knots if a < k < b})
    edges = [a, *cuts, b]
    return list(zip(edges[:-1], edges[1:]))


def integrate_interval(
    fn: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    *,
    knots: Sequence[float] = (),
    max_evals: int = MAX_EVALUATIONS,
) -> IntegralResult:
    """Adaptive integral of a vectorised integrand over [a, b].

    ``tol`` is relative: the summed error estimate must fall to
    ``tol * |value|``, or every panel must be resolved to round-off.
    ``knots`` are inserted as panel boundaries so that integrands that are
    only piecewise smooth keep full convergence order.
    """
    _check_finite(a=a, b=b)
    if b < a:
        raise DomainError("need a <= b")
    pieces = [(fn, lo, hi) for lo, hi in _split_at_knots(a, b, knots)]
    return _adaptive(pieces, tol, max_evals)


def integrate_semi_infinite(
    fn: Callable,
    tol: float = 1e-10,
    *,
    knots: Sequence[float] = (),
    knee: float = 1.0,
    support_end: float | None = None,
    max_evals: int = MAX_EVALUATIONS,
) -> IntegralResult:
    """Integrate a vectorised fn(r) over r in [0, infinity).

    ``tol`` is relative, as in ``integrate_interval``.  With a finite
    ``support_end`` (fn vanishes beyond it) this is the integral over
    [0, support_end].  Otherwise [0, knee] is integrated directly and the
    tail beyond the knee through r = knee/u, u in (0, 1], so the adaptive
    rule works on finite panels only and its first tail panel spans radii
    from the knee to a few hundred knees.  Both parts split at the
    ``knots``.  Whether the integral converges is the caller's concern.
    """
    if support_end is not None:
        return integrate_interval(fn, 0.0, support_end, tol, knots=knots, max_evals=max_evals)

    def tail_fn(u):
        # r -> infinity at u = 0, where the integrand of a convergent
        # integral is taken as 0
        out = np.zeros_like(u)
        pos = u > 0.0
        r = knee / u[pos]
        out[pos] = fn(r) * r / u[pos]
        return out

    tail_knots = [knee / k for k in knots if k > knee]
    pieces = [(fn, lo, hi) for lo, hi in _split_at_knots(0.0, knee, knots)]
    pieces += [(tail_fn, lo, hi) for lo, hi in _split_at_knots(0.0, 1.0, tail_knots)]
    return _adaptive(pieces, tol, max_evals)
