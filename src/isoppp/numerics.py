"""Kernels and adaptive quadrature for the mean-interference integrals.

The driving function ``A_alpha(y0, c) = int_0^inf r F(r) K_alpha(r) dr`` of
``analytic`` integrates the angular kernel
``K_alpha(r) = int_0^{2 pi} dphi / (c + d^alpha)``,
``d^2 = r^2 + y0^2 - 2 r y0 cos(phi)``, which has a closed form for
alpha in {2, 4} (``_kernel_alpha2``, ``_kernel_alpha4``); every other
exponent takes a composite Gauss-Legendre rule in phi/2 (``_kernel_angular``).
All kernels are positive, so the integrand is too and a relative stopping
test is safe.  The paper's by-parts forms of A_2 and A_4, and their asinh
and arctan kernels, are kept as test oracles (``tests/conftest.py``); frozen
values in ``tests/test_analytic.py`` pin the equivalence.

Integrals run through an adaptive Gauss-Kronrod 7/15 scheme with a relative
tolerance and a QUADPACK round-off floor (Piessens et al., *QUADPACK*,
1983); semi-infinite ones map their tail through r = knee/u.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonConvergence, _check_finite, _check_positive

MAX_EVALUATIONS = 10**6
# a panel whose error estimate is at most this multiple of the integral of
# |f| over it is resolved to round-off and is not bisected further
_EPS = float(np.finfo(float).eps)
_ROUNDOFF = 50.0 * _EPS

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1] (the Gauss
# nodes are every second Kronrod node); both rules are symmetric about 0, so
# each table lists its half from -1 to 0 and is mirrored
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
])
_XGK = np.concatenate((_XGK, -_XGK[-2::-1]))
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WGK = np.concatenate((_WGK, _WGK[-2::-1]))
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])
_WG = np.concatenate((_WG, _WG[-2::-1]))


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


@functools.cache
def _gauss_legendre():
    """16-point Gauss-Legendre nodes and weights: Newton on P_16 from Tricomi's guesses."""
    x = -np.cos(math.pi * (np.arange(16) + 0.75) / 16.5)
    for _ in range(5):  # the weights 2 / ((1 - x^2) P_16'(x)^2) at the last step's x
        p0, p1 = np.ones_like(x), x
        for n in range(2, 17):
            p0, p1 = p1, ((2 * n - 1) * x * p1 - (n - 1) * p0) / n
        dp = 16.0 * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))
        x, w = x - p1 / dp, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return x, w


def _kernel_angular(r, c: float, y0_norm: float, alpha: float):
    """K_alpha = 4 int_0^{pi/2} dpsi / (c + d^alpha), d^2 = (r - y0)^2 + 4 r y0 sin^2 psi, by
    16-point Gauss-Legendre panels halving from pi/2 to 1/64 of the peak width
    h = sqrt(((r - y0)^2 + c^(2/alpha)) / (4 r y0)); unchecked; d^alpha = inf gives 0."""
    x, w = _gauss_legendre()
    r = np.asarray(r, dtype=float)[..., None]
    with np.errstate(divide="ignore", over="ignore"):
        h = np.hypot(r - y0_norm, c ** (1.0 / alpha)) / (2.0 * np.sqrt(r) * math.sqrt(y0_norm))
        halvings = np.maximum(np.frexp(32.0 * math.pi / h)[1], 0)  # 2^halvings >= 32 pi / h
        # edges pi/2 2^-k for k up to halvings, repeated after it (empty panels), then 0
        edges = 0.5 * math.pi * 0.5 ** np.minimum(np.arange(halvings.max() + 2), halvings)
        edges[..., -1] = 0.0
        half = 0.5 * edges[..., :-1] - 0.5 * edges[..., 1:]
        psi = (edges[..., :-1] - half)[..., None] + half[..., None] * x
        d2 = (r - y0_norm)[..., None] ** 2 + 4.0 * (r * y0_norm)[..., None] * np.sin(psi) ** 2
        return 4.0 * np.sum(half * ((1.0 / (c + d2 ** (0.5 * alpha))) @ w), axis=-1)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod engine
# ---------------------------------------------------------------------------


def _gk15(fn, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel on [a, b]: (value, error, integral of |f|)."""
    mid = 0.5 * a + 0.5 * b  # halving first: a + b may overflow
    half = 0.5 * b - 0.5 * a
    y = np.asarray(fn(mid + half * _XGK), dtype=float)
    k = half * float(_WGK @ y)
    g = half * float(_WG @ y[1:14:2])
    return k, abs(k - g), half * float(_WGK @ np.abs(y))


def _adaptive(pieces, tol: float, max_evals: int) -> IntegralResult:
    """Bisect the worst panel until the summed error is at most tol * |total|.

    Panels resolved to round-off are done; so is the whole integral once
    every panel is.  A non-finite panel stops the loop unconverged.  The
    stopping test runs on running sums, each widened by a bound on its own
    rounding drift, and a stop is confirmed on exact ``math.fsum`` sums, so the
    panels bisected are those that exact sums after every bisection would
    choose.  The error sum's drift scales with the error, not the value, so at
    a tolerance near eps a confirmation that fails is rare.
    """
    _check_positive(tol=tol)
    heap = []  # (-error, serial, a, b, value, error, fn); key 0.0 marks a done panel
    serial = 0
    evals = 0
    total = total_err = 0.0
    # sums of |total| and of |total_err| after each update: each running sum's
    # rounding is at most eps/2 times its drift
    drift = drift_err = 0.0

    def push(fn, a, b):
        nonlocal serial, evals, total, total_err, drift, drift_err
        val, err, resabs = _gk15(fn, a, b)
        key = 0.0 if err <= _ROUNDOFF * resabs else -err
        heapq.heappush(heap, (key, serial, a, b, val, err, fn))
        serial += 1
        evals += 15
        total += val
        total_err += err
        drift += abs(total)
        drift_err += abs(total_err)

    def exact():
        return math.fsum(item[4] for item in heap), math.fsum(item[5] for item in heap)

    for fn, a, b in pieces:
        if a < b:
            push(fn, a, b)

    while True:
        if not math.isfinite(total_err):
            # a non-finite integrand value: bisecting around it cannot help
            return IntegralResult(math.nan, math.inf, False, evals)
        if (total_err - 4.0 * _EPS * drift_err <= tol * (abs(total) + 4.0 * _EPS * drift)
                * (1.0 + _EPS) or heap[0][0] == 0.0):
            total, total_err = exact()
            drift, drift_err = abs(total), total_err
            if total_err <= tol * abs(total) or heap[0][0] == 0.0:
                return IntegralResult(total, total_err, True, evals)
        if evals + 30 > max_evals:
            return IntegralResult(*exact(), False, evals)
        _, _, a, b, val, err, fn = heapq.heappop(heap)
        total -= val
        total_err -= err
        drift += abs(total)
        drift_err += abs(total_err)
        mid = 0.5 * a + 0.5 * b
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
