"""Special-function kernels and adaptive quadrature.

The mean-interference closed forms reduce to one-dimensional integrals of a
shape derivative against two kernels:

* an inverse-hyperbolic-sine kernel ``asinh((r^2 + c - |y0|^2)/(2 |y0| sqrt(c)))``
  for path-loss exponent 2, with a logarithmic replacement at the origin, and
* an arctangent kernel built from the complex quantity

      kappa(r, c, y0) = (r^2 - y0^2 - j sqrt(c))
                        / sqrt((sqrt(c) + j (r^2 + y0^2))^2 + 4 r^2 y0^2)

  for path-loss exponent 4.

The arctangent kernel itself is evaluated here in an algebraically
equivalent form that is numerically stable for all radii and offsets (see
``arctan_kernel``).  That does not make the exponent-4 mean stable: its
closed form subtracts the kernel integral from an O(1) boundary term, which
cancels for receivers far from a compact deployment.
Semi-infinite integrals are handled by an adaptive Gauss-Kronrod 7/15 scheme
with a 1/(1+r) tail substitution.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DomainError
from .shapes import ShapeFunction

MAX_EVALUATIONS = 10**6

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

    ``converged`` is True when the accumulated error estimate dropped below
    the requested tolerance before the evaluation budget ran out.
    """

    value: float
    abs_error: float
    converged: bool
    evaluations: int

    def __post_init__(self):
        if self.abs_error < 0:
            raise DomainError("abs_error must be nonnegative")


def origin_epsilon(c: float) -> float:
    """Offset threshold below which the receiver is treated as centred."""
    return 1e-6 * max(1.0, math.sqrt(c))


def asinh_kernel(r, c: float, y0_norm: float):
    """Radial kernel of the mean interference at path-loss exponent 2.

    For offsets above ``origin_epsilon(c)`` this is
    ``asinh((r^2 + c - y0^2) / (2 y0 sqrt(c)))``; at (and near) the origin
    the asinh argument degenerates as 1/y0 and the kernel is replaced by
    ``log(r^2 + y0^2 + c)``.  The two branches differ by an r-independent
    offset that cancels in every integral against a decaying shape.

    Accepts a scalar radius or an array of radii.
    """
    if c <= 0:
        raise DomainError(f"path-loss constant c must be positive, got c={c}")
    if y0_norm < 0:
        raise DomainError("offset must be nonnegative")
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 0):
        raise DomainError("radius must be nonnegative")
    if y0_norm <= origin_epsilon(c):
        out = np.log(arr * arr + y0_norm * y0_norm + c)
    else:
        out = np.arcsinh((arr * arr + c - y0_norm * y0_norm) / (2.0 * y0_norm * math.sqrt(c)))
    if np.ndim(r) == 0:
        return float(out[0])
    return out


def arctan_kernel(r, c: float, y0_norm: float):
    """Angle kernel of the mean interference at path-loss exponent 4.

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
    if c <= 0:
        raise DomainError(f"path-loss constant c must be positive, got c={c}")
    if y0_norm < 0:
        raise DomainError("offset must be nonnegative")
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


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod engine
# ---------------------------------------------------------------------------


def _gk15(fn, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel on [a, b]; returns (value, error, 15)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(fn(mid + half * _XGK), dtype=float)
    k = half * float(_WGK @ y)
    g = half * float(_WG @ y[1:14:2])
    return k, abs(k - g)


def _adaptive(pieces, tol: float, max_evals: int) -> IntegralResult:
    """Bisect the worst panel until the summed error meets tol (abs or rel)."""
    heap = []
    serial = 0
    evals = 0
    for fn, a, b in pieces:
        if a == b:
            continue
        val, err = _gk15(fn, a, b)
        evals += 15
        heapq.heappush(heap, (-err, serial, a, b, val, fn))
        serial += 1

    if not heap:
        return IntegralResult(0.0, 0.0, True, evals)

    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(-item[0] for item in heap)
        if total_err <= max(tol, tol * abs(total)):
            return IntegralResult(total, total_err, True, evals)
        if evals + 30 > max_evals:
            return IntegralResult(total, total_err, False, evals)
        neg_err, _, a, b, val, fn = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # interval is at double-precision resolution: keep its value and
            # retire its (sub-ulp) error so the loop cannot spin on it
            heapq.heappush(heap, (0.0, serial, a, b, val, fn))
            serial += 1
            continue
        for lo, hi in ((a, mid), (mid, b)):
            v, e = _gk15(fn, lo, hi)
            heapq.heappush(heap, (-e, serial, lo, hi, v, fn))
            serial += 1
        evals += 30


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

    ``knots`` are inserted as panel boundaries so that integrands that are
    only piecewise smooth keep full convergence order.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if b < a:
        raise DomainError("need a <= b")
    pieces = [(fn, lo, hi) for lo, hi in _split_at_knots(a, b, knots)]
    return _adaptive(pieces, tol, max_evals)


def _guarded_product(weight_fn, kernel_fn):
    """weight * kernel with the kernel skipped where the weight is 0.

    Shape derivatives underflow to exactly 0 in their far tail while
    log-growing kernels tend to infinity; evaluating the product naively
    would produce 0 * inf = nan.
    """

    def fn(r):
        r = np.asarray(r, dtype=float)
        w = np.asarray(weight_fn(r), dtype=float)
        out = np.zeros_like(w)
        nz = w != 0.0
        if np.any(nz):
            out[nz] = w[nz] * np.asarray(kernel_fn(r[nz]), dtype=float)
        return out

    return fn


def integrate_semi_infinite(
    kernel: Callable,
    weight: Union[ShapeFunction, Callable],
    tol: float = 1e-10,
    *,
    knee: float | None = None,
    max_evals: int = MAX_EVALUATIONS,
) -> IntegralResult:
    """Integrate weight(r) * kernel(r) over r in [0, infinity).

    ``weight`` is either a ShapeFunction (its derivative is the weight and
    its knots become split points) or a plain vectorised callable.  The
    domain is split at ``knee`` and the tail is mapped through u = 1/(1+r)
    so the adaptive rule works on finite panels only.  Whether the integral
    converges for the weight's tail is the caller's concern.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")

    knots: tuple[float, ...] = ()
    support_end = None
    if isinstance(weight, ShapeFunction):
        weight_fn = weight.eval_deriv
        knots = weight.knots
        support_end = weight.support_end
        if knee is None:
            knee = max(1.0, 4.0 * weight.scale)
    else:
        weight_fn = weight
        if knee is None:
            knee = 1.0

    fn = _guarded_product(weight_fn, kernel)

    if support_end is not None:
        # nothing beyond the support: a finite integral suffices
        return integrate_interval(fn, 0.0, support_end, tol, knots=knots, max_evals=max_evals)

    if knots:
        knee = max(knee, 1.01 * max(knots))

    u_knee = 1.0 / (1.0 + knee)

    def tail_fn(u):
        u = np.asarray(u, dtype=float)
        r = (1.0 - u) / u
        return fn(r) / (u * u)

    pieces = [(fn, lo, hi) for lo, hi in _split_at_knots(0.0, knee, knots)]
    pieces.append((tail_fn, 0.0, u_knee))
    return _adaptive(pieces, tol, max_evals)
