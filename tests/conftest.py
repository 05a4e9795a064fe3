"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own quadrature: angular
and planar integrals go through scipy's QUADPACK wrappers, or mpmath where
double precision is not enough, so that agreement between the two routes is
meaningful.
"""

import cmath
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import isoppp as ip
from isoppp.errors import _check_nonnegative, _check_positive

# a valid parameter set of every registered scenario (``shapes._SCENARIOS``)
SCENARIO_PARAMS = {
    "A": {"r0": 500.0, "r1": 800.0},
    "B": {"hot_level": 0.3, "hot_r0": 10.0, "hot_r1": 30.0, "base_level": 0.5,
          "base_r0": 200.0, "base_r1": 400.0},
    "C": {"rho": 100.0},
    "D": {"delta": 1e-5, "alpha": 4.0},
    "constant": {"level": 0.7},
    "powerTail": {"nu": 2.0, "r0": 50.0},
    "logDecay": {"r0": 100.0},
}


def _plateau_slope(r, r0, r1):
    width = r1 - r0
    inside = (r > r0) & (r < r1)
    return np.where(inside, -0.5 * np.pi / width * np.sin(np.pi * (r - r0) / width), 0.0)


# closed-form dF/dr of every catalogued scenario, from its parameters; the
# shapes carry F alone, so these are oracles for their profiles
_SLOPES = {
    "A": _plateau_slope,
    "B": lambda r, hot_level, hot_r0, hot_r1, base_level, base_r0, base_r1: (
        hot_level * _plateau_slope(r, hot_r0, hot_r1)
        + base_level * _plateau_slope(r, base_r0, base_r1)),
    "C": lambda r, rho: -np.exp(-r / rho) / rho,
    "D": lambda r, delta, alpha: delta * alpha * r ** (alpha - 1.0) * np.exp(-delta * r**alpha),
    "constant": lambda r, level: np.zeros_like(r),
    "powerTail": lambda r, nu, r0: -nu * (r / r0**2) * (1.0 + (r / r0) ** 2) ** (-nu / 2.0 - 1.0),
    "logDecay": lambda r, r0: -1.0 / (r0 * (1.0 + r / r0) * (1.0 + np.log1p(r / r0)) ** 2),
}


def profile_slope(shape, r):
    """dF/dr of a catalogued shape at r (scalar or array), from its descriptor."""
    return _SLOPES[shape.descriptor["scenario"]](np.asarray(r, dtype=float),
                                                 **shape.descriptor["params"])


@pytest.fixture(scope="session")
def fig3_shape():
    """Finite-network shape used throughout the figure-style checks."""
    return ip.scenario_finite_network(500.0, 800.0)


@pytest.fixture(scope="session")
def scattered100():
    return ip.scenario_scattered(100.0)


def rayleigh_channel(alpha, c):
    return ip.ChannelModel(alpha=alpha, c=c, fading=ip.FadingLaw.rayleigh())


def unit_channel(alpha, c):
    return ip.ChannelModel(alpha=alpha, c=c, fading=ip.FadingLaw.unit())


def angular_closed_form(a, b):
    """Closed form of the angular integral int_0^pi dphi / (a + b cos phi).

    Equals pi / sqrt(a^2 - b^2); requires a > |b| so the integrand stays
    bounded.
    """
    if not a > abs(b):
        raise ip.DomainError(f"need a > |b|, got a={a}, b={b}")
    return math.pi / math.sqrt((a - abs(b)) * (a + abs(b)))


def kappa(r, c, y0_norm):
    """The complex quantity entering the exponent-4 arctangent kernel.

    Uses the principal square-root branch.  |kappa| <= 1 for all r >= 0.
    """
    if c <= 0:
        raise ip.DomainError(f"path-loss constant c must be positive, got c={c}")
    s = math.sqrt(c)
    t2 = float(r) ** 2
    a2 = float(y0_norm) ** 2
    num = complex(t2 - a2, -s)
    inner = complex(s, t2 + a2) ** 2 + 4.0 * t2 * a2
    return num / np.sqrt(complex(inner))


def asinh_kernel(r, c: float, y0_norm: float):
    """Radial kernel of the paper's by-parts mean at path-loss exponent 2,

        A_2(y0, c) = -pi * ( F(0) K(0) + int_0^inf f(r) K(r) dr ),  f = F'.

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
        raise ip.DomainError("radius must be nonnegative")
    if y0_norm <= 1e-6 * max(1.0, math.sqrt(c)):
        out = np.log(arr * arr + y0_norm * y0_norm + c)
    else:
        out = np.arcsinh((arr * arr + c - y0_norm * y0_norm) / (2.0 * y0_norm * math.sqrt(c)))
    if np.ndim(r) == 0:
        return float(out[0])
    return out


def arctan_kernel(r, c: float, y0_norm: float):
    """Angle kernel of the paper's by-parts mean at path-loss exponent 4,

        A_4(y0, c) = pi/(2 sqrt(c)) * ( F_inf pi/2 - F(0) Theta(0)
                                        - int_0^inf f(r) Theta(r) dr ),

    with ``Theta(0) = -pi/2``.  Far from a compact deployment this form
    cancels two O(1) terms, which the library's radial integral avoids.

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
        raise ip.DomainError("radius must be nonnegative")
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


def brute_angular_alpha2(r, c, y0):
    """int_0^pi dphi / (c + r^2 + y0^2 - 2 r y0 cos phi) by QUADPACK."""
    val, _ = quad(
        lambda phi: 1.0 / (c + r * r + y0 * y0 - 2.0 * r * y0 * math.cos(phi)),
        0.0,
        math.pi,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return val


def brute_angular_alpha4(r, c, y0):
    """int_0^pi 2 r dphi / (c + (r^2 + y0^2 - 2 r y0 cos phi)^2) by QUADPACK."""
    val, _ = quad(
        lambda phi: 2.0 * r / (c + (r * r + y0 * y0 - 2.0 * r * y0 * math.cos(phi)) ** 2),
        0.0,
        math.pi,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


def angular_oracle(r, c, y0, alpha):
    """K_alpha = 4 int_0^{pi/2} dpsi / (c + dist^alpha) by QUADPACK, dist^2 =
    (r - y0)^2 + 4 r y0 sin^2 psi, split at h 2^k around the peak width
    h = sqrt(((r - y0)^2 + c^(2/alpha)) / (4 r y0)); r y0 > 0."""

    def f(psi):
        return 1.0 / (c + ((r - y0) ** 2 + 4.0 * r * y0 * math.sin(psi) ** 2) ** (0.5 * alpha))

    h = math.sqrt(((r - y0) ** 2 + c ** (2.0 / alpha)) / (4.0 * r * y0))
    points = [h * 2.0**k for k in range(-8, 8) if h * 2.0**k < 0.5 * math.pi]
    val, _ = quad(f, 0.0, 0.5 * math.pi, points=points or None, epsabs=0.0, epsrel=1e-13,
                  limit=500)
    return 4.0 * val


@functools.cache
def _gauss_legendre_40():
    with mp.workdps(40):
        return mp.gauss_quadrature(20, "legendre")


def angular_oracle_40(r, c, y0, alpha):
    """The kernel of ``angular_oracle`` in 40-digit arithmetic, for where QUADPACK
    loses digits (r = y0 above y0 ~ 3e3): 20-point Gauss-Legendre on [0, h/256]
    and on each panel [h 2^k, h 2^(k+1)] up to pi/2.  mpmath's adaptive ``quad``
    is no oracle here, because it stops on an absolute error and so misreads the
    tiny kernels at large y0.  This rule agreed with a 50-digit tanh-sinh
    quadrature of the integrand scaled to 1 at psi = 0 to 1.1e-16 on 576 points
    (alpha in {2.5, 3, 5, 9}, c from 1e-6 to 1e3, y0 from 0.5 to 1e6, r at and
    around y0); r y0 > 0."""
    nodes, weights = _gauss_legendre_40()
    with mp.workdps(40):
        r, c, y0, alpha = mp.mpf(r), mp.mpf(c), mp.mpf(y0), mp.mpf(alpha)

        def f(psi):
            return 1 / (c + ((r - y0) ** 2 + 4 * r * y0 * mp.sin(psi) ** 2) ** (alpha / 2))

        h = mp.sqrt(((r - y0) ** 2 + c ** (2 / alpha)) / (4 * r * y0))
        edges = [mp.mpf(0), h / 256]
        while edges[-1] < mp.pi / 2:
            edges.append(2 * edges[-1])
        edges[-1] = mp.pi / 2
        total = mp.fsum((hi - lo) / 2 * mp.fsum(w * f((hi + lo) / 2 + (hi - lo) / 2 * x)
                                                for x, w in zip(nodes, weights))
                        for lo, hi in zip(edges, edges[1:]))
        return float(4 * total)


def campbell_mean(shape, alpha, c, lam, y0, r_hi):
    """Mean interference lam * int_0^r_hi r F(r) int_0^{2pi} dphi / (c + dist^alpha) dr
    by nested QUADPACK (Campbell route, ``_campbell``)."""
    return lam * _campbell(shape, alpha, c, y0, r_hi)


def _campbell(shape, alpha, c, y0, r_hi):
    """int_0^r_hi r F(r) int_0^{2pi} dphi / (c + dist^alpha) dr by nested QUADPACK.

    The squared distance is (r - y0)^2 + 4 r y0 sin^2(phi/2): the
    law-of-cosines form cancels near r = y0, phi = 0, and QUADPACK then
    reports roundoff.  The radial integral breaks at y0 and the shape knots.
    """

    def radial(r):
        def angular(phi):
            dist2 = (r - y0) ** 2 + 4.0 * r * y0 * math.sin(0.5 * phi) ** 2
            return 1.0 / (c + dist2 ** (alpha / 2.0))

        val, _ = quad(angular, 0.0, math.pi, epsabs=0.0, epsrel=1e-13, limit=200)
        return 2.0 * r * float(shape.eval_f(r)) * val

    inner = sorted({k for k in (*shape.knots, y0) if 0.0 < k < r_hi})
    total, _ = quad(radial, 0.0, r_hi, points=inner or None, epsabs=0.0, epsrel=1e-13, limit=200)
    return total


def compact_mass(shape):
    """2 pi int_0^R r F(r) dr of a compactly supported shape, by QUADPACK."""
    val, _ = quad(lambda r: r * shape.eval_f(r), 0.0, shape.support_end,
                  points=shape.knots or None, epsabs=0.0, epsrel=1e-13)
    return 2.0 * math.pi * val


def campbell_outage(shape, alpha, c, lam, y0, s, eta, beta):
    """Rayleigh outage 1 - exp(-beta/eta) L_I(s) by nested QUADPACK (Campbell route).

    L_I(s) = exp(-lam s int_0^R r F(r) int_0^{2pi} dphi / (s + c + dist^alpha) dr)
    for a compactly supported shape with support end R (``_campbell``).
    ``eta`` is the linear mean SNR (``math.inf`` for a noise-free link) and
    ``beta`` the SINR threshold.
    """
    if shape.tail.kind is not ip.TailKind.COMPACT_SUPPORT:
        raise ValueError("campbell_outage needs a compactly supported shape")
    total = s * _campbell(shape, alpha, s + c, y0, shape.tail.param)
    return 1.0 - math.exp(-beta / eta) * math.exp(-lam * total)


def campbell_divergence(shape, y0, d, beta):
    """log_divergence reference: s int_0^inf (F(y0) - F(r)) r K_4(r) dr with
    s = beta d^4 and c = s, the angular integral r K_4 from
    ``brute_angular_alpha4`` and the radial one by QUADPACK, split at y0 and
    the shape knots below four times the largest length scale."""
    s = beta * d**4
    f_y0 = float(shape.eval_f(y0))

    def radial(r):
        return (f_y0 - float(shape.eval_f(r))) * brute_angular_alpha4(r, s, y0)

    edge = 4.0 * max(y0, shape.scale, d)
    points = sorted({k for k in (*shape.knots, y0) if 0.0 < k < edge})
    near, _ = quad(radial, 0.0, edge, points=points or None, epsabs=0.0, epsrel=1e-12,
                   limit=500)
    far, _ = quad(radial, edge, math.inf, epsabs=0.0, epsrel=1e-12, limit=500)
    return s * (near + far)


def _closed_kernel(r, c, y0, alpha):
    """int_0^{2pi} dphi / (c + dist^alpha) at alpha 2 or 4, from
    int_0^{2pi} dphi / (a - b cos phi) = 2 pi / sqrt(a^2 - b^2) in complex
    arithmetic (alpha 4 splits 1/(c + d^4) into poles at d^2 = -+ j sqrt c)."""
    lo, hi = (r - y0) ** 2, (r + y0) ** 2
    if alpha == 2:
        return 2.0 * math.pi / math.sqrt((c + lo) * (c + hi))
    s = math.sqrt(c)
    root = cmath.sqrt(complex(lo * hi - c, -s * (lo + hi)))
    return 2.0 * math.pi / s * (1.0 / root).imag


def campbell_peak_mean(shape, alpha, c, y0):
    """A_alpha(y0, c) = int_0^inf r F(r) K_alpha(r) dr by QUADPACK, for a
    receiver far out (y0 well beyond the shape scale and the peak width
    w = c^(1/alpha)).  The radial integral breaks at y0 and at y0 -+ w; the
    flanks w < |r - y0| < y0 / 2 run in u = log(|r - y0| / w), where the
    kernel's peak at r = y0 is smooth; [0, y0 / 2] (split at 4 shape scales)
    and [3 y0 / 2, 2 y0] run in r, and the tail beyond 2 y0 in
    v = log(r / (2 y0)) up to v = 100."""
    w = c ** (1.0 / alpha)

    def radial(r):
        return r * float(shape.eval_f(r)) * _closed_kernel(r, c, y0, alpha)

    def flank(sign):
        return lambda u: radial(y0 + sign * w * math.exp(u)) * w * math.exp(u)

    def tail(v):
        return radial(2.0 * y0 * math.exp(v)) * 2.0 * y0 * math.exp(v)

    opts = dict(epsabs=0.0, epsrel=1e-12, limit=500)
    u_end = math.log(0.5 * y0 / w)
    inner = [4.0 * shape.scale] if 4.0 * shape.scale < 0.5 * y0 else None
    parts = [
        quad(radial, 0.0, 0.5 * y0, points=inner, **opts),
        quad(flank(-1.0), 0.0, u_end, **opts),
        quad(radial, y0 - w, y0, **opts),
        quad(radial, y0, y0 + w, **opts),
        quad(flank(1.0), 0.0, u_end, **opts),
        quad(radial, 1.5 * y0, 2.0 * y0, **opts),
        quad(tail, 0.0, 100.0, **opts),
    ]
    return math.fsum(p[0] for p in parts)
