"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own quadrature: angular
and planar integrals go through scipy's QUADPACK wrappers so that agreement
between the two routes is meaningful.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

import isoppp as ip

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


def campbell_mean(shape, alpha, c, lam, y0, r_hi):
    """Mean interference by planar polar quadrature (Campbell route).

    lam * int_0^r_hi r F(r) int_0^{2pi} dphi / (c + dist^alpha) dr, with the
    angular integral done by QUADPACK and the radial one by fixed-order
    Gauss-Legendre panels between the shape knots.
    """

    def radial(r):
        if alpha == 2:
            ang = 2.0 * brute_angular_alpha2(r, c, y0)
        elif alpha == 4:
            # brute_angular_alpha4 integrates 2r/(...) over a half circle
            ang = brute_angular_alpha4(r, c, y0) / r
        else:
            val, _ = quad(
                lambda phi: 1.0
                / (c + (r * r + y0 * y0 - 2.0 * r * y0 * math.cos(phi)) ** (alpha / 2.0)),
                0.0,
                math.pi,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            ang = 2.0 * val
        return r * float(shape.eval_f(r)) * ang

    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = sorted(
        {0.0, r_hi}
        | {k for k in shape.knots if k < r_hi}
        | set(np.geomspace(shape.scale / 8.0, r_hi, 40)[:-1])
    )
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * sum(w * radial(mid + half * x) for x, w in zip(nodes, weights))
    return lam * total


def compact_mass(shape):
    """2 pi int_0^R r F(r) dr of a compactly supported shape, by QUADPACK."""
    val, _ = quad(lambda r: r * shape.eval_f(r), 0.0, shape.support_end,
                  points=shape.knots or None, epsabs=0.0, epsrel=1e-13)
    return 2.0 * math.pi * val


def campbell_outage(shape, alpha, c, lam, y0, s, eta, beta):
    """Rayleigh outage 1 - exp(-beta/eta) L_I(s) by nested QUADPACK (Campbell route).

    L_I(s) = exp(-lam int_0^R r F(r) int_0^{2pi} s / (s + c + dist^alpha) dphi dr)
    for a compactly supported shape with support end R; the radial integral
    breaks at the shape knots.  ``eta`` is the linear mean SNR (``math.inf``
    for a noise-free link) and ``beta`` the SINR threshold.
    """
    if shape.tail.kind is not ip.TailKind.COMPACT_SUPPORT:
        raise ValueError("campbell_outage needs a compactly supported shape")
    r_end = shape.tail.param

    def radial(r):
        val, _ = quad(
            lambda phi: s
            / (s + c + (r * r + y0 * y0 - 2.0 * r * y0 * math.cos(phi)) ** (alpha / 2.0)),
            0.0,
            math.pi,
            epsabs=0.0,
            epsrel=1e-13,
            limit=200,
        )
        return 2.0 * r * float(shape.eval_f(r)) * val

    inner = [k for k in shape.knots if 0.0 < k < r_end]
    total, _ = quad(radial, 0.0, r_end, points=inner or None,
                    epsabs=0.0, epsrel=1e-13, limit=200)
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
