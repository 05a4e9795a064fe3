"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own quadrature: angular
and planar integrals go through scipy's QUADPACK wrappers so that agreement
between the two routes is meaningful.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import isoppp as ip


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
