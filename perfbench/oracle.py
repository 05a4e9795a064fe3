"""Reference values the benchmark checks isoppp's outputs against.

Nothing here imports isoppp: shapes are rebuilt from their JSON descriptors
and every integral goes through scipy's QUADPACK wrapper, so agreement with
the library is evidence, not a tautology.

The mean interference per unit intensity is Campbell's integral

    A_alpha(y0, c) = int_0^inf r F(r) int_0^{2 pi} dphi / (c + d^alpha) dr,
    d^2 = r^2 + y0^2 - 2 r y0 cos(phi),

whose angular part has a closed form for alpha in {2, 4}:

    alpha = 2:  2 pi / sqrt((c + (r - y0)^2) (c + (r + y0)^2))
    alpha = 4:  (2 pi / sqrt c) Im[1 / (sqrt((r - y0)^2 - j sqrt c)
                                         sqrt((r + y0)^2 - j sqrt c))]

The radial part is split at the shape knots and at r = y0, where the
angular part peaks.
"""

from __future__ import annotations

import cmath
import math
import warnings

from scipy.integrate import IntegrationWarning, quad

_EPSREL = 1e-11
_LIMIT = 500
_TRUSTED = 1e-10  # largest relative error estimate an oracle value may carry


def angular(alpha: int, c: float, r: float, y0: float) -> float:
    """int_0^{2 pi} dphi / (c + d^alpha) for alpha in {2, 4}."""
    lo = (r - y0) ** 2
    hi = (r + y0) ** 2
    if alpha == 2:
        return 2.0 * math.pi / math.sqrt((c + lo) * (c + hi))
    if alpha == 4:
        s = math.sqrt(c)
        w = 1.0 / (cmath.sqrt(complex(lo, -s)) * cmath.sqrt(complex(hi, -s)))
        return 2.0 * math.pi / s * w.imag
    raise ValueError(f"no closed angular form for alpha={alpha}")


class Shape:
    """Density profile F(r) rebuilt from an isoppp shape descriptor."""

    def __init__(self, descriptor: dict):
        kind = descriptor["scenario"]
        p = descriptor.get("params", {})
        self.kind = kind
        self.knots: tuple[float, ...] = ()
        self.support_end = None
        self.f_inf = 0.0
        if kind == "A":
            r0, r1 = float(p["r0"]), float(p["r1"])
            self.knots = (r0, r1)
            self.support_end = r1

            def f(r):
                if r <= r0:
                    return 1.0
                if r >= r1:
                    return 0.0
                return 0.5 * (1.0 + math.cos(math.pi * (r - r0) / (r1 - r0)))

        elif kind == "C":
            rho = float(p["rho"])

            def f(r):
                return math.exp(-r / rho)

        elif kind == "powerTail":
            nu, r0 = float(p["nu"]), float(p["r0"])

            def f(r):
                return (1.0 + (r / r0) ** 2) ** (-nu / 2.0)

        elif kind == "D":
            delta, a = float(p["delta"]), float(p["alpha"])
            self.f_inf = 1.0
            # beyond this radius 1 - F = exp(-delta r^a) underflows to 0
            self.complement_end = (745.0 / delta) ** (1.0 / a)

            def f(r):
                return -math.expm1(-delta * r**a)

        elif kind == "constant":
            level = float(p.get("level", 1.0))
            self.f_inf = level

            def f(r):
                return level

        else:
            raise ValueError(f"oracle has no shape {kind!r}")
        self.f = f


def _integrate(fn, edges, upper) -> float:
    """Sum of quad() over consecutive edges, then from the last edge to upper.

    Round-off can stop QUADPACK short of epsrel=1e-11; its warning is
    silenced and the summed error estimate is checked against 1e-10 instead.
    """
    points = sorted(set(edges))
    if upper is not math.inf:
        points = [x for x in points if x < upper] + [upper]
    pieces = list(zip(points[:-1], points[1:]))
    if upper is math.inf:
        pieces.append((points[-1], math.inf))
    total = error = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in pieces:
            value, err = quad(fn, lo, hi, epsabs=0.0, epsrel=_EPSREL, limit=_LIMIT)[:2]
            total += value
            error += err
    if error > _TRUSTED * abs(total):
        raise ArithmeticError(f"oracle quadrature error {error:.3g} on {total:.6g}")
    return total


def driving(shape: Shape, alpha: int, c: float, y0: float) -> float:
    """A_alpha(y0, c): mean interference per unit intensity."""
    edges = [0.0, *shape.knots]
    if y0 > 0.0:
        edges.append(y0)
    if shape.f_inf == 0.0:
        upper = shape.support_end if shape.support_end is not None else math.inf
        return _integrate(lambda r: r * shape.f(r) * angular(alpha, c, r, y0), edges, upper)
    if alpha != 4:
        raise ValueError("a non-decaying density has an infinite mean below alpha = 4")
    # the plane integral of 1 / (c + |x|^4) is pi^2 / (2 sqrt c); subtract the
    # hole the density leaves instead of integrating F itself to infinity
    plane = math.pi**2 / (2.0 * math.sqrt(c))
    if shape.kind == "constant":
        return shape.f_inf * plane
    hole = _integrate(
        lambda r: r * (shape.f_inf - shape.f(r)) * angular(alpha, c, r, y0),
        edges,
        max(shape.complement_end, y0),
    )
    return shape.f_inf * plane - hole


def outage(shape: Shape, alpha: int, c: float, lam: float, y0: float, d: float,
           beta: float, eta: float = math.inf) -> float:
    """Rayleigh outage 1 - exp(-lam s A(y0, s + c)) exp(-beta / eta)."""
    s = beta * (c + d**alpha)
    exponent = lam * s * driving(shape, alpha, s + c, y0)
    if not math.isinf(eta):
        exponent += beta / eta
    return -math.expm1(-exponent)


def capacity(shape: Shape, alpha: int, y0: float, d: float, beta: float, eps: float) -> float:
    """Local transmission capacity at c = 0: -log(1-eps)(1-eps) / (s A(y0, s))."""
    s = beta * d**alpha
    return -math.log1p(-eps) * (1.0 - eps) / (s * driving(shape, alpha, s, y0))


def fh_ds(shape: Shape, d: float, beta: float, m: float) -> tuple[float, float]:
    """(ratio, asymptote) of the FH over DS gain at the centre, alpha = 2."""
    s = beta * d * d
    base = driving(shape, 2, s, 0.0)
    hopped = driving(shape, 2, s / m, 0.0)
    return hopped / base, 1.0 + math.pi * shape.f(0.0) * math.log(m) / base


def csma_density(lam: float, alpha: float, delta: float) -> float:
    """Density of transmitters that win carrier sensing (hard-core thinning)."""
    area = math.pi * math.gamma(1.0 + 2.0 / alpha) * delta ** (-2.0 / alpha)
    return -math.expm1(-lam * area) / area


def csma_loss(lam: float, delta: float, d: float, beta: float) -> tuple[float, float, float]:
    """(loss, outage at the receiver, outage at the transmitter) at alpha = 4."""
    shape = Shape({"scenario": "D", "params": {"delta": delta, "alpha": 4.0}})
    lam_a = csma_density(lam, 4.0, delta)
    at_tx = outage(shape, 4, 0.0, lam_a, 0.0, d, beta)
    at_rx = outage(shape, 4, 0.0, lam_a, d, d, beta)
    return abs(at_tx - at_rx) / at_rx, at_rx, at_tx


def subharmonic_start_end(descriptor: dict) -> tuple[float, float]:
    """Exact subharmonic interval of the two criterion-7 shapes.

    C(rho): F'' + F'/r = exp(-r/rho)(1/rho - 1/r)/rho >= 0 for r >= rho.
    D(delta, 4): F'' + F'/r = 16 delta r^2 (1 - delta r^4) exp(-delta r^4)
    >= 0 for r <= delta^(-1/4).
    """
    p = descriptor["params"]
    if descriptor["scenario"] == "C":
        return float(p["rho"]), math.inf
    if descriptor["scenario"] == "D" and float(p["alpha"]) == 4.0:
        return 0.0, float(p["delta"]) ** -0.25
    raise ValueError("no exact subharmonic region for this shape")


def lower_tail(shape: Shape, fading: str, c: float, lam: float, y0: float, z: float,
               rbar: float) -> float:
    """Dominant-interferer bound 1 - exp(-2 pi lam F(y0) int_0^rbar r P(g >= z(c+r^4)) dr)."""
    if fading == "unit":
        if z * c >= 1.0:
            return 0.0
        r_cut = (1.0 / z - c) ** 0.25
        integral = 0.5 * min(rbar, r_cut) ** 2
    else:
        integral = quad(lambda r: r * math.exp(-z * (c + r**4)), 0.0, rbar,
                        epsabs=0.0, epsrel=_EPSREL, limit=_LIMIT)[0]
    return -math.expm1(-2.0 * math.pi * lam * shape.f(y0) * integral)
