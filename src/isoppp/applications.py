"""Throughput and MAC-modelling applications of the interference model."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import ChannelModel, FadingLaw, LinkConfig, _threshold, interference_driving
from .errors import (DegenerateDenominator, DomainError, UnsupportedAlpha, _check_finite,
                     _check_positive)
from .numerics import _converged
from .outage import DEGENERATE_TOL, outage_exact
from .shapes import ShapeFunction, scenario_carrier_sense


def local_transmission_capacity(
    shape: ShapeFunction,
    channel: ChannelModel,
    link: LinkConfig,
    epsilon: float,
    tol: float = 1e-10,
) -> float:
    """Density of successful transmissions around the receiver location that
    exhausts an outage budget ``epsilon``.

    With s = beta (c + d^alpha), the outage under Rayleigh fading is
    1 - exp(-beta/eta) exp(-lambda s A_alpha(y0, s + c)).  Setting it to
    epsilon and solving for lambda gives the capacity lambda (1 - epsilon):

        (-log(1 - epsilon) - beta/eta) (1 - epsilon) / (s A_alpha(y0, s + c)).

    Raises DomainError when the noise alone exhausts the budget
    (beta/eta >= -log(1 - epsilon)).
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("outage budget epsilon must lie in (0, 1)")
    if channel.fading.kind != "rayleigh":
        raise DomainError("transmission capacity closed form assumes Rayleigh fading")
    budget, noise = -math.log1p(-epsilon), link.beta / link.eta
    if noise >= budget:
        raise DomainError(f"the noise term beta/eta = {noise:g} exhausts the outage budget "
                          f"-log(1 - epsilon) = {budget:g}")
    s = _threshold(link.beta, channel.c, link.d, channel.alpha)
    a = _converged(interference_driving(shape, link.y0_norm, s + channel.c, channel.alpha, tol),
                   "driving-function")
    if s * a == 0.0:
        raise DegenerateDenominator("the interference exponent underflows to 0")
    return (budget - noise) * (1.0 - epsilon) / (s * a)


@dataclass(frozen=True)
class FhDsGain:
    """Capacity ratio of hopping (thin the contenders by M) over spreading
    (divide the threshold by M), with its log-M asymptote for reference."""

    ratio: float
    asymptote: float


def fh_ds_gain(
    shape: ShapeFunction, d: float, beta: float, m: float, tol: float = 1e-10
) -> FhDsGain:
    """Capacity gain of frequency hopping over direct-sequence spreading at
    the network centre for path-loss exponent 2 (c = 0, Rayleigh, no noise).

    The exact gain is A_2(o, beta d^2 / M) / A_2(o, beta d^2).  Because the
    centred A_2 is -pi (F(0) log c' + int f log(r^2 + c')), shrinking the
    argument by M adds pi F(0) log M plus a bounded remainder, so the gain
    grows like 1 + pi F(0) log M / A_2(o, beta d^2); that asymptote is
    reported alongside the exact ratio.
    """
    _check_positive(d=d, beta=beta, f_zero=shape.f_zero)
    _check_finite(m=m)
    if m < 1:
        raise DomainError("processing gain M must be >= 1")
    s = beta * d * d
    base = _converged(interference_driving(shape, 0.0, s, 2, tol), "driving-function")
    hopped = _converged(interference_driving(shape, 0.0, s / m, 2, tol), "driving-function")
    if base == 0.0:
        raise DegenerateDenominator("the driving function at the centre underflows to 0")
    asymptote = 1.0 + math.pi * shape.f_zero * math.log(m) / base
    return FhDsGain(ratio=hopped / base, asymptote=asymptote)


def csma_large_scale_density(
    lambda_potential: float, alpha: float, delta_sense: float
) -> float:
    """Density of simultaneously active transmitters under carrier sensing.

    Hard-core thinning of potential transmitters of density lambda with
    sensing threshold Delta (linear power units):

        lambda_l = (1 - exp(-lambda pi Gamma(1 + 2/alpha) Delta^(-2/alpha)))
                   / (pi Gamma(1 + 2/alpha) Delta^(-2/alpha)).

    Always in (0, lambda]; tends to lambda as the sensing threshold grows.
    """
    _check_positive(lambda_potential=lambda_potential, delta_sense=delta_sense)
    _check_finite(alpha=alpha)
    if alpha < 2:
        raise DomainError("path-loss exponent must be >= 2")
    area = math.pi * math.gamma(1.0 + 2.0 / alpha) * delta_sense ** (-2.0 / alpha)
    return -math.expm1(-lambda_potential * area) / area


# the benchmark's tracer wraps the profile under this name (ROADMAP item 7)
csma_shape = scenario_carrier_sense


def csma_accuracy_loss(
    lambda_potential: float,
    delta_sense: float,
    d: float,
    beta: float,
    tol: float = 1e-10,
    alpha: float = 4.0,
) -> float:
    """Relative error from co-locating receiver and inhibiting transmitter.

    The carrier-sense approximation describes the interferer field around
    the winning transmitter but applies it at the receiver, a distance d
    away.  This returns |P_o(0, d) - P_o(d, d)| / P_o(d, d) under the
    carrier-sense profile with the thinned density, both outages exact
    (c = 0, Rayleigh, noise-free), for every alpha in (2, 9].  At alpha = 2
    both outages are 1, so the study is empty there.
    """
    if alpha <= 2:
        raise UnsupportedAlpha("the accuracy-loss study needs alpha > 2: at alpha = 2 and "
                               "c = 0 every outage is 1")
    lam_active = csma_large_scale_density(lambda_potential, alpha, delta_sense)
    shape = csma_shape(delta_sense, alpha)
    channel = ChannelModel(alpha=alpha, c=0.0, fading=FadingLaw.rayleigh())
    at_transmitter = outage_exact(
        shape, channel, LinkConfig(lam_active, 0.0, d, beta), tol
    )
    at_receiver = outage_exact(
        shape, channel, LinkConfig(lam_active, d, d, beta), tol
    )
    if at_receiver <= DEGENERATE_TOL:
        raise DegenerateDenominator("outage at the receiver location vanishes")
    return abs(at_transmitter - at_receiver) / at_receiver
