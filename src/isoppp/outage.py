"""Exact and locally-approximated outage probabilities under Rayleigh fading."""

from __future__ import annotations

import math

from .analytic import ChannelModel, LinkConfig, interference_driving, laplace_transform
from .errors import (
    DegenerateDenominator,
    DomainError,
    NonConvergence,
    RequiresZeroC,
    UnsupportedAlpha,
)
from .shapes import ShapeFunction

DEGENERATE_TOL = 1e-15


def outage_exact(
    shape: ShapeFunction, channel: ChannelModel, link: LinkConfig, tol: float = 1e-10
) -> float:
    """Exact outage probability 1 - L_I(beta (c + d^alpha)) exp(-beta/eta).

    The noise factor exp(-beta/eta) is 1 for a noise-free link.
    """
    s = link.beta * (channel.c + link.d**channel.alpha)
    transform = laplace_transform(shape, channel, link.lambda_scale, link.y0_norm, s, tol)
    noise = 0.0 if math.isinf(link.eta) else link.beta / link.eta
    value = 1.0 - transform * math.exp(-noise)
    return min(1.0, max(0.0, value))


def outage_approx(shape: ShapeFunction, channel: ChannelModel, link: LinkConfig) -> float:
    """Locally-stationary approximation of the outage probability.

    Replaces the whole deployment by a stationary one with density
    ``lambda * F(|y0|)`` and uses the stationary closed form
    1 - exp(-lambda F(|y0|) d^2 beta^(2/alpha) (2 pi^2/alpha) csc(2 pi/alpha)),
    which requires c = 0 and alpha > 2 (the csc factor has a pole at
    alpha = 2, where stationary interference is infinite anyway).
    """
    if channel.c != 0:
        raise RequiresZeroC("the stationary closed form holds only for c = 0")
    if channel.alpha <= 2:
        raise UnsupportedAlpha("the stationary closed form needs alpha > 2")
    if channel.fading.kind != "rayleigh":
        raise DomainError("the stationary closed form assumes Rayleigh fading")
    csc = 1.0 / math.sin(2.0 * math.pi / channel.alpha)
    exponent = (
        link.lambda_scale
        * float(shape.eval_f(link.y0_norm))
        * link.d**2
        * link.beta ** (2.0 / channel.alpha)
        * (2.0 * math.pi**2 / channel.alpha)
        * csc
    )
    value = -math.expm1(-exponent)
    return min(1.0, max(0.0, value))


def log_divergence(
    shape: ShapeFunction, channel: ChannelModel, link: LinkConfig, tol: float = 1e-10
) -> float:
    """Intensity-normalised log ratio of exact to approximated success.

    gamma(y0) = log((1 - P_exact)/(1 - P_approx)) / lambda.  For alpha = 4,
    c = 0 and a noise-free link this collapses to the closed form

        gamma(y0) = d^4 beta (pi^2 F(|y0|) / (2 d^2 sqrt(beta))
                              - A_4(y0, beta d^4)),

    which is what this function computes; it is independent of lambda.
    Positive values mean the local approximation overestimates outage.
    """
    if channel.alpha != 4:
        raise UnsupportedAlpha("the log-divergence closed form is for alpha = 4")
    if channel.c != 0:
        raise RequiresZeroC("the log-divergence closed form requires c = 0")
    if not math.isinf(link.eta):
        raise DomainError("the log-divergence closed form assumes a noise-free link")
    if channel.fading.kind != "rayleigh":
        raise DomainError("the log-divergence closed form assumes Rayleigh fading")
    s = link.beta * link.d**4
    a4 = interference_driving(shape, link.y0_norm, s, 4, tol)
    if not a4.converged:
        raise NonConvergence("driving-function quadrature did not converge", result=a4)
    stationary_term = math.pi**2 * float(shape.eval_f(link.y0_norm)) / (
        2.0 * link.d**2 * math.sqrt(link.beta)
    )
    return link.d**4 * link.beta * (stationary_term - a4.value)


def relative_error(
    shape: ShapeFunction, channel: ChannelModel, link: LinkConfig, tol: float = 1e-10
) -> float:
    """Relative accuracy loss |P_approx - P_exact| / P_exact of the local
    approximation; DegenerateDenominator when the exact outage vanishes."""
    exact = outage_exact(shape, channel, link, tol)
    if exact <= DEGENERATE_TOL:
        raise DegenerateDenominator(
            f"exact outage probability is zero within {DEGENERATE_TOL:g}"
        )
    approx = outage_approx(shape, channel, link)
    return abs(approx - exact) / exact
