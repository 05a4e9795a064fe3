"""Exact and locally-approximated outage probabilities under Rayleigh fading."""

from __future__ import annotations

import math

from .analytic import ChannelModel, LinkConfig, _radial, _threshold, laplace_transform
from .errors import DegenerateDenominator, DomainError, RequiresZeroC, UnsupportedAlpha
from .numerics import _converged
from .shapes import ShapeFunction

DEGENERATE_TOL = 1e-15


def outage_exact(
    shape: ShapeFunction, channel: ChannelModel, link: LinkConfig, tol: float = 1e-10
) -> float:
    """Exact outage probability 1 - L_I(beta (c + d^alpha)) exp(-beta/eta).

    The noise factor exp(-beta/eta) is 1 for a noise-free link.
    """
    s = _threshold(link.beta, channel.c, link.d, channel.alpha)
    transform = laplace_transform(shape, channel, link.lambda_scale, link.y0_norm, s, tol)
    value = 1.0 - transform * math.exp(-link.beta / link.eta)
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

    independent of lambda.  Since pi^2 / (2 d^2 sqrt(beta)) is the integral
    of r K_4(r) with c = beta d^4, it is computed as the single integral
    s int_0^inf r (F(|y0|) - F(r)) K_4(r) dr, s = beta d^4, which does not
    cancel two nearly equal terms far from the shape's features.
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
    s = _threshold(link.beta, channel.c, link.d, 4)
    if s == 0.0:
        raise DomainError(f"beta d^4 underflows to 0 at d={link.d:g}; the kernel needs it positive")
    f_y0 = float(shape.eval_f(link.y0_norm))
    # beyond the shape's support the weight is F(y0): zero only for y0 outside it
    support_end = shape.support_end if f_y0 == 0.0 else None
    gap = _radial(shape, link.y0_norm, s, 4, lambda r: f_y0 - shape.eval_f(r), tol, support_end)
    return s * _converged(gap, "log-divergence")


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
