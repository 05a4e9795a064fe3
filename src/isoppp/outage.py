"""Exact and locally-approximated outage probabilities under Rayleigh fading."""

from __future__ import annotations

import math

from .analytic import (_ALPHA_MAX, ChannelModel, LinkConfig, _radial, _threshold,
                       laplace_transform)
from .errors import DegenerateDenominator, DomainError, UnsupportedAlpha
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

    Replaces the deployment by a stationary one of density lambda F(|y0|).
    With s = beta (c + d^alpha) its outage is 1 - exp(-beta/eta)
    exp(-lambda F(|y0|) s (s + c)^(2/alpha - 1) (2 pi^2/alpha) csc(2 pi/alpha)),
    from int_0^inf 2 pi r / (a + r^alpha) dr = (2 pi^2/alpha) csc(2 pi/alpha)
    a^(2/alpha - 1).  Needs alpha > 2: the csc factor has a pole at alpha = 2,
    where stationary interference is infinite anyway.
    """
    alpha = channel.alpha
    if alpha <= 2:
        raise UnsupportedAlpha("the stationary closed form needs alpha > 2")
    if channel.fading.kind != "rayleigh":
        raise DomainError("the stationary closed form assumes Rayleigh fading")
    s = _threshold(link.beta, channel.c, link.d, alpha)  # NumericOverflow, as outage_exact
    exponent = link.lambda_scale * float(shape.eval_f(link.y0_norm))
    if channel.c > 0:
        exponent = exponent * s * (s + channel.c) ** (2.0 / alpha - 1.0)
    else:  # the same factor at c = 0, whose values the corpus pins bit for bit
        exponent = exponent * link.d**2 * link.beta ** (2.0 / alpha)
    exponent = exponent * (2.0 * math.pi**2 / alpha) * (1.0 / math.sin(2.0 * math.pi / alpha))
    value = -math.expm1(-exponent - link.beta / link.eta)
    return min(1.0, max(0.0, value))


def log_divergence(
    shape: ShapeFunction, channel: ChannelModel, link: LinkConfig, tol: float = 1e-10
) -> float:
    """Intensity-normalised log ratio of exact to approximated success.

    gamma(y0) = log((1 - P_exact)/(1 - P_approx)) / lambda.  The noise factor
    cancels in the ratio, and with s = beta (c + d^alpha) both outages share
    the kernel at s + c, so

        gamma(y0) = s int_0^inf r (F(|y0|) - F(r)) K_alpha(r; s + c) dr,

    independent of lambda, for every alpha in (2, 9].  The single integral
    does not cancel two nearly equal terms far from the shape's features.
    Positive values mean the local approximation overestimates outage.
    """
    alpha = channel.alpha
    if not 2 < alpha <= _ALPHA_MAX:
        raise UnsupportedAlpha(
            f"the log-divergence needs a path-loss exponent in (2, {_ALPHA_MAX:g}], got {alpha}")
    if channel.fading.kind != "rayleigh":
        raise DomainError("the log-divergence closed form assumes Rayleigh fading")
    s = _threshold(link.beta, channel.c, link.d, alpha)
    if s == 0.0:
        raise DomainError(f"beta d^{alpha:g} underflows to 0 at d={link.d:g}; "
                          "the kernel needs it positive")
    f_y0 = float(shape.eval_f(link.y0_norm))
    # beyond the shape's support the weight is F(y0): zero only for y0 outside it
    support_end = shape.support_end if f_y0 == 0.0 else None
    gap = _radial(shape, link.y0_norm, s + channel.c, alpha, lambda r: f_y0 - shape.eval_f(r),
                  tol, support_end)
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
