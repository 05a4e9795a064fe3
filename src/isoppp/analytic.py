"""Closed-form interference statistics for isotropic Poisson deployments.

The mean interference at a receiver offset ``y0`` from the network centre
factors as ``lambda * A_alpha(y0, c)`` where the driving function
``A_alpha`` depends only on the deployment shape, the receiver offset and
the path-loss constant.  It is computed as Campbell's radial integral
``int_0^inf r F(r) K_alpha(r) dr`` with the closed-form angular kernels of
``numerics``; its integrand is positive, so the result is accurate to a
relative tolerance at every offset.  The paper states it by parts,

    A_2(y0, c) = -pi * ( F(0) K(0) + int_0^inf f(r) K(r) dr ),
                 K = asinh kernel (log form at the origin),

    A_4(y0, c) = pi/(2 sqrt(c)) * ( F_inf pi/2 - F(0) Theta(0)
                                    - int_0^inf f(r) Theta(r) dr ),
                 Theta = arctan kernel, Theta(0) = -pi/2,

and the frozen values in ``tests/test_analytic.py`` pin that equivalence;
the by-parts form at exponent 4 cancels two O(1) terms far from a compact
deployment.

Under Rayleigh fading the interference Laplace transform is
``exp(-lambda s A_alpha(y0, s + c))``, which downstream modules turn into
outage probabilities and throughput metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import DivergentIntegral, DomainError, NonConvergence, UnsupportedAlpha, _check_finite
from .numerics import IntegralResult, _kernel_alpha2, _kernel_alpha4, integrate_semi_infinite
# unused here, but the benchmark's tracer (perfbench/tracer.py) patches them by name
from .numerics import arctan_kernel, asinh_kernel  # noqa: F401
from .shapes import ShapeFunction, TailKind


@dataclass(frozen=True)
class FadingLaw:
    """Power fading distribution with unit mean.

    ``sampler(rng, n)`` draws n coefficients; ``tail(x)`` is P(g >= x),
    needed by the dominant-interferer bound (vectorised in x).
    """

    kind: str
    sampler: Callable | None = None
    tail: Callable | None = None

    @classmethod
    def unit(cls) -> "FadingLaw":
        """Deterministic g = 1 (pure path loss)."""
        return cls(
            kind="unit",
            sampler=lambda rng, n: np.ones(n),
            tail=lambda x: (np.asarray(x, dtype=float) <= 1.0).astype(float),
        )

    @classmethod
    def rayleigh(cls) -> "FadingLaw":
        """Rayleigh power fading: g ~ Exponential(1)."""
        return cls(
            kind="rayleigh",
            sampler=lambda rng, n: rng.exponential(1.0, n),
            tail=lambda x: np.exp(-np.asarray(x, dtype=float)),
        )

    @classmethod
    def custom(cls, sampler: Callable, tail: Callable | None = None) -> "FadingLaw":
        """User-supplied unit-mean fading; ``tail`` is optional and only
        required by the tail-probability bounds."""
        return cls(kind="custom", sampler=sampler, tail=tail)


@dataclass(frozen=True)
class ChannelModel:
    """Path loss (c + r^alpha)^(-1) plus a fading law."""

    alpha: float
    c: float
    fading: FadingLaw

    def __post_init__(self):
        _check_finite(alpha=self.alpha, c=self.c)
        if self.alpha < 2:
            raise DomainError(f"path-loss exponent must be >= 2, got {self.alpha}")
        if self.c < 0:
            raise DomainError(f"path-loss constant must be >= 0, got {self.c}")


@dataclass(frozen=True)
class LinkConfig:
    """Reference-link configuration.

    ``eta_db`` is the mean SNR in dB; ``math.inf`` means no receiver noise.
    """

    lambda_scale: float
    y0_norm: float
    d: float
    beta: float
    eta_db: float = math.inf

    def __post_init__(self):
        _check_finite(lambda_scale=self.lambda_scale, y0_norm=self.y0_norm, d=self.d,
                      beta=self.beta)
        if self.eta_db != math.inf:
            _check_finite(eta_db=self.eta_db)
        if self.lambda_scale <= 0:
            raise DomainError("intensity scale must be positive")
        if self.d <= 0:
            raise DomainError("link distance must be positive")
        if self.beta <= 0:
            raise DomainError("SINR threshold must be positive")
        if self.y0_norm < 0:
            raise DomainError("receiver offset must be nonnegative")

    @property
    def eta(self) -> float:
        """Mean SNR in linear units (inf when noise-free)."""
        if math.isinf(self.eta_db):
            return math.inf
        return 10.0 ** (self.eta_db / 10.0)


class AsFinite(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FinitenessVerdict:
    mean_interference_finite: bool
    expected_count_finite: bool
    interference_as_finite: AsFinite


def _mean_finite(shape: ShapeFunction, alpha: float) -> bool:
    """Whether E[I] is finite for this shape/alpha combination."""
    if alpha > 2:
        return True
    return shape.tail.kind in (
        TailKind.COMPACT_SUPPORT,
        TailKind.POWER_DECAY,
        TailKind.EXPONENTIAL_DECAY,
    )


_KERNELS = {2: _kernel_alpha2, 4: _kernel_alpha4}


def interference_driving(
    shape: ShapeFunction, y0_norm: float, c: float, alpha: float, tol: float = 1e-10
) -> IntegralResult:
    """A_alpha(y0, c) = int_0^inf r F(r) K_alpha(r) dr for alpha in {2, 4}.

    ``tol`` is relative.  Raises UnsupportedAlpha for other exponents and
    DivergentIntegral at alpha = 2 unless the shape decays at least like a
    power law; at alpha = 4 the integral is finite for every shape.
    """
    _check_finite(y0_norm=y0_norm, c=c)
    if alpha not in _KERNELS:
        raise UnsupportedAlpha(
            f"closed forms exist only for path-loss exponents 2 and 4, got {alpha}; "
            "use the Monte-Carlo engine or the tail bounds instead"
        )
    if c <= 0:
        raise DomainError(f"A_{alpha:g} needs c > 0, got c={c}")
    if y0_norm < 0:
        raise DomainError("offset must be nonnegative")
    if math.isinf(1e6 * y0_norm * y0_norm):
        # the tail's first panel squares r + y0 at radii up to ~250 y0
        raise OverflowError(f"offset y0={y0_norm:g} is too large: the kernels square r + y0")
    if not _mean_finite(shape, alpha):
        raise DivergentIntegral(
            "mean interference at path-loss exponent 2 is infinite unless the "
            "density decays at least like a power law"
        )
    kernel = _KERNELS[alpha]

    def integrand(r):
        return r * shape.eval_f(r) * kernel(r, c, y0_norm)

    return integrate_semi_infinite(
        integrand,
        tol,
        knots=(*shape.knots, y0_norm),
        knee=4.0 * shape.scale,
        support_end=shape.support_end,
    )


def mean_interference(
    shape: ShapeFunction,
    channel: ChannelModel,
    lambda_scale: float,
    y0_norm: float,
    tol: float = 1e-10,
) -> IntegralResult:
    """Mean interference lambda * A_alpha(y0, c); fading-independent.

    Raises UnsupportedAlpha for alpha outside {2, 4} and DivergentIntegral
    when the alpha = 2 mean does not exist for this shape.
    """
    _check_finite(lambda_scale=lambda_scale)
    if channel.c <= 0:
        raise DomainError("mean interference closed forms need c > 0")
    if lambda_scale <= 0:
        raise DomainError("intensity scale must be positive")
    a = interference_driving(shape, y0_norm, channel.c, channel.alpha, tol)
    return IntegralResult(
        value=lambda_scale * a.value,
        abs_error=lambda_scale * a.abs_error,
        converged=a.converged,
        evaluations=a.evaluations,
    )


def laplace_transform(
    shape: ShapeFunction,
    channel: ChannelModel,
    lambda_scale: float,
    y0_norm: float,
    s: float,
    tol: float = 1e-10,
) -> float:
    """Laplace transform E[exp(-s I)] under Rayleigh fading.

    Equals exp(-lambda s A_alpha(y0, s + c)).  Returns exactly 1 at s = 0
    and 0 in the divergent regime (alpha = 2 with a tail decaying no faster
    than logarithmically, where I is almost surely infinite).
    """
    _check_finite(lambda_scale=lambda_scale, y0_norm=y0_norm, s=s)
    if channel.fading.kind != "rayleigh":
        raise DomainError("the interference Laplace transform assumes Rayleigh fading")
    if s < 0:
        raise DomainError("transform variable must be nonnegative")
    if s + channel.c <= 0:
        raise DomainError("need s + c > 0")
    if lambda_scale <= 0:
        raise DomainError("intensity scale must be positive")
    if s == 0.0:
        return 1.0
    if channel.alpha == 2 and not _mean_finite(shape, 2.0):
        return 0.0
    a = interference_driving(shape, y0_norm, s + channel.c, channel.alpha, tol)
    if not a.converged:
        raise NonConvergence("driving-function quadrature did not converge", result=a)
    return math.exp(-lambda_scale * s * a.value)


def classify_finiteness(shape: ShapeFunction, channel: ChannelModel) -> FinitenessVerdict:
    """Finiteness of the interferer count and of the interference itself.

    The expected count is finite only for compactly supported, exponentially
    decaying, or power-decaying (exponent > 2) shapes.  At alpha = 2 the mean
    interference needs any power-law-or-faster decay, and a non-decaying or
    log-decaying density makes the interference infinite almost surely; at
    alpha = 4 the mean is always finite.
    """
    if channel.alpha not in (2, 4):
        raise UnsupportedAlpha("finiteness classification covers alpha in {2, 4}")
    kind = shape.tail.kind
    count_finite = kind in (TailKind.COMPACT_SUPPORT, TailKind.EXPONENTIAL_DECAY) or (
        kind is TailKind.POWER_DECAY and (shape.tail.param or 0.0) > 2.0
    )
    mean_finite = _mean_finite(shape, channel.alpha)
    if mean_finite:
        as_finite = AsFinite.YES
    elif kind in (TailKind.NON_DECAYING, TailKind.LOG_DECAY):
        as_finite = AsFinite.NO
    else:
        as_finite = AsFinite.UNKNOWN
    return FinitenessVerdict(
        mean_interference_finite=mean_finite,
        expected_count_finite=count_finite,
        interference_as_finite=as_finite,
    )
