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
from typing import Callable

import numpy as np

from .errors import (DivergentIntegral, DomainError, NumericOverflow, UnsupportedAlpha,
                     _check_finite, _check_nonnegative, _check_positive)
from .numerics import (IntegralResult, _converged, _kernel_alpha2, _kernel_alpha4,
                       integrate_semi_infinite)
# unused here, but the benchmark's tracer (perfbench/tracer.py) patches them by name
from .numerics import arctan_kernel, asinh_kernel  # noqa: F401
from .shapes import ShapeFunction, TailKind


@dataclass(frozen=True)
class FadingLaw:
    """Power fading distribution with unit mean.

    ``sampler(rng, n)`` draws n coefficients; ``tail(x)`` is P(g >= x),
    needed by the dominant-interferer bound and used by ``simulate`` for
    its conditional outage estimate (vectorised in x).
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
        """User-supplied unit-mean fading.  ``tail`` is optional: the
        tail-probability bounds require it, and when given, ``simulate``
        estimates the outage from it instead of drawing coins from
        ``sampler``, so it must describe the same law as ``sampler``."""
        return cls(kind="custom", sampler=sampler, tail=tail)


@dataclass(frozen=True)
class ChannelModel:
    """Path loss (c + r^alpha)^(-1) plus a fading law."""

    alpha: float
    c: float
    fading: FadingLaw

    def __post_init__(self):
        _check_finite(alpha=self.alpha)
        _check_nonnegative(c=self.c)
        if self.alpha < 2:
            raise DomainError(f"path-loss exponent must be >= 2, got {self.alpha}")


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
        _check_positive(lambda_scale=self.lambda_scale, d=self.d, beta=self.beta)
        _check_nonnegative(y0_norm=self.y0_norm)
        if self.eta_db != math.inf:
            _check_finite(eta_db=self.eta_db)
        try:
            eta = self.eta
        except OverflowError:
            raise NumericOverflow(f"a mean SNR of eta_db={self.eta_db:g} dB overflows a double "
                                  "(the limit is about 3082.5 dB)") from None
        if eta == 0.0:
            raise DomainError(f"a mean SNR of {self.eta_db:g} dB underflows to 0")

    @property
    def eta(self) -> float:
        """Mean SNR in linear units (inf when noise-free)."""
        return 10.0 ** (self.eta_db / 10.0)


@dataclass(frozen=True)
class FinitenessVerdict:
    mean_interference_finite: bool
    expected_count_finite: bool
    interference_as_finite: bool


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
# offsets beyond this many kernel peak widths c^(1/alpha) are refused: one ulp
# of y0 is then 1e-6 of a width, and node rounding costs ~1e-8 of the value
_MAX_PEAK_WIDTHS = 1e10


def _threshold(beta: float, c: float, d: float, alpha: float) -> float:
    """beta (c + d^alpha); NumericOverflow naming d and alpha when it is not a
    finite double (numpy scalars give inf, Python floats raise)."""
    with np.errstate(over="ignore"):
        try:
            value = beta * (c + d**alpha)
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise NumericOverflow(f"beta (c + d^alpha) overflows at d={d:g}, alpha={alpha:g}")
    return value


def _radial(shape: ShapeFunction, y0_norm: float, c: float, alpha: float, weight: Callable,
            tol: float, support_end: float | None) -> IntegralResult:
    """int_0^inf r weight(r) K_alpha(r) dr; ``support_end`` bounds weight's support.

    K_alpha peaks at r = y0 with width w = c^(1/alpha).  The integral splits
    at the shape knots, at y0, and at y0 -+ w 2^k and 4 scale 2^k below y0;
    the tail map starts at max(4 scale, 2 y0).  Past _MAX_PEAK_WIDTHS widths,
    a peak inside weight's support raises DomainError.
    """
    y = float(y0_norm)  # a product of floats overflows without a warning
    knee = max(4.0 * shape.scale, 2.0 * y)
    if math.isinf(1e6 * knee * knee):
        # the tail's first panel squares r + y0 at radii up to ~250 knees
        raise NumericOverflow(f"offset y0={y0_norm:g} or shape scale {shape.scale:g} is too "
                              "large: the kernels square radii beyond both")
    width = c ** (1.0 / alpha)
    if y > _MAX_PEAK_WIDTHS * width and (support_end is None or y < support_end):
        raise DomainError(
            f"offset y0={y0_norm:g} exceeds {_MAX_PEAK_WIDTHS:g} kernel peak widths "
            f"c^(1/alpha)={width:g}: the peak at r = y0 is not resolved in double precision"
        )
    kernel = _KERNELS[alpha]

    def integrand(r):
        return r * weight(r) * kernel(r, c, y0_norm)

    flanks = _doublings(width, y)
    return integrate_semi_infinite(
        integrand,
        tol,
        knots=(*shape.knots, *_doublings(4.0 * shape.scale, y), y, *(y - flanks), *(y + flanks)),
        knee=knee,
        support_end=support_end,
    )


def _doublings(start: float, end: float) -> np.ndarray:
    """start 2^k for k = 0, 1, ... while below end."""
    count = math.ceil(math.log2(end / start)) if end > start else 0
    return start * 2.0 ** np.arange(count)


def interference_driving(
    shape: ShapeFunction, y0_norm: float, c: float, alpha: float, tol: float = 1e-10
) -> IntegralResult:
    """A_alpha(y0, c) = int_0^inf r F(r) K_alpha(r) dr for alpha in {2, 4}.

    ``tol`` is relative.  Raises UnsupportedAlpha for other exponents and
    DivergentIntegral at alpha = 2 unless the shape decays at least like a
    power law; at alpha = 4 the integral is finite for every shape.
    """
    _check_positive(c=c)
    _check_nonnegative(y0_norm=y0_norm)
    if alpha not in _KERNELS:
        raise UnsupportedAlpha(
            f"closed forms exist only for path-loss exponents 2 and 4, got {alpha}; "
            "use the Monte-Carlo engine or the tail bounds instead"
        )
    if not _mean_finite(shape, alpha):
        raise DivergentIntegral(
            "mean interference at path-loss exponent 2 is infinite unless the "
            "density decays at least like a power law"
        )
    return _radial(shape, y0_norm, c, alpha, shape.eval_f, tol, shape.support_end)


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
    _check_positive(lambda_scale=lambda_scale)
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
    _check_positive(lambda_scale=lambda_scale)
    _check_nonnegative(y0_norm=y0_norm, s=s)
    if channel.fading.kind != "rayleigh":
        raise DomainError("the interference Laplace transform assumes Rayleigh fading")
    if s + channel.c <= 0:
        raise DomainError("need s + c > 0")
    if s == 0.0:
        return 1.0
    if channel.alpha == 2 and not _mean_finite(shape, 2.0):
        return 0.0
    a = interference_driving(shape, y0_norm, s + channel.c, channel.alpha, tol)
    return math.exp(-lambda_scale * s * _converged(a, "driving-function"))


def classify_finiteness(shape: ShapeFunction, channel: ChannelModel) -> FinitenessVerdict:
    """Finiteness of the interferer count and of the interference itself.

    The expected count is finite only for compactly supported, exponentially
    decaying, or power-decaying (exponent > 2) shapes.  At alpha = 2 the mean
    interference needs any power-law-or-faster decay, and a non-decaying or
    log-decaying density makes the interference infinite almost surely; at
    alpha = 4 the mean is finite for every shape.  At c = 0 the path loss is
    singular at the receiver, so the mean counts as infinite (it is wherever
    F(y0) > 0); almost-sure finiteness depends on the tail alone.
    """
    if channel.alpha not in (2, 4):
        raise UnsupportedAlpha("finiteness classification covers alpha in {2, 4}")
    kind = shape.tail.kind
    count_finite = kind in (TailKind.COMPACT_SUPPORT, TailKind.EXPONENTIAL_DECAY) or (
        kind is TailKind.POWER_DECAY and (shape.tail.param or 0.0) > 2.0
    )
    tail_finite = _mean_finite(shape, channel.alpha)
    return FinitenessVerdict(
        mean_interference_finite=channel.c > 0 and tail_finite,
        expected_count_finite=count_finite,
        interference_as_finite=tail_finite,
    )
