"""Monte-Carlo oracle for the analytic interference results.

Samples the isotropic Poisson deployment by inverse-transform sampling of
the radial density r F(r) (precomputed monotone table, checked at build time
against direct quadrature of r F(r)) with uniform angles, applies fading,
and accumulates interference statistics with 95% normal confidence
half-widths.

Reproducibility contract: trial i draws from a generator seeded by
(seed, i), so results are bit-identical for a fixed (seed, trials, config)
no matter how trials are scheduled; reductions run in fixed trial order.
Truncation of the sampling disc is never silent: the neglected-mean bound
is reported in the outcome and consumers add it to their tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .analytic import ChannelModel, LinkConfig, _mean_finite, interference_driving
from .errors import DomainError, NoFiniteTruncation, _check_finite
from .numerics import integrate_interval, integrate_semi_infinite
from .shapes import ShapeFunction, TailKind

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimConfig:
    """Trial count, seed and truncation policy for one simulation run."""

    trials: int
    seed: int
    truncation_tol_fraction: float = 1e-3
    max_radius_override: float | None = None

    def __post_init__(self):
        if self.max_radius_override is not None:
            _check_finite(max_radius_override=self.max_radius_override)
        if self.trials < 1:
            raise DomainError("need at least one trial")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must be a nonnegative 64-bit integer")
        if not 0.0 < self.truncation_tol_fraction < 1.0:
            raise DomainError("truncation tolerance fraction must lie in (0, 1)")
        if self.max_radius_override is not None and self.max_radius_override <= 0:
            raise DomainError("radius override must be positive")


@dataclass(frozen=True)
class SimOutcome:
    """Empirical statistics of one simulation run.

    ``truncation_bias_bound`` bounds the mean interference neglected outside
    the sampling disc (same units as ``mean``); frequencies are in [0, 1].
    """

    mean: float
    mean_half_width95: float
    tail_freq: dict | None
    tail_half_width95: dict | None
    outage_freq: float | None
    outage_half_width95: float | None
    laplace_est: dict | None
    laplace_half_width95: dict | None
    truncation_bias_bound: float
    trials_used: int
    max_radius: float


@dataclass(frozen=True)
class TruncationResult:
    """Sampling radius and the per-unit-intensity neglected-mean bound."""

    radius: float
    mean_tail_bound_per_intensity: float


def _tail_mean_bound(shape: ShapeFunction, channel: ChannelModel, y0_norm: float, radius: float) -> float:
    """Bound (per unit intensity) on the mean interference from nodes beyond
    ``radius``: 2 pi int_R^inf r F(r) / (c + max(0, r - y0)^alpha) dr."""
    alpha, c = channel.alpha, channel.c

    def weight(t):
        t = np.asarray(t, dtype=float)
        r = t + radius
        gap = np.maximum(0.0, r - y0_norm)
        return r * np.asarray(shape.eval_f(r), dtype=float) / (c + gap**alpha)

    if shape.support_end is not None and radius >= shape.support_end:
        return 0.0
    integ = integrate_semi_infinite(
        weight, 1e-9, knee=max(shape.scale, y0_norm, 1.0), max_evals=10**5
    )
    if not integ.converged:
        # a tail bound that refuses to settle is treated as unbounded
        return math.inf
    return 2.0 * math.pi * integ.value


def _truncated_mean_per_intensity(
    shape: ShapeFunction, channel: ChannelModel, y0_norm: float, radius: float
) -> float:
    """Mean interference (per unit intensity) from the disc of ``radius``,
    by polar quadrature with a trigonometric angular average."""
    alpha, c = channel.alpha, channel.c
    phi = (np.arange(128) + 0.5) * (math.pi / 128.0)
    cos_phi = np.cos(phi)

    def fn(r):
        r = np.asarray(r, dtype=float)
        d2 = r[:, None] ** 2 + y0_norm**2 - 2.0 * r[:, None] * y0_norm * cos_phi[None, :]
        avg = np.mean(1.0 / (c + d2 ** (alpha / 2.0)), axis=1)
        return 2.0 * math.pi * r * np.asarray(shape.eval_f(r), dtype=float) * avg

    return integrate_interval(fn, 0.0, radius, 1e-9, knots=shape.knots).value


def truncation_radius(
    shape: ShapeFunction,
    channel: ChannelModel,
    y0_norm: float,
    tol_fraction: float,
) -> TruncationResult:
    """Smallest candidate radius whose neglected-mean bound is below
    ``tol_fraction`` of the mean interference.

    Compactly supported shapes truncate exactly at their support end.
    Raises NoFiniteTruncation when the mean itself is infinite (alpha = 2
    with a non-decaying or log-decaying density); use a radius override to
    simulate such regimes anyway.
    """
    if not 0.0 < tol_fraction < 1.0:
        raise DomainError("tolerance fraction must lie in (0, 1)")
    if shape.support_end is not None:
        return TruncationResult(radius=shape.support_end, mean_tail_bound_per_intensity=0.0)
    if not _mean_finite(shape, channel.alpha):
        raise NoFiniteTruncation(
            "no finite sampling radius bounds the neglected interference: the "
            "mean is infinite for this density at path-loss exponent 2"
        )
    if channel.c <= 0:
        raise DomainError(
            "unbounded path loss (c = 0) has no finite-mean truncation "
            "reference; pass a radius override to simulate it anyway"
        )
    if channel.alpha in (2, 4):
        reference = interference_driving(shape, y0_norm, channel.c, channel.alpha, 1e-9).value
    else:
        reference = None

    radius = max(2.0 * shape.scale, 2.0 * y0_norm, 1.0)
    for _ in range(60):
        bound = _tail_mean_bound(shape, channel, y0_norm, radius)
        ref = (
            reference
            if reference is not None
            else _truncated_mean_per_intensity(shape, channel, y0_norm, radius)
        )
        if bound <= tol_fraction * ref:
            return TruncationResult(radius=radius, mean_tail_bound_per_intensity=bound)
        radius *= 2.0
    raise NoFiniteTruncation("tail bound did not drop below tolerance within 60 doublings")


class PointProcessSampler:
    """Inverse-transform sampler of the isotropic deployment on a disc.

    The radial CDF of r F(r) is tabulated on a logarithmic grid (shape knots
    inserted) and inverted with a monotone cubic interpolant.  At build time
    the sampler checks its table: the interpolant's 64 equal-probability
    bins must each hold 1/64 of the mass of r F(r), computed by direct
    quadrature, to a relative tolerance of 1e-3.  If a bin misses, the knot
    count is doubled and the table rebuilt; after three rebuilds the sampler
    raises DomainError.
    """

    _TABLE_KNOTS = 10**4
    _VALIDATION_BINS = 64
    _VALIDATION_TOL = 1e-3

    def __init__(self, shape: ShapeFunction, lambda_scale: float, max_radius: float):
        if lambda_scale <= 0:
            raise DomainError("intensity scale must be positive")
        if max_radius <= 0:
            raise DomainError("sampling radius must be positive")
        self.shape = shape
        self.lambda_scale = lambda_scale
        self.max_radius = float(max_radius)
        r_eff = self.max_radius
        if shape.support_end is not None:
            r_eff = min(r_eff, shape.support_end)
        self._r_eff = r_eff

        def radial_mass(r):
            r = np.asarray(r, dtype=float)
            return r * np.asarray(shape.eval_f(r), dtype=float)

        self._radial_mass = radial_mass
        mass = integrate_interval(radial_mass, 0.0, r_eff, 1e-12, knots=shape.knots).value
        self.mean_count = 2.0 * math.pi * lambda_scale * mass
        self._mass = mass

        knots = self._TABLE_KNOTS
        for _ in range(4):
            self._build_table(knots)
            error = self._table_bin_error()
            if error <= self._VALIDATION_TOL:
                break
            knots *= 2
        else:
            raise DomainError(
                f"radial sampling table misplaces up to {error:.3g} of a bin's mass "
                f"(tolerance {self._VALIDATION_TOL:g})"
            )

    def _build_table(self, knot_count: int):
        # logarithmic spacing keeps the table resolved near the origin even
        # when the disc is orders of magnitude wider than the shape scale
        r_min = min(self.shape.scale, self._r_eff) * 1e-4
        grid = np.concatenate(
            ([0.0], np.geomspace(r_min, self._r_eff, knot_count - 1))
        )
        inside = [k for k in self.shape.knots if 0.0 < k < self._r_eff]
        if inside:
            grid = np.union1d(grid, np.asarray(inside, dtype=float))
        g = self._radial_mass(grid)
        seg = 0.5 * (g[1:] + g[:-1]) * np.diff(grid)
        cum = np.concatenate(([0.0], np.cumsum(seg)))
        cum /= cum[-1]
        keep = np.concatenate(([True], np.diff(cum) > 0.0))
        self._inverse = PchipInterpolator(cum[keep], grid[keep], extrapolate=False)

    def _table_bin_error(self) -> float:
        """Largest relative deviation of a table bin's quadrature mass from
        the 1/bins share it should hold."""
        bins = self._VALIDATION_BINS
        edges = self._inverse(np.linspace(0.0, 1.0, bins + 1))
        edges[0], edges[-1] = 0.0, self._r_eff
        masses = np.array(
            [
                integrate_interval(self._radial_mass, lo, hi, 1e-10, knots=self.shape.knots).value
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )
        return float(np.max(np.abs(masses * bins / self._mass - 1.0)))

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw one realisation; returns (radii, angles) in polar form."""
        n = rng.poisson(self.mean_count)
        radii = np.asarray(self._inverse(rng.random(n)), dtype=float)
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        return radii, angles


def simulate(
    shape: ShapeFunction,
    channel: ChannelModel,
    link: LinkConfig,
    sim_cfg: SimConfig,
    *,
    z_grid=None,
    s_grid=None,
    want_outage: bool = False,
) -> SimOutcome:
    """Run the Monte-Carlo oracle and collect the requested statistics.

    Always estimates the mean interference; pass ``z_grid`` for tail
    frequencies P(I >= z), ``s_grid`` for Laplace estimates E[exp(-s I)],
    and ``want_outage`` for the outage frequency of the reference link.
    """
    alpha, c = channel.alpha, channel.c
    y0 = link.y0_norm
    lam = link.lambda_scale

    if sim_cfg.max_radius_override is not None:
        radius = sim_cfg.max_radius_override
        bias = lam * _tail_mean_bound(shape, channel, y0, radius)
        if not math.isfinite(bias):
            bias = math.inf
    else:
        trunc = truncation_radius(shape, channel, y0, sim_cfg.truncation_tol_fraction)
        radius = trunc.radius
        bias = lam * trunc.mean_tail_bound_per_intensity

    sampler = PointProcessSampler(shape, lam, radius)
    fading_sampler = channel.fading.sampler
    if fading_sampler is None:
        raise DomainError("fading law has no sampler")

    z_arr = None if z_grid is None else np.asarray(list(z_grid), dtype=float)
    s_arr = None if s_grid is None else np.asarray(list(s_grid), dtype=float)

    trials = sim_cfg.trials
    interference = np.empty(trials)
    tail_hits = None if z_arr is None else np.empty((trials, z_arr.size))
    laplace_rows = None if s_arr is None else np.empty((trials, s_arr.size))
    outage_hits = np.empty(trials) if want_outage else None

    noise = 0.0 if math.isinf(link.eta) else 1.0 / link.eta
    gain_inv = c + link.d**alpha  # 1 / ell(d)

    for i in range(trials):
        rng = np.random.default_rng([sim_cfg.seed, i])
        radii, angles = sampler.sample(rng)
        g = np.asarray(fading_sampler(rng, radii.size), dtype=float)
        d2 = radii**2 + y0**2 - 2.0 * radii * y0 * np.cos(angles)
        total = float(np.sum(g / (c + d2 ** (alpha / 2.0))))
        interference[i] = total
        if tail_hits is not None:
            tail_hits[i] = total >= z_arr
        if laplace_rows is not None:
            laplace_rows[i] = np.exp(-s_arr * total)
        if outage_hits is not None:
            g0 = float(np.asarray(fading_sampler(rng, 1), dtype=float)[0])
            outage_hits[i] = 1.0 if g0 < link.beta * (noise + total * gain_inv) else 0.0

    mean = float(np.mean(interference))
    mean_hw = _Z95 * float(np.std(interference, ddof=1)) / math.sqrt(trials) if trials > 1 else math.inf

    def freq_stats(hits: np.ndarray) -> tuple[float, float]:
        p = float(np.mean(hits))
        return p, _Z95 * math.sqrt(p * (1.0 - p) / trials)

    tail_freq = tail_hw = None
    if tail_hits is not None:
        stats = [freq_stats(tail_hits[:, k]) for k in range(z_arr.size)]
        tail_freq = {float(z): s[0] for z, s in zip(z_arr, stats)}
        tail_hw = {float(z): s[1] for z, s in zip(z_arr, stats)}

    outage_freq = outage_hw = None
    if outage_hits is not None:
        outage_freq, outage_hw = freq_stats(outage_hits)

    laplace_est = laplace_hw = None
    if laplace_rows is not None:
        laplace_est = {}
        laplace_hw = {}
        for k, s in enumerate(s_arr):
            col = laplace_rows[:, k]
            laplace_est[float(s)] = float(np.mean(col))
            laplace_hw[float(s)] = (
                _Z95 * float(np.std(col, ddof=1)) / math.sqrt(trials) if trials > 1 else math.inf
            )

    return SimOutcome(
        mean=mean,
        mean_half_width95=mean_hw,
        tail_freq=tail_freq,
        tail_half_width95=tail_hw,
        outage_freq=outage_freq,
        outage_half_width95=outage_hw,
        laplace_est=laplace_est,
        laplace_half_width95=laplace_hw,
        truncation_bias_bound=bias,
        trials_used=trials,
        max_radius=radius,
    )
