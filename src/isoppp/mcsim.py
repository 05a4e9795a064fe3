"""Monte-Carlo oracle for the analytic interference results.

Samples the isotropic Poisson deployment by inverse-transform sampling of
the radial density r F(r) (a trapezoid CDF table inverted by linear
interpolation, checked at build time against direct quadrature of r F(r))
with uniform angles, applies fading, and accumulates interference
statistics with 95% normal confidence half-widths, each from the sample
sigma with n - 1, frequencies included.  The inverse finds its
table knot through a guide table and returns exactly what ``np.interp``
returns; path loss and per-trial sums are evaluated over blocks of trials,
after the block's random draws.

The outage is estimated by conditional Monte-Carlo whenever the fading
law has a ``tail``: the sample mean of P(g0 < x | I) = 1 - tail(x), where
x = beta (noise + I) / ell(d) is the trial's threshold on the reference
gain g0.  It has the mean of the coin g0 < x and never a larger variance.
A law without a tail flips that coin, one a trial.

Reproducibility contract: one run draws every trial, in order, from one
generator seeded by ``seed``, and then, only for a fading law without a
tail, the outage coins of all trials, so a fixed (seed, trials, config)
gives a bit-identical outcome.  The guide and block sizes do not enter
it: the outcome is the same at any size.
The sampling disc is the smallest doubling radius whose neglected mean is
at most 1e-3 of the exact mean, ``interference_driving`` at alpha <= 9
(``SimConfig.max_radius_override`` sets it at any alpha).  Truncation is
never silent: the neglected-mean bound is reported and consumers add it.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .analytic import (ChannelModel, LinkConfig, _doublings, _mean_finite, _threshold,
                       interference_driving)
from .errors import (DomainError, NoFiniteTruncation, _check_finite, _check_nonnegative,
                     _check_positive)
from .numerics import _converged, integrate_interval, integrate_semi_infinite
from .shapes import ShapeFunction

_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_TWO_PI = 2.0 * math.pi
# the sampling disc neglects at most this fraction of the mean interference
_TRUNCATION_FRACTION = 1e-3
# simulate evaluates path loss once per block of trials holding this many points
_BLOCK_POINTS = 4096


@dataclass(frozen=True)
class SimConfig:
    """Trial count and seed for one simulation run.

    The sampling disc is the truncation rule's radius unless the
    keyword-only ``max_radius_override`` sets it directly.
    """

    trials: int
    seed: int
    _: KW_ONLY
    max_radius_override: float | None = None

    def __post_init__(self):
        if self.max_radius_override is not None:
            _check_positive(max_radius_override=self.max_radius_override)
        if self.trials < 1:
            raise DomainError("need at least one trial")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must be a nonnegative 64-bit integer")


@dataclass(frozen=True)
class SimOutcome:
    """Empirical statistics of one simulation run.

    ``truncation_bias_bound`` bounds the mean interference neglected outside
    the sampling disc (same units as ``mean``); frequencies are in [0, 1].
    ``outage_freq`` estimates the outage probability: the mean of its
    conditional probability given the interference when the fading law has
    a tail, else the coin frequency.
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
    ``radius``: 2 pi int_R^inf r F(r) / (c + max(0, r - y0)^alpha) dr, inf
    where the mean itself is infinite."""
    alpha, c = channel.alpha, channel.c

    def weight(t):
        t = np.asarray(t, dtype=float)
        r = t + radius
        gap = np.maximum(0.0, r - y0_norm)
        # gap^alpha overflows to the weight's limit 0; at c = 0, r = y0 is a pole
        with np.errstate(over="ignore", divide="ignore"):
            return r * np.asarray(shape.eval_f(r), dtype=float) / (c + gap**alpha)

    if shape.support_end is not None and radius >= shape.support_end:
        return 0.0
    if not _mean_finite(shape, alpha):
        return math.inf
    integ = integrate_semi_infinite(
        weight, 1e-9, knee=max(shape.scale, y0_norm, 1.0), max_evals=10**5
    )
    if not integ.converged:
        # a tail bound that refuses to settle is treated as unbounded
        return math.inf
    return 2.0 * math.pi * integ.value


def truncation_radius(shape: ShapeFunction, channel: ChannelModel,
                      y0_norm: float) -> TruncationResult:
    """Smallest candidate radius (doubling from max(2 scale, 2 y0, 1)) whose
    neglected-mean bound is below 1e-3 of the mean interference.

    Compactly supported shapes truncate exactly at their support end.
    Raises NoFiniteTruncation when the mean itself is infinite (alpha = 2
    with a non-decaying or log-decaying density) and UnsupportedAlpha above
    alpha = 9; use a radius override to simulate such regimes anyway.
    """
    if shape.support_end is not None:
        return TruncationResult(radius=shape.support_end, mean_tail_bound_per_intensity=0.0)
    if not _mean_finite(shape, channel.alpha):
        raise NoFiniteTruncation(
            "no finite sampling radius bounds the neglected interference: the "
            "mean is infinite for this density at path-loss exponent 2"
        )
    if channel.c == 0:
        raise DomainError(
            "unbounded path loss (c = 0) has no finite-mean truncation "
            "reference; pass a radius override to simulate it anyway"
        )
    reference = _converged(interference_driving(shape, y0_norm, channel.c, channel.alpha, 1e-9),
                           "truncation reference")
    radius = max(2.0 * shape.scale, 2.0 * y0_norm, 1.0)
    for _ in range(60):
        bound = _tail_mean_bound(shape, channel, y0_norm, radius)
        if bound <= _TRUNCATION_FRACTION * reference:
            return TruncationResult(radius=radius, mean_tail_bound_per_intensity=bound)
        radius *= 2.0
    raise NoFiniteTruncation("tail bound did not drop below tolerance within 60 doublings")


class PointProcessSampler:
    """Inverse-transform sampler of the isotropic deployment on a disc.

    The radial CDF of r F(r) is a trapezoid table on a logarithmic grid
    (shape knots inserted), inverted by linear interpolation.  A guide table
    of 2^14 equal cells in u (Chen & Asau 1974) finds a draw's knot; cells
    holding more than one knot fall back to ``np.interp``, so the inverse
    equals ``np.interp(u, cum, grid)`` bit for bit on [0, 1).  At build time
    the sampler checks its table: the inverse's 64 equal-probability bins
    must each hold 1/64 of the mass of r F(r), computed by direct
    quadrature, to a relative tolerance of 1e-3.  If a bin misses, the knot
    count is doubled and the table rebuilt; after three rebuilds the sampler
    raises DomainError.  It also refuses, with DomainError, a disc whose
    quadrature mass is not positive and finite, and one whose expected node
    count exceeds 1e7 a trial.
    """

    _MAX_MEAN_COUNT = 1e7
    _TABLE_KNOTS = 10**4
    _VALIDATION_BINS = 64
    _VALIDATION_TOL = 1e-3
    _GUIDE_CELLS = 2**14  # a power of two, so floor(u * cells) is exact

    def __init__(self, shape: ShapeFunction, lambda_scale: float, max_radius: float):
        _check_positive(lambda_scale=lambda_scale, max_radius=max_radius)
        self.shape = shape
        r_eff = float(max_radius)
        if shape.support_end is not None:
            r_eff = min(r_eff, shape.support_end)
        self._r_eff = r_eff

        def radial_mass(r):
            r = np.asarray(r, dtype=float)
            return r * np.asarray(shape.eval_f(r), dtype=float)

        self._radial_mass = radial_mass
        # split at scale 2^k too, so a disc far wider than the shape keeps
        # quadrature nodes where r F(r) lives
        self._knots = (*shape.knots, *_doublings(shape.scale, r_eff))
        mass = _converged(
            integrate_interval(radial_mass, 0.0, r_eff, 1e-12, knots=self._knots), "sampler mass"
        )
        if not 0.0 < mass < math.inf:
            raise DomainError(f"quadrature of r F(r) over [0, {r_eff:g}] gives a mass of {mass:g}; "
                              "the sampler needs a positive mass")
        self.mean_count = 2.0 * math.pi * lambda_scale * mass
        if self.mean_count > self._MAX_MEAN_COUNT:
            raise DomainError(f"{self.mean_count:.3g} nodes expected a trial exceed the sampler's "
                              f"limit of {self._MAX_MEAN_COUNT:g}")
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
        self._cum, self._grid = cum[keep], grid[keep]
        with np.errstate(over="ignore"):
            slope = np.diff(self._grid) / np.diff(self._cum)
        finite = np.isfinite(slope)
        self._slope = np.where(finite, slope, 0.0)
        # guide[k]: the last knot at or below u = k / cells
        cells = self._GUIDE_CELLS
        guide = np.searchsorted(self._cum, np.arange(cells + 1) / cells, "right") - 1
        self._guide = guide[:-1]
        # a cell holding two or more knots is left to np.interp, and so is
        # every cell of a table with an overflowed (subnormal-step) slope
        self._crowded = (np.diff(guide) > 1) | (not finite.all())

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        """The table's inverse CDF at u in [0, 1), equal to ``np.interp(u,
        cum, grid)``: the same knot and the same slope formula."""
        k = (u * self._GUIDE_CELLS).astype(np.intp)
        j = self._guide.take(k)
        j += self._cum.take(j + 1) <= u
        radii = self._slope.take(j) * (u - self._cum.take(j)) + self._grid.take(j)
        crowded = self._crowded.take(k)
        if crowded.any():
            radii[crowded] = np.interp(u[crowded], self._cum, self._grid)
        return radii

    def _table_bin_error(self) -> float:
        """Largest relative deviation of a table bin's quadrature mass from
        the 1/bins share it should hold."""
        bins = self._VALIDATION_BINS
        edges = np.concatenate(([0.0], self._inverse(np.arange(1, bins) / bins), [self._r_eff]))
        masses = np.array(
            [
                _converged(integrate_interval(self._radial_mass, lo, hi, 1e-10,
                                              knots=self._knots), "bin-mass")
                for lo, hi in zip(edges[:-1], edges[1:])
            ]
        )
        return float(np.max(np.abs(masses * bins / self._mass - 1.0)))

    def _draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """One realisation's uniforms: (radial quantiles, angles / 2 pi).
        The Poisson count, then one ``random`` call for both halves, which
        is the stream of ``random(n)`` followed by ``uniform(0, 2 pi, n)``."""
        n = rng.poisson(self.mean_count)
        v = rng.random(2 * n)
        return v[:n], v[n:]

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw one realisation; returns (radii, angles) in polar form."""
        u, turns = self._draw(rng)
        return self._inverse(u), turns * _TWO_PI


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
    and ``want_outage`` for the outage probability of the reference link.
    Each level z must be finite and each transform variable s nonnegative
    and finite.
    """
    for z in z_grid if z_grid is not None else ():
        _check_finite(z=float(z))
    for s in s_grid if s_grid is not None else ():
        _check_nonnegative(s=float(s))
    alpha, c = channel.alpha, channel.c
    y0 = link.y0_norm
    lam = link.lambda_scale
    fading_sampler = channel.fading.sampler
    if fading_sampler is None:
        raise DomainError("fading law has no sampler")

    if sim_cfg.max_radius_override is not None:
        radius = sim_cfg.max_radius_override
        bias = lam * _tail_mean_bound(shape, channel, y0, radius)
    else:
        trunc = truncation_radius(shape, channel, y0)
        radius = trunc.radius
        bias = lam * trunc.mean_tail_bound_per_intensity
    sampler = PointProcessSampler(shape, lam, radius)

    trials = sim_cfg.trials
    interference = np.empty(trials)
    noise = 1.0 / link.eta
    gain_inv = _threshold(1.0, c, link.d, alpha)  # 1 / ell(d)

    rng = np.random.default_rng(sim_cfg.seed)
    first = 0
    while first < trials:
        # draw trials in order until the block holds _BLOCK_POINTS points ...
        us, turns, gains, ends = [], [], [], [0]
        while first + len(us) < trials and ends[-1] < _BLOCK_POINTS:
            u, turn = sampler._draw(rng)
            us.append(u)
            turns.append(turn)
            g = np.asarray(fading_sampler(rng, u.size), dtype=float)
            gains.append(g if g.shape == u.shape else np.broadcast_to(g, u.shape))
            ends.append(ends[-1] + u.size)
        # ... then map, attenuate and sum the whole block; each trial is
        # reduced alone, in the order np.sum would use on its own array
        radii = sampler._inverse(np.concatenate(us))
        d2 = radii**2 + y0**2 - 2.0 * radii * y0 * np.cos(np.concatenate(turns) * _TWO_PI)
        loss = np.concatenate(gains) / (c + d2 ** (alpha / 2.0))
        for lo, hi in zip(ends[:-1], ends[1:]):
            interference[first] = np.add.reduce(loss[lo:hi])
            first += 1

    outage = (None, None)
    if want_outage:
        x = link.beta * (noise + interference * gain_inv)
        if channel.fading.tail is not None:
            # conditional Monte-Carlo: average P(g0 < x | I) instead of a coin
            outage = _estimate(1.0 - np.asarray(channel.fading.tail(x), dtype=float))
        else:
            # drawn after every trial, so requesting outage leaves the interference unchanged
            outage = _estimate(np.asarray(fading_sampler(rng, trials), dtype=float) < x)
    tail = _per_key(z_grid, lambda z: _estimate(interference >= z))
    laplace = _per_key(s_grid, lambda s: _estimate(np.exp(-s * interference)))
    return SimOutcome(*_estimate(interference), *tail, *outage, *laplace, bias, trials, radius)


def _estimate(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its 95% normal half-width, from the sample sigma with
    n - 1 (inf for one sample); a frequency is the mean of its 0/1 hits."""
    half_width = _Z95 * float(np.std(x, ddof=1)) / math.sqrt(x.size) if x.size > 1 else math.inf
    return float(np.mean(x)), half_width


def _per_key(grid, stat) -> tuple[dict | None, dict | None]:
    """``stat(key) -> (value, half-width)`` over a grid, split into a value
    dict and a half-width dict; (None, None) without a grid."""
    if grid is None:
        return None, None
    stats = {k: stat(k) for k in map(float, grid)}
    return {k: v for k, (v, _) in stats.items()}, {k: h for k, (_, h) in stats.items()}
