"""Radial density profiles of isotropic node deployments.

A deployment is described by a shape function ``F(r)`` mapping distance to
the network centre onto a density fraction in [0, 1]; the actual intensity
is ``lambda_scale * F(r)``.  A shape carries F and no derivative (the
subharmonic test reads second differences of F), a tail classification used
by the finiteness and divergence checks, and the knot radii where
smoothness breaks (quadrature split points).

Catalogued scenarios are registered by name: every parameter must be
positive and finite, and each built shape carries the descriptor
``{"scenario": name, "params": {...}}`` of its arguments, defaults included.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidScenarioParams


class TailKind(Enum):
    COMPACT_SUPPORT = "compact_support"
    POWER_DECAY = "power_decay"
    EXPONENTIAL_DECAY = "exponential_decay"
    NON_DECAYING = "non_decaying"
    LOG_DECAY = "log_decay"


_PARAMETRISED = (TailKind.COMPACT_SUPPORT, TailKind.POWER_DECAY, TailKind.EXPONENTIAL_DECAY)
# a built shape's F is probed at scale 2^k for k = -20 ... 40, and at its knots
_PROBE_OCTAVES = 2.0 ** np.arange(-20, 41)


@dataclass(frozen=True)
class TailClass:
    """Large-radius behaviour of a shape function.

    ``param`` is the support end for COMPACT_SUPPORT, the exponent for
    POWER_DECAY and the rate for EXPONENTIAL_DECAY; it is None otherwise.
    """

    kind: TailKind
    param: float | None = None

    def __post_init__(self):
        if self.kind in _PARAMETRISED and not 0.0 < (self.param or 0.0) < math.inf:
            raise InvalidScenarioParams(f"a {self.kind.value} tail needs a positive finite "
                                        f"parameter, got {self.param}")


@dataclass(frozen=True)
class ShapeFunction:
    """Immutable radial density profile.

    ``eval_f`` maps a radius or an array of radii to F; a catalogued one
    hands its profile a float array.  Construction is the one check of F's
    range: F must be finite and in [0, 1] at 0, at the knots and at
    ``scale 2^k`` for k = -20 ... 40, or InvalidScenarioParams names the
    first radius where it is not.
    ``knots`` lists the radii where higher derivatives jump; quadrature
    always splits there.  ``scale`` is the characteristic radius used to
    place quadrature knees and finite-difference grids.
    """

    eval_f: Callable
    tail: TailClass
    knots: tuple[float, ...] = ()
    scale: float = 1.0
    descriptor: dict | None = field(default=None, compare=False)
    # read by nothing in the package; kept only because the benchmark's
    # tracer still replaces it (ROADMAP item 7 deletes it)
    eval_deriv: Callable | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise InvalidScenarioParams(f"scale must be positive and finite, got {self.scale}")
        if not 0.0 <= self.f_zero <= 1.0:
            raise InvalidScenarioParams(f"F(0) must lie in [0, 1], got {self.f_zero}")
        # a density fraction that is negative, above 1 or not finite would
        # turn into a negative mean or an invalid probability later
        with np.errstate(all="ignore"):
            radii = np.concatenate((self.knots, self.scale * _PROBE_OCTAVES))
            values = np.asarray(self.eval_f(radii), dtype=float)
        # a probe radius that overflowed (scale above 1e296) is skipped
        bad = np.isfinite(radii) & ~((values >= 0.0) & (values <= 1.0))
        if bad.any():
            k = np.flatnonzero(bad)[np.argmin(radii[bad])]
            raise InvalidScenarioParams(f"F must be finite and lie in [0, 1], got "
                                        f"F({radii[k]:g}) = {values[k]:g}")

    @property
    def f_zero(self) -> float:
        """Density fraction F(0) at the network centre."""
        return float(self.eval_f(0.0))

    @property
    def support_end(self) -> float | None:
        """End of the support for compactly supported shapes, else None."""
        if self.tail.kind is TailKind.COMPACT_SUPPORT:
            return self.tail.param
        return None


_SCENARIOS: dict[str, Callable[..., ShapeFunction]] = {}


def _scenario(name: str):
    """Register a catalogued builder under ``name``.  Each call binds its
    arguments with their defaults (InvalidScenarioParams for a missing,
    unknown or surplus one), reads each with ``_number``, rejects any that
    is not positive and finite, and makes the one ShapeFunction from the
    parts the builder returns: a ``profile`` of float arrays, the tail,
    knots and scale, and the numbers as the descriptor.  A builder checks
    only rules between its parameters; ShapeFunction checks F's range."""

    def register(build):
        signature = inspect.signature(build)

        @functools.wraps(build)
        def checked(*args, **kwargs):
            try:
                bound = signature.bind(*args, **kwargs)
            except TypeError as exc:
                raise InvalidScenarioParams(f"scenario {name}: {exc}") from None
            bound.apply_defaults()
            for param, value in bound.arguments.items():
                value = bound.arguments[param] = _number(name, param, value)
                if not 0.0 < value < math.inf:
                    raise InvalidScenarioParams(f"scenario {name}: {param} must be "
                                                f"positive and finite, got {value}")
            parts = build(**bound.arguments)
            profile = parts.pop("profile")
            return ShapeFunction(eval_f=lambda r: profile(np.asarray(r, dtype=float)), **parts,
                                 descriptor={"scenario": name, "params": dict(bound.arguments)})

        _SCENARIOS[name] = checked
        return checked

    return register


def _plateau(r0: float, r1: float):
    """Raised-cosine plateau: 1 on [0, r0], rolls off to 0 at r1."""
    width = r1 - r0

    def f_eval(r):
        t = np.clip((r - r0) / width, 0.0, 1.0)
        return 0.5 * (1.0 + np.cos(np.pi * t))

    return f_eval


@_scenario("A")
def scenario_finite_network(r0: float, r1: float) -> ShapeFunction:
    """Scenario A: constant density out to ``r0``, raised-cosine rolloff to
    zero at ``r1`` (finite network with a soft boundary)."""
    if r0 >= r1:
        raise InvalidScenarioParams(f"need r0 < r1, got r0={r0}, r1={r1}")
    return dict(profile=_plateau(r0, r1), tail=TailClass(TailKind.COMPACT_SUPPORT, float(r1)),
                knots=(r0, r1), scale=r1)


@_scenario("B")
def scenario_urban_hotspot(
    hot_level: float,
    hot_r0: float,
    hot_r1: float,
    base_level: float,
    base_r0: float,
    base_r1: float,
) -> ShapeFunction:
    """Scenario B: hotspot plateau stacked on a wider urban base level."""
    for name, (a, b) in {"hot": (hot_r0, hot_r1), "base": (base_r0, base_r1)}.items():
        if a >= b:
            raise InvalidScenarioParams(f"{name} plateau needs r0 < r1")

    hot_f, base_f = _plateau(hot_r0, hot_r1), _plateau(base_r0, base_r1)

    def f_eval(r):
        return hot_level * hot_f(r) + base_level * base_f(r)

    r_end = max(hot_r1, base_r1)
    return dict(profile=f_eval, tail=TailClass(TailKind.COMPACT_SUPPORT, float(r_end)),
                knots=tuple(sorted({hot_r0, hot_r1, base_r0, base_r1})), scale=r_end)


@_scenario("C")
def scenario_scattered(rho: float) -> ShapeFunction:
    """Scenario C: exponentially decaying density exp(-r/rho) (airdropped
    or otherwise scattered deployment)."""

    def f_eval(r):
        with np.errstate(over="ignore"):  # r / rho = inf gives the limit F = 0
            return np.exp(-r / rho)

    return dict(profile=f_eval, tail=TailClass(TailKind.EXPONENTIAL_DECAY, float(1.0 / rho)),
                scale=rho)


@_scenario("D")
def scenario_carrier_sense(delta: float, alpha: float) -> ShapeFunction:
    """Scenario D: 1 - exp(-delta * r^alpha), the density of contenders that
    fail to sense a transmitter at the origin (hole around the origin,
    saturating to full density far away)."""
    try:
        scale = delta ** (-1.0 / alpha)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise InvalidScenarioParams(f"scenario D: alpha={alpha:g} is too small for "
                                    f"delta={delta:g}: the scale delta^(-1/alpha) is {scale:g}")

    def f_eval(r):
        with np.errstate(over="ignore"):  # r^alpha = inf gives the limit F = 1
            return -np.expm1(-delta * r**alpha)

    return dict(profile=f_eval, tail=TailClass(TailKind.NON_DECAYING), scale=scale)


@_scenario("constant")
def constant_shape(level: float = 1.0) -> ShapeFunction:
    """Spatially constant density fraction (stationary deployment)."""

    def f_eval(r):
        return np.full_like(r, level)[()]  # [()] reads a 0-d array as its float

    return dict(profile=f_eval, tail=TailClass(TailKind.NON_DECAYING))


@_scenario("powerTail")
def power_tail_shape(nu: float, r0: float) -> ShapeFunction:
    """Smooth profile (1 + (r/r0)^2)^(-nu/2): equals 1 at the origin and
    decays like (r/r0)^(-nu) far out."""

    def f_eval(r):
        with np.errstate(over="ignore"):  # (r/r0)^2 = inf gives the limit F = 0
            return (1.0 + (r / r0) ** 2) ** (-nu / 2.0)

    return dict(profile=f_eval, tail=TailClass(TailKind.POWER_DECAY, float(nu)), scale=r0)


@_scenario("logDecay")
def log_decay_shape(r0: float = 100.0) -> ShapeFunction:
    """Profile 1/(1 + log(1 + r/r0)), decaying slower than every power law.

    Deployments in this class keep their truncated mean interference growing
    without bound at path-loss exponent 2; the constructor exists to witness
    that divergent regime.
    """

    def f_eval(r):
        with np.errstate(over="ignore"):  # r / r0 = inf gives the limit F = 0
            return 1.0 / (1.0 + np.log1p(r / r0))

    return dict(profile=f_eval, tail=TailClass(TailKind.LOG_DECAY), scale=r0)


def from_descriptor(descriptor: Mapping) -> ShapeFunction:
    """Build a catalogued shape from its JSON descriptor
    ``{"scenario": "A|B|C|D|constant|powerTail|logDecay", "params": {...}}``;
    the builder's signature names the parameters and their defaults.  Raises
    InvalidScenarioParams for a descriptor that is not a mapping or has no
    scenario key, params that are not a mapping with string keys, or an
    unknown scenario; the builder raises it, as ``_scenario`` says, for
    missing or unknown parameters, a parameter that is not a positive finite
    number (a boolean is not one), or inconsistent values."""
    if not isinstance(descriptor, Mapping):
        raise InvalidScenarioParams(f"shape descriptor must be a mapping, got {descriptor!r}")
    if "scenario" not in descriptor:
        raise InvalidScenarioParams("shape descriptor needs a 'scenario' key")
    params = descriptor.get("params", {}) or {}
    if not isinstance(params, Mapping) or not all(isinstance(key, str) for key in params):
        raise InvalidScenarioParams("'params' must be a mapping with string keys")
    scenario = str(descriptor["scenario"])
    if scenario not in _SCENARIOS:
        raise InvalidScenarioParams(f"unknown scenario {scenario!r}")
    return _SCENARIOS[scenario](**params)


def _number(scenario: str, param: str, value) -> float:
    """float(value) for a number or numeric string; float() alone takes a bool."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidScenarioParams(f"scenario {scenario}: {param} must be a number, got {value!r}")
