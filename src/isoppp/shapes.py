"""Radial density profiles of isotropic node deployments.

A deployment is described by a shape function ``F(r)`` mapping distance to
the network centre onto a density fraction in [0, 1]; the actual intensity
is ``lambda_scale * F(r)``.  Every shape carries its analytic derivative
``f(r) = dF/dr``, a tail classification used by the finiteness and
divergence checks, and the knot radii where smoothness breaks (quadrature
split points).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import InvalidExponent, InvalidLevel, InvalidScenarioParams


class TailKind(Enum):
    COMPACT_SUPPORT = "compact_support"
    POWER_DECAY = "power_decay"
    EXPONENTIAL_DECAY = "exponential_decay"
    NON_DECAYING = "non_decaying"
    LOG_DECAY = "log_decay"


@dataclass(frozen=True)
class TailClass:
    """Large-radius behaviour of a shape function.

    ``param`` is the support end for COMPACT_SUPPORT, the exponent for
    POWER_DECAY and the rate for EXPONENTIAL_DECAY; it is None otherwise.
    """

    kind: TailKind
    param: float | None = None

    def __post_init__(self):
        if self.kind is TailKind.COMPACT_SUPPORT:
            if self.param is None or self.param <= 0:
                raise InvalidScenarioParams("compact support needs a positive end radius")
        elif self.kind is TailKind.POWER_DECAY:
            if self.param is None or self.param <= 0:
                raise InvalidExponent("power decay needs a positive exponent")
        elif self.kind is TailKind.EXPONENTIAL_DECAY:
            if self.param is None or self.param <= 0:
                raise InvalidScenarioParams("exponential decay needs a positive rate")

    @classmethod
    def compact_support(cls, r_end: float) -> "TailClass":
        return cls(TailKind.COMPACT_SUPPORT, float(r_end))

    @classmethod
    def power_decay(cls, nu: float) -> "TailClass":
        return cls(TailKind.POWER_DECAY, float(nu))

    @classmethod
    def exponential_decay(cls, rate: float) -> "TailClass":
        return cls(TailKind.EXPONENTIAL_DECAY, float(rate))

    @classmethod
    def non_decaying(cls) -> "TailClass":
        return cls(TailKind.NON_DECAYING)

    @classmethod
    def log_decay(cls) -> "TailClass":
        return cls(TailKind.LOG_DECAY)


def _radial(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Wrap an array-native radial function so scalars map to floats."""

    def call(r):
        arr = np.atleast_1d(np.asarray(r, dtype=float))
        out = fn(arr)
        if np.ndim(r) == 0:
            return float(out[0])
        return out

    call.__name__ = fn.__name__
    return call


@dataclass(frozen=True)
class ShapeFunction:
    """Immutable radial density profile.

    ``eval_f`` and ``eval_deriv`` accept scalars or numpy arrays of radii.
    ``knots`` lists the radii where higher derivatives jump; quadrature
    always splits there.  ``scale`` is the characteristic radius used to
    place quadrature knees and finite-difference grids.
    """

    eval_f: Callable
    eval_deriv: Callable
    tail: TailClass
    knots: tuple[float, ...] = ()
    scale: float = 1.0
    descriptor: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise InvalidScenarioParams(f"scale must be positive and finite, got {self.scale}")
        if not 0.0 <= self.f_zero <= 1.0:
            raise InvalidScenarioParams(f"F(0) must lie in [0, 1], got {self.f_zero}")

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


def _plateau_pair(r0: float, r1: float):
    """Raised-cosine plateau: 1 on [0, r0], rolls off to 0 at r1."""
    width = r1 - r0

    def f_eval(r):
        t = np.clip((r - r0) / width, 0.0, 1.0)
        return 0.5 * (1.0 + np.cos(np.pi * t))

    def f_deriv(r):
        out = np.zeros_like(r)
        inside = (r > r0) & (r < r1)
        t = (r[inside] - r0) / width
        out[inside] = -0.5 * np.pi / width * np.sin(np.pi * t)
        return out

    return f_eval, f_deriv


def scenario_finite_network(r0: float, r1: float) -> ShapeFunction:
    """Scenario A: constant density out to ``r0``, raised-cosine rolloff to
    zero at ``r1`` (finite network with a soft boundary)."""
    if r0 <= 0 or r1 <= 0:
        raise InvalidScenarioParams("plateau radii must be positive")
    if r0 >= r1:
        raise InvalidScenarioParams(f"need r0 < r1, got r0={r0}, r1={r1}")
    f_eval, f_deriv = _plateau_pair(r0, r1)
    return ShapeFunction(
        eval_f=_radial(f_eval),
        eval_deriv=_radial(f_deriv),
        tail=TailClass.compact_support(r1),
        knots=(r0, r1),
        scale=r1,
        descriptor={"scenario": "A", "params": {"r0": r0, "r1": r1}},
    )


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
        if a <= 0 or b <= 0:
            raise InvalidScenarioParams(f"{name} radii must be positive")
        if a >= b:
            raise InvalidScenarioParams(f"{name} plateau needs r0 < r1")
    if hot_level <= 0 or base_level <= 0:
        raise InvalidScenarioParams("levels must be positive")
    if hot_level + base_level > 1.0 + 1e-12:
        raise InvalidScenarioParams("hotspot plus base level must not exceed 1")

    hot_f, hot_d = _plateau_pair(hot_r0, hot_r1)
    base_f, base_d = _plateau_pair(base_r0, base_r1)

    def f_eval(r):
        return hot_level * hot_f(r) + base_level * base_f(r)

    def f_deriv(r):
        return hot_level * hot_d(r) + base_level * base_d(r)

    r_end = max(hot_r1, base_r1)
    return ShapeFunction(
        eval_f=_radial(f_eval),
        eval_deriv=_radial(f_deriv),
        tail=TailClass.compact_support(r_end),
        knots=tuple(sorted({hot_r0, hot_r1, base_r0, base_r1})),
        scale=r_end,
        descriptor={
            "scenario": "B",
            "params": {
                "hot_level": hot_level,
                "hot_r0": hot_r0,
                "hot_r1": hot_r1,
                "base_level": base_level,
                "base_r0": base_r0,
                "base_r1": base_r1,
            },
        },
    )


def scenario_scattered(rho: float) -> ShapeFunction:
    """Scenario C: exponentially decaying density exp(-r/rho) (airdropped
    or otherwise scattered deployment)."""
    if rho <= 0:
        raise InvalidScenarioParams("decay length rho must be positive")

    def f_eval(r):
        return np.exp(-r / rho)

    def f_deriv(r):
        return -np.exp(-r / rho) / rho

    return ShapeFunction(
        eval_f=_radial(f_eval),
        eval_deriv=_radial(f_deriv),
        tail=TailClass.exponential_decay(1.0 / rho),
        scale=rho,
        descriptor={"scenario": "C", "params": {"rho": rho}},
    )


def scenario_carrier_sense(delta: float, alpha: float) -> ShapeFunction:
    """Scenario D: 1 - exp(-delta * r^alpha), the density of contenders that
    fail to sense a transmitter at the origin (hole around the origin,
    saturating to full density far away)."""
    if delta <= 0:
        raise InvalidScenarioParams("sensing threshold delta must be positive")
    if alpha <= 0:
        raise InvalidScenarioParams("exponent alpha must be positive")

    def f_eval(r):
        with np.errstate(over="ignore"):  # r^alpha = inf gives the limit F = 1
            return -np.expm1(-delta * r**alpha)

    def f_deriv(r):
        return delta * alpha * r ** (alpha - 1.0) * np.exp(-delta * r**alpha)

    return ShapeFunction(
        eval_f=_radial(f_eval),
        eval_deriv=_radial(f_deriv),
        tail=TailClass.non_decaying(),
        scale=delta ** (-1.0 / alpha),
        descriptor={"scenario": "D", "params": {"delta": delta, "alpha": alpha}},
    )


def constant_shape(level: float = 1.0) -> ShapeFunction:
    """Spatially constant density fraction (stationary deployment)."""
    if not 0.0 < level <= 1.0:
        raise InvalidLevel(f"level must lie in (0, 1], got {level}")

    def f_eval(r):
        return np.full_like(r, level)

    def f_deriv(r):
        return np.zeros_like(r)

    return ShapeFunction(
        eval_f=_radial(f_eval),
        eval_deriv=_radial(f_deriv),
        tail=TailClass.non_decaying(),
        descriptor={"scenario": "constant", "params": {"level": level}},
    )


def power_tail_shape(nu: float, r0: float) -> ShapeFunction:
    """Smooth profile (1 + (r/r0)^2)^(-nu/2): equals 1 at the origin and
    decays like (r/r0)^(-nu) far out."""
    if nu <= 0:
        raise InvalidExponent(f"tail exponent must be positive, got {nu}")
    if r0 <= 0:
        raise InvalidScenarioParams("knee radius r0 must be positive")

    def f_eval(r):
        return (1.0 + (r / r0) ** 2) ** (-nu / 2.0)

    def f_deriv(r):
        return -nu * (r / r0**2) * (1.0 + (r / r0) ** 2) ** (-nu / 2.0 - 1.0)

    return ShapeFunction(
        eval_f=_radial(f_eval),
        eval_deriv=_radial(f_deriv),
        tail=TailClass.power_decay(nu),
        scale=r0,
        descriptor={"scenario": "powerTail", "params": {"nu": nu, "r0": r0}},
    )


def log_decay_shape(r0: float = 100.0) -> ShapeFunction:
    """Profile 1/(1 + log(1 + r/r0)), decaying slower than every power law.

    Deployments in this class keep their truncated mean interference growing
    without bound at path-loss exponent 2; the constructor exists to witness
    that divergent regime.
    """
    if r0 <= 0:
        raise InvalidScenarioParams("knee radius r0 must be positive")

    def f_eval(r):
        return 1.0 / (1.0 + np.log1p(r / r0))

    def f_deriv(r):
        return -1.0 / (r0 * (1.0 + r / r0) * (1.0 + np.log1p(r / r0)) ** 2)

    return ShapeFunction(
        eval_f=_radial(f_eval),
        eval_deriv=_radial(f_deriv),
        tail=TailClass.log_decay(),
        scale=r0,
        descriptor={"scenario": "logDecay", "params": {"r0": r0}},
    )


_SCENARIO_BUILDERS = {
    "A": scenario_finite_network,
    "B": scenario_urban_hotspot,
    "C": scenario_scattered,
    "D": scenario_carrier_sense,
    "constant": constant_shape,
    "powerTail": power_tail_shape,
    "logDecay": log_decay_shape,
}


def build_scenario(scenario: str, params: Mapping[str, float]) -> ShapeFunction:
    """Build one of the catalogued deployment scenarios from keyword params.

    The builder's signature names the parameters and their defaults.  Raises
    InvalidScenarioParams for unknown scenarios, missing or unknown
    parameters, or inconsistent values.
    """
    if scenario not in _SCENARIO_BUILDERS:
        raise InvalidScenarioParams(f"unknown scenario {scenario!r}")
    builder = _SCENARIO_BUILDERS[scenario]
    signature = inspect.signature(builder).parameters
    extra = set(params) - set(signature)
    if extra:
        raise InvalidScenarioParams(f"unknown parameters for {scenario}: {sorted(extra)}")
    missing = [n for n, p in signature.items() if p.default is p.empty and n not in params]
    if missing:
        raise InvalidScenarioParams(f"scenario {scenario} needs parameters {missing}")
    return builder(**{n: float(v) for n, v in params.items()})


def from_descriptor(descriptor: Mapping) -> ShapeFunction:
    """Build a shape from its JSON descriptor
    ``{"scenario": "A|B|C|D|constant|powerTail|logDecay", "params": {...}}``."""
    if "scenario" not in descriptor:
        raise InvalidScenarioParams("shape descriptor needs a 'scenario' key")
    params = descriptor.get("params", {}) or {}
    if not isinstance(params, Mapping):
        raise InvalidScenarioParams("'params' must be a mapping")
    return build_scenario(str(descriptor["scenario"]), params)
