"""Interference statistics for isotropic Poisson wireless networks.

Computes exact location-dependent interference moments, Laplace transforms,
outage probabilities, tail bounds and throughput metrics for deployments
whose node locations form an isotropic (generally non-stationary) Poisson
point process, together with a reproducible Monte-Carlo oracle and a CLI.
"""

from types import ModuleType as _ModuleType

from .analytic import (
    ChannelModel,
    FadingLaw,
    FinitenessVerdict,
    LinkConfig,
    classify_finiteness,
    interference_driving,
    laplace_transform,
    mean_interference,
)
from .applications import (
    FhDsGain,
    csma_accuracy_loss,
    csma_large_scale_density,
    fh_ds_gain,
    local_transmission_capacity,
)
from .bounds import (
    RadialRegion,
    lower_tail_bound,
    markov_upper_tail,
    max_inscribed_radius,
    subharmonic_region,
)
from .errors import (
    DegenerateDenominator,
    DivergentIntegral,
    DomainError,
    InvalidScenarioParams,
    IsopppError,
    NoFiniteTruncation,
    NonConvergence,
    NumericOverflow,
    OutsideRegion,
    UnsupportedAlpha,
)
from .mcsim import (
    PointProcessSampler,
    SimConfig,
    SimOutcome,
    TruncationResult,
    simulate,
    truncation_radius,
)
from .numerics import (
    IntegralResult,
    integrate_interval,
    integrate_semi_infinite,
)
from .outage import log_divergence, outage_approx, outage_exact, relative_error
from .shapes import (
    ShapeFunction,
    TailClass,
    TailKind,
    constant_shape,
    from_descriptor,
    log_decay_shape,
    power_tail_shape,
    scenario_carrier_sense,
    scenario_finite_network,
    scenario_scattered,
    scenario_urban_hotspot,
)

__version__ = "0.1.0"

# the names imported above, not the submodules that importing them binds
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
