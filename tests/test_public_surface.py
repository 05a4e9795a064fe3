"""Snapshot of the public surface: the names ``isoppp`` exports and the
options of every CLI subcommand.  A change that adds or removes a public
name or a command-line knob must update these lists, so it shows as a test
diff."""

import argparse

import isoppp
from isoppp import cli

PUBLIC_NAMES = [
    "ChannelModel", "DegenerateDenominator", "DivergentIntegral", "DomainError", "FadingLaw",
    "FhDsGain", "FinitenessVerdict", "IntegralResult", "InvalidScenarioParams",
    "IsopppError", "LinkConfig", "NoFiniteTruncation", "NonConvergence", "NumericOverflow",
    "OutsideRegion", "PointProcessSampler", "RadialRegion", "RequiresZeroC", "ShapeFunction",
    "SimConfig", "SimOutcome", "TailClass", "TailKind", "TruncationResult", "UnsupportedAlpha",
    "analytic", "applications", "arctan_kernel", "asinh_kernel", "bounds", "classify_finiteness",
    "constant_shape", "csma_accuracy_loss", "csma_large_scale_density", "csma_shape", "errors",
    "fh_ds_gain", "from_descriptor", "integrate_interval", "integrate_semi_infinite",
    "interference_driving", "laplace_transform", "local_transmission_capacity",
    "log_decay_shape", "log_divergence", "lower_tail_bound", "markov_upper_tail",
    "max_inscribed_radius", "mcsim", "mean_interference", "numerics", "outage", "outage_approx",
    "outage_exact", "power_tail_shape", "relative_error", "scenario_carrier_sense",
    "scenario_finite_network", "scenario_scattered", "scenario_urban_hotspot", "shapes",
    "simulate", "subharmonic_region", "truncation_radius",
]

OUTPUT = ["--tol", "--out", "--format", "--sweep"]
LINK = ["--shape", "--scenario-file", "--alpha", "--c", "--fading", "--lambda", "--y0", "--d",
        "--beta", "--eta-db", *OUTPUT]
COMMAND_OPTIONS = {
    "mean": LINK,
    "laplace": [*LINK, "--s"],
    "outage": LINK,
    "divergence": LINK,
    "relerror": LINK,
    "capacity": [*LINK, "--epsilon"],
    "fhds": ["--shape", "--scenario-file", "--d", "--beta", "--m-gain", *OUTPUT],
    "csma": ["--alpha", "--lambda", "--d", "--beta", "--delta", "--delta-db", *OUTPUT],
    "simulate": [*LINK, "--what", "--trials", "--seed", "--max-radius", "--z", "--s"],
    "sweep": ["--task", "--axis"],
    "replot-check": [],
}


def test_public_names():
    assert sorted(isoppp.__all__) == PUBLIC_NAMES


def test_command_options():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert got == {name: sorted(opts) for name, opts in COMMAND_OPTIONS.items()}
