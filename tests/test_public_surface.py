"""Snapshot of the public surface: the names ``isoppp`` exports, the
options of every CLI subcommand and the config keys each one echoes.  A
change that adds or removes a public name, a command-line knob or an echoed
key must update these lists, so it shows as a test diff."""

import argparse
import json

import pytest

import isoppp
from isoppp import cli

PUBLIC_NAMES = [
    "ChannelModel", "DegenerateDenominator", "DivergentIntegral", "DomainError", "FadingLaw",
    "FhDsGain", "FinitenessVerdict", "IntegralResult", "InvalidScenarioParams",
    "IsopppError", "LinkConfig", "NoFiniteTruncation", "NonConvergence", "NumericOverflow",
    "OutsideRegion", "PointProcessSampler", "RadialRegion", "RequiresZeroC", "ShapeFunction",
    "SimConfig", "SimOutcome", "TailClass", "TailKind", "TruncationResult", "UnsupportedAlpha",
    "analytic", "applications", "bounds", "classify_finiteness",
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

LINK_KEYS = ["alpha", "beta", "c", "command", "d", "eta_db", "fading", "lambda_scale", "shape",
             "tol", "y0"]
# the keys of each command's '# {json}' line; every command adds "sweep" with --sweep
COMMAND_CONFIG_KEYS = {
    "mean": LINK_KEYS,
    "laplace": [*LINK_KEYS, "s"],
    "outage": LINK_KEYS,
    "divergence": LINK_KEYS,
    "relerror": LINK_KEYS,
    "capacity": [*LINK_KEYS, "epsilon"],
    "fhds": ["beta", "command", "d", "m", "shape", "tol"],
    "csma": ["alpha", "beta", "command", "d", "delta", "lambda_scale", "shape", "tol"],
    "simulate": [*LINK_KEYS, "max_radius_override", "seed", "trials", "what"],
}

C100 = '{"scenario":"C","params":{"rho":100}}'
# (arguments, sweep spec) that run each command cheaply
CONFIG_FORMS = {
    "mean": (["--shape", "constant", "--alpha", "4"], "y0=0:1:1"),
    "laplace": (["--shape", "constant", "--alpha", "4"], "s=1:2:1"),
    "outage": (["--shape", C100, "--alpha", "4"], "y0=0:1:1"),
    "divergence": (["--shape", C100, "--alpha", "4"], "y0=0:1:1"),
    "relerror": (["--shape", C100, "--alpha", "4"], "y0=0:1:1"),
    "capacity": (["--shape", C100, "--alpha", "4", "--epsilon", "0.1"], "y0=0:1:1"),
    "fhds": (["--shape", C100], "M=1:2:1"),
    "csma": (["--delta-db", "-50"], "d=5:10:5"),
    "simulate": (["--shape", C100, "--alpha", "4", "--trials", "10", "--what", "tail",
                  "--z", "0.1"], "z=0.1:0.2:0.1"),
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


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIG_KEYS))
def test_command_config_keys(capsys, command):
    argv, axis = CONFIG_FORMS[command]
    for extra, keys in (([], COMMAND_CONFIG_KEYS[command]),
                        (["--sweep", axis], [*COMMAND_CONFIG_KEYS[command], "sweep"])):
        assert cli.main([command, *argv, *extra]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head.startswith("# ")
        assert sorted(json.loads(head[2:])) == sorted(keys)
