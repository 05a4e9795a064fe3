"""Fuzz gates for the analytic CLI commands and for ``simulate``.

Each example runs one analytic command through ``cli.main`` with one numeric
argument, or one parameter of any registered scenario, set to an extreme or
non-finite value, or with a malformed or oversized sweep spec or trial count.
The command must end with exit code 0, 2, 3 or 4, never an uncaught
exception, within a wall-clock budget.  Examples are derandomized, so every
run checks the same forms.  Malformed shape descriptors, by ``--shape`` and by
``--scenario-file``, must end as configuration errors.
"""

import contextlib
import inspect
import io
import json
import math
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoppp.cli import COMMANDS, main
from isoppp.shapes import _SCENARIOS
from conftest import SCENARIO_PARAMS

EXTREMES = (math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 0.0)
LINK = ("--alpha", "--c", "--lambda", "--y0", "--d", "--beta", "--eta-db", "--tol")
# command -> (arguments of a form that succeeds, numeric options it takes)
FORMS = {
    "mean": (["--alpha", "4", "--y0", "30"], LINK),
    "laplace": (["--alpha", "4", "--y0", "30"], (*LINK, "--s")),
    "outage": (["--alpha", "4", "--y0", "30", "--eta-db", "10"], LINK),
    "divergence": (["--alpha", "4", "--y0", "30"], LINK),
    "relerror": (["--alpha", "4", "--y0", "30"], LINK),
    "capacity": (["--alpha", "4", "--y0", "30", "--epsilon", "0.1"], (*LINK, "--epsilon")),
    "fhds": ([], ("--d", "--beta", "--m-gain", "--tol")),
    "csma": (["--delta-db", "-50"], ("--alpha", "--lambda", "--d", "--beta", "--delta-db",
                                      "--tol")),
}
# (scenario, parameter) for every parameter of every registered scenario
SHAPE_PARAMS = tuple((name, param) for name, build in _SCENARIOS.items()
                     for param in inspect.signature(build).parameters)


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a form with exit 2
            return exc.code


def _shape(scenario, param, value):
    params = dict(SCENARIO_PARAMS[scenario])
    if param is not None:
        params[param] = value
    return json.dumps({"scenario": scenario, "params": params})


@settings(derandomize=True, database=None, deadline=timedelta(seconds=2), max_examples=300)
@given(command=st.sampled_from(sorted(FORMS)), data=st.data(),
       value=st.sampled_from(EXTREMES))
def test_extreme_argument_exits_cleanly(command, data, value):
    base, options = FORMS[command]
    shaped = command != "csma"
    target = data.draw(st.sampled_from((*options, *SHAPE_PARAMS) if shaped else options))
    argv = [command, *base]
    if shaped:
        scenario, param = target if isinstance(target, tuple) else ("C", None)
        argv += ["--shape", _shape(scenario, param, value)]
    if isinstance(target, str):
        argv.append(f"{target}={value!r}")
    assert _exit_code(argv) in (0, 2, 3, 4), argv


SIMULATE = ["simulate", "--alpha", "4", "--y0", "30", "--trials", "10"]
C100 = _shape("C", None, None)


@settings(derandomize=True, database=None, deadline=timedelta(seconds=2), max_examples=200)
@given(target=st.sampled_from((*LINK, "--max-radius", *SHAPE_PARAMS)),
       value=st.sampled_from(EXTREMES))
def test_extreme_simulate_argument_exits_cleanly(target, value):
    """The same gate for ``simulate`` on C(100) at 10 trials: one link option,
    ``--max-radius`` or one scenario parameter at an extreme value."""
    scenario, param = target if isinstance(target, tuple) else ("C", None)
    argv = [*SIMULATE, "--shape", _shape(scenario, param, value)]
    if isinstance(target, str):
        argv.append(f"{target}={value!r}")
    assert _exit_code(argv) in (0, 2, 3, 4), argv


# sweep specs that fail or finish at once: oversized (1e15 points), non-finite,
# non-positive or infinitesimal steps, an empty grid, and malformed specs
SPECS = ("0:1e15:1", "nan:1:1", "0:inf:1", "0:1:0", "0:1:-1", "0:1e300:1e-300", "1:0:1", "0:1",
         "bogus")
SPEC_FORMS = (
    *([command, *FORMS[command][0], *(["--shape", C100] if command != "csma" else []),
       "--sweep", f"{next(iter(COMMANDS[command].axes))}={spec}"]
      for command in sorted(FORMS) for spec in SPECS),
    *([*SIMULATE, "--shape", C100, "--what", "tail", "--sweep", f"z={spec}"] for spec in SPECS),
    *([*SIMULATE, "--shape", C100, f"--trials={n}"] for n in (0, -1, 10**15)),
)


@settings(derandomize=True, database=None, deadline=timedelta(seconds=2), max_examples=300)
@given(argv=st.sampled_from(SPEC_FORMS))
def test_sweep_spec_or_trial_count_exits_cleanly(argv):
    """Each analytic command's first sweep axis, and ``simulate``'s tail levels,
    over every spec in SPECS; ``simulate --trials`` at 0, -1 and 1e15."""
    assert _exit_code(argv) in (0, 2, 3, 4), argv


# descriptors that are not a mapping, a scenario key that names nothing, params
# that are not a mapping (falsy ones too), and parameters of C and constant that
# are not numbers (a double overflows at 1e309)
BAD_VALUES = ("null", "true", "false", "[100]", '{"rho": 100}', '"abc"', "1" + "0" * 309)
MALFORMED = (
    "5", '"C"', "null", '[{"scenario": "C", "params": {"rho": 100}}]',
    '{"params": {"rho": 100}}', '{"scenario": null}', '{"scenario": ["C"]}',
    '{"scenario": {"C": 1}}', '{"scenario": "C", "params": [100]}',
    '{"scenario": "C", "params": 5}',
    *(f'{{"scenario": "constant", "params": {value}}}' for value in ("[]", "0", "false", '""',
                                                                    "null")),
    *(f'{{"scenario": "{name}", "params": {{"{param}": {value}}}}}'
      for name, param in (("C", "rho"), ("constant", "level")) for value in BAD_VALUES),
)


@pytest.mark.parametrize("descriptor", MALFORMED,
                         ids=lambda text: text if len(text) < 60 else text[:50] + "...")
def test_malformed_descriptor_is_a_configuration_error(tmp_path, descriptor):
    path = tmp_path / "scenario.json"
    path.write_text(descriptor, "utf-8")
    argvs = [["mean", "--alpha", "4", "--scenario-file", str(path)]]
    if descriptor.startswith("{"):
        argvs.append(["mean", "--alpha", "4", "--shape", descriptor])
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(argv) == 2, argv
        assert err.getvalue().startswith("isoppp: configuration error: ")
        assert err.getvalue().count("\n") == 1, err.getvalue()
