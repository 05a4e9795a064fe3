"""Fuzz gates for the analytic CLI commands and for ``simulate``.

Each example runs one analytic command through ``cli.main`` with one numeric
argument, or one parameter of any registered scenario, set to an extreme or
non-finite value.
The command must end with exit code 0, 2, 3 or 4, never an uncaught
exception, within a wall-clock budget.  Examples are derandomized, so every
run checks the same forms.
"""

import contextlib
import inspect
import io
import json
import math
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from isoppp.cli import main
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
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a form with exit 2
            code = exc.code
    assert code in (0, 2, 3, 4), argv


SIMULATE = ["simulate", "--alpha", "4", "--y0", "30", "--trials", "10"]


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
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a form with exit 2
            code = exc.code
    assert code in (0, 2, 3, 4), argv
