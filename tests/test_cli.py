import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import isoppp
from isoppp.cli import main
from test_public_surface import COMMAND_CONFIG_KEYS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    config = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return config, header, rows


C100 = '{"scenario":"C","params":{"rho":100}}'
FIG3 = '{"scenario":"A","params":{"r0":500,"r1":800}}'
HOLE = '{"scenario":"D","params":{"delta":1e-5,"alpha":4}}'

# one (command, arguments, sweep axis) per analytic command; the forms rely on
# each command's own defaults (divergence, relerror and capacity default c to 0)
SWEEP_FORMS = [
    ("mean", ["--shape", "constant", "--alpha", "4", "--lambda", "1e-3"], "y0=0:100:50"),
    ("laplace", ["--shape", "constant", "--alpha", "4", "--c", "0", "--lambda", "0.01"],
     "s=1:5:2"),
    ("outage", ["--shape", C100, "--alpha", "4", "--c", "1", "--d", "10", "--beta", "0.5"],
     "y0=0:200:100"),
    ("divergence", ["--shape", HOLE, "--alpha", "4", "--d", "10", "--beta", "1"], "y0=0:100:50"),
    ("relerror", ["--shape", FIG3, "--alpha", "4", "--d", "10"], "y0=0:900:300"),
    ("capacity", ["--shape", C100, "--alpha", "2", "--d", "10", "--beta", "0.5",
                  "--epsilon", "0.1"], "y0=0:100:50"),
    ("fhds", ["--shape", C100, "--d", "10", "--beta", "0.5"], "M=1:16:5"),
    ("csma", ["--delta-db", "-50", "--lambda", "1e-3", "--beta", "1"], "d=5:15:5"),
]


class TestMeanCommand:
    def test_stationary_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "mean",
            "--shape", '{"scenario":"constant","params":{"level":1}}',
            "--alpha", "4", "--c", "1", "--lambda", "1e-3", "--y0", "5",
        )
        assert code == 0
        config, header, rows = parse_csv(out)
        assert header[:2] == ["value", "abs_error"]
        assert float(rows[0][0]) == pytest.approx(1e-3 * math.pi**2 / 2.0, rel=1e-10)
        assert config["shape"] == {"scenario": "constant", "params": {"level": 1.0}}

    def test_divergent_regime_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "mean", "--shape", "constant", "--alpha", "2", "--c", "1",
            "--lambda", "1e-3", "--y0", "5",
        )
        assert code == 4
        assert "divergent" in err.lower()

    def test_nan_shape_parameter_is_config_error(self, capsys):
        shape = '{"scenario":"powerTail","params":{"nu":NaN,"r0":50}}'
        code, out, err = run_cli(capsys, "mean", "--shape", shape, "--alpha", "4", "--c", "1")
        assert code == 2
        assert out == ""
        assert "powerTail: nu must be positive and finite" in err

    def test_missing_shape_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "mean", "--alpha", "4")
        assert code == 2
        assert "shape" in err.lower()


class TestSweep:
    def test_outage_sweep_rows_and_monotonicity(self, capsys, tmp_path):
        scenario = tmp_path / "fig3.json"
        scenario.write_text(json.dumps({"scenario": "A", "params": {"r0": 500, "r1": 800}}))
        code, out, _ = run_cli(
            capsys, "outage", "--scenario-file", str(scenario),
            "--alpha", "2", "--c", "1", "--lambda", "1e-3",
            "--d", "10", "--beta", "0.5",
            "--sweep", "y0=0:1000:50",
        )
        assert code == 0
        config, header, rows = parse_csv(out)
        assert header == ["y0", "value", "error"]
        assert len(rows) == 21
        values = [float(r[1]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(r[2] == "" for r in rows)

    def test_empty_grid_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "mean", "--shape", "constant", "--alpha", "4",
            "--sweep", "y0=5:4:1",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["y0", "value", "abs_error", "converged", "error"]
        assert rows == []

    def test_per_point_errors_recorded(self, capsys):
        # far outside the network with a vanishing threshold the exact
        # outage is zero and relerror degenerates; later points are fine
        code, out, _ = run_cli(
            capsys, "relerror",
            "--shape", '{"scenario":"A","params":{"r0":500,"r1":800}}',
            "--alpha", "4", "--c", "0", "--lambda", "1e-3",
            "--d", "10", "--y0", "2000",
            "--sweep", "beta=0.00000000000001:1:0.5",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert len(rows) == 3
        assert "Degenerate" in rows[0][-1]  # vanishing threshold: no denominator
        assert rows[1][-1] == "" and rows[2][-1] == ""
        assert rows[0][1] == ""             # failed point carries no value

    @pytest.mark.parametrize("task,argv,axis", SWEEP_FORMS, ids=[f[0] for f in SWEEP_FORMS])
    def test_sweep_subcommand_equivalent(self, capsys, task, argv, axis):
        # 'sweep --task T --axis A ...' is exactly 'T ... --sweep A': same
        # defaults, same config echo, same bytes
        code1, out1, _ = run_cli(capsys, task, *argv, "--sweep", axis)
        code2, out2, _ = run_cli(capsys, "sweep", "--task", task, "--axis", axis, *argv)
        assert code1 == code2 == 0
        assert out2 == out1
        _, _, rows = parse_csv(out1)
        assert rows and all(r[-1] == "" for r in rows)

    def test_invalid_axis_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "mean", "--shape", "constant", "--alpha", "4", "--sweep", "d=0:10:1",
        )
        assert code == 2


class TestConfigEcho:
    """The config keys each analytic command echoes are its reproducibility
    contract: pinned for single values and sweeps, in CSV and JSON."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("task,argv,axis", SWEEP_FORMS, ids=[f[0] for f in SWEEP_FORMS])
    def test_config_keys(self, capsys, task, argv, axis, fmt):
        echoed = set(COMMAND_CONFIG_KEYS[task])
        for extra, keys in (([], echoed), (["--sweep", axis], echoed | {"sweep"})):
            code, out, err = run_cli(capsys, task, *argv, *extra, "--format", fmt)
            assert code == 0, err
            config = json.loads(out)["config"] if fmt == "json" else parse_csv(out)[0]
            assert set(config) == keys
            assert config["command"] == task


class TestOtherCommands:
    def test_laplace(self, capsys):
        code, out, _ = run_cli(
            capsys, "laplace", "--shape", "constant", "--alpha", "4", "--c", "0",
            "--lambda", "0.01", "--s", "4", "--y0", "3",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0][0]) == pytest.approx(math.exp(-0.01 * math.pi**2), rel=1e-10)

    def test_capacity(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "--shape", '{"scenario":"C","params":{"rho":100}}',
            "--alpha", "2", "--c", "0", "--d", "10", "--beta", "0.5",
            "--epsilon", "0.1", "--y0", "0",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0][0]) > 0.0

    def test_fhds(self, capsys):
        code, out, _ = run_cli(
            capsys, "fhds", "--shape", '{"scenario":"C","params":{"rho":100}}',
            "--d", "10", "--beta", "0.5", "--m-gain", "1",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["ratio", "asymptote"]
        assert float(rows[0][0]) == 1.0

    def test_csma_db_conversion(self, capsys):
        code, out, _ = run_cli(
            capsys, "csma", "--delta-db", "-50", "--lambda", "1e-3",
            "--beta", "1", "--d", "10",
        )
        assert code == 0
        config, header, rows = parse_csv(out)
        assert config["delta"] == pytest.approx(1e-5)
        assert header == ["lambda_large_scale", "accuracy_loss"]

    def test_divergence_on_a_noisy_link(self, capsys):
        # the noise cancels in the log ratio; a constant density has none
        code, out, _ = run_cli(
            capsys, "divergence", "--shape", "constant", "--alpha", "4",
            "--eta-db", "10",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["value"] and float(rows[0][0]) == 0.0

    def test_divergence_sweep_dataset(self, capsys):
        # per-scenario divergence curves over receiver offsets
        code, out, _ = run_cli(
            capsys, "divergence",
            "--shape", '{"scenario":"D","params":{"delta":1e-5,"alpha":4}}',
            "--alpha", "4", "--c", "0", "--d", "10", "--beta", "1",
            "--sweep", "y0=0:100:10",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 11
        assert float(rows[0][1]) < -10.0  # strongly underestimated at the hole

    def test_csma_distance_sweep_dataset(self, capsys):
        code, out, _ = run_cli(
            capsys, "csma", "--delta-db", "-50", "--lambda", "1e-3",
            "--beta", "1", "--sweep", "d=5:30:5",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["d", "lambda_large_scale", "accuracy_loss", "error"]
        assert len(rows) == 6
        assert all(r[-1] == "" for r in rows)


class TestOverflow:
    @pytest.mark.parametrize("argv", [
        ["outage", "--alpha", "4", "--d", "1e200"],
        ["laplace", "--alpha", "4", "--y0", "1e300"],
    ])
    def test_overflow_is_config_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--shape", C100)
        assert code == 2
        assert err.startswith("isoppp: numeric overflow:")


def test_mean_snr_overflow_names_eta_db(capsys):
    code, out, err = run_cli(capsys, "outage", "--shape", "constant", "--alpha", "4",
                             "--eta-db", "1e4")
    assert (code, out) == (2, "")
    assert err.startswith("isoppp: numeric overflow:")
    assert "eta_db=10000" in err and "3082.5 dB" in err


class TestPathLossOverflow:
    # beta (c + d^alpha) overflows a double at d = 1e200 and alpha = 4
    FORMS = {
        "outage": ["--c", "1"],
        "capacity": ["--epsilon", "0.1"],
        "divergence": [],
        "relerror": [],
    }

    @pytest.mark.parametrize("command", sorted(FORMS))
    def test_single_value_is_config_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--shape", C100, "--alpha", "4",
                                 "--d", "1e200", *self.FORMS[command])
        assert code == 2
        assert out == ""
        assert err.startswith("isoppp: numeric overflow:")
        assert "d=1e+200" in err and "alpha=4" in err

    @pytest.mark.parametrize("command", sorted(FORMS))
    def test_sweep_fills_overflowing_rows(self, capsys, command):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run_cli(capsys, command, "--shape", C100, "--alpha", "4",
                                   "--sweep", "d=10:1e200:5e199", *self.FORMS[command])
        assert code == 0
        assert caught == []
        header, first, *overflowing = csv.reader(out.splitlines()[1:])
        assert header[-1] == "error"
        assert first[-1] == ""
        assert len(overflowing) == 2
        for row in overflowing:
            assert row[1] == ""
            assert row[-1].startswith("NumericOverflow: ")
            assert "alpha=4" in row[-1]


@pytest.mark.parametrize("argv", [
    ["mean", "--shape", C100, "--alpha", "4", "--c", "1", "--sweep", "y0=0:1e15:1"],
    ["sweep", "--task", "outage", "--axis", "y0=0:1e15:1", "--shape", C100, "--alpha", "4",
     "--c", "1"],
    ["simulate", "--shape", C100, "--alpha", "4", "--c", "1", "--trials", str(10**15)],
    ["simulate", "--shape", C100, "--alpha", "4", "--c", "1", "--trials", "10", "--what", "tail",
     "--sweep", "z=0:1e15:1"],
], ids=["mean-sweep", "sweep-task", "simulate-trials", "simulate-tail-sweep"])
def test_oversized_request_is_config_error(capsys, argv):
    # a sweep grid or trial array of 1e15 doubles (7.11 PiB) cannot be allocated
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("isoppp: request too large: Unable to allocate")
    assert err.count("\n") == 1


class TestNonFinite:
    @pytest.mark.parametrize("argv", [
        ["laplace", "--shape", C100, "--alpha", "4", "--y0", "nan"],
        ["outage", "--shape", C100, "--alpha", "4", "--y0", "nan"],
        ["outage", "--shape", C100, "--alpha", "2", "--c", "nan"],
        ["mean", "--shape", "constant", "--alpha", "4", "--y0", "nan"],
        ["mean", "--shape", C100, "--alpha", "4", "--y0", "inf"],
        ["mean", "--shape", C100, "--alpha", "4", "--sweep", "y0=0:nan:1"],
    ])
    def test_non_finite_is_config_error(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("isoppp: configuration error:")


def test_import_path_skips_scipy_stats():
    # scipy is a test-only dependency: no scipy module at all may load at
    # run time; run in a fresh interpreter so test imports don't count
    forms = [
        ["mean", "--shape", C100, "--alpha", "4", "--lambda", "1e-3"],
        ["simulate", "--shape", C100, "--alpha", "4", "--lambda", "1e-3",
         "--trials", "50", "--what", "outage", "--d", "10", "--beta", "0.5"],
        ["csma", "--delta-db", "-50", "--lambda", "1e-3", "--beta", "1", "--d", "10"],
    ]
    script = (
        "import sys\n"
        "import isoppp\n"
        "from isoppp.cli import main\n"
        f"codes = [main(argv) for argv in {forms!r}]\n"
        "loaded = any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)\n"
        "print(codes, loaded, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(isoppp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "[0, 0, 0] False"


def _isoppp_env():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(isoppp.__file__)))


def test_import_loads_numpy_alone():
    # the runtime is numpy only: importing the package and its CLI loads
    # neither scipy nor numpy.polynomial (the angular rule builds its own nodes)
    script = ("import sys, isoppp, isoppp.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
              "             or m.startswith('numpy.polynomial')))\n")
    result = subprocess.run([sys.executable, "-c", script], env=_isoppp_env(),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


@pytest.mark.parametrize("argv", [
    ["outage", "--shape", "logDecay", "--alpha", "4", "--tol", "1e-15"],
    ["divergence", "--shape", '{"scenario":"powerTail","params":{"nu":2.5,"r0":50}}',
     "--alpha", "4", "--tol", "1e-15"],
], ids=["outage-logDecay", "divergence-powerTail"])
def test_tolerance_below_eps_finishes(capsys, argv):
    # at tol 1e-15 these run to the quadrature's evaluation budget and exit 3;
    # when the error sum shared the value sum's rounding slack, almost every
    # bisection re-summed every panel and each ran for minutes
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (3, "")
    assert err.startswith("isoppp: quadrature did not converge:")


class TestSimulateCommand:
    def test_tail_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--shape", '{"scenario":"C","params":{"rho":100}}',
            "--alpha", "2", "--c", "1", "--lambda", "1e-3",
            "--trials", "200", "--seed", "5", "--what", "tail", "--z", "0.01,0.05",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header[0] == "z"
        assert len(rows) == 2

    SIM_ARGS = ["--shape", C100, "--alpha", "4", "--c", "1", "--lambda", "1e-3",
                "--y0", "50", "--trials", "200", "--seed", "17"]

    def _library_run(self, **grids):
        shape = isoppp.scenario_scattered(100.0)
        channel = isoppp.ChannelModel(alpha=4.0, c=1.0, fading=isoppp.FadingLaw.rayleigh())
        link = isoppp.LinkConfig(1e-3, 50.0, 10.0, 1.0)
        out = isoppp.simulate(shape, channel, link, isoppp.SimConfig(200, 17), **grids)
        return out, [out.mean, out.mean_half_width95, out.truncation_bias_bound,
                     out.trials_used, out.max_radius]

    @staticmethod
    def _values(rows):
        return [[float(cell) for cell in row] for row in rows]

    def test_mean_rows_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", *self.SIM_ARGS, "--what", "mean")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["mean", "mean_half_width95", "truncation_bias_bound", "trials",
                          "max_radius"]
        assert self._values(rows) == [self._library_run()[1]]

    def test_laplace_rows_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", *self.SIM_ARGS, "--what", "laplace",
                               "--s", "0.5,2,8")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["s", "laplace", "laplace_half_width95", "mean", "mean_half_width95",
                          "truncation_bias_bound", "trials", "max_radius"]
        lib, base = self._library_run(s_grid=[0.5, 2.0, 8.0])
        assert self._values(rows) == [
            [s, lib.laplace_est[s], lib.laplace_half_width95[s], *base] for s in (0.5, 2.0, 8.0)
        ]

    def test_tail_sweep_rows_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", *self.SIM_ARGS, "--what", "tail",
                               "--sweep", "z=0.001:0.005:0.001")
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["z", "tail_freq", "tail_half_width95", "mean", "mean_half_width95",
                          "truncation_bias_bound", "trials", "max_radius"]
        z_grid = 0.001 + 0.001 * np.arange(5)
        lib, base = self._library_run(z_grid=z_grid)
        assert self._values(rows) == [
            [z, lib.tail_freq[z], lib.tail_half_width95[z], *base] for z in map(float, z_grid)
        ]

    def test_divergent_simulation_refused(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--shape", "constant", "--alpha", "2",
            "--trials", "100", "--seed", "1",
        )
        assert code == 4

    @pytest.mark.parametrize("what, message", [
        ("tail", "--what tail needs --z or --sweep z=..."),
        ("laplace", "--what laplace needs --s"),
    ])
    def test_missing_grid_refused_before_trials(self, capsys, monkeypatch, what, message):
        def no_run(*args, **kwargs):
            raise AssertionError("simulate ran before its arguments were checked")

        monkeypatch.setattr(isoppp.mcsim, "simulate", no_run)
        code, out, err = run_cli(capsys, "simulate", *self.SIM_ARGS, "--what", what)
        assert (code, out) == (2, "")
        assert err == f"isoppp: configuration error: {message}\n"

    @pytest.mark.parametrize("grid, message", [
        (["--what", "tail", "--z", "nan"], "z must be finite, got nan"),
        (["--what", "laplace", "--s", "-5"], "s must be nonnegative, got -5.0"),
        (["--what", "laplace", "--s", "nan"], "s must be finite, got nan"),
    ])
    def test_bad_level_or_transform_variable_is_config_error(self, capsys, grid, message):
        code, out, err = run_cli(capsys, "simulate", *self.SIM_ARGS, *grid)
        assert (code, out) == (2, "")
        assert err == f"isoppp: configuration error: {message}\n"

    def test_missing_grid_outranks_divergent_regime(self, capsys):
        # the grid is checked first, so the divergent disc (exit 4) is never built
        code, _, err = run_cli(capsys, "simulate", "--shape", "constant", "--alpha", "2",
                               "--what", "tail")
        assert code == 2
        assert "--what tail needs" in err


def _refused(code, out, err, message):
    # a refusal exits 2, writes no output and one 'isoppp:' line naming the fault
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("isoppp: ") and message in line


class TestRefusals:
    @pytest.mark.parametrize("name, text, message", [
        ("a.json", '{"config": {}, "columns": []}', "JSON artifact is missing the 'rows' key"),
        ("a.csv", "# {}\n", "CSV artifact has no header row"),
        ("a.csv", "# {}\na,b\n1\n", "CSV artifact has ragged rows"),
        ("a.csv", "# {}\nvalue\n0.1\n", "cell '0.1' does not round-trip"),
    ], ids=["json-without-rows", "csv-without-header", "csv-ragged", "csv-cell-0.1"])
    def test_replot_check(self, capsys, tmp_path, name, text, message):
        artifact = tmp_path / name
        artifact.write_text(text)
        _refused(*run_cli(capsys, "replot-check", str(artifact)), message)

    @pytest.mark.parametrize("argv, message", [
        (["csma", "--delta", "1e-5", "--delta-db", "-50"],
         "pass either --delta or --delta-db, not both"),
        (["csma"], "--delta or --delta-db is required"),
        (["mean", "--shape", "constant"], "--alpha is required for this command"),
        (["simulate", "--shape", C100, "--alpha", "4", "--sweep", "y0=0:10:5"],
         "simulate sweeps only the z axis"),
    ], ids=["csma-both-thresholds", "csma-no-threshold", "mean-without-alpha",
            "simulate-y0-sweep"])
    def test_command(self, capsys, argv, message):
        _refused(*run_cli(capsys, *argv), message)

    def test_unknown_option(self, capsys):
        # reported with the usage of the command it was passed to; for the
        # sweep alias, of the task
        for argv, prog in ((["mean", "--shape", "constant", "--alpha", "4"], "isoppp mean"),
                           (["sweep", "--task", "csma", "--axis", "d=5:10:5", "--delta", "1e-5"],
                            "isoppp csma")):
            with pytest.raises(SystemExit) as info:
                main([*argv, "--bogus", "1"])
            captured = capsys.readouterr()
            assert (info.value.code, captured.out) == (2, "")
            assert captured.err.startswith(f"usage: {prog} [-h]")
            assert captured.err.endswith(f"\n{prog}: error: unrecognized arguments: --bogus 1\n")

    def test_uncountable_sweep_names_its_spec(self, capsys):
        spec = "y0=0:1e300:1e-300"
        _refused(*run_cli(capsys, "mean", "--shape", "constant", "--alpha", "4", "--sweep", spec),
                 repr(spec))


class TestReplotCheck:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_roundtrip(self, capsys, tmp_path, fmt):
        out = tmp_path / f"artifact.{fmt}"
        code, _, _ = run_cli(
            capsys, "outage", "--shape", '{"scenario":"C","params":{"rho":100}}',
            "--alpha", "4", "--c", "1", "--d", "10", "--beta", "0.5",
            "--sweep", "y0=0:200:20", "--out", str(out), "--format", fmt,
        )
        assert code == 0
        code, _, err = run_cli(capsys, "replot-check", str(out))
        assert code == 0, err

    def test_json_non_finite_values_pass(self, capsys, tmp_path):
        # json reads NaN and Infinity back as the values it wrote
        artifact = tmp_path / "a.json"
        artifact.write_text('{"config": {}, "columns": ["v"], "rows": [[NaN], [Infinity]]}')
        assert run_cli(capsys, "replot-check", str(artifact)) == (0, "", "")

    def test_error_row_passes(self, capsys, tmp_path):
        # a sweep point that fails leaves empty value cells and a text error cell
        out = tmp_path / "errors.csv"
        code, _, _ = run_cli(capsys, "mean", "--shape", "constant", "--alpha", "2",
                             "--sweep", "y0=0:10:10", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[-1].startswith("10,,,,DivergentIntegral: ")
        assert run_cli(capsys, "replot-check", str(out)) == (0, "", "")

    def test_rejects_tampered_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("value\n1.0\n")
        code, _, err = run_cli(capsys, "replot-check", str(bad))
        assert code == 2

    def test_config_echo_reproduces_run(self, capsys, tmp_path):
        out = tmp_path / "echo.csv"
        run_cli(
            capsys, "mean", "--shape", '{"scenario":"C","params":{"rho":100}}',
            "--alpha", "2", "--c", "1", "--lambda", "2e-3", "--y0", "30",
            "--out", str(out),
        )
        config, _, rows = parse_csv(out.read_text())
        rerun = [
            "mean", "--shape", json.dumps(config["shape"]),
            "--alpha", str(config["alpha"]), "--c", str(config["c"]),
            "--lambda", str(config["lambda_scale"]), "--y0", str(config["y0"]),
            "--tol", str(config["tol"]),
        ]
        code, out2, _ = run_cli(capsys, *rerun)
        assert code == 0
        _, _, rows2 = parse_csv(out2)
        assert rows2 == rows
