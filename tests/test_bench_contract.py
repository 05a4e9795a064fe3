"""The benchmark's tracer patches isoppp module attributes by name
(``perfbench/tracer.py``), and every benchmark run installs it, even
untraced runs.  A renamed or removed attribute there kills the benchmark
before it reports anything; these checks surface that in the test suite.
"""

import sys
from pathlib import Path

import numpy as np

from isoppp import analytic, applications, bounds, cli, mcsim, outage, shapes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer as tracing  # noqa: E402

C100 = '{"scenario":"C","params":{"rho":100}}'
MODULES = (analytic, applications, bounds, cli, mcsim, outage, shapes)


def test_tracer_records_cli_spans_and_restores_patches(capsys):
    before = {m: dict(vars(m)) for m in MODULES}
    default_rng = np.random.default_rng
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.shapes is not shapes and np.random.default_rng is not default_rng
        # each command must add its own layer's spans, so a name the CLI
        # bound at import time (and the tracer cannot see) shows here
        for argv, layers in (
            (["mean", "--shape", C100, "--alpha", "4", "--c", "1", "--y0", "5"],
             {"analytic.entry", "shapes.eval", "analytic.driving.exponential",
              "numerics.quad"}),
            (["outage", "--shape", C100, "--alpha", "4", "--c", "1", "--d", "10",
              "--beta", "0.5", "--sweep", "y0=0:100:50"], {"outage"}),
            (["csma", "--delta-db", "-50", "--lambda", "1e-3", "--beta", "1", "--d", "10"],
             {"applications"}),
        ):
            assert cli.main(argv) == 0
            assert layers <= set(tracer.names), argv[0]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert {"analytic.entry", "outage", "applications", "shapes.eval"} <= set(tracer.names)
    assert np.random.default_rng is default_rng
    for module, attrs in before.items():
        after = vars(module)
        assert set(after) == set(attrs), module.__name__
        changed = [name for name, value in attrs.items() if after[name] is not value]
        assert not changed, f"{module.__name__}: {changed} not restored"
