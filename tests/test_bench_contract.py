"""The benchmark's tracer patches isoppp module attributes by name
(``perfbench/tracer.py``), and every benchmark run installs it, even
untraced runs.  A renamed or removed attribute there kills the benchmark
before it reports anything; these checks surface that in the test suite.
"""

import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from isoppp import analytic, applications, bounds, cli, mcsim, outage, shapes

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer as tracing  # noqa: E402

C100 = '{"scenario":"C","params":{"rho":100}}'
MODULES = (analytic, applications, bounds, cli, mcsim, outage, shapes)


@contextmanager
def installed_tracer():
    """An installed tracer; on exit, checks that every patch is undone."""
    before = {m: dict(vars(m)) for m in MODULES}
    default_rng = np.random.default_rng
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    assert np.random.default_rng is default_rng
    for module, attrs in before.items():
        after = vars(module)
        assert set(after) == set(attrs), module.__name__
        changed = [name for name, value in attrs.items() if after[name] is not value]
        assert not changed, f"{module.__name__}: {changed} not restored"


def test_tracer_records_cli_spans_and_restores_patches(capsys):
    default_rng = np.random.default_rng
    with installed_tracer() as tracer:
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
            # the Monte-Carlo workloads read these spans; simulate draws its
            # blocks itself, not through ``sample``, so no ``mcsim.sample`` span
            (["simulate", "--shape", C100, "--alpha", "4", "--c", "1", "--y0", "5",
              "--trials", "20", "--seed", "1", "--what", "outage"],
             {"mcsim.simulate", "mcsim.truncation", "mcsim.sampler_build", "mcsim.rng_init",
              "mcsim.fading"}),
        ):
            assert cli.main(argv) == 0
            assert layers <= set(tracer.names), argv[0]
    capsys.readouterr()
    assert {"analytic.entry", "outage", "applications", "shapes.eval"} <= set(tracer.names)


def test_tracer_records_bounds_spans_and_restores_patches():
    # the bounds entries hand their shape to the tracer, which copies it
    # with dataclasses.replace over eval_f and eval_deriv
    shape = shapes.scenario_scattered(1.0)
    channel = analytic.ChannelModel(alpha=4, c=1.0, fading=analytic.FadingLaw.rayleigh())
    with installed_tracer() as tracer:
        region = bounds.subharmonic_region(shape, 0.002)
        assert 0.0 < bounds.lower_tail_bound(shape, channel, 5e-2, 3.0, 0.01,
                                             region=region) < 1.0
        bounds.lower_tail_bound(shape, channel, 5e-2, 3.0, 0.01)
    assert {"bounds", "shapes.eval", "numerics.quad"} <= set(tracer.names)
