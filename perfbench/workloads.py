"""The benchmark's workloads: what each pass calls, with which inputs.

A workload is built once from the workload seed (its set-up) and then asked
for passes.  Pass ``k`` is a list of calls whose inputs come from a
``random.Random`` seeded by (workload, seed, k): analytic sweep points are
jittered within their step and Monte-Carlo seeds are drawn fresh, so no two
passes share inputs and a memoisation cache cannot shorten the traffic.
Every call resolves its isoppp function by module attribute at call time,
so the tracer's wrappers see it.

Each call carries a check spec, a tuple the checks module interprets with
the benchmark's own oracle.  Shapes are written here as descriptors so the
oracle never reads a value back from isoppp.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import isoppp as ip
from isoppp import analytic, applications, bounds, mcsim, outage

FIG3 = {"scenario": "A", "params": {"r0": 500.0, "r1": 800.0}}
SCATTERED100 = {"scenario": "C", "params": {"rho": 100.0}}
POWER_TAIL = {"scenario": "powerTail", "params": {"nu": 2.0, "r0": 50.0}}
CONSTANT = {"scenario": "constant", "params": {"level": 1.0}}
SCATTERED1 = {"scenario": "C", "params": {"rho": 1.0}}
CARRIER_SENSE = {"scenario": "D", "params": {"delta": 1e-5, "alpha": 4.0}}

# Criterion-7 configs: (shape, offset, grid step, intensity, mean interference
# at alpha=4, c=1 from the benchmark's oracle).  The mean only places the
# z-grid, so four digits suffice.
BOUND_CONFIGS = (
    (SCATTERED1, 3.0, 0.002, 5e-2, 0.01516),
    (CARRIER_SENSE, 15.0, 0.05, 5e-3, 0.01002),
)
Z_FACTORS = tuple(0.1 * 300.0 ** (k / 9.0) for k in range(10))  # geomspace(0.1, 30, 10)
CSMA_D = tuple(0.01 * 10.0 ** (k / 4.0) for k in range(21))  # geomspace(0.01, 1000, 21)
FARFIELD_Y0 = (2e3, 3e3, 4e3, 6e3, 8e3)


@dataclass
class Call:
    """One closed-loop call: ``fn()`` is timed, ``check`` is verified later."""

    kind: str
    fn: object
    check: tuple
    work: int = 1
    argv: list = field(default_factory=list)


def _via(module, name, *args, **kwargs):
    return getattr(module, name)(*args, **kwargs)


def _call(kind, module, name, *args, check, work=1, **kwargs):
    return Call(kind, functools.partial(_via, module, name, *args, **kwargs), check, work)


def _shape(descriptor):
    return ip.from_descriptor(descriptor)


def _channel(alpha, c, fading="rayleigh"):
    law = ip.FadingLaw.rayleigh() if fading == "rayleigh" else ip.FadingLaw.unit()
    return ip.ChannelModel(alpha=alpha, c=c, fading=law)


class Workload:
    name = ""
    work_unit = "call"

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def build_pass(self, index: int) -> list[Call]:
        raise NotImplementedError


class FiguresAnalytic(Workload):
    """The paper's analytic traffic; about 470 library calls per pass."""

    name = "figures_analytic"

    def __init__(self, seed):
        super().__init__(seed)
        self.shapes = {json.dumps(d, sort_keys=True): _shape(d) for d in
                       (FIG3, SCATTERED100, POWER_TAIL, CONSTANT, SCATTERED1, CARRIER_SENSE)}
        self.channels = {(a, c, f): _channel(a, c, f)
                         for a in (2, 4) for c in (0.0, 1.0) for f in ("rayleigh", "unit")}

    def shape(self, descriptor):
        return self.shapes[json.dumps(descriptor, sort_keys=True)]

    def build_pass(self, index):
        u = self.rng(index).random
        calls = []
        fig3 = self.shape(FIG3)
        # fig-3 outage curves: 31 offsets x alpha x noise
        for alpha in (2, 4):
            for eta_db in (math.inf, 10.0):
                eta = math.inf if math.isinf(eta_db) else 10.0 ** (eta_db / 10.0)
                for k in range(31):
                    y0 = 50.0 * (k + u())
                    link = ip.LinkConfig(1e-3, y0, 10.0, 0.5, eta_db)
                    calls.append(_call(
                        "fig3_outage", outage, "outage_exact", fig3,
                        self.channels[alpha, 1.0, "rayleigh"], link,
                        check=("outage", FIG3, alpha, 1.0, 1e-3, y0, 10.0, 0.5, eta)))
        # mean-interference sweeps
        for desc in (SCATTERED100, POWER_TAIL):
            for alpha in (2, 4):
                for k in range(41):
                    y0 = 25.0 * (k + u())
                    calls.append(_call("mean_sweep", analytic, "mean_interference",
                                       self.shape(desc), self.channels[alpha, 1.0, "rayleigh"],
                                       1e-3, y0, check=("mean", desc, alpha, 1.0, 1e-3, y0)))
        # criterion-10 CSMA accuracy-loss curves
        for beta in (0.1, 1.0, 10.0):
            for d in CSMA_D:
                d *= 10.0 ** (u() / 4.0)
                calls.append(_call("csma", applications, "csma_accuracy_loss",
                                   1e-3, 1e-5, d, beta, check=("csma", 1e-3, 1e-5, d, beta)))
        # FH/DS gain
        for m in (1.0, 4.0, 16.0, 64.0, 256.0):
            m *= 4.0 ** u()
            calls.append(_call("fhds", applications, "fh_ds_gain", self.shape(SCATTERED100),
                               10.0, 0.5, m, check=("fhds", SCATTERED100, 10.0, 0.5, m)))
        # criterion-11 capacity round trips
        for alpha, desc in ((2, SCATTERED100), (4, SCATTERED100), (4, CONSTANT)):
            for eps in (0.01, 0.1, 0.5):
                y0 = 25.0 * (1.0 + u())
                calls.extend(self._round_trip(self.shape(desc), desc, alpha, y0, eps))
        # criterion-7 tail bounds
        for desc, y0, step, lam, mean in BOUND_CONFIGS:
            shape = self.shape(desc)
            region = {}
            grid_step = step * (0.95 + 0.1 * u())
            calls.append(Call("bounds_region",
                              functools.partial(_store, region, bounds, "subharmonic_region",
                                                shape, grid_step),
                              ("region", desc, grid_step)))
            zscale = 300.0 ** (u() / 9.0)
            for fading in ("rayleigh", "unit"):
                ch = self.channels[4, 1.0, fading]
                for zf in Z_FACTORS:
                    z = mean * zf * zscale
                    calls.append(Call(
                        "bounds_lower",
                        functools.partial(_with_region, region, bounds, "lower_tail_bound",
                                          shape, ch, lam, y0, z),
                        ("lower", desc, fading, 1.0, lam, y0, z, grid_step)))
                    calls.append(_call("bounds_markov", bounds, "markov_upper_tail", shape, ch,
                                       lam, y0, z, check=("markov", desc, 4, 1.0, lam, y0, z)))
        # far-field probe; the alpha=4 points are a known defect (ROADMAP item 1)
        for alpha in (2, 4):
            for y0 in FARFIELD_Y0:
                y0 *= 1.0 + 0.02 * u()
                calls.append(_call("farfield", analytic, "mean_interference", fig3,
                                   self.channels[alpha, 1.0, "rayleigh"], 1e-3, y0,
                                   check=("mean", FIG3, alpha, 1.0, 1e-3, y0)))
        return calls

    def _round_trip(self, shape, desc, alpha, y0, eps):
        box = {}
        ch = self.channels[alpha, 0.0, "rayleigh"]
        link = ip.LinkConfig(1e-3, y0, 10.0, 0.5)
        cap = Call("capacity",
                   functools.partial(_store, box, applications, "local_transmission_capacity",
                                     shape, ch, link, eps),
                   ("capacity", desc, alpha, y0, 10.0, 0.5, eps))
        back = Call("capacity_outage",
                    functools.partial(_round_trip_outage, box, shape, ch, y0, eps),
                    ("roundtrip", desc, alpha, y0, 10.0, 0.5, eps))
        return [cap, back]


def _store(box, module, name, *args):
    box["value"] = value = getattr(module, name)(*args)
    return value


def _with_region(box, module, name, *args):
    return getattr(module, name)(*args, region=box["value"])


def _round_trip_outage(box, shape, channel, y0, eps):
    lam = box["value"] / (1.0 - eps)
    return lam, outage.outage_exact(shape, channel, ip.LinkConfig(lam, y0, 10.0, 0.5))


class MonteCarlo(Workload):
    """``simulate`` once per config per pass, each call with a fresh seed."""

    work_unit = "trial"
    configs: tuple = ()

    def __init__(self, seed):
        super().__init__(seed)
        self.inputs = []
        for cfg in self.configs:
            shape = _shape(cfg["shape"])
            channel = _channel(cfg["alpha"], 1.0, cfg.get("fading", "rayleigh"))
            link = ip.LinkConfig(cfg["lam"], cfg["y0"], 10.0, 0.5)
            z_grid = None
            if "zmean" in cfg:
                z_grid = [cfg["zmean"] * f for f in Z_FACTORS]
            self.inputs.append((shape, channel, link, z_grid))

    def build_pass(self, index):
        rng = self.rng(index)
        calls = []
        for k, (cfg, (shape, channel, link, z_grid)) in enumerate(zip(self.configs, self.inputs)):
            sim = ip.SimConfig(trials=cfg["trials"], seed=rng.getrandbits(63))
            calls.append(_call(cfg["label"], mcsim, "simulate", shape, channel, link, sim,
                               z_grid=z_grid, want_outage=z_grid is None,
                               check=("mc", k, z_grid), work=cfg["trials"]))
        return calls


class McSparse(MonteCarlo):
    """Criterion-4 and criterion-7 configs: 0.3 to 75 points per trial."""

    name = "mc_sparse"
    configs = tuple(
        {"label": f"c4_{shape['scenario']}_a{alpha}_y{int(y0)}", "rule": "c4", "shape": shape,
         "alpha": alpha, "lam": 1e-3, "y0": y0, "trials": 2000}
        for shape in (SCATTERED100, POWER_TAIL) for alpha in (2, 4) for y0 in (0.0, 50.0)
    ) + tuple(
        {"label": f"c7_{shape['scenario']}_{fading}", "rule": "c7", "shape": shape, "alpha": 4,
         "fading": fading, "lam": lam, "y0": y0, "zmean": mean, "trials": 2000}
        for shape, y0, _, lam, mean in BOUND_CONFIGS for fading in ("rayleigh", "unit")
    )


class McDense(MonteCarlo):
    """Criterion-5d outage spot checks on the fig-3 network: ~1,340 points per trial."""

    name = "mc_dense"
    configs = tuple(
        {"label": f"c5d_a{alpha}_y{int(y0)}", "rule": "c5d", "shape": FIG3, "alpha": alpha,
         "lam": 1e-3, "y0": y0, "trials": 300}
        for alpha, offsets in ((2, (0.0, 300.0, 600.0, 900.0, 1200.0)),
                               (4, (0.0, 200.0, 400.0, 600.0, 750.0)))
        for y0 in offsets
    )


class CliCalls(Workload):
    """Fresh ``python -m isoppp`` processes, one after another."""

    name = "cli_calls"

    def __init__(self, seed, root, tmp_dir):
        super().__init__(seed)
        self.root = root
        self.tmp_dir = tmp_dir
        self.env = dict(os.environ)

    def argv_list(self, index):
        rng = self.rng(index)
        u = rng.random
        fig3 = json.dumps(FIG3)
        c100 = json.dumps(SCATTERED100)
        start = round(50.0 * u(), 6)
        y0_mean = round(5.0 + u(), 6)
        d0 = round(1.0 + u(), 6)
        m = round(4.0 * 4.0 ** u(), 6)
        cap0 = round(25.0 * u(), 6)
        y0_json = round(300.0 + 50.0 * u(), 6)
        seed = rng.getrandbits(31)
        sim_out = os.path.join(self.tmp_dir, f"simulate-{index}.csv")
        return [
            ("cli_outage_sweep",
             ["outage", "--shape", fig3, "--alpha", "2", "--c", "1", "--lambda", "1e-3",
              "--d", "10", "--beta", "0.5", "--sweep", f"y0={start}:{start + 1500}:50"],
             ("cli_outage", FIG3, 2, 1.0, 1e-3, 10.0, 0.5, math.inf, 31)),
            ("cli_mean",
             ["mean", "--shape", json.dumps(CONSTANT), "--alpha", "4", "--c", "1",
              "--lambda", "1e-3", "--y0", str(y0_mean)],
             ("cli_mean", CONSTANT, 4, 1.0, 1e-3, y0_mean)),
            ("cli_csma",
             ["csma", "--delta-db", "-50", "--lambda", "1e-3", "--beta", "1",
              "--sweep", f"d={d0}:{d0 + 99}:1"],
             ("cli_csma", 1e-3, 1e-5, 1.0, 100)),
            ("cli_fhds",
             ["fhds", "--shape", c100, "--d", "10", "--beta", "0.5", "--m-gain", str(m)],
             ("cli_fhds", SCATTERED100, 10.0, 0.5, m)),
            ("cli_capacity",
             ["sweep", "--task", "capacity", "--axis", f"y0={cap0}:{cap0 + 100}:25",
              "--shape", c100, "--alpha", "4", "--c", "0", "--d", "10", "--beta", "0.5",
              "--epsilon", "0.1"],
             ("cli_capacity", SCATTERED100, 4, 10.0, 0.5, 0.1, 5)),
            ("cli_json",
             ["outage", "--shape", fig3, "--alpha", "4", "--c", "1", "--lambda", "1e-3",
              "--d", "10", "--beta", "0.5", "--eta-db", "10", "--y0", str(y0_json),
              "--format", "json"],
             ("cli_json", FIG3, 4, 1.0, 1e-3, y0_json, 10.0, 0.5, 10.0)),
            ("cli_simulate",
             ["simulate", "--shape", c100, "--alpha", "2", "--c", "1", "--lambda", "1e-3",
              "--trials", "500", "--seed", str(seed), "--what", "outage", "--d", "10",
              "--beta", "0.5", "--out", sim_out],
             ("cli_simulate", SCATTERED100, 2, 1.0, 1e-3, 0.0, 10.0, 0.5, 500, sim_out)),
            ("cli_replot", ["replot-check", sim_out], ("cli_replot",)),
        ]

    def build_pass(self, index):
        return [Call(kind, functools.partial(self.run, argv), check, argv=argv)
                for kind, argv, check in self.argv_list(index)]

    def run(self, argv):
        """Run one CLI process to completion; returns (exit code, stdout)."""
        _assert_no_children()
        proc = subprocess.run([sys.executable, "-m", "isoppp", *argv], cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout


def _assert_no_children():
    """CLI processes run one at a time: none may be alive when the next starts."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise RuntimeError("a child process is still running when the next CLI call starts")


WORKLOADS = {cls.name: cls for cls in (FiguresAnalytic, McSparse, McDense, CliCalls)}
