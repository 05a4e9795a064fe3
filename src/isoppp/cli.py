"""Command-line front end.

Subcommands compute single values or parameter sweeps and emit CSV (default)
or JSON.  Every output embeds the fully resolved configuration as a
'#'-prefixed JSON line (CSV) or a "config" key (JSON) so any result file is
reproducible from its own artifact.  Exit codes: 0 success, 2 configuration
error, 3 numeric non-convergence, 4 divergent-regime request.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import astuple
from typing import Callable, NamedTuple

import numpy as np

from . import applications, mcsim, outage, shapes
from .analytic import ChannelModel, FadingLaw, LinkConfig, laplace_transform, mean_interference
from .errors import (
    DivergentIntegral,
    DomainError,
    IsopppError,
    NoFiniteTruncation,
    NonConvergence,
    _check_finite,
    _check_positive,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_DIVERGENT = 4


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


# every option once: flag -> (argparse keywords, the config key that echoes
# its value, or None for a value that is not echoed)
_FLAGS = {
    "--shape": (dict(help="shape descriptor: JSON like "
                     '\'{"scenario":"C","params":{"rho":100}}\' or a bare scenario name'), None),
    "--scenario-file": (dict(help="path to a JSON shape descriptor file"), None),
    "--alpha": (dict(type=float, help="path-loss exponent"), "alpha"),
    "--c": (dict(type=float, default=1.0, help="path-loss constant"), "c"),
    "--fading": (dict(choices=["rayleigh", "unit"], default="rayleigh", help="fading law"),
                 "fading"),
    "--lambda": (dict(dest="lambda_scale", type=float, default=1e-3,
                      help="intensity scale (nodes per unit area)"), "lambda_scale"),
    "--y0": (dict(type=float, default=0.0, help="receiver offset from the centre"), "y0"),
    "--d": (dict(type=float, default=10.0, help="link distance"), "d"),
    "--beta": (dict(type=float, default=1.0, help="SINR threshold"), "beta"),
    "--eta-db": (dict(type=float, default=math.inf,
                      help="mean SNR in dB ('inf' for a noise-free link)"), "eta_db"),
    "--s": (dict(type=float, default=1.0, help="transform variable"), "s"),
    "--epsilon": (dict(type=float, required=True, help="outage budget in (0, 1)"), "epsilon"),
    "--m-gain": (dict(type=float, default=4.0, help="processing gain M"), "m"),
    "--delta": (dict(type=float, help="sensing threshold (linear)"), "delta"),
    "--delta-db": (dict(type=float, help="sensing threshold in dB"), None),
    "--what": (dict(choices=["mean", "outage", "tail", "laplace"], default="mean",
                    help="statistic to estimate beside the mean"), "what"),
    "--trials": (dict(type=int, default=10**4, help="number of trials"), "trials"),
    "--seed": (dict(type=int, default=1, help="random seed"), "seed"),
    "--max-radius": (dict(type=float, help="sampling disc radius (default: truncation rule)"),
                     "max_radius_override"),
    "--z": (dict(help="comma-separated tail levels"), None),
    "--tol": (dict(type=float, default=1e-10, help="quadrature tolerance"), "tol"),
    "--out": (dict(help="output file (default: stdout)"), None),
    "--format": (dict(choices=["csv", "json"], default="csv", help="output format"), None),
    "--sweep": (dict(help="axis spec 'name=start:stop:step'"), None),
}
_OUTPUT = ("--tol", "--out", "--format", "--sweep")
_LINK = ("--shape", "--scenario-file", "--alpha", "--c", "--fading", "--lambda", "--y0", "--d",
         "--beta", "--eta-db", *_OUTPUT)
# simulate's --s is a comma list of transform variables, so it is declared here
_SIMULATE = (*_LINK, "--what", "--trials", "--seed", "--max-radius", "--z",
             ("--s", dict(help="comma-separated transform variables"), None))


def _add_flags(p, flags, **defaults):
    """Add each flag (a key of _FLAGS, or a (flag, keywords, key) triple) to p,
    and record which config key echoes which argument as its default 'echo'."""
    echo = {}
    for flag in flags:
        name, kwargs, key = (flag, *_FLAGS[flag]) if isinstance(flag, str) else flag
        dest = p.add_argument(name, **kwargs).dest
        if key:
            echo[dest] = key
    p.set_defaults(echo=echo, **defaults)


def _resolve_shape(args) -> shapes.ShapeFunction:
    if getattr(args, "scenario_file", None):
        with open(args.scenario_file, "r", encoding="utf-8") as fh:
            descriptor = json.load(fh)
        return shapes.from_descriptor(descriptor)
    raw = getattr(args, "shape", None)
    if not raw:
        raise DomainError("a shape is required: pass --shape or --scenario-file")
    raw = raw.strip()
    if raw.startswith("{"):
        descriptor = json.loads(raw)
    else:
        descriptor = {"scenario": raw, "params": {}}
    return shapes.from_descriptor(descriptor)


def _channel(args) -> ChannelModel:
    if args.alpha is None:
        raise DomainError("--alpha is required for this command")
    fading = FadingLaw.rayleigh() if args.fading == "rayleigh" else FadingLaw.unit()
    return ChannelModel(alpha=args.alpha, c=args.c, fading=fading)


def _link(args) -> LinkConfig:
    return LinkConfig(args.lambda_scale, args.y0, args.d, args.beta, args.eta_db)


def _parse_axis(spec: str):
    """Parse 'name=start:stop:step' into (name, values); inclusive stop."""
    try:
        name, rng = spec.split("=", 1)
        start_s, stop_s, step_s = rng.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise DomainError(f"bad axis spec {spec!r}; expected name=start:stop:step") from exc
    _check_finite(start=start, stop=stop)
    _check_positive(step=step)
    if stop < start:
        return name.strip(), np.empty(0)
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise DomainError(f"axis spec {spec!r} has too many points to count")
    count = int(math.floor(steps + 1e-9)) + 1
    return name.strip(), start + step * np.arange(count)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _emit(config: dict, columns: list, rows: list, args) -> None:
    if args.format == "json":
        payload = {"config": config, "columns": columns, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write("# " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, shape) -> dict:
    """The arguments the parser echoes, under their config keys, plus the
    command, the shape descriptor and the sweep spec when one is set."""
    cfg = {key: getattr(args, dest) for dest, key in args.echo.items()}
    cfg.update(command=args.command, shape=shape.descriptor)
    if args.sweep:
        cfg["sweep"] = args.sweep
    return cfg


# ---------------------------------------------------------------------------
# command handlers: one table and one driver for the analytic commands
# ---------------------------------------------------------------------------


def _csma_setup(args):
    """Resolve the linear threshold into args.delta; the shape is only echoed."""
    if args.delta is not None and args.delta_db is not None:
        raise DomainError("pass either --delta or --delta-db, not both")
    if args.delta is None:
        if args.delta_db is None:
            raise DomainError("--delta or --delta-db is required")
        args.delta = 10.0 ** (args.delta_db / 10.0)
    return applications.csma_shape(args.delta, args.alpha), None


def _mean_row(a, shape, channel):
    res = mean_interference(shape, channel, a.lambda_scale, a.y0, a.tol)
    return [res.value, res.abs_error, res.converged]


def _csma_row(a, *_):
    return [applications.csma_large_scale_density(a.lambda_scale, a.alpha, a.delta),
            applications.csma_accuracy_loss(a.lambda_scale, a.delta, a.d, a.beta, a.tol,
                                             alpha=a.alpha)]


class _Command(NamedTuple):
    """An analytic command.  Row functions look library names up when they
    run, so a module attribute patched from outside (a tracer) takes effect."""

    help: str
    flags: tuple  # the command's options, keys of _FLAGS
    columns: list  # value columns of a row
    axes: dict  # sweepable axis -> the argument a sweep point overrides
    row: Callable  # (args, shape, channel) -> one row of values
    setup: Callable = lambda a: (_resolve_shape(a), _channel(a))  # -> (shape, channel)
    defaults: dict = {}  # argument defaults that differ from _FLAGS'


_LINK_AXES = {"y0": "y0", "d": "d", "beta": "beta", "lambda": "lambda_scale"}
_ZERO_C = {"c": 0.0}

COMMANDS = {
    "mean": _Command(
        "mean interference lambda * A_alpha(y0, c)", _LINK,
        ["value", "abs_error", "converged"], {"y0": "y0", "lambda": "lambda_scale"}, _mean_row),
    "laplace": _Command(
        "interference Laplace transform at s", (*_LINK, "--s"),
        ["value"], {"y0": "y0", "s": "s", "lambda": "lambda_scale"},
        lambda a, shape, ch: [laplace_transform(shape, ch, a.lambda_scale, a.y0, a.s, a.tol)]),
    "outage": _Command(
        "exact Rayleigh outage probability", _LINK, ["value"], _LINK_AXES,
        lambda a, shape, ch: [outage.outage_exact(shape, ch, _link(a), a.tol)]),
    "divergence": _Command(
        "log-divergence of the local approximation", _LINK, ["value"], _LINK_AXES,
        lambda a, shape, ch: [outage.log_divergence(shape, ch, _link(a), a.tol)],
        defaults=_ZERO_C),
    "relerror": _Command(
        "relative error of the local approximation", _LINK, ["value"], _LINK_AXES,
        lambda a, shape, ch: [outage.relative_error(shape, ch, _link(a), a.tol)],
        defaults=_ZERO_C),
    "capacity": _Command(
        "local transmission capacity", (*_LINK, "--epsilon"),
        ["value"], {"y0": "y0", "d": "d", "beta": "beta"},
        lambda a, shape, ch: [applications.local_transmission_capacity(
            shape, ch, _link(a), a.epsilon, a.tol)], defaults=_ZERO_C),
    "fhds": _Command(
        "FH over DS CDMA capacity gain at the centre",
        ("--shape", "--scenario-file", "--d", "--beta", "--m-gain", *_OUTPUT),
        ["ratio", "asymptote"], {"M": "m_gain", "d": "d", "beta": "beta"},
        lambda a, shape, _: [*astuple(applications.fh_ds_gain(shape, a.d, a.beta, a.m_gain,
                                                                a.tol))],
        setup=lambda a: (_resolve_shape(a), None)),
    "csma": _Command(
        "carrier-sense density and co-location accuracy loss",
        ("--alpha", "--lambda", "--d", "--beta", "--delta", "--delta-db", *_OUTPUT),
        ["lambda_large_scale", "accuracy_loss"],
        {"d": "d", "delta": "delta", "beta": "beta", "lambda": "lambda_scale"},
        _csma_row, setup=_csma_setup, defaults={"alpha": 4.0}),
}


def _cmd_analytic(args) -> int:
    """One row, or with --sweep one row per axis point, the swept argument
    overridden on a copy; a point's failure fills its error column."""
    spec = COMMANDS[args.command]
    shape, channel = spec.setup(args)
    config = _config(args, shape)
    if not args.sweep:
        _emit(config, spec.columns, [spec.row(args, shape, channel)], args)
        return EXIT_OK
    axis, values = _parse_axis(args.sweep)
    if axis not in spec.axes:
        raise DomainError(f"command {args.command!r} cannot sweep axis {axis!r}; allowed: {sorted(spec.axes)}")
    rows = []
    for v in values:
        point = argparse.Namespace(**{**vars(args), spec.axes[axis]: v})
        try:
            rows.append([v, *spec.row(point, shape, channel), ""])
        except IsopppError as exc:
            rows.append([v, *[None] * len(spec.columns), f"{type(exc).__name__}: {exc}"])
    _emit(config, [axis, *spec.columns, "error"], rows, args)
    return EXIT_OK


def _parse_grid(text: str | None):
    if not text:
        return None
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _cmd_simulate(args) -> int:
    """One row of Monte-Carlo estimates, or one row per tail level or
    transform variable; each row ends with the run's mean and truncation."""
    shape, channel, link = _resolve_shape(args), _channel(args), _link(args)
    cfg = mcsim.SimConfig(args.trials, args.seed, max_radius_override=args.max_radius)
    want = args.what
    z_grid = _parse_grid(args.z)
    s_grid = _parse_grid(args.s)
    if args.sweep:
        axis, values = _parse_axis(args.sweep)
        if axis != "z":
            raise DomainError("simulate sweeps only the z axis (tail levels)")
        z_grid = list(values)
    if want == "tail" and not z_grid:
        raise DomainError("--what tail needs --z or --sweep z=...")
    if want == "laplace" and not s_grid:
        raise DomainError("--what laplace needs --s")
    o = mcsim.simulate(
        shape, channel, link, cfg,
        z_grid=z_grid if want == "tail" else None,
        s_grid=s_grid if want == "laplace" else None,
        want_outage=(want == "outage"),
    )
    if want == "outage":
        columns = ["outage_freq", "outage_half_width95"]
        rows = [[o.outage_freq, o.outage_half_width95]]
    elif want == "tail":
        columns = ["z", "tail_freq", "tail_half_width95"]
        rows = [[z, o.tail_freq[z], o.tail_half_width95[z]] for z in sorted(o.tail_freq)]
    elif want == "laplace":
        columns = ["s", "laplace", "laplace_half_width95"]
        rows = [[s, o.laplace_est[s], o.laplace_half_width95[s]] for s in sorted(o.laplace_est)]
    else:
        columns, rows = [], [[]]
    config = _config(args, shape)
    base = [o.mean, o.mean_half_width95, o.truncation_bias_bound, o.trials_used, o.max_radius]
    _emit(config,
          [*columns, "mean", "mean_half_width95", "truncation_bias_bound", "trials", "max_radius"],
          [[*row, *base] for row in rows], args)
    return EXIT_OK


def _cmd_replot_check(args) -> int:
    path = args.file
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        for key in ("config", "columns", "rows"):
            if key not in payload:
                raise DomainError(f"JSON artifact is missing the {key!r} key")
        if json.loads(json.dumps(payload)) != payload:
            raise DomainError("JSON artifact does not round-trip")
        return EXIT_OK
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise DomainError("CSV artifact is missing its '# {json}' config line")
    json.loads(lines[0][2:])
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    table = list(reader)
    if not table:
        raise DomainError("CSV artifact has no header row")
    width = len(table[0])
    for row in table[1:]:
        if len(row) != width:
            raise DomainError("CSV artifact has ragged rows")
        for cell in row:
            if cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                continue  # non-numeric column (flags, error messages)
            if _fmt_cell(value) != cell:
                raise DomainError(
                    f"cell {cell!r} does not round-trip through the CSV dialect"
                )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoppp",
        description="Interference, outage and throughput statistics for "
        "isotropic Poisson wireless networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, spec in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=spec.help), spec.flags,
                   handler=_cmd_analytic, **spec.defaults)
    _add_flags(sub.add_parser("simulate", help="Monte-Carlo estimates with confidence intervals"),
               _SIMULATE, handler=_cmd_simulate)

    p = sub.add_parser("sweep", help="run any analytic task over a parameter axis",
                       description="'sweep --task T --axis A ...' runs 'T ... --sweep A'",
                       allow_abbrev=False)  # so "--a" reaches the task as --alpha
    p.add_argument("--task", required=True, choices=list(COMMANDS))
    p.add_argument("--axis", required=True, help="axis spec 'name=start:stop:step'")

    p = sub.add_parser("replot-check", help="verify a result file re-reads losslessly")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_replot_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "sweep":  # 'sweep --task T --axis A ...' is 'T ... --sweep A'
        args, rest = parser.parse_known_args([args.task, *rest, "--sweep", args.axis])
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        return args.handler(args)
    except (DivergentIntegral, NoFiniteTruncation) as exc:
        print(f"isoppp: divergent regime: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except NonConvergence as exc:
        print(f"isoppp: quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OverflowError as exc:  # NumericOverflow included
        print(f"isoppp: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IsopppError as exc:
        print(f"isoppp: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"isoppp: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a sweep or trial count too large to allocate
        print(f"isoppp: request too large: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
