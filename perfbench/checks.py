"""Output checks: each compares one call's output with the oracle.

A check returns None when the output is correct and a short reason when it
is not.  Tolerances:

* mean interference: 1e-6 relative, and the quadrature must report
  ``converged``;
* outage: 1e-9 absolute (capacity round trips also within 1e-9 of eps);
* capacity, FH/DS gain and the Markov bound: 1e-6 relative;
* CSMA accuracy loss: what outages correct to 1e-9 absolute allow,
  |dL| <= 1e-9 (2 + L) / (P_rx - 1e-9); vacuous once P_rx <= 1e-9;
* subharmonic region edges and the dominant-interferer bound: within two
  grid steps of the exact region;
* Monte-Carlo: the criterion-4 (mean), 5d (outage) and 7 (bound sandwich)
  rules, widened from 3 to 5 sigma so that ~10 configs over many runs do not
  fail by chance.  The mean rule pools all of a config's calls in a run:
  the alpha=4 mean is carried by rare interferers within ~1 of the
  receiver (about 4 in 2,000 trials), so one call's normal interval is not
  valid; criterion 4 itself uses 1e5 trials.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import oracle

MC_SIGMAS = 5.0
_Z95 = 1.959963984540054


@functools.lru_cache(maxsize=None)
def _shape(desc_json: str) -> oracle.Shape:
    return oracle.Shape(json.loads(desc_json))


def _key(desc) -> str:
    return json.dumps(desc, sort_keys=True)


@functools.lru_cache(maxsize=4096)
def _driving(desc_json, alpha, c, y0):
    return oracle.driving(_shape(desc_json), alpha, c, y0)


def _outage(desc, alpha, c, lam, y0, d, beta, eta=math.inf):
    return oracle.outage(_shape(_key(desc)), alpha, c, lam, y0, d, beta, eta)


def _rel(got, want, tol, what):
    if not (math.isfinite(got) and abs(got - want) <= tol * abs(want)):
        return f"{what} {got!r} vs oracle {want!r} (rel tol {tol:g})"
    return None


def _abs(got, want, tol, what):
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return f"{what} {got!r} vs oracle {want!r} (abs tol {tol:g})"
    return None


def _csma(got, lam, delta, d, beta):
    want, p_rx, _ = oracle.csma_loss(lam, delta, d, beta)
    if p_rx <= 1e-9:
        tol = math.inf
    else:
        tol = 1e-9 * (2.0 + want) / (p_rx - 1e-9)
    if not (math.isfinite(got) and got >= 0.0 and abs(got - want) <= tol):
        return f"csma loss {got!r} vs oracle {want!r} (tol {tol:.3g})"
    return None


def _exact_rbar(desc, y0):
    lo, hi = oracle.subharmonic_start_end(desc)
    return y0 - lo if math.isinf(hi) else hi - y0


def check_analytic(spec, out) -> str | None:
    kind = spec[0]
    if kind == "mean":
        _, desc, alpha, c, lam, y0 = spec
        if not out.converged:
            return "quadrature reported converged=False"
        return _rel(out.value, lam * _driving(_key(desc), alpha, c, y0), 1e-6, "mean")
    if kind == "outage":
        _, desc, alpha, c, lam, y0, d, beta, eta = spec
        return _abs(out, _outage(desc, alpha, c, lam, y0, d, beta, eta), 1e-9, "outage")
    if kind == "csma":
        _, lam, delta, d, beta = spec
        return _csma(out, lam, delta, d, beta)
    if kind == "fhds":
        _, desc, d, beta, m = spec
        ratio, asymptote = oracle.fh_ds(_shape(_key(desc)), d, beta, m)
        return (_rel(out.ratio, ratio, 1e-6, "fh/ds ratio")
                or _rel(out.asymptote, asymptote, 1e-6, "fh/ds asymptote"))
    if kind == "capacity":
        _, desc, alpha, y0, d, beta, eps = spec
        return _rel(out, oracle.capacity(_shape(_key(desc)), alpha, y0, d, beta, eps), 1e-6,
                    "capacity")
    if kind == "roundtrip":
        _, desc, alpha, y0, d, beta, eps = spec
        lam, value = out
        return (_abs(value, _outage(desc, alpha, 0.0, lam, y0, d, beta), 1e-9, "round-trip outage")
                or _abs(value, eps, 1e-9, "round-trip outage vs eps"))
    if kind == "region":
        _, desc, step = spec
        lo, hi = oracle.subharmonic_start_end(desc)
        if len(out.intervals) != 1:
            return f"expected one subharmonic interval, got {out.intervals}"
        got_lo, got_hi = out.intervals[0]
        if abs(got_lo - lo) > 2 * step or (math.isinf(hi) != math.isinf(got_hi)) or (
                not math.isinf(hi) and abs(got_hi - hi) > 2 * step):
            return f"region {out.intervals} vs exact ({lo}, {hi})"
        return None
    if kind == "lower":
        _, desc, fading, c, lam, y0, z, step = spec
        rbar = _exact_rbar(desc, y0)
        shape = _shape(_key(desc))
        lo = oracle.lower_tail(shape, fading, c, lam, y0, z, rbar - 2 * step)
        hi = oracle.lower_tail(shape, fading, c, lam, y0, z, rbar + 2 * step)
        if not (math.isfinite(out) and lo - 1e-12 <= out <= hi + 1e-12):
            return f"lower bound {out!r} outside oracle bracket [{lo!r}, {hi!r}]"
        return None
    if kind == "markov":
        _, desc, alpha, c, lam, y0, z = spec
        return _rel(out, min(1.0, lam * _driving(_key(desc), alpha, c, y0) / z), 1e-6, "markov")
    raise ValueError(f"unknown check {kind!r}")


class McReference:
    """Oracle targets of one Monte-Carlo config, computed once."""

    def __init__(self, cfg):
        self.cfg = cfg
        desc, alpha, lam, y0 = cfg["shape"], cfg["alpha"], cfg["lam"], cfg["y0"]
        self.mean = lam * _driving(_key(desc), alpha, 1.0, y0)
        self.outage = None
        self.bounds = None
        if cfg["rule"] in ("c4", "c5d"):
            self.outage = _outage(desc, alpha, 1.0, lam, y0, 10.0, 0.5)
        if cfg["rule"] == "c7":
            self.rbar = _exact_rbar(desc, y0)
            self.bounds = {}


def check_mc(ref: McReference, z_grid, out) -> str | None:
    cfg = ref.cfg
    n = cfg["trials"]
    if out.trials_used != n:
        return f"trials_used {out.trials_used} != {n}"
    if ref.outage is not None:
        p = ref.outage
        slack = MC_SIGMAS * math.sqrt(p * (1.0 - p) / n) + 0.5 * (1.0 + 10.0 ** cfg["alpha"]) * (
            out.truncation_bias_bound)
        if not (0.0 <= out.outage_freq <= 1.0 and abs(out.outage_freq - p) <= slack):
            return f"MC outage {out.outage_freq!r} vs oracle {p!r} (slack {slack:.3g})"
    if ref.bounds is not None:
        if out.max_radius < cfg["y0"] + ref.rbar:
            return f"sampling disc {out.max_radius} misses the dominant disc"
        shape = _shape(_key(cfg["shape"]))
        for z in z_grid:
            if z not in ref.bounds:
                lower = oracle.lower_tail(shape, cfg["fading"], 1.0, cfg["lam"], cfg["y0"], z,
                                          ref.rbar)
                ref.bounds[z] = (lower, min(1.0, ref.mean / z))
            lower, upper = ref.bounds[z]
            emp = out.tail_freq[z]
            sigma = math.sqrt(max(emp * (1.0 - emp), lower * (1.0 - lower)) / n)
            if not (lower - MC_SIGMAS * sigma <= emp <= upper + MC_SIGMAS * sigma):
                return (f"tail freq {emp!r} at z={z:.4g} outside "
                        f"[{lower:.4g}, {upper:.4g}] +- 5 sigma")
    return None


def check_mc_pooled_mean(ref: McReference, outs) -> str | None:
    """Criterion-4 mean rule on the pooled calls of one config (equal trials)."""
    k = len(outs)
    mean = sum(o.mean for o in outs) / k
    sd = math.sqrt(sum((o.mean_half_width95 / _Z95) ** 2 for o in outs)) / k
    slack = MC_SIGMAS * sd + max(o.truncation_bias_bound for o in outs)
    if not abs(mean - ref.mean) <= slack:
        return f"pooled MC mean {mean!r} over {k} calls vs oracle {ref.mean!r} (slack {slack:.3g})"
    return None


def half_width(out) -> float:
    """Largest 95% half-width among the probabilities a simulate call estimated."""
    if out.outage_half_width95 is not None:
        return out.outage_half_width95
    return max(out.tail_half_width95.values())


def _csv(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("missing '# {json}' config line")
    json.loads(lines[0][2:])
    table = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    return table[0], table[1:]


def check_cli(spec, out) -> str | None:
    code, stdout = out
    if code != 0:
        return f"exit code {code}"
    kind = spec[0]
    if kind == "cli_replot":
        return None
    if kind == "cli_json":
        _, desc, alpha, c, lam, y0, d, beta, eta_db = spec
        payload = json.loads(stdout)
        return _abs(float(payload["rows"][0][0]),
                    _outage(desc, alpha, c, lam, y0, d, beta, 10.0 ** (eta_db / 10.0)),
                    1e-9, "json outage")
    if kind == "cli_simulate":
        _, desc, alpha, c, lam, y0, d, beta, trials, path = spec
        with open(path, encoding="utf-8") as fh:
            header, rows = _csv(fh.read())
        row = dict(zip(header, rows[0]))
        if int(row["trials"]) != trials:
            return f"simulate trials {row['trials']} != {trials}"
        mean = lam * _driving(_key(desc), alpha, c, y0)
        bias = float(row["truncation_bias_bound"])
        slack = MC_SIGMAS * float(row["mean_half_width95"]) / _Z95 + bias
        if not abs(float(row["mean"]) - mean) <= slack:
            return f"simulate mean {row['mean']} vs oracle {mean!r}"
        p = _outage(desc, alpha, c, lam, y0, d, beta)
        slack = MC_SIGMAS * math.sqrt(p * (1.0 - p) / trials) + beta * (c + d**alpha) * bias
        if not abs(float(row["outage_freq"]) - p) <= slack:
            return f"simulate outage {row['outage_freq']} vs oracle {p!r}"
        return None
    header, rows = _csv(stdout)
    if kind == "cli_mean":
        _, desc, alpha, c, lam, y0 = spec
        row = dict(zip(header, rows[0]))
        if row["converged"] != "true":
            return "mean reported converged=false"
        return _rel(float(row["value"]), lam * _driving(_key(desc), alpha, c, y0), 1e-8, "mean")
    if kind == "cli_fhds":
        _, desc, d, beta, m = spec
        row = dict(zip(header, rows[0]))
        ratio, asymptote = oracle.fh_ds(_shape(_key(desc)), d, beta, m)
        return (_rel(float(row["ratio"]), ratio, 1e-6, "fh/ds ratio")
                or _rel(float(row["asymptote"]), asymptote, 1e-6, "fh/ds asymptote"))
    expected_rows = spec[-1]
    if len(rows) != expected_rows:
        return f"{len(rows)} rows, expected {expected_rows}"
    errors = [r[-1] for r in rows if r[-1]]
    if errors:
        return f"row error: {errors[0]}"
    if kind == "cli_outage":
        _, desc, alpha, c, lam, d, beta, eta, _ = spec
        for row in rows:
            y0, value = float(row[0]), float(row[1])
            problem = _abs(value, _outage(desc, alpha, c, lam, y0, d, beta, eta), 1e-9, "outage")
            if problem:
                return f"y0={y0}: {problem}"
        return None
    if kind == "cli_capacity":
        _, desc, alpha, d, beta, eps, _ = spec
        for row in rows:
            y0, value = float(row[0]), float(row[1])
            problem = _rel(value, oracle.capacity(_shape(_key(desc)), alpha, y0, d, beta, eps),
                           1e-6, "capacity")
            if problem:
                return f"y0={y0}: {problem}"
        return None
    if kind == "cli_csma":
        _, lam, delta, beta, _ = spec
        for i, row in enumerate(rows):
            d, lam_active, loss = float(row[0]), float(row[1]), float(row[2])
            problem = _rel(lam_active, oracle.csma_density(lam, 4.0, delta), 1e-12, "density")
            if problem is None and i % 20 == 0:
                problem = _csma(loss, lam, delta, d, beta)
            if problem:
                return f"d={d}: {problem}"
        return None
    raise ValueError(f"unknown check {kind!r}")
