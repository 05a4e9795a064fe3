"""One workload in one fresh process: set-up, warm-up, measurement, checks.

Started by run.py, one process at a time.  The process times its own set-up
(``import isoppp`` plus building the workload's inputs), runs pass 0 under
the tracer as a warm-up that also yields the workload-property counts, then
runs whole passes as a closed loop with one caller until ``--seconds`` have
gone by.  Only after the loop does it import the oracle and check outputs.

With ``--trace 1`` it runs each pass untraced and then again traced, until
``--seconds`` have gone by, and reports per-layer totals of the traced
passes divided by the number of passes, plus the tracing overhead between
the two.  Alternating keeps a drift in host speed out of the overhead.

The last line of standard output is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

CHECK_SAMPLE = 200  # analytic calls checked per run, besides every far-field probe
PROBE_REPEATS = 3  # interpreter and import probes per traced run

# Host-speed reference.  The machine's speed drifts by up to ~50% over tens
# of seconds (other tenants), far more than any bound worth having, while
# the ratio of isoppp's time to a pure-Python loop's time drifts by ~3%.
# Each end-to-end timing is therefore scaled by REF_NOMINAL_S / (median of
# the REF_NEAREST loop samples taken closest in time, in the same process);
# the unscaled values are printed too.
REF_LOOPS = 100_000
REF_NOMINAL_S = 0.006
REF_EVERY_S = 0.25  # seconds of calls per loop sample
REF_NEAREST = 7


@dataclass
class Record:
    pass_index: int
    call: object
    out: object
    error: str | None
    seconds: float
    ended: float = 0.0  # perf_counter() when the call returned


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True, help="checkout holding src/isoppp")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def set_up(args):
    """Import isoppp from the checkout and build the workload's inputs."""
    start = time.perf_counter()
    import isoppp

    src = Path(args.root, "src").resolve()
    if Path(isoppp.__file__).resolve().parent.parent != src:
        raise SystemExit(f"isoppp was imported from {isoppp.__file__}, not from {src}")
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliCalls:
        tmp = Path(args.root, ".bench_build", "perfbench", f"cli-seed{args.seed}")
        tmp.mkdir(parents=True, exist_ok=True)
        workload = cls(args.seed, args.root, str(tmp))
    else:
        workload = cls(args.seed)
    return workload, time.perf_counter() - start


def run_call(call):
    start = time.perf_counter()
    try:
        out, error = call.fn(), None
    except Exception as exc:  # a failing call is counted, the loop goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - start


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop that touches no isoppp code."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Samples the reference loop between calls, about once per REF_EVERY_S."""

    def __init__(self):
        self.at: list[float] = []
        self.samples: list[float] = []
        self.sample()

    def sample(self):
        self.samples.append(reference_loop())
        self.at.append(time.perf_counter())

    def between_calls(self):
        """About one sample per REF_EVERY_S of calls, up to 4 after a long call."""
        due = int((time.perf_counter() - self.at[-1]) / REF_EVERY_S)
        for _ in range(min(due, 4)):
            self.sample()

    def factor(self, when: float) -> float:
        """Multiplier that takes a time measured at ``when`` to nominal host speed."""
        i = bisect.bisect_left(self.at, when)
        lo = max(0, min(i - REF_NEAREST // 2, len(self.at) - REF_NEAREST))
        return REF_NOMINAL_S / statistics.median(self.samples[lo:lo + REF_NEAREST])


def run_passes(workload, first, seconds, records, host=None):
    """Whole passes from ``first`` until ``seconds`` have elapsed; returns
    the pass indices run."""
    start = time.perf_counter()
    index = first
    while True:
        for call in workload.build_pass(index):
            out, error, dt = run_call(call)
            records.append(Record(index, call, out, error, dt, time.perf_counter()))
            if host is not None:
                host.between_calls()
        index += 1
        if time.perf_counter() - start >= seconds:
            return list(range(first, index))


def traced_pass(tracer, workload, index, records=None):
    """One pass with every call under a root span; returns the span ranges."""
    ranges = []
    for call in workload.build_pass(index):
        begin = len(tracer.start)
        start = time.perf_counter()
        try:
            out, error = tracer.span("call." + call.kind, call.fn), None
        except Exception as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - start
        ranges.append((call, begin, len(tracer.start)))
        if records is not None:
            records.append(Record(index, call, out, error, dt))
    return ranges


def properties(tracer, ranges, work_unit):
    """Workload-property counts from the traced warm-up pass; they depend
    only on the seed."""
    import numpy as np

    name_id, _, _, _, points, _ = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    props = {}
    if work_unit == "trial":
        per_config = {}
        for call, lo, hi in ranges:
            sel = name_id[lo:hi] == ids.get("mcsim.sample", -1)
            n = int(sel.sum())
            per_config[call.kind] = round(float(points[lo:hi][sel].sum()) / n, 4) if n else 0.0
        props["mcsim.points_per_trial"] = per_config
    else:
        evals = []
        for call, lo, hi in ranges:
            sel = name_id[lo:hi] == ids.get("numerics.quad", -1)
            evals.append(int(points[lo:hi][sel].sum()))
        props["quad_evals_per_call"] = {
            "calls": len(evals),
            "sum": int(sum(evals)),
            "p99": float(np.percentile(evals, 99)) if evals else 0.0,
        }
    return props


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cli_probe(code, env):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def in_process_main(argv):
    from isoppp import cli

    argv = [a + ".inproc.csv" if a.endswith(".csv") and "--out" in argv else a for a in argv]
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    return time.perf_counter() - start


def environment(allowed):
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(allowed) or None,
        "pinned_cpu": allowed[0] if allowed else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def os_threads():
    with contextlib.suppress(OSError):
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    return None


def check_records(workload, records, seed):
    """Verify outputs; returns (failed, unexpected, examples, checked)."""
    import checks

    failed = unexpected = checked = 0
    examples = []
    if workload.work_unit == "trial":
        refs = [checks.McReference(cfg) for cfg in workload.configs]
        selected = records
        pooled = {}
        for k, cfg in enumerate(workload.configs):
            outs = [r.out for r in records if r.error is None and r.call.check[1] == k]
            if cfg["rule"] == "c4" and outs:
                pooled[k] = checks.check_mc_pooled_mean(refs[k], outs)
    elif workload.name == "cli_calls":
        selected = records
    else:
        probes = [r for r in records if r.call.kind == "farfield"]
        others = [r for r in records if r.call.kind != "farfield"]
        picked = set(map(id, random.Random(f"check:{seed}").sample(
            others, min(CHECK_SAMPLE, len(others)))))
        selected = probes + [r for r in others if id(r) in picked]
    selected_ids = set(map(id, selected))
    for rec in records:
        problem = rec.error
        if problem is None and getattr(rec.out, "converged", True) is False:
            problem = "quadrature reported converged=False"
        if problem is None and id(rec) in selected_ids:
            checked += 1
            try:
                if workload.work_unit == "trial":
                    _, k, z_grid = rec.call.check
                    problem = checks.check_mc(refs[k], z_grid, rec.out) or pooled.get(k)
                elif workload.name == "cli_calls":
                    problem = checks.check_cli(rec.call.check, rec.out)
                else:
                    problem = checks.check_analytic(rec.call.check, rec.out)
            except Exception as exc:  # an unreadable output fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None:
            continue
        failed += 1
        known = rec.call.kind == "farfield" and rec.call.check[2] == 4
        if not known:
            unexpected += 1
        if len(examples) < 5 and (not known or len(examples) < 2):
            examples.append(f"{'known defect: ' if known else ''}{rec.call.kind}: {problem}")
    return failed, unexpected, examples, checked


def solution_seconds(workload, records, times, passes):
    """Mean over passes of the time to the workload's full result set at its
    stated accuracy: the pass itself, or for Monte-Carlo the sum over its
    calls of wall * (half-width / 1e-3)^2, the time to a 1e-3 half-width."""
    import checks

    total = 0.0
    for rec, seconds in zip(records, times):
        if workload.work_unit != "trial":
            total += seconds
        elif rec.out is None:
            return float("inf")
        else:
            total += seconds * (checks.half_width(rec.out) / 1e-3) ** 2
    return total / len(passes)


def end_to_end(workload, records, times, passes, setup_s, rss_mb):
    """End-to-end metrics from per-call ``times`` (one per record)."""
    work = sum(r.call.work for r in records)
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (work / sum(times), "1/s"),
        "call_ms.p50": (1e3 * statistics.median(times), "ms"),
        "call_ms.p90": (1e3 * percentile(times, 90), "ms"),
        "solution_s": (solution_seconds(workload, records, times, passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.name == "cli_calls" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if allowed:
        # one CPU for this process and its CLI children, so the host-speed
        # loop runs where the measured code runs
        os.sched_setaffinity(0, {allowed[0]})
    workload, setup_s = set_up(args)
    if args.setup_only:
        host = HostSpeed()
        while len(host.samples) < REF_NEAREST:
            host.sample()
        print("RESULT " + json.dumps({"setup_s": setup_s * host.factor(host.at[0]),
                                      "raw_setup_s": setup_s}))
        return 0

    import tracer as tracing

    props = {}
    if workload.name != "cli_calls":
        warm = tracing.Tracer()
        warm.install()
        try:
            ranges = traced_pass(warm, workload, 0)
        finally:
            warm.uninstall()
        props = properties(warm, ranges, workload.work_unit)
        del warm, ranges

    records: list[Record] = []
    metrics = {}
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "properties": props}
    if not args.trace:
        host = HostSpeed()
        passes = run_passes(workload, 1, args.seconds, records, host)
        rss = peak_rss_mb(workload)
        raw = [r.seconds for r in records]
        times = [t * host.factor(r.ended) for t, r in zip(raw, records)]
        metrics = end_to_end(workload, records, times, passes,
                             setup_s * host.factor(host.at[0]), rss)
        report["raw"] = {k: v for k, (v, _) in end_to_end(
            workload, records, raw, passes, setup_s, rss).items()}
        report["host"] = {"ref_ms.median": 1e3 * statistics.median(host.samples),
                          "samples": len(host.samples),
                          "scale.median": REF_NOMINAL_S / statistics.median(host.samples)}
        # p99 is reported only where a run has 10 samples beyond it
        report["call_ms.p99"] = 1e3 * percentile(times, 99) if len(times) >= 1000 else None
        if len(times) < 100:
            report["note"] = (f"call_ms.p90 rests on {len(times)} calls, fewer than 10 beyond "
                              "the 90th percentile: read it as the slowest call kinds")
    else:
        metrics, passes = traced_run(args, workload, records, tracing)
    report["passes"] = len(passes)
    report["calls"] = len(records)
    report["work_unit"] = workload.work_unit

    failed, unexpected, examples, checked = check_records(workload, records, args.seed)
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / len(records), "1")
    report["checked"] = checked
    report["failures"] = {"total": failed, "unexpected": unexpected, "examples": examples}

    threads = os_threads()
    report["env"] = environment(allowed)
    report["env"]["threads"] = threads
    if threading.active_count() != 1 or threads not in (None, 1):
        print(f"load discipline broken: {threading.active_count()} Python threads, "
              f"{threads} OS threads", file=sys.stderr)
        return 3

    print("report " + json.dumps(report, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print("RESULT " + json.dumps({
        "correct": unexpected == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(args, workload, records, tracing):
    """Each pass untraced, then traced; then the interpreter and import probes."""
    env = dict(os.environ)
    tracer = tracing.Tracer()
    main_untraced = []
    if workload.name == "cli_calls":
        untraced = traced = 0.0
        start = time.perf_counter()
        index = 1
        while index == 1 or time.perf_counter() - start < args.seconds:
            for call in workload.build_pass(index):
                out, error, dt = run_call(call)
                records.append(Record(index, call, out, error, dt))
                t = in_process_main(call.argv)
                main_untraced.append(t)
                untraced += t
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    tracer.span("call." + call.kind, in_process_main, call.argv)
                    traced += time.perf_counter() - t0
                finally:
                    tracer.uninstall()
            index += 1
        passes = list(range(1, index))
    else:
        plain: list[Record] = []
        replay: list[Record] = []
        start = time.perf_counter()
        index = 1
        while index == 1 or time.perf_counter() - start < args.seconds:
            for call in workload.build_pass(index):
                out, error, dt = run_call(call)
                plain.append(Record(index, call, out, error, dt))
            tracer.install()
            try:
                traced_pass(tracer, workload, index, replay)
            finally:
                tracer.uninstall()
            index += 1
        passes = list(range(1, index))
        untraced = sum(r.seconds for r in plain)
        traced = sum(r.seconds for r in replay)
        records.extend(plain + replay)

    # per pass, so runs that fit different numbers of passes compare
    metrics = {name: (value / len(passes) if unit in ("count", "s") else value, unit)
               for name, (value, unit) in tracing.layer_metrics(tracer).items()}
    out_dir = Path(args.root, ".bench_build", "perfbench")
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(out_dir / f"spans-{workload.name}-seed{args.seed}.npz")
    metrics["cli.interp_s"] = (
        statistics.median(cli_probe("pass", env) for _ in range(PROBE_REPEATS)), "s")
    metrics["cli.import_s"] = (
        statistics.median(cli_probe("import isoppp", env) for _ in range(PROBE_REPEATS)), "s")
    metrics["cli.main_s"] = (statistics.median(main_untraced) if main_untraced else 0.0, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "1")
    return metrics, passes


if __name__ == "__main__":
    sys.exit(main())
