"""Benchmark entry point for isoppp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh
worker process (perfbench/worker.py) as a closed loop with one caller.
With ``--trace 0`` the worker's set-up is also repeated in separate fresh
processes and ``setup_s`` is the median of all set-up samples; the last
line of standard output is one JSON object with the end-to-end metrics.
With ``--trace 1`` that object holds the per-layer metrics instead.

Every child runs with one BLAS/OpenMP thread and only one child runs at a
time, so the load fits a 2-CPU machine.  Exits non-zero, printing no
result, when the checkout has no isoppp sources or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("figures_analytic", "mc_sparse", "mc_dense", "cli_calls")
SETUP_SAMPLES = 4  # fresh set-up processes besides the measuring worker
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(ROOT / ".bench_build" / "tmp")
    return env


def run_child(argv, env, deadline):
    """Run one child to completion; returns its RESULT payload and other lines."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("benchmark ran out of time")
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=remaining)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"{' '.join(argv[1:3])} exited with code {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):]), lines[:-1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="isoppp benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "isoppp" / "__init__.py").is_file():
        print(f"error: no isoppp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    Path(env["TMPDIR"]).mkdir(parents=True, exist_ok=True)
    worker = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed), "--root", str(ROOT)]
    try:
        # the build: byte-compile the sources so no run pays for it in set-up
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                       cwd=ROOT, env=env, check=True, capture_output=True,
                       timeout=deadline - time.monotonic())
        setups, raw = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                result, _ = run_child(worker + ["--setup-only"], env, deadline)
                setups.append(result["setup_s"])
                raw.append(result["raw_setup_s"])
        result, lines = run_child(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.append(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setups)} "
                     f"(unscaled, setup-only processes: {', '.join(f'{s:.4f}' for s in raw)})")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
