#!/usr/bin/env python3
"""sobrough benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload rde-solve --seed 0 --seconds 30 --trace 0

Run from the repository root.  The library is imported from `src/` of this
checkout (pure Python, nothing to build).  The run first times fresh
processes of probe.py, which stop where the first job could start
(`setup_s`), then starts one fresh worker that runs the workload's
jobs for `--seconds` (see worker.py).  With `--trace 0` the last stdout
line carries the end-to-end metrics; with `--trace 1` the per-layer
metrics of a traced run.  Metric names and units come from BENCHMARK.json.
Times are scaled to a fixed machine speed (calibrate.py); the raw times are
on the `run` line printed before the result.
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

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # NumPy links a threaded OpenBLAS; one thread per process keeps the
    # single-client measurement free of pool start-up and oversubscription
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    # the NumPy kernels, the only backend the baseline was measured on
    env["SOBROUGH_BACKEND"] = "python"
    return env


def time_start(cmd, env, deadline):
    """Seconds from starting `cmd` until it prints its `ready` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"start-up probe {cmd} failed")
    return elapsed


def probe_setup(env, deadline):
    """Seconds from starting a fresh process to its first job being ready,
    raw and scaled by the start-up time of a bare interpreter."""
    raw = time_start([sys.executable, str(HERE / "probe.py")], env, deadline)
    bare = time_start([sys.executable, "-c", "print('ready')"], env, deadline)
    return raw, calibrate.scale_start(raw, bare)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the benchmark's self-check")
    ap.add_argument("--reference", type=Path, default=None,
                    help="reference reports to check against (default: perfbench/reference)")
    args = ap.parse_args()

    if not (ROOT / "src" / "sobrough" / "__init__.py").is_file():
        sys.stderr.write(f"error: no sobrough sources under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env()
    probe_setup(env, deadline)  # warm-up: byte-compiles the sources once
    setup = [probe_setup(env, deadline) for _ in range(SETUP_PROBES)]

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    if args.reference is not None:
        cmd += ["--reference", str(args.reference.resolve())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: worker exceeded the run time limit\n")
        return 3
    if proc.returncode != 0:
        sys.stderr.write(f"error: worker exited with code {proc.returncode}\n")
        return 3
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    summary = result["summary"]
    measured = dict(result["metrics"], setup_s=statistics.median(s for _, s in setup))

    print(json.dumps({"environment": summary.pop("environment")}))
    summary["raw_setup_s"] = statistics.median(raw for raw, _ in setup)
    print(json.dumps({"run": summary}))
    print(f"job_tail_s is the p{summary['tail_percentile']:.1f} job time over "
          f"{summary['job_samples']} untraced jobs ({summary['passes']} passes)")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            sys.stderr.write(f"error: metric {m['name']} was not measured\n")
            return 4
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
