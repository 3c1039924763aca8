"""Benchmark worker: runs one workload's jobs in this fresh process.

Started by run.py with the repository's `src` first on PYTHONPATH and the
BLAS thread pools pinned to one thread.  Jobs are in-process
`sobrough.cli.main([...])` calls made one after another (a closed loop with
one client).  The fixed job list is run as whole passes until the time
budget is spent; the last stdout line is a JSON object for run.py.

    python3 perfbench/worker.py --workload rde-solve --seed 0 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment():
    import numpy as np
    import sobrough
    source = Path(sobrough.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"sobrough was imported from {source}, not from {ROOT / 'src'}")
    if sobrough.kernel_backend != "python":
        # the baseline was measured on the NumPy fallback; another backend
        # gives figures that cannot be compared with it
        raise SystemExit(f"kernel backend is {sobrough.kernel_backend!r}, not 'python'")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "kernel_backend": sobrough.kernel_backend,
        "sobrough_file": str(source.relative_to(ROOT)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    def __init__(self, args):
        import jsonschema
        import sobrough.cli as cli
        from sobrough.report import load_schema

        from perfbench import calibrate, checks, workloads
        self.args = args
        self.calibrate = calibrate
        self.cli = cli
        self.checks = checks
        self.validator = jsonschema.Draft202012Validator(load_schema())
        self.jobs = workloads.build_jobs(args.workload, args.seed, args.size)
        self.work = HERE / "_run" / f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.reference = self._load_reference()
        self.first_pass = {}      # job key -> (sha256, fingerprint) of the first report
        self.records = []         # one dict per job run
        self.failures = []

    def _load_reference(self):
        path = self.args.reference
        if path is None:
            path = HERE / "reference" / f"{self.args.size}-{self.args.workload}-seed{self.args.seed}.json"
            if not path.exists():
                return None
        with open(path) as fh:
            ref = json.load(fh)
        missing = {j.key for j in self.jobs} - set(ref["jobs"])
        if missing:
            raise SystemExit(f"reference {path} lacks jobs {sorted(missing)}")
        return ref["jobs"]

    def write_inputs(self):
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        for job in self.jobs:
            for rel, text in job.files.items():
                (self.work / rel).write_text(text)
        (self.work / "out").mkdir()

    def run_job(self, job, pass_idx, tracer=None):
        out = f"out/{job.key}.json"
        argv = job.args + ["--out", out]
        if tracer is not None:
            tracer.begin_job(f"{pass_idx}:{job.key}")
        t0 = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # an uncaught error ends a CLI run with a traceback
            code = f"{type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
        rec = {"job": job.key, "pass": pass_idx, "traced": tracer is not None,
               "seconds": dt, "code": code}
        rec.update(self.check(job, out, code))
        self.records.append(rec)
        return rec

    def check(self, job, out, code):
        """Outcome of one job: failure reason (or None) and byte identity."""
        if code != 0:
            return self._fail(job, f"exit {code}")
        data = Path(out).read_bytes()
        os.unlink(out)
        report = json.loads(data)
        errors = sorted(self.validator.iter_errors(report), key=str)
        if errors:
            return self._fail(job, f"schema: {errors[0].message}")
        results = report["results"]
        reason = self.checks.invariants(job, results)
        if reason:
            return self._fail(job, reason)
        sha = self.checks.digest(data)
        fp = self.checks.fingerprint(results)
        self.first_pass.setdefault(job.key, (sha, fp))
        ref_sha, ref_fp = self.first_pass[job.key]
        if self.reference is not None:
            ref_sha = self.reference[job.key]["sha256"]
            ref_fp = self.reference[job.key]["fingerprint"]
        if sha != ref_sha:
            reason = self.checks.compare(fp, ref_fp)
            if reason:
                return self._fail(job, f"results differ from the reference: {reason}")
        return {"failed": False, "identical": sha == ref_sha, "sha256": sha, "fingerprint": fp}

    def _fail(self, job, reason):
        self.failures.append(f"{job.key}: {reason}")
        return {"failed": True, "identical": False}

    def run_pass(self, pass_idx, tracer=None):
        """Run every job once; returns the pass time at the reference speed."""
        if tracer is not None:
            tracer.install()
        try:
            total = 0.0
            before = self.calibrate.probe()
            for job in self.jobs:
                rec = self.run_job(job, pass_idx, tracer)
                after = self.calibrate.probe()
                rec["scaled_s"] = self.calibrate.scale(rec["seconds"], before, after)
                rec["probe_s"] = after
                total += rec["scaled_s"]
                before = after
            return total
        finally:
            if tracer is not None:
                tracer.uninstall()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--reference", type=Path, default=None)
    ap.add_argument("--record", type=Path, default=None,
                    help="run one pass and write its reports as the reference")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    t_start = time.perf_counter()
    runner = Runner(args)
    env = environment()
    os.chdir(ROOT)
    runner.write_inputs()
    os.chdir(runner.work)
    min_passes = 1 if args.record or args.size == "tiny" else 2
    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer
        tracer = Tracer()
        min_passes = 2

    pass_times, traced_times, raw_pass_times, wall_passes = [], [], [], []
    t_loop = time.perf_counter()
    while True:
        idx = len(pass_times) + len(traced_times)
        if idx >= min_passes and (args.record or
                                  time.perf_counter() - t_loop + max(wall_passes) > args.seconds):
            break
        t0 = time.perf_counter()
        traced = tracer is not None and idx % 2 == 1
        n_before = len(runner.records)
        job_s = runner.run_pass(idx, tracer if traced else None)
        (traced_times if traced else pass_times).append(job_s)
        if not traced:
            raw_pass_times.append(sum(r["seconds"] for r in runner.records[n_before:]))
        wall_passes.append(time.perf_counter() - t0)

    os.chdir(ROOT)
    shutil.rmtree(runner.work, ignore_errors=True)
    recs = runner.records
    if args.record:
        if runner.failures:
            raise SystemExit("not recording a reference with failed jobs: "
                             + "; ".join(runner.failures))
        ref = {"workload": args.workload, "seed": args.seed, "size": args.size,
               "environment": env,
               "jobs": {r["job"]: {"sha256": r["sha256"], "fingerprint": r["fingerprint"]}
                        for r in recs}}
        args.record.write_text(json.dumps(ref) + "\n")

    untraced = [r for r in recs if not r["traced"]]
    attempted = len(recs)
    failed = sum(r["failed"] for r in recs)
    n_jobs = len(runner.jobs)
    # percentile fixed per workload: the highest with ten jobs beyond it in
    # the smallest run (two passes), so it does not move with the pass count
    tail_q = max(0.5, 1.0 - 10.0 / (2 * n_jobs))
    times = [r["scaled_s"] for r in untraced]
    raw = [r["seconds"] for r in untraced]
    summary = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "environment": env, "jobs_per_pass": n_jobs,
        "passes": len(pass_times), "traced_passes": len(traced_times),
        "job_samples": len(times), "tail_percentile": 100.0 * tail_q,
        "raw_wall_s": statistics.median(raw_pass_times),
        "raw_job_p50_s": statistics.median(raw),
        "raw_job_tail_s": percentile(raw, tail_q),
        "probe_median_s": statistics.median(r["probe_s"] for r in recs),
        "identical_frac": sum(r["identical"] for r in recs) / attempted,
        "worker_s": time.perf_counter() - t_start,
        "failures": runner.failures[:20],
    }
    metrics = {
        "wall_s": statistics.median(pass_times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": percentile(times, tail_q),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    records_path = HERE / "_run" / f"jobs-{args.workload}-s{args.seed}-t{args.trace}.json"
    records_path.write_text(json.dumps(
        [{k: r[k] for k in ("job", "pass", "traced", "seconds", "scaled_s", "probe_s",
                            "failed", "identical")}
         for r in recs]))
    summary["job_file"] = str(records_path.relative_to(ROOT))
    if args.trace:
        from perfbench.layers import layer_metrics
        metrics.update(layer_metrics(tracer, len(traced_times), recs))
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(pass_times)
        trace_path = HERE / "_run" / f"trace-{args.workload}-s{args.seed}.json"
        tracer.dump(trace_path, [r["job"] for r in recs if r["traced"]])
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
        summary["spans_over_call_limit"] = sorted(tracer.over_limit)
    print(json.dumps({"summary": summary, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
