#!/usr/bin/env python3
"""Record one trajectory point: every workload on several seeds, untraced,
plus one traced run per workload.

    python3 perfbench/trajectory.py --label baseline            # about 25 minutes

Runs seeds 0-9 on every workload of BENCHMARK.json, ten runs per workload
as the benchmark's bounds are judged on.  Writes
perfbench/BENCH_<label>.json with, per workload and end-to-end
metric, the values of the untraced runs, their median and quartiles and
the quartile spread as a share of the median (the figure a metric's bound
in BENCHMARK.json is compared with), and the per-layer metrics of the
traced run on the first seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT

SEEDS = list(range(10))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return lines[0]["environment"], lines[1]["run"], lines[-1]


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"label": args.label, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, runs = {}, []
        for seed in SEEDS:
            env, run, res = run_once(workload, seed, seconds, 0)
            out["environment"] = env
            if not res["correct"]:
                raise SystemExit(f"{workload} seed {seed}: failed jobs {run['failures']}")
            runs.append({k: run[k] for k in ("seed", "passes", "job_samples", "raw_wall_s",
                                             "raw_job_p50_s", "raw_job_tail_s", "raw_setup_s",
                                             "probe_median_s", "identical_frac")})
            runs[-1].update(attempted=res["attempted"], failed=res["failed"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        e2e = {name: dict(describe(v), unit=res["metrics"][name]["unit"], bound=bounds[name])
               for name, v in values.items()}
        for name, d in e2e.items():
            print(f"  {name:14s} median {d['median']:.4g} spread {d['spread']:.3f} "
                  f"(bound {d['bound']})", flush=True)
        _, trun, traced = run_once(workload, SEEDS[0], seconds, 1)
        out["workloads"][workload] = {
            "tail_percentile": run["tail_percentile"],
            "jobs_per_pass": run["jobs_per_pass"],
            "runs": runs,
            "end_to_end": e2e,
            "traced_seed": SEEDS[0],
            "traced_passes": trun["traced_passes"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
