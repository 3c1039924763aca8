#!/usr/bin/env python3
"""Self-check of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

1. BENCHMARK.json keeps to the benchmark contract (keys, counts, names, units).
2. Every workload prints, with --trace 0 and --trace 1, exactly the metrics
   BENCHMARK.json names, each with its unit, and its outputs check correct.
3. A tampered reference value makes the run report a failed job, so the
   correctness check can fail.
4. In a directory holding only BENCHMARK.json and perfbench/ (no sources)
   the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from run import HERE, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCRATCH = HERE / "_run" / "selfcheck"


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 1 <= len(spec["paths"]) <= 16
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    for n in names:
        assert NAME.match(n), n
    assert len(names) == len(set(names)), "duplicate names"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def result_of(lines):
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, sorted(res)
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int)
    return res


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("BENCHMARK.json: ok")

    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines, err = run(["--workload", w["name"], "--seed", "0", "--seconds", "1",
                                    "--trace", str(trace), "--size", "tiny"])
            assert code == 0, err
            res = result_of(lines)
            assert res["correct"] and res["failed"] == 0, lines[-3:]
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, set(got) ^ set(want)
            for k, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
            print(f"{w['name']} --trace {trace}: {len(got)} metrics with units, correct")

    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    SCRATCH.mkdir(parents=True)
    ref = json.loads((HERE / "reference" / "tiny-rde-solve-seed0.json").read_text())
    job = sorted(ref["jobs"])[0]
    entry = ref["jobs"][job]
    entry["sha256"] = "0" * 64
    values = entry["fingerprint"]["values"]
    values[-1] += 1e-6 * max(1.0, abs(values[-1]))
    tampered = SCRATCH / "tampered.json"
    tampered.write_text(json.dumps(ref))
    code, lines, err = run(["--workload", "rde-solve", "--seed", "0", "--seconds", "1",
                            "--trace", "0", "--size", "tiny", "--reference", str(tampered)])
    res = result_of(lines)
    assert code == 0 and not res["correct"] and res["failed"] >= 1, lines[-1]
    assert res["metrics"]["ok_frac"]["value"] < 1.0
    print(f"tampered reference: {res['failed']} of {res['attempted']} jobs failed, as it should")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines, err = run(["--workload", "rde-solve", "--seed", "0", "--seconds", "1",
                            "--trace", "0"], cwd=bare)
    assert code != 0 and not any(line.startswith('{"correct"') for line in lines), (code, lines)
    print(f"without sources: exit code {code}, no result printed")
    shutil.rmtree(SCRATCH)
    print("self-check passed")


if __name__ == "__main__":
    main()
