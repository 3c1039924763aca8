#!/usr/bin/env python3
"""Record the reference reports the benchmark checks job outputs against.

    python3 perfbench/record_reference.py     # full size seeds 0-9, tiny seed 0

Each reference file holds, per job, the SHA-256 of the report bytes and a
fingerprint of its `results` (see checks.py).  The files committed under
perfbench/reference/ were recorded once, from the commit that introduced
the benchmark; re-recording them after a change to the library would hide
exactly the differences they exist to catch.
"""

from __future__ import annotations

import subprocess
import sys

from run import HERE, ROOT, child_env
from workloads import WORKLOADS

# the seeds trajectory.py measures, and the one seed selfcheck.py runs
PLAN = [("full", seed) for seed in range(10)] + [("tiny", 0)]


def main():
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    for size, seed in PLAN:
        for workload in WORKLOADS:
            path = out_dir / f"{size}-{workload}-seed{seed}.json"
            subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                            "--seed", str(seed), "--size", size, "--record", str(path)],
                           env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
