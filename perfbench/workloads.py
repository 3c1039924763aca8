"""Job lists of the three workloads and the seeded inputs they read.

A job is one `sobrough` CLI invocation.  Its inputs (CSV paths and JSON
config blocks) are generated here from the benchmark seed, so the same
seed always gives the same files.  Grid depth J fixes the cost of a job
(n = 2^J + 1 nodes), so the seed only changes values, never sizes.

Each full job list is made of bands of jobs of about the same cost (the
seed then shuffles their order), sized so that the median job and the tail
job (p75, about the fifth-largest of 20) each fall inside a band.  Noise or
a change in the number of passes a run completes then cannot move either
statistic onto a job of a different size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("rde-solve", "path-analysis", "verify-studies")


@dataclass
class Job:
    key: str                    # stable id within the workload, e.g. "07-integrate-J8"
    kind: str                   # CLI subcommand or study name
    args: list                  # CLI arguments, paths relative to the work directory
    files: dict = field(default_factory=dict)   # relative path -> text
    expect: dict = field(default_factory=dict)  # facts used by the output checks


# ---------------------------------------------------------------- inputs

def _csv_text(t: np.ndarray, x: np.ndarray) -> str:
    header = "t," + ",".join(f"x{i}" for i in range(1, x.shape[1] + 1))
    rows = [header]
    for ti, row in zip(t, x):
        rows.append(",".join([repr(float(ti))] + [repr(float(v)) for v in row]))
    return "\n".join(rows) + "\n"


def _trig_path(rng, depth: int, d: int, total_variation: float = 2.0) -> np.ndarray:
    """Sum of three sine modes per coordinate, started at 0 and scaled to a
    fixed length so Picard iteration counts vary little between seeds."""
    modes = np.arange(1, 4)
    amp = rng.uniform(0.3, 1.0, (d, 3)) / modes
    phase = rng.uniform(0.0, 2.0 * np.pi, (d, 3))
    t = np.linspace(0.0, 1.0, (1 << depth) + 1)
    x = np.stack([np.sin(2.0 * np.pi * np.outer(t, modes) + phase[i]) @ amp[i]
                  for i in range(d)], axis=1)
    x -= x[0]
    x *= total_variation / np.sum(np.linalg.norm(np.diff(x, axis=0), axis=1))
    return x


def _walk(rng, depth: int, d: int, roughness: float) -> np.ndarray:
    """Sign walk with 2^depth steps of size 2^(-depth * roughness), started at 0."""
    steps = rng.choice([-1.0, 1.0], size=(1 << depth, d)) * 2.0 ** (-depth * roughness)
    return np.vstack([np.zeros((1, d)), np.cumsum(steps, axis=0)])


def _irregular_times(rng, m: int) -> np.ndarray:
    """m strictly increasing sample times spanning [0, T] with random T."""
    while True:
        inner = np.sort(rng.uniform(0.0, 1.0, m - 2))
        t = np.concatenate([[0.0], inner, [1.0]])
        if np.all(np.diff(t) > 0):
            return t * rng.uniform(0.5, 4.0)


def _linear_field(rng, d: int, e: int) -> dict:
    A = rng.uniform(-1.0, 1.0, (e, d, e))
    b = rng.uniform(-1.0, 1.0, (e, d))
    A *= 0.3 / np.linalg.norm(A)
    b *= 0.4 / np.linalg.norm(b)
    return {"kind": "linear", "A": A.tolist(), "b": b.tolist()}


# ------------------------------------------------------------- job kinds

def _solve_job(rng, key, depth, scheme):
    x = _trig_path(rng, depth, 2)
    t = np.linspace(0.0, 1.0, (1 << depth) + 1)
    cfg = {"field": _linear_field(rng, 2, 2),
           "y0": (0.3 * rng.uniform(-1.0, 1.0, 2)).tolist(), "scheme": scheme}
    if scheme == "windowed":
        cfg["splits"] = [0.25, 0.5, 0.75]
    files = {f"{key}.csv": _csv_text(t, x), f"{key}.json": json.dumps(cfg)}
    args = ["solve", "--csv", f"{key}.csv", "--depth", str(depth), "--config", f"{key}.json"]
    return Job(key, "solve", args, files, {"scheme": scheme, "tol": 1e-9})


def _integrate_job(rng, key, depth):
    # grid-aligned CSV, so ingestion reproduces x exactly and the rough
    # integral of the coordinate map has the closed form x^2 / 2
    x = _walk(rng, depth, 2, rng.uniform(0.55, 0.85))
    t = np.linspace(0.0, 1.0, (1 << depth) + 1)
    args = ["integrate", "--csv", f"{key}.csv", "--depth", str(depth)]
    return Job(key, "integrate", args, {f"{key}.csv": _csv_text(t, x)},
               {"half_square": (0.5 * x * x).tolist()})


def _walk_csv(rng, depth):
    x = _walk(rng, depth, 2, rng.uniform(0.55, 0.85))
    return _csv_text(_irregular_times(rng, x.shape[0]), x)


def _norm_job(rng, key, depth):
    args = ["norm", "--csv", f"{key}.csv", "--depth", str(depth)]
    return Job(key, "norm", args, {f"{key}.csv": _walk_csv(rng, depth)})


def _dist_job(rng, key, depth):
    files = {f"{key}-a.csv": _walk_csv(rng, depth), f"{key}-b.csv": _walk_csv(rng, depth)}
    args = ["dist", "--csv", f"{key}-a.csv", "--csv2", f"{key}-b.csv", "--depth", str(depth)]
    return Job(key, "dist", args, files)


def _study_job(rng, key, name, block, depth=None):
    seed = int(rng.integers(0, 2**31))
    args = ["study", "--name", name, "--seed", str(seed), "--config", f"{key}.json"]
    if depth is not None:
        args += ["--depth", str(depth)]
    return Job(key, name, args, {f"{key}.json": json.dumps({"study": block})})


def _sweep_job(rng, key, depth, block):
    seed = int(rng.integers(0, 2**31))
    block = dict(block, depth=depth, pairs_per_cell=1)
    args = ["sweep", "--depth", str(depth), "--seed", str(seed), "--config", f"{key}.json"]
    return Job(key, "sweep", args, {f"{key}.json": json.dumps({"sweep": block})})


# -------------------------------------------------------------- job lists

# (count, builder(rng, key)) in increasing cost; comments give the single-job
# time on the NumPy backend of a 2-core x86 machine.
def _plan(workload: str, size: str):
    full = size == "full"
    if workload == "rde-solve":
        return [
            (6 if full else 1, "picard-J6", lambda r, k: _solve_job(r, k, 6 if full else 4, "picard")),   # 0.13 s
            (7 if full else 1, "integrate-J8", lambda r, k: _integrate_job(r, k, 8 if full else 4)),      # 0.3 s
            (4 if full else 0, "picard-J7", lambda r, k: _solve_job(r, k, 7, "picard")),                  # 0.5 s
            (1 if full else 0, "integrate-J9", lambda r, k: _integrate_job(r, k, 9)),                     # 1.0 s
            (1 if full else 1, "windowed-J9", lambda r, k: _solve_job(r, k, 9 if full else 5, "windowed")),  # 2.0 s
            (1 if full else 0, "picard-J8", lambda r, k: _solve_job(r, k, 8, "picard")),                  # 2.3 s
        ]
    if workload == "path-analysis":
        return [
            (6 if full else 1, "norm-J9", lambda r, k: _norm_job(r, k, 9 if full else 5)),   # 0.18 s
            (6 if full else 1, "dist-J8", lambda r, k: _dist_job(r, k, 8 if full else 4)),   # 0.4 s
            (6 if full else 0, "norm-J10", lambda r, k: _norm_job(r, k, 10)),                # 0.43 s
            (1 if full else 0, "norm-J11", lambda r, k: _norm_job(r, k, 11)),                # 1.6 s
            (1 if full else 0, "dist-J9", lambda r, k: _dist_job(r, k, 9)),                  # 1.6 s
        ]
    if workload == "verify-studies":
        def embedding(r, k):
            return _study_job(r, k, "embedding",
                              {"n_paths": 6 if full else 2, "roughness": float(r.uniform(0.55, 0.85))},
                              depth=6 if full else 4)

        def apriori(r, k):
            return _study_job(r, k, "apriori", {"n_paths": 6 if full else 2}, depth=7 if full else 4)

        def equivalence(r, k):
            return _study_job(r, k, "equivalence",
                              {"n_paths": 4 if full else 2, "depths": [8, 10] if full else [4, 5]})

        def convergence(r, k):
            return _study_job(r, k, "convergence",
                              {"depths": [4, 5, 6, 7, 8] if full else [3, 4],
                               "refinement": 16 if full else 4})

        small_sweep = {} if full else {"eps_grid": [0.1, 0.01]}
        return [
            (6 if full else 1, "embedding", embedding),        # 0.05 s
            (7 if full else 1, "apriori", apriori),            # 0.15 s
            (4 if full else 1, "equivalence", equivalence),    # 0.55 s
            (1 if full else 1, "sweep-J4", lambda r, k: _sweep_job(r, k, 4 if full else 3, small_sweep)),  # 1.1 s
            (1 if full else 0, "sweep-J5", lambda r, k: _sweep_job(r, k, 5, small_sweep)),  # 1.8 s
            (1 if full else 1, "convergence", convergence),    # 2.5 s
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build_jobs(workload: str, seed: int, size: str = "full") -> list:
    """The workload's fixed job list for `seed`, in a seeded order."""
    widx = WORKLOADS.index(workload)
    jobs = []
    for count, label, make in _plan(workload, size):
        for _ in range(count):
            key = f"{len(jobs):02d}-{label}"
            jobs.append(make(np.random.default_rng([seed, widx, len(jobs)]), key))
    order = np.random.default_rng([seed, widx]).permutation(len(jobs))
    return [jobs[i] for i in order]
