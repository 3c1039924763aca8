#!/usr/bin/env python3
"""Best-of-k times of the NumPy kernels on the hot paths.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py
"""

import time

import numpy as np

from sobrough import _kernels as K
from sobrough import algebra as A


def group_batch(n, d, N, seed=0):
    rng = np.random.default_rng(seed)
    alg = A.TensorAlgebra(d, N)
    pts = np.vstack([np.zeros(d), np.cumsum(0.3 * rng.standard_normal((n - 1, d)), axis=0)])
    return np.ascontiguousarray(A.signature_path_packed(pts, alg))


def timeit(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def cases():
    d, N = 2, 2
    nodes = group_batch(1025, d, N)
    inv = K.inverse_batch(nodes, d, N)
    w = np.random.default_rng(1).random((257, 257))
    wbig = np.random.default_rng(2).random((513, 513))

    yield ("chen_prefix (256 products, d=2, N=2)",
           lambda: K.chen_prefix(np.ascontiguousarray(nodes[:256]), d, N))
    yield ("inverse_batch (1025 nodes)",
           lambda: K.inverse_batch(nodes, d, N))
    yield ("hom_dist_matrix (513x513)",
           lambda: K.hom_dist_matrix(nodes[:513], inv[:513], d, N, 0, 513))
    yield ("sobolev_pair_sum (1025 nodes)",
           lambda: K.sobolev_pair_sum(nodes, inv, d, N, 4.0, 2.6, 1 / 1024, 0, 1025))
    yield ("partition_dp_max (513 points)",
           lambda: K.partition_dp_max(wbig))
    yield ("interval_dp_table (257 points)",
           lambda: K.interval_dp_table(w))


def main():
    print(f"{'kernel':44s} {'numpy':>10s}")
    for name, call in cases():
        print(f"{name:44s} {timeit(call) * 1e3:9.1f}ms")


if __name__ == "__main__":
    main()
