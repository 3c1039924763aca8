"""The NumPy implementations of the hot kernels, re-exported by ``_kernels``.

All arrays are C-contiguous float64.  Tensor coefficients are packed
level-major: level k occupies ``offsets[k]:offsets[k]+d**k``.
"""

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

_BLOCK = 128


@functools.lru_cache(maxsize=32)
def level_layout(d, N):
    """Offsets and sizes of the packed levels of T^N(R^d).

    Computed once per (d, N); the returned arrays are shared and read-only."""
    sizes = [d**k for k in range(N + 1)]
    offsets = [0]
    for s in sizes[:-1]:
        offsets.append(offsets[-1] + s)
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets.setflags(write=False)
    sizes.setflags(write=False)
    return offsets, sizes


def _lv(arr, off, sz, k):
    return arr[..., off[k]:off[k] + sz[k]]


def rowwise_mul(a, b, d, N):
    """Row-by-row truncated tensor product of two (m, L) batches."""
    off, sz = level_layout(d, N)
    m = a.shape[0]
    out = np.zeros_like(a)
    for k in range(N + 1):
        acc = _lv(out, off, sz, k)
        for i in range(k + 1):
            j = k - i
            ai = _lv(a, off, sz, i).reshape(m, sz[i], 1)
            bj = _lv(b, off, sz, j).reshape(m, 1, sz[j])
            acc += (ai * bj).reshape(m, sz[k])
    return out


def chen_prefix(segs, d, N, start=None):
    """Running left products: out[0] = start (identity if None), out[m+1] = out[m] ⊗ segs[m].

    Every segment must have scalar level 1, so the last term of level k of
    out[r] ⊗ segs[r] is out_k[r] itself.  Level k of out[r+1] is then out_k[r]
    plus Σ_{i<k} out_i[r] ⊗ segs_{k−i}[r], which reads lower levels only: the
    levels are built in ascending order, each for all rows at once, and the
    running sum over the rows is a cumsum.  The float operations and their
    order are those of one rowwise_mul per row."""
    off, sz = level_layout(d, N)
    m, L = segs.shape
    if np.any(segs[:, 0] != 1.0):
        raise ValueError("chen_prefix needs segments with scalar level 1")
    out = np.zeros((m + 1, L))
    if start is None:
        out[0, 0] = 1.0
    else:
        out[0] = start
    for k in range(N + 1):
        lev = _lv(out, off, sz, k)
        for i in range(k):
            ai = _lv(out[:-1], off, sz, i).reshape(m, sz[i], 1)
            bj = _lv(segs, off, sz, k - i).reshape(m, 1, sz[k - i])
            lev[1:] += (ai * bj).reshape(m, sz[k])
        np.cumsum(lev, axis=0, out=lev)
    return out


def inverse_batch(nodes, d, N):
    """Group inverses of a (n, L) batch via the truncated Neumann series."""
    negx = -nodes.copy()
    negx[:, 0] = 0.0
    acc = np.zeros_like(nodes)
    acc[:, 0] = 1.0
    cur = acc.copy()
    for _ in range(N):
        cur = rowwise_mul(cur, negx, d, N)
        acc += cur
    return acc


def _increment_levels(inv_rows, nodes, d, N, k):
    """Level-k coefficients of inv_rows[u] ⊗ nodes[v] for all (u, v); shape (m, n, d^k)."""
    off, sz = level_layout(d, N)
    m = inv_rows.shape[0]
    n = nodes.shape[0]
    acc = np.zeros((m, n, sz[k]))
    for i in range(k + 1):
        j = k - i
        A = _lv(inv_rows, off, sz, i)
        B = _lv(nodes, off, sz, j)
        acc += np.einsum("ma,nb->mnab", A, B).reshape(m, n, sz[k])
    return acc


def hom_dist_block(inv_rows, nodes, d, N):
    """Homogeneous norms of increments inv_rows[u] ⊗ nodes[v]; shape (m, n)."""
    m = inv_rows.shape[0]
    n = nodes.shape[0]
    out = np.zeros((m, n))
    for k in range(1, N + 1):
        lev = _increment_levels(inv_rows, nodes, d, N, k)
        ss = np.einsum("mnc,mnc->mn", lev, lev)
        out += ss ** (0.5 / k)
    return out


def hom_dist_matrix(nodes, inv, d, N, i0, i1):
    """Full (w, w) distance matrix over the window [i0, i1); rows block-wise."""
    w = i1 - i0
    out = np.empty((w, w))
    for r0 in range(0, w, _BLOCK):
        r1 = min(r0 + _BLOCK, w)
        out[r0:r1] = hom_dist_block(inv[i0 + r0:i0 + r1], nodes[i0:i1], d, N)
    return out


def level_diff_block(inv1, nodes1, inv2, nodes2, d, N, k):
    """|π_k(increment¹_{u,v} − increment²_{u,v})| for all (u, v); shape (m, n)."""
    lev = _increment_levels(inv1, nodes1, d, N, k)
    lev -= _increment_levels(inv2, nodes2, d, N, k)
    return np.sqrt(np.einsum("mnc,mnc->mn", lev, lev))


def sobolev_pair_sum(nodes, inv, d, N, p, expo, h, i0, i1):
    """Σ_{i0 ≤ u < v < i1} dist(u,v)^p · ((v−u)·h)^(−expo), summed block-wise."""
    parts = []
    for r0 in range(i0, i1, _BLOCK):
        r1 = min(r0 + _BLOCK, i1)
        dist = hom_dist_block(inv[r0:r1], nodes[r0:i1], d, N)
        gap = (np.arange(r0, i1)[None, :] - np.arange(r0, r1)[:, None]).astype(float)
        mask = gap > 0
        gap[~mask] = 1.0
        term = np.where(mask, dist**p * (gap * h) ** (-expo), 0.0)
        parts.append(float(np.sum(term)))
    return math.fsum(parts)


def partition_dp_max(w):
    """Max over partitions 0 = m_0 < … < m_r = n−1 of Σ w[m_i, m_{i+1}]."""
    n = w.shape[0]
    if n < 2:
        return 0.0
    dp = np.full(n, -np.inf)
    dp[0] = 0.0
    for j in range(1, n):
        dp[j] = np.max(dp[:j] + w[:j, j])
    return float(dp[n - 1])


def interval_dp_table(w):
    """T[a, b] = partition_dp_max of w restricted to [a, b], for all a ≤ b.

    T[a, a+g] = max_{j<g} T[a, a+j] + w[a+j, a+g] is computed for all a at
    once, one diagonal g = 1, …, n−1 at a time.  Both operands are strided
    views with step n+1 between rows: T itself, and w transposed so that
    the reads along j are contiguous.  np.max gives the same result in any
    order, so the table is that of one np.max per entry."""
    n = w.shape[0]
    T = np.zeros((n, n))
    wT = np.ascontiguousarray(w.T, dtype=np.float64)
    row_step = (n + 1) * T.itemsize
    flat = T.reshape(-1)
    for g in range(1, n):
        rows = n - g
        t = as_strided(T, (rows, g), (row_step, T.itemsize))
        u = as_strided(wT[g:], (rows, g), (row_step, T.itemsize))
        np.max(t + u, axis=1, out=flat[g::n + 1][:rows])
    return T
