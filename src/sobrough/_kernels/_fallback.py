"""The NumPy implementations of the hot kernels, re-exported by ``_kernels``.

Arrays are float64 in any memory layout.  Both partition DPs take the pair
weights ``w`` one upper block of rows at a time, as the callers compute them
(``*_push_rows``); only the tests and the tracer call the whole-matrix entry points.
Tensor coefficients are packed level-major: level k occupies ``offsets[k]:offsets[k]+d**k``.

The pair kernels ``hom_dist_block`` and ``level_diff_block`` work
component-major: level k of the m × n increments is a (d^k, m, n) array, one
(m, n) plane per coefficient, so that every NumPy inner loop runs over the n
columns rather than over the d^k (mostly 2 or 4) coefficients of one pair.
The squared planes are summed by a halving tree (``_square_sum``), which for
d^k ≤ 4 is the order of the ``einsum("mnc,mnc->mn")`` it replaces, so those
distances are unchanged to the bit; for d^k ≥ 8 the tree fixes an order that
no longer depends on NumPy's SIMD dispatch.  Only entries whose sum of
squares overflows are recomputed, from scaled coefficients (``_scaled_norms``).
"""

import functools
import math

import numpy as np

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


def _increment_planes(inv_rows, nodes, d, N, k):
    """Level-k coefficients of inv_rows[u] ⊗ nodes[v] for all (u, v); shape (d^k, m, n).

    Level k of the product is Σ_i A_i ⊗ B_{k−i} for A = inv_rows, B = nodes.
    Coefficient c = a·d^{k−i} + b of a term is the plane A_i[:, a] ⊗ B_{k−i}[:, b],
    formed by broadcasting from the transposed level slices, so that every
    inner loop runs over the n columns.  Both factors have scalar level
    exactly 1, so the i = 0 term is B_k and the i = k term is A_k; the
    i = 1 term is written straight into the result, then B_k, the middle
    terms and A_k are added in that order.  Each plane is that of adding
    every term's `einsum` to zeros in the order i = 0, …, k, except that
    0 + B_k is B_k, which can only change the sign of a zero."""
    off, sz = level_layout(d, N)
    if np.any(inv_rows[:, 0] != 1.0) or np.any(nodes[:, 0] != 1.0):
        raise ValueError("pair kernels need rows with scalar level 1")
    At = np.ascontiguousarray(inv_rows.T)
    Bt = np.ascontiguousarray(nodes.T)
    A = [At[off[i]:off[i] + sz[i]] for i in range(k + 1)]
    B = [Bt[off[j]:off[j] + sz[j]] for j in range(k + 1)]
    m, n = At.shape[1], Bt.shape[1]
    acc = np.empty((sz[k], m, n))
    if k == 1:
        return np.add(B[1][:, None, :], A[1][:, :, None], out=acc)

    def factors(i):  # of A_i ⊗ B_{k−i}, broadcast to (d^i, d^{k−i}, m, n)
        return A[i][:, None, :, None], B[k - i][None, :, None, :]

    np.multiply(*factors(1), out=acc.reshape(sz[1], sz[k - 1], m, n))
    acc += B[k][:, None, :]
    for i in range(2, k):
        acc += np.multiply(*factors(i)).reshape(sz[k], m, n)
    acc += A[k][:, :, None]
    return acc


def _square_sum(planes):
    """Σ_c planes[c]² by a halving tree, in place; returns plane 0.

    The c squared planes are padded to a power of two P, then plane i +=
    plane i + P/2 for each i that has a partner, and so on down to one
    plane.  For c ≤ 4 this is the order of NumPy's `einsum("mnc,mnc->mn")`
    on x86-64 (2 lanes: (p0 + p2) + (p1 + p3), and (p0 + p2) + p1 for
    c = 3); for larger c that order depends on the SIMD dispatch and uses
    FMA, so this one is fixed instead, independent of the CPU.  A sum that
    overflows reads inf without a warning, as it does from einsum."""
    c = planes.shape[0]
    with np.errstate(over="ignore"):
        np.square(planes, out=planes)
        while c > 1:
            half = 1 << ((c - 1).bit_length() - 1)
            planes[:c - half] += planes[half:c]
            c = half
    return planes[0]


def _scaled_norms(cols):
    """Euclidean norms of the (c, K) coefficient columns, each column scaled
    by its largest magnitude before it is squared, so that no square
    overflows; a column with a non-finite coefficient reads inf."""
    scale = np.abs(cols).max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        unit = cols / np.where(scale > 0, scale, 1.0)
        norms = scale * np.sqrt(_square_sum(unit))
    return np.where(np.isfinite(cols).all(axis=0), norms, np.inf)


def hom_dist_block(inv_rows, nodes, d, N):
    """Homogeneous norms of increments inv_rows[u] ⊗ nodes[v]; shape (m, n)."""
    out = np.zeros((inv_rows.shape[0], nodes.shape[0]))
    for k in range(1, N + 1):
        ss = _square_sum(_increment_planes(inv_rows, nodes, d, N, k))
        ss **= 0.5 / k
        out += ss
        del ss  # and its planes, before the next level's are built
    over = np.isinf(out)
    if over.any():  # rare: a sum of squares overflowed; rebuild those entries
        fixed = np.zeros(np.count_nonzero(over))
        for k in range(1, N + 1):
            norms = _scaled_norms(_increment_planes(inv_rows, nodes, d, N, k)[:, over])
            with np.errstate(over="ignore"):
                fixed += norms ** (1.0 / k)
        out[over] = fixed
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
    lev = _increment_planes(inv1, nodes1, d, N, k)
    lev -= _increment_planes(inv2, nodes2, d, N, k)
    out = np.sqrt(_square_sum(lev))
    over = np.isinf(out)
    if over.any():  # rare: a sum of squares overflowed; rebuild those entries
        out[over] = _scaled_norms(_increment_planes(inv1, nodes1, d, N, k)[:, over]
                                  - _increment_planes(inv2, nodes2, d, N, k)[:, over])
    return out


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


def partition_push_rows(best, r0, w):
    """Partition DP, row form: best[u+1:] = max(best[u+1:], best[u] + w[u, u+1:])
    in place for the rows u = r0, r0 + 1, … of an upper block, where w[i, j]
    weighs the pair (r0 + i, r0 + j) and best[v] is the best sum over
    partitions of [0, v] so far.  The candidates are the float additions of
    a pull over the columns, and max is exact, so the result is bitwise the
    same."""
    for i in range(w.shape[0]):
        u = r0 + i
        later = best[u + 1:]
        np.maximum(later, best[u] + w[i, i + 1:], out=later)


def partition_dp_max(w):
    """Max over partitions 0 = m_0 < … < m_r = n−1 of Σ w[m_i, m_{i+1}]."""
    n = w.shape[0]
    if n < 2:
        return 0.0
    best = np.full(n, -np.inf)
    best[0] = 0.0
    partition_push_rows(best, 0, w)
    return float(best[n - 1])


def interval_push_rows(T, r0, w):
    """Interval DP, row form: T[:u+1, u+1:] = max(T[:u+1, u+1:], T[:u+1, u] + w[u, u+1:])
    in place for the rows u = r0, r0 + 1, … of an upper block, where w[i, j]
    weighs the pair (r0 + i, r0 + j).  T starts at zero and its rows are pushed
    in order from row 0, so row u is first written, from −inf, at its own push.
    The candidates are those of one np.max per entry and max is exact."""
    for i in range(w.shape[0]):
        u = r0 + i
        T[u, u + 1:] = -np.inf
        later = T[:u + 1, u + 1:]
        np.maximum(later, T[:u + 1, u, None] + w[i, i + 1:], out=later)


def interval_dp_table(w):
    """T[a, b] = partition_dp_max of w restricted to [a, b], for all a ≤ b."""
    T = np.zeros(w.shape)
    interval_push_rows(T, 0, w)
    return T
