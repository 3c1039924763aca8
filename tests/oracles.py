"""Independent brute-force oracles used by the tests.

The partition enumerators sum interval weights left to right, which is the
same float association the library's dynamic programs produce, so small
instances must agree bitwise.  No library search code is reused here; for
cross-checks that share pairwise weight matrices, only the weight
computation is shared while the partition search is enumerated from
scratch.

The two solver references are the straightforward loops that the
library's solvers shortcut: Picard iteration through the public
`rough_integral`, with the full controlled norm of every difference pair
taken from its full pair remainder (`controlled_norm_pair`), and RK4 with
one driver-derivative call and one single-point field evaluation per
stage.  The kernel references after them are the per-element loops that
the NumPy kernels vectorise, one tensor product per Chen prefix row and one
`np.max` per interval table entry, and the partition DP in pull form, one
`np.max` over the column w[:j, j] per grid point j, where the library pushes
the rows of w into the later points, and the shuffle relations word by word
in Python floats, where the library checks a whole batch of elements with
array operations.  `interval_dp_table_diagonal` builds the interval table one
diagonal at a time over strided views of a transposed copy of w, and
`pair_norms_column_major` forms all pair magnitudes of a two-parameter
function in one column-major `einsum`, where the library pushes the rows of
w, and of the magnitudes, block by block.  The library must match all eight
bitwise.

The three path-norm references recompute every pair distance per call,
streaming row blocks or slicing the full distance matrix, where the
library reads each upper-triangle block row once for all three norms.
The two distance references build each level's full difference matrix
(`pair_level_diff_matrix`) and interval table again for every quantity that
reads them, and the outer weights out of place as an (n, n) array, where the
library streams each level's difference rows once into its table and forms
the outer weights one row block at a time.  The library must match these
five references bitwise too.

The three pair-remainder and embedding references are the code that the
library merged into one builder per quantity: the out-of-place pair
remainder, the integral's own in-place remainder block, and one
`partition_dp_max` per dyadic window of the embedding study, where the
library reads the interval table of the whole path.  The embedding
reference takes its integral control function from the library's
`integral_norm_interval_function`, where the study feeds the upper row
blocks of its interval table to the same control sums.  The library must
match them bitwise as well.  `integral_control_fsum` is the definition of
that control function: twice the `math.fsum` of the integral terms over the
upper triangle of each dyadic square, from the (n, n) distance matrix.  The
library sums each square by rounding arithmetic, so it must match it to a
stated relative tolerance, not bitwise.

The references at the end are the per-point and per-term forms of the
smoothness and pair-distance code: `sup_on_ball_per_point` rebuilds the
whole `jacobian` chain and evaluates it at one sample point at a time, where
the library builds D^order once per call and evaluates the ball sample in one
batch; `increment_levels_einsum` adds the `einsum` of every term of a
level-k increment to zeros, as an (m, n, d^k) array, where the library builds
the (d^k, m, n) coefficient planes and adds the two terms that carry a scalar
level by broadcasting.  `hom_dist_block_einsum` and `level_diff_block_einsum`
reduce those levels with `einsum`, as the pair kernels once did, and
`hom_dist_block_per_pair` and `level_diff_block_per_pair` sum each pair's
squared coefficients in Python floats, zero-padded to a power of two and
added pairwise.  The library must match the first, the second and the last
two bitwise, and the einsum kernels bitwise wherever d^k <= 4.
"""

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

import sobrough._kernels
from sobrough._kernels import _fallback
from sobrough.controlled import (ControlledPath, compose_smooth, remainder,
                                 remainder_norm_hatW, remainder_norm_tildeV,
                                 rough_integral)
from sobrough.fields import _ball_sample
from sobrough.harness import (_dyadic_windows, lift_smooth, make_walk_samples)
from sobrough.paths import (IntervalFunction, VectorPath, _dist_levels, control_check,
                            inhom_sobolev_dist, integral_norm_interval_function,
                            sobolev_norm_dyadic)
from sobrough.rde import BlowUpError, NonConvergenceError, RdeSolution


def index_partitions(a: int, b: int):
    """All grid partitions of [a, b]: increasing index tuples from a to b."""
    interior = range(a + 1, b)
    for r in range(b - a):
        for mids in itertools.combinations(interior, r):
            yield (a,) + mids + (b,)


def enum_partition_max(w: np.ndarray, a: int = 0, b: int | None = None) -> float:
    """Max over partitions of sum of w[u, v], summed left to right."""
    b = w.shape[0] - 1 if b is None else b
    if b - a < 1:
        return 0.0
    best = -math.inf
    for pts in index_partitions(a, b):
        s = 0.0
        for u, v in zip(pts[:-1], pts[1:]):
            s = s + w[u, v]
        if s > best:
            best = s
    return best


def enum_qvar(dist: np.ndarray, q: float) -> float:
    return enum_partition_max(dist**q) ** (1.0 / q)


def enum_inhom_qvar_level(diff: np.ndarray, alpha: float, k: int) -> float:
    return enum_partition_max(diff ** (1.0 / (alpha * k))) ** (alpha * k)


def _enum_inner_table(w: np.ndarray) -> np.ndarray:
    n = w.shape[0]
    inner = np.zeros((n, n))
    for u in range(n):
        for v in range(u + 1, n):
            inner[u, v] = enum_partition_max(w, u, v)
    return inner


def _outer_weights(inner: np.ndarray, alpha: float, p: float) -> np.ndarray:
    # same vectorised elementwise transform the library applies, so that
    # only the partition searches differ between library and oracle
    n = inner.shape[0]
    h = 1.0 / (n - 1)
    gaps = (np.arange(n)[None, :] - np.arange(n)[:, None]).astype(float)
    np.fill_diagonal(gaps, 1.0)
    return inner ** (alpha * p) / np.abs(gaps * h) ** (alpha * p - 1.0)


def enum_tildeV(mags: np.ndarray, alpha: float, p: float) -> float:
    """Exhaustive mixed variation norm of a two-parameter magnitude matrix."""
    inner = _enum_inner_table(mags ** (1.0 / (2.0 * alpha)))
    best = enum_partition_max(_outer_weights(inner, alpha, p))
    return best ** (2.0 / p)


def enum_mixed_level(diff: np.ndarray, alpha: float, p: float, k: int) -> float:
    """Exhaustive per-level mixed Hoelder-variation distance."""
    inner = _enum_inner_table(diff ** (1.0 / (alpha * k)))
    best = enum_partition_max(_outer_weights(inner, alpha, p))
    return best ** (k / p)


def trapezoid_stieltjes(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Riemann-Stieltjes integral of g against x by the trapezoid rule,
    both sampled on a common grid; g may be (n, w, d) and x (n, d)."""
    dx = np.diff(x, axis=0)
    mid = 0.5 * (g[:-1] + g[1:])
    return np.einsum("n...j,nj->...", mid, dx)


def central_difference(fn, y: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Jacobian of fn at y by central differences; shape out + (e,)."""
    out0 = np.asarray(fn(y))
    jac = np.empty(out0.shape + (y.shape[0],))
    for j in range(y.shape[0]):
        yp, ym = y.copy(), y.copy()
        yp[j] += step
        ym[j] -= step
        jac[..., j] = (np.asarray(fn(yp)) - np.asarray(fn(ym))) / (2 * step)
    return jac


def controlled_norm_pair(cp):
    """Full controlled norm with both remainder norms read from the full
    pair remainder `remainder(cp)`."""
    alpha, p = cp.X.alpha, cp.X.p
    R = remainder(cp)
    yp = sobolev_norm_dyadic(VectorPath(cp.Yprime.reshape(cp.X.n_nodes, -1)), alpha, p).value
    head = float(np.linalg.norm(cp.Y[0])) + float(np.linalg.norm(cp.Yprime[0])) + yp
    hat = remainder_norm_hatW(R, alpha, p)
    return head + remainder_norm_tildeV(R, alpha, p) + hat


def picard_full_norm(y0, V, X, tol: float = 1e-9, max_iter: int = 100):
    """Level-2 Picard iteration that evaluates the full controlled norm of
    every difference pair, built from public functions only.  Returns an
    RdeSolution with iterations and residual in meta, or raises
    NonConvergenceError."""
    y0 = np.asarray(y0, dtype=np.float64)
    Y = np.tile(y0, (X.n_nodes, 1))
    cp = ControlledPath(X, Y, V.eval_batch(Y))
    residual = math.inf
    for it in range(1, max_iter + 1):
        I = rough_integral(compose_smooth(V, cp))
        nxt = ControlledPath(X, y0[None, :] + I.values, V.eval_batch(cp.Y))
        residual = controlled_norm_pair(nxt.sub(cp))
        cp = nxt
        if residual < tol:
            return RdeSolution(cp.Y, X.depth, "picard",
                               {"iterations": it, "residual": residual})
    raise NonConvergenceError(residual, max_iter)


def rk4_per_substep(y0, V, driver, depth: int, refinement: int = 64):
    """Classical RK4 for dy/dt = V(y) xdot(t) with one scalar driver
    derivative and one single-point field evaluation per stage.  Returns
    (values on the grid, Richardson estimate against half the refinement)."""
    y0 = np.asarray(y0, dtype=np.float64)

    def integrate(nsub: int) -> np.ndarray:
        n = (1 << depth)
        hs = 1.0 / (n * nsub)
        vals = np.empty((n + 1, V.e))
        vals[0] = y0
        y = y0.astype(np.float64)
        for i in range(n):
            t = i / n
            for s in range(nsub):
                ts = t + s * hs

                def f(tt, yy):
                    return V(yy) @ driver.xdot(np.array([tt]))[0]

                k1 = f(ts, y)
                k2 = f(ts + hs / 2, y + hs * k1 / 2)
                k3 = f(ts + hs / 2, y + hs * k2 / 2)
                k4 = f(ts + hs, y + hs * k3)
                y = y + hs * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                if not np.all(np.isfinite(y)):
                    raise BlowUpError(i * nsub + s)
            vals[i + 1] = y
        return vals

    fine = integrate(refinement)
    half = integrate(max(refinement // 2, 1))
    return fine, float(np.max(np.abs(fine[-1] - half[-1]))) / (2**4 - 1)


def chen_prefix_per_row(segs, d, N, start=None):
    """Running left products with one truncated tensor product per row."""
    m, L = segs.shape
    out = np.zeros((m + 1, L))
    if start is None:
        out[0, 0] = 1.0
    else:
        out[0] = start
    for r in range(m):
        out[r + 1] = _fallback.rowwise_mul(out[r:r + 1], segs[r:r + 1], d, N)[0]
    return out


def interval_dp_table_per_cell(w):
    """Interval partition table with one `np.max` per entry T[a, b]."""
    n = w.shape[0]
    T = np.zeros((n, n))
    for a in range(n - 1):
        row = T[a]
        for b in range(a + 1, n):
            row[b] = np.max(row[a:b] + w[a:b, b])
    return T


def shuffle_violation_per_word(d, N, rows):
    """Worst |Sym(g_2) - g_1 g_1 / 2| and |g_ijk + g_jik + g_jki - g_i g_jk|
    over the rows and words, one Python float expression per word."""
    worst = 0.0
    for row in np.asarray(rows).tolist():
        g1, g2, g3 = row[1:1 + d], row[1 + d:1 + d + d * d], row[1 + d + d * d:]
        for i, j in itertools.product(range(d), repeat=2):
            if N >= 2:
                sym = 0.5 * (g2[i * d + j] + g2[j * d + i])
                worst = max(worst, abs(sym - 0.5 * (g1[i] * g1[j])))
            for k in range(d if N >= 3 else 0):
                lhs = (g3[(i * d + j) * d + k] + g3[(j * d + i) * d + k]) + g3[(j * d + k) * d + i]
                worst = max(worst, abs(lhs - g1[i] * g2[j * d + k]))
    return worst


def partition_dp_max_pull(w):
    """Max over partitions of [0, n-1] of the summed weights, pulled:
    dp[j] = np.max(dp[:j] + w[:j, j]), one column of w per grid point j."""
    n = w.shape[0]
    if n < 2:
        return 0.0
    dp = np.full(n, -np.inf)
    dp[0] = 0.0
    for j in range(1, n):
        dp[j] = np.max(dp[:j] + w[:j, j])
    return float(dp[n - 1])


def interval_dp_table_diagonal(w):
    """Interval partition table one diagonal g = 1, ..., n-1 at a time:
    T[a, a+g] = max_{j<g} T[a, a+j] + w[a+j, a+g] for all a at once, over
    strided views of T and of a C-contiguous copy of w transposed."""
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


def pair_norms_column_major(pair):
    """(n, n) Euclidean magnitudes of an (n, n, ...) pair array, reduced by
    one einsum into a C-contiguous (v, u) array and returned transposed."""
    n = pair.shape[0]
    flat = pair.reshape(n, n, -1)
    mags = np.einsum("uvc,uvc->vu", flat, flat, order="C")
    np.sqrt(mags, out=mags)
    return mags.T


_BLOCK = 128


def pair_level_diff_matrix(X1, X2, k, a, b):
    """Full (b - a, b - a) matrix of |pi_k(X1-increment - X2-increment)| over
    the window [a, b), column-major, filled by rows of level_diff_block."""
    out = np.empty((b - a, b - a), order="F")
    for r0 in range(a, b, _BLOCK):
        r1 = min(r0 + _BLOCK, b)
        out[r0 - a:r1 - a] = sobrough._kernels.level_diff_block(
            X1.inv_nodes[r0:r1], X1.nodes[a:b],
            X2.inv_nodes[r0:r1], X2.nodes[a:b],
            X1.alg.dim, X1.alg.level, k)
    return out


def holder_norm_streaming(grid, alpha, a, b):
    """Hoelder norm over the index window [a, b), full-width row blocks."""
    worst = 0.0
    for r0 in range(a, b, _BLOCK):
        r1 = min(r0 + _BLOCK, b)
        dist = grid.dist_block(r0, r1, a, b)
        gap = (np.arange(a, b)[None, :] - np.arange(r0, r1)[:, None]).astype(float)
        mask = gap > 0
        gap[~mask] = 1.0
        ratios = np.where(mask, dist / (gap * grid.h) ** alpha, 0.0)
        worst = max(worst, float(np.max(ratios)))
    return worst


def qvar_norm_full_matrix(grid, q, a, b):
    """q-variation over [a, b) from the window of the full distance matrix."""
    if b - a < 2:
        return 0.0
    dist = grid.dist_matrix(a, b)
    best = sobrough._kernels.partition_dp_max(np.ascontiguousarray(dist**q))
    return best ** (1.0 / q)


def sobolev_norm_integral_streaming(grid, alpha, p, a, b):
    """Integral Sobolev norm over [a, b), pair sum streamed in row blocks."""
    if b - a < 2:
        return 0.0
    expo, h = alpha * p + 1.0, grid.h
    parts = []
    for r0 in range(a, b, _BLOCK):
        r1 = min(r0 + _BLOCK, b)
        dist = grid.dist_block(r0, r1, r0, b)
        gap = (np.arange(r0, b)[None, :] - np.arange(r0, r1)[:, None]).astype(float)
        mask = gap > 0
        gap[~mask] = 1.0
        term = np.where(mask, dist**p * (gap * h) ** (-expo), 0.0)
        parts.append(float(np.sum(term)))
    s = math.fsum(parts)
    return (2.0 * s * h * h) ** (1.0 / p)


def mixed_dist_out_of_place(X1, X2, alpha, p):
    """(levels, value) of the mixed distance, each level's table and outer
    weights built out of place from a C-ordered difference matrix."""
    n = X1.n_nodes
    gaps = (np.arange(n)[None, :] - np.arange(n)[:, None]).astype(float)
    np.fill_diagonal(gaps, 1.0)
    levels = []
    for k in _dist_levels(alpha, X1.alg.level):
        w = np.ascontiguousarray(pair_level_diff_matrix(X1, X2, k, 0, n)) ** (1.0 / (alpha * k))
        inner = sobrough._kernels.interval_dp_table(np.ascontiguousarray(w))
        outer_w = inner ** (alpha * p) / np.abs(gaps * X1.h) ** (alpha * p - 1.0)
        best = sobrough._kernels.partition_dp_max(np.ascontiguousarray(outer_w))
        levels.append(best ** (k / p))
    return tuple(levels), max(levels)


def stability_controls_levels(X1, X2, alpha, p):
    """(omega levels, omega' levels, worst gap, superadditivity excess) of
    the stability controls, with every level difference matrix and interval
    table rebuilt after mixed_dist_out_of_place."""
    J, n = X1.depth, X1.n_nodes
    rho_hat = inhom_sobolev_dist(X1, X2, alpha, p)
    rho_mix, _ = mixed_dist_out_of_place(X1, X2, alpha, p)
    d1, d2 = X1.dist_matrix(0, n), X2.dist_matrix(0, n)
    t1 = sobrough._kernels.interval_dp_table(np.ascontiguousarray(d1 ** (1.0 / alpha)))
    t2 = sobrough._kernels.interval_dp_table(np.ascontiguousarray(d2 ** (1.0 / alpha)))
    ks = list(_dist_levels(alpha, X1.alg.level))
    mats = {k: np.ascontiguousarray(pair_level_diff_matrix(X1, X2, k, 0, n)) for k in ks}
    tables = {k: sobrough._kernels.interval_dp_table(mats[k] ** (1.0 / (alpha * k)))
              for k in ks}
    omega, omega_prime = [], []
    for j in range(J + 1):
        step = 1 << (J - j)
        lo = np.arange(0, n - 1, step)
        hi = lo + step
        om = t1[lo, hi] + t2[lo, hi]
        omp = d1[lo, hi] ** (1.0 / alpha) + d2[lo, hi] ** (1.0 / alpha)
        for idx, k in enumerate(ks):
            if rho_mix[idx] > 0:
                om = om + tables[k][lo, hi] / rho_mix[idx] ** (1.0 / (alpha * k))
            if rho_hat.levels[idx] > 0:
                omp = omp + (mats[k][lo, hi] / rho_hat.levels[idx]) ** (1.0 / (alpha * k))
        omega.append(om)
        omega_prime.append(omp)
    worst_gap = max(float(np.max(omega_prime[j] - omega[j])) for j in range(J + 1))
    return omega, omega_prime, worst_gap, control_check(IntervalFunction.from_dyadic(omega)).worst


def remainder_out_of_place(cp):
    """(n, n, *vshape) pair remainder Y_{s,t} - Y'_s x_{s,t}, built out of
    place and masked to the upper triangle with np.where."""
    x1 = cp.X.nodes[:, cp.X.alg.slice(1)]
    xinc = x1[None, :, :] - x1[:, None, :]
    lin = np.einsum("u...j,uvj->uv...", cp.Yprime, xinc)
    R = cp.Y[None, :, ...] - cp.Y[:, None, ...] - lin
    n = cp.X.n_nodes
    tri = np.triu(np.ones((n, n), dtype=bool), k=1)
    return np.where(tri.reshape((n, n) + (1,) * len(cp.vshape)), R, 0.0)


def integral_remainder_block(cp, values):
    """(n, n, *w) remainder I_{s,t} - Y_s x_{s,t} of the integral path
    `values` of the integrand cp, by the integral's own in-place block."""
    X = cp.X
    x1 = X.nodes[:, X.alg.slice(1)]
    xinc = x1[None, :, :] - x1[:, None, :]
    lin = np.einsum("u...j,uvj->uv...", cp.Y, xinc)
    del xinc
    RI = values[None, :, ...] - values[:, None, ...]
    RI -= lin
    del lin
    n = X.n_nodes
    lower = np.tri(n, dtype=bool)
    np.copyto(RI, 0.0, where=lower.reshape((n, n) + (1,) * (values.ndim - 1)))
    return RI


def integral_control_fsum(grid, alpha, p):
    """The dyadic levels of integral_norm_interval_function: on each dyadic
    [t_a, t_b], 2 h^2 times the math.fsum of d(X_u, X_v)^p / ((v - u) h)^{alpha p + 1}
    over a <= u < v <= b, from the (n, n) distance matrix."""
    n, J, h = grid.n_nodes, grid.depth, grid.h
    gap = np.arange(n)[None, :] - np.arange(n)[:, None]
    w = grid.dist_matrix(0, n) ** p / (np.maximum(gap, 1) * h) ** (alpha * p + 1.0)
    levels = []
    for j in range(J + 1):
        stride = 1 << (J - j)
        upper = np.triu_indices(stride + 1, 1)
        levels.append(np.array([2.0 * math.fsum(w[a:a + stride + 1, a:a + stride + 1][upper]) * h * h
                                for a in range(0, n - 1, stride)]))
    return levels


def embedding_ratios_per_window(cfg):
    """(calibration, held-out) ratios of the embedding study, with one
    partition_dp_max on a copied window of the distance matrix per dyadic
    interval, over the library's integral control function."""
    alpha, p = cfg.get("alpha", 0.4), cfg.get("p", 4.0)
    level, J = cfg.get("level", 2), cfg.get("depth", 7)
    seed, d = cfg.get("seed", 0), cfg.get("d", 2)
    q = 1.0 / alpha
    time_expo = 1.0 - 1.0 / (alpha * p)
    cal, held = [], []
    for i in range(cfg.get("n_paths", 40)):
        samples = make_walk_samples([seed, i], d, J, cfg.get("roughness", 0.6), J)
        X = lift_smooth(samples, level, J, alpha, p)
        dist = X.dist_matrix(0, X.n_nodes)
        omega = integral_norm_interval_function(X, alpha, p)
        for j, a, b in _dyadic_windows(J):
            w = np.ascontiguousarray(dist[a:b + 1, a:b + 1] ** q)
            lhs = sobrough._kernels.partition_dp_max(w)
            norm_p = float(omega.dyadic_level(j)[a >> (J - j)])
            rhs = norm_p ** (q / p) * ((b - a) * X.h) ** time_expo
            if rhs > 0:
                (cal if i % 2 == 0 else held).append(lhs / rhs)
    return cal, held


def derivative_tensor_recursive(pm, y, order: int) -> np.ndarray:
    """D^order at one point, with the `jacobian` chain rebuilt on every call."""
    if order == 0:
        return pm(y)
    inner = derivative_tensor_recursive(pm.jacobian(), y, order - 1)
    return np.moveaxis(inner, len(pm.out_shape), -1)


def sup_on_ball_per_point(pm, radius: float, order: int, n_samples: int = 96) -> float:
    """max Frobenius norm of D^order over the ball sample, with one
    `derivative_tensor_recursive` per sample point."""
    worst = 0.0
    for y in _ball_sample(pm.e_in, radius, n_samples):
        worst = max(worst, float(np.linalg.norm(derivative_tensor_recursive(pm, y, order))))
    return worst


def increment_levels_einsum(inv_rows, nodes, d, N, k):
    """Level k of every increment inv_rows[u] ⊗ nodes[v]: the `einsum` of
    each term A_i ⊗ B_{k-i}, i = 0, ..., k, added to zeros in order."""
    off, sz = _fallback.level_layout(d, N)
    m, n = inv_rows.shape[0], nodes.shape[0]
    acc = np.zeros((m, n, sz[k]))
    for i in range(k + 1):
        j = k - i
        a = inv_rows[:, off[i]:off[i] + sz[i]]
        b = nodes[:, off[j]:off[j] + sz[j]]
        acc += np.einsum("ma,nb->mnab", a, b).reshape(m, n, sz[k])
    return acc


def hom_dist_block_einsum(inv_rows, nodes, d, N):
    """Homogeneous norms of the increments, each level reduced by `einsum`."""
    out = np.zeros((inv_rows.shape[0], nodes.shape[0]))
    for k in range(1, N + 1):
        lev = increment_levels_einsum(inv_rows, nodes, d, N, k)
        out += np.einsum("mnc,mnc->mn", lev, lev) ** (0.5 / k)
    return out


def level_diff_block_einsum(inv1, nodes1, inv2, nodes2, d, N, k):
    """Level-k increment differences, reduced by `einsum`."""
    lev = increment_levels_einsum(inv1, nodes1, d, N, k) - increment_levels_einsum(
        inv2, nodes2, d, N, k)
    return np.sqrt(np.einsum("mnc,mnc->mn", lev, lev))


def _pairwise_square_sums(lev):
    """(m, n) sums of squares of lev[u, v, :], one pair at a time: the squares
    are padded with zeros to a power-of-two count, then added pairwise,
    first half to second half, until one is left."""
    m, n, c = lev.shape
    size = 1 << (c - 1).bit_length()
    out = np.empty((m, n))
    for u in range(m):
        for v in range(n):
            terms = [x * x for x in lev[u, v].tolist()] + [0.0] * (size - c)
            while len(terms) > 1:
                half = len(terms) // 2
                terms = [terms[i] + terms[i + half] for i in range(half)]
            out[u, v] = terms[0]
    return out


def hom_dist_block_per_pair(inv_rows, nodes, d, N):
    """Homogeneous norms of the increments from per-pair halving-tree sums."""
    out = np.zeros((inv_rows.shape[0], nodes.shape[0]))
    for k in range(1, N + 1):
        out += _pairwise_square_sums(increment_levels_einsum(inv_rows, nodes, d, N, k)) ** (0.5 / k)
    return out


def level_diff_block_per_pair(inv1, nodes1, inv2, nodes2, d, N, k):
    """Level-k increment differences from per-pair halving-tree sums."""
    lev = increment_levels_einsum(inv1, nodes1, d, N, k) - increment_levels_einsum(
        inv2, nodes2, d, N, k)
    return np.sqrt(_pairwise_square_sums(lev))
