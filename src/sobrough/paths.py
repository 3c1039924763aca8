"""Sampled group-valued paths on dyadic grids and the norms/distances on them.

Paths live on the uniform grid t_i = i * 2^-J of [0, 1].  Partition suprema
are taken over grid points only ("grid variation"), which is exact for
grid-sampled data.  The double-integral Sobolev norm is approximated by the
off-diagonal grid double sum with cell weight (2^-J)^2; dyadic sums truncate
at the path's depth J.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _kernels
from . import algebra
from .algebra import GroupElement, TensorAlgebra

#: relative slack for superadditivity checks (absorbs quadrature noise)
CTRL_TOL = 1e-9

_BLOCK = 128


class PathError(ValueError):
    """Rejected path input: grid mismatch, bad window, bad parameters."""


def _floor_bracket(r: float) -> int:
    """[r] = sup{n : n <= r}."""
    return int(math.floor(r + 1e-12))


def _check_admissible(alpha: float, p: float, finite: bool = False):
    """Reject all but 0 < alpha < 1, p > 1, alpha > 1/p (and p < inf if `finite`)."""
    if not (0.0 < alpha < 1.0 and 1.0 < p and alpha > 1.0 / p
            and not (finite and p == math.inf)):
        raise PathError(f"inadmissible parameters alpha={alpha}, p={p}")


class _UniformGrid:
    """Times i h, i = 0 .. n_nodes - 1, with h = 1 / (n_nodes - 1)."""

    @property
    def h(self) -> float:
        return 1.0 / (self.n_nodes - 1)

    def index_of(self, t: float) -> int:
        n = self.n_nodes
        x = t * (n - 1)
        i = int(round(x))
        if abs(x - i) > 1e-6 or not (0 <= i < n):
            raise PathError(f"time {t} is not a point of the {n}-node grid on [0, 1]")
        return i


class SampledRoughPath(_UniformGrid):
    """Group-valued path sampled on the dyadic grid of depth J.

    nodes[0] is the identity; node i is the running signature over [0, t_i],
    so the group increment between grid times is nodes[u]^-1 (x) nodes[v].
    """

    def __init__(self, alg: TensorAlgebra, depth: int, nodes: np.ndarray,
                 alpha: float, p: float, trusted: bool = False):
        n = (1 << depth) + 1
        nodes = np.ascontiguousarray(nodes, dtype=np.float64)
        if nodes.shape != (n, alg.length):
            raise PathError(f"expected {n} packed nodes of length {alg.length}, got {nodes.shape}")
        if not np.all(np.isfinite(nodes)):
            raise PathError("non-finite node coefficients")
        _check_admissible(alpha, p)
        ident = np.zeros(alg.length)
        ident[0] = 1.0
        if not np.array_equal(nodes[0], ident):
            raise PathError("nodes[0] must be the identity")
        if np.any(nodes[:, 0] != 1.0):
            raise PathError("every node must have scalar level 1")
        self.alg = alg
        self.depth = depth
        self.alpha = float(alpha)
        self.p = float(p)
        self.nodes = nodes
        self.nodes.setflags(write=False)
        self._inv_cache = None
        self._dist_cache = None  # never set; the benchmark's tracer reads it
        self._dyadic_cache = {}
        if not trusted:
            self._validate_geometricity()

    def _validate_geometricity(self):
        if self.alg.level > 3:
            raise PathError("cannot verify geometricity for N > 3; construct via signatures")
        worst = algebra.shuffle_violation(self.alg, self.nodes)
        if worst > algebra.GEO_TOL:
            raise PathError(f"nodes fail geometricity check: violation {worst:.3e}")

    # ------------------------------------------------------------------ grid

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.h

    # ----------------------------------------------------------- group views

    def node(self, i: int) -> GroupElement:
        return GroupElement(self.alg, self.nodes[i].copy())

    @property
    def inv_nodes(self) -> np.ndarray:
        if self._inv_cache is None:
            inv = _kernels.inverse_batch(self.nodes, self.alg.dim, self.alg.level)
            inv.setflags(write=False)
            self._inv_cache = inv
        return self._inv_cache

    def increment_packed(self, rows, cols) -> np.ndarray:
        """Packed group increments nodes[rows]^-1 (x) nodes[cols], row-wise."""
        return _kernels.rowwise_mul(self.inv_nodes[rows], self.nodes[cols],
                                    self.alg.dim, self.alg.level)

    def increment(self, i: int, j: int) -> GroupElement:
        return GroupElement(self.alg, self.increment_packed([i], [j])[0])

    def dist_block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        return _kernels.hom_dist_block(self.inv_nodes[r0:r1], self.nodes[c0:c1],
                                       self.alg.dim, self.alg.level)

    def dist_matrix(self, i0: int, i1: int) -> np.ndarray:
        """Homogeneous-norm increment distances over the window [i0, i1)."""
        return _kernels.hom_dist_matrix(self.nodes, self.inv_nodes,
                                        self.alg.dim, self.alg.level, i0, i1)

    def dyadic_increments(self, j: int) -> np.ndarray:
        """Packed increments over the 2^j intervals of dyadic level j."""
        if j not in self._dyadic_cache:
            stride = 1 << (self.depth - j)
            idx = np.arange(0, self.n_nodes, stride)
            incs = self.increment_packed(idx[:-1], idx[1:])
            incs.setflags(write=False)
            self._dyadic_cache[j] = incs
        return self._dyadic_cache[j]

    def dyadic_dists(self, j: int) -> np.ndarray:
        incs = self.dyadic_increments(j)
        out = np.zeros(incs.shape[0])
        for k in range(1, self.alg.level + 1):
            block = incs[:, self.alg.slice(k)]
            out += np.einsum("nc,nc->n", block, block) ** (0.5 / k)
        return out

    def subsample(self, depth: int) -> "SampledRoughPath":
        """Restriction to the coarser dyadic grid (running signatures restrict)."""
        if depth > self.depth:
            raise PathError(f"cannot refine depth {self.depth} to {depth}")
        stride = 1 << (self.depth - depth)
        return SampledRoughPath(self.alg, depth, self.nodes[::stride].copy(),
                                self.alpha, self.p, trusted=True)

    # ---------------------------------------------------------- constructors

    @classmethod
    def from_samples(cls, points, level: int, alpha: float, p: float,
                     depth: int | None = None) -> "SampledRoughPath":
        """Step-N lift of R^d samples on a dyadic grid (piecewise-linear signature)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2:
            raise PathError("samples must be a (n_nodes, d) array")
        n = pts.shape[0]
        J = int(round(math.log2(n - 1))) if depth is None else depth
        if (1 << J) + 1 != n:
            raise PathError(f"{n} samples do not fill a dyadic grid (need 2^J + 1)")
        alg = TensorAlgebra(pts.shape[1], level)
        packed = algebra.signature_path_packed(pts, alg)
        return cls(alg, J, packed, alpha, p, trusted=True)


class VectorPath(_UniformGrid):
    """Adapter giving an R^m-valued path on a uniform grid over [0, 1] the
    same norm interface (Euclidean increment distances).  Dyadic sums need
    2^J + 1 samples; the variation and Hoelder norms work on any grid."""

    def __init__(self, values: np.ndarray):
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, None]
        self.values = vals.reshape(vals.shape[0], -1)
        n = self.values.shape[0]
        if n < 2:
            raise PathError("a path needs at least two samples")
        J = int(round(math.log2(n - 1)))
        self.depth = J if (1 << J) + 1 == n else None

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    def dist_block(self, r0, r1, c0, c1) -> np.ndarray:
        diff = self.values[r0:r1, None, :] - self.values[None, c0:c1, :]
        dist = np.sqrt(np.einsum("mnc,mnc->mn", diff, diff))
        # the sum of squares overflows once a difference passes about 1.3e154;
        # recompute those entries with each difference scaled by its largest
        # magnitude, where the difference itself is finite
        over = np.isinf(dist)
        if over.any():
            big = diff[over]
            scale = np.abs(big).max(axis=1, keepdims=True)
            with np.errstate(over="ignore", invalid="ignore"):
                unit = big / scale
                fixed = scale[:, 0] * np.sqrt(np.einsum("kc,kc->k", unit, unit))
            dist[over] = np.where(np.isfinite(big).all(axis=1), fixed, np.inf)
        return dist

    def dist_matrix(self, i0: int, i1: int) -> np.ndarray:
        return self.dist_block(i0, i1, i0, i1)

    def dyadic_dists(self, j: int) -> np.ndarray:
        if self.depth is None:
            raise PathError(f"{self.n_nodes} samples do not fill a dyadic grid")
        stride = 1 << (self.depth - j)
        vals = self.values[::stride]
        return np.linalg.norm(np.diff(vals, axis=0), axis=1)


def _gap_powers(h: float, power: float, width: int) -> np.ndarray:
    """(g h)^power for the index gaps g = 1 - _BLOCK, ..., width - 1, where
    the gaps g <= 0 read 1 so that their powers stay finite; _block_view
    lays them out over an upper block."""
    gaps = np.arange(1 - _BLOCK, width, dtype=np.float64)
    gaps[:_BLOCK] = 1.0
    return (gaps * h) ** power


def _block_view(by_gap: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Read-only (rows, cols) view of _gap_powers over an upper block:
    view[u - r0, v - r0] is the entry of the gap v - u."""
    return sliding_window_view(by_gap, cols)[_BLOCK - rows:_BLOCK][::-1]


def _push_rows(push, out, block, a: int, b: int):
    """push(out, r0 - a, block(r0, r1, r0, b)) for the rows [r0, r1) of each _BLOCK
    rows of [a, b): every pair a <= u < v < b once, at [u - r0, v - r0] of its
    block, which is dropped before the next is computed.  Returns out."""
    for r0 in range(a, b, _BLOCK):
        push(out, r0 - a, block(r0, min(r0 + _BLOCK, b), r0, b))
    return out


def _partition_max(weights, a: int, b: int) -> float:
    """Max over grid partitions of [a, b - 1] of the summed pair weights."""
    best = np.full(b - a, -np.inf)
    best[0] = 0.0
    return float(_push_rows(_kernels.partition_push_rows, best, weights, a, b)[-1])


def _interval_table(weights, n: int) -> np.ndarray:
    """interval_dp_table of the pair weights on the grid [0, n)."""
    return _push_rows(_kernels.interval_push_rows, np.zeros((n, n)), weights, 0, n)


def _fsum(terms) -> float:
    """math.fsum of non-negative terms, or inf (as np.sum) where it overflows."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _dyadic_sum(mags, alpha: float, p: float, k: int = 1) -> tuple[float, float]:
    """(sum_j 2^{j(alpha p - 1)} sum_i m_{j,i}^{p/k}, its j = J term) over the
    magnitudes m_j = mags[j] on the 2^j dyadic intervals of level j = 0..J,
    the levels summed by _fsum."""
    terms = [2.0 ** (j * (alpha * p - 1.0)) * float(np.sum(m ** (p / k)))
             for j, m in enumerate(mags)]
    return _fsum(terms), terms[-1]


def _magnitudes(block: np.ndarray) -> np.ndarray:
    """Euclidean magnitudes over the value axes of a (rows, cols, ...) block."""
    flat = block.reshape(block.shape[:2] + (-1,))
    mags = np.einsum("uvc,uvc->uv", flat, flat)
    return np.sqrt(mags, out=mags)


def _as_grid(path):
    if isinstance(path, (SampledRoughPath, VectorPath)):
        return path
    return VectorPath(np.asarray(path, dtype=np.float64))


def _window_indices(grid, window) -> tuple[int, int]:
    if window is None:
        return 0, grid.n_nodes
    s, t = window
    a, b = grid.index_of(s), grid.index_of(t)
    if not a < b:
        raise PathError(f"empty window {window}")
    return a, b + 1


# ---------------------------------------------------------------------- norms

class PairNorms(NamedTuple):
    qvar: float | None
    holder: float | None
    integral: float | None


def pair_norms(path, qvar: float | None = None, holder: float | None = None,
               integral: tuple | None = None, window=None) -> PairNorms:
    """The norms that read pair distances, in one streamed pass over the
    window: qvar=q asks for qvar_norm, holder=alpha for holder_norm and
    integral=(alpha, p) for sobolev_norm_integral; the others read None.
    Each row block of distances d(X_u, X_v), u < v, is computed once and
    dropped once all asked-for norms have read it."""
    if qvar is not None and qvar < 1:
        raise PathError(f"q={qvar} must be >= 1")
    if holder is not None and not (0.0 < holder < 1.0):
        raise PathError(f"alpha={holder} outside (0, 1)")
    if integral is not None:
        alpha, p = integral
        _check_admissible(alpha, p, finite=True)
    grid = _as_grid(path)
    a, b = _window_indices(grid, window)
    best = np.full(b - a, -np.inf)
    best[0] = 0.0
    worst, parts = [0.0], []
    if holder is not None:
        spans = _gap_powers(grid.h, holder, b - a)
    if integral is not None:
        weights = _gap_powers(grid.h, -(alpha * p + 1.0), b - a)

    def read(best, r0, dist):
        if qvar is not None:
            _kernels.partition_push_rows(best, r0, dist**qvar)
        if holder is not None:
            worst.append(float(np.max(np.triu(dist / _block_view(spans, *dist.shape), 1))))
        if integral is not None:
            # the discarded pairs u >= v can overflow; a kept pair or a block
            # sum that overflows reads inf, as the total does in _fsum
            with np.errstate(over="ignore"):
                parts.append(float(np.sum(np.triu(dist**p * _block_view(weights, *dist.shape), 1))))

    _push_rows(read, best, grid.dist_block, a, b)
    return PairNorms(
        float(best[-1]) ** (1.0 / qvar) if qvar is not None else None,
        max(worst) if holder is not None else None,
        (2.0 * _fsum(parts) * grid.h * grid.h) ** (1.0 / p) if integral is not None else None)


def qvar_norm(path, q: float, window=None) -> float:
    """q-variation over grid partitions of the window, by dynamic programming."""
    return pair_norms(path, qvar=q, window=window).qvar


def holder_norm(path, alpha: float, window=None) -> float:
    """max over grid pairs u < v of d(X_u, X_v) / (v - u)^alpha."""
    return pair_norms(path, holder=alpha, window=window).holder


def sobolev_norm_integral(path, alpha: float, p: float, window=None) -> float:
    """Grid double-sum approximation of the fractional Sobolev norm,

        ( sum_{u != v} d(X_u, X_v)^p / |t_v - t_u|^{alpha p + 1} * h^2 )^{1/p},

    diagonal cells excluded (singular integrand, measure zero)."""
    if p == math.inf:
        return holder_norm(path, alpha, window)
    return pair_norms(path, integral=(alpha, p), window=window).integral


class DyadicNorm(NamedTuple):
    value: float
    tail: float  # norm contribution of the deepest level, for truncation diagnostics


def sobolev_norm_dyadic(path, alpha: float, p: float) -> DyadicNorm:
    """Discrete fractional Sobolev norm truncated at the path's depth:

        ( sum_{j=0}^{J} 2^{j(alpha p - 1)} sum_m d(X_{m 2^-j}, X_{(m+1) 2^-j})^p )^{1/p}
    """
    _check_admissible(alpha, p)
    grid = _as_grid(path)
    if grid.depth is None:
        raise PathError("dyadic norm needs 2^J + 1 samples")
    total, tail = _dyadic_sum((grid.dyadic_dists(j) for j in range(grid.depth + 1)), alpha, p)
    return DyadicNorm(total ** (1.0 / p), tail ** (1.0 / p))


# ------------------------------------------------------------------ distances

def _check_pair(X1: SampledRoughPath, X2: SampledRoughPath, alpha: float):
    if not isinstance(X1, SampledRoughPath) or not isinstance(X2, SampledRoughPath):
        raise PathError("inhomogeneous distances need SampledRoughPath inputs")
    if X1.alg != X2.alg or X1.depth != X2.depth:
        raise PathError("paths must share dimension, level and grid depth")
    if not (0.0 < alpha < 1.0):
        raise PathError(f"alpha={alpha} outside (0, 1)")


def _dist_levels(alpha: float, N: int) -> range:
    return range(1, min(N, _floor_bracket(1.0 / alpha)) + 1)


def _dyadic_level_diffs(X1: SampledRoughPath, X2: SampledRoughPath, k: int, j: int) -> np.ndarray:
    """|pi_k(X1-increment - X2-increment)| over the 2^j dyadic intervals."""
    sl = X1.alg.slice(k)
    lev = X1.dyadic_increments(j)[:, sl] - X2.dyadic_increments(j)[:, sl]
    return np.linalg.norm(lev, axis=1)


def _level_diffs(X1: SampledRoughPath, X2: SampledRoughPath, k: int,
                 r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """|pi_k(X1-increment - X2-increment)| on the pairs [r0, r1) x [c0, c1)."""
    return _kernels.level_diff_block(X1.inv_nodes[r0:r1], X1.nodes[c0:c1],
                                     X2.inv_nodes[r0:r1], X2.nodes[c0:c1],
                                     X1.alg.dim, X1.alg.level, k)


class InhomSobolevDist(NamedTuple):
    levels: tuple
    total: float


def inhom_sobolev_dist(X1: SampledRoughPath, X2: SampledRoughPath,
                       alpha: float, p: float) -> InhomSobolevDist:
    """Per-level dyadic Sobolev distances

        rho_k = ( sum_j 2^{j(alpha p - 1)} sum_i |pi_k(Delta^1 - Delta^2)|^{p/k} )^{k/p}

    over dyadic-interval increments Delta, and their sum over k = 1..[1/alpha]."""
    _check_pair(X1, X2, alpha)
    _check_admissible(alpha, p)
    levels = []
    for k in _dist_levels(alpha, X1.alg.level):
        diffs = (_dyadic_level_diffs(X1, X2, k, j) for j in range(X1.depth + 1))
        levels.append(_dyadic_sum(diffs, alpha, p, k)[0] ** (k / p))
    return InhomSobolevDist(tuple(levels), _fsum(levels))


def inhom_qvar_dist(X1: SampledRoughPath, X2: SampledRoughPath,
                    alpha: float, window=None) -> tuple:
    """Per-level inhomogeneous 1/alpha-variation distances over grid partitions:

        rho_k = ( sup_P sum |pi_k(Delta^1 - Delta^2)|^{1/(alpha k)} )^{alpha k}
    """
    _check_pair(X1, X2, alpha)
    a, b = _window_indices(X1, window)
    return tuple(_partition_max(lambda *span: _level_diffs(X1, X2, k, *span) ** (1.0 / (alpha * k)),
                                a, b) ** (alpha * k)
                 for k in _dist_levels(alpha, X1.alg.level))


def _mixed_variation(inner: np.ndarray, alpha: float, p: float) -> float:
    """sup_P sum_{[u,v] in P} inner[u,v]^(alpha p) / |v-u|^(alpha p - 1) over grid
    partitions of [0, 1], for an (n, n) interval table `inner`, which is only
    read: the outer weights are formed one upper row block at a time."""
    n = inner.shape[0]
    spans = _gap_powers(1.0 / (n - 1), alpha * p - 1.0, n)
    return _partition_max(lambda r0, r1, c0, c1: inner[r0:r1, c0:c1] ** (alpha * p)
                          / _block_view(spans, r1 - r0, c1 - c0), 0, n)


class MixedDist(NamedTuple):
    levels: tuple
    value: float
    qvar_levels: tuple  # inhom_qvar_dist over the whole grid, from the same tables


def mixed_dist(X1: SampledRoughPath, X2: SampledRoughPath,
               alpha: float, p: float) -> MixedDist:
    """Inhomogeneous mixed Hoelder-variation distance: per level k,

        sup_P ( sum_{[u,v] in P} rho_k,1/alpha-var;[u,v]^{p/k} / |v-u|^{alpha p - 1} )^{k/p}

    maximised over k.  Inner variations and the outer supremum are grid DPs."""
    _check_pair(X1, X2, alpha)
    _check_admissible(alpha, p)
    levels, qvar = [], []
    for k in _dist_levels(alpha, X1.alg.level):
        table = _interval_table(lambda *span: _level_diffs(X1, X2, k, *span) ** (1.0 / (alpha * k)),
                                X1.n_nodes)
        qvar.append(float(table[0, -1]) ** (alpha * k))
        levels.append(_mixed_variation(table, alpha, p) ** (k / p))
        del table  # before the next level's is built
    return MixedDist(tuple(levels), max(levels) if levels else 0.0, tuple(qvar))


# ----------------------------------------------------------- interval objects

class IntervalFunction:
    """Two-parameter function on grid intervals.

    Storage is either the full pair array (shape (n, n, *vshape), upper
    triangle meaningful) or the dyadic interval family only (one array of
    shape (2^j, *vshape) per level j <= J).
    """

    def __init__(self, n_nodes: int, pair: np.ndarray | None = None,
                 dyadic: list | None = None):
        J = int(round(math.log2(n_nodes - 1)))
        if (1 << J) + 1 != n_nodes:
            raise PathError("interval functions need a dyadic grid")
        self.n_nodes = n_nodes
        self.depth = J
        self.pair = pair
        self.dyadic = dyadic
        if pair is None and dyadic is None:
            raise PathError("no values given")
        if pair is not None and not np.all(np.isfinite(pair)):
            raise PathError("non-finite interval values")

    @classmethod
    def from_pair_matrix(cls, pair: np.ndarray) -> "IntervalFunction":
        return cls(pair.shape[0], pair=np.asarray(pair, dtype=np.float64))

    @classmethod
    def from_dyadic(cls, levels: list) -> "IntervalFunction":
        levels = [np.asarray(v, dtype=np.float64) for v in levels]
        J = len(levels) - 1
        for j, v in enumerate(levels):
            if v.shape[0] != (1 << j):
                raise PathError(f"dyadic level {j} has {v.shape[0]} values, expected {1 << j}")
            if not np.all(np.isfinite(v)):
                raise PathError(f"non-finite interval value at dyadic level {j}")
        return cls((1 << J) + 1, dyadic=levels)

    @classmethod
    def from_callable(cls, n_nodes: int, fn) -> "IntervalFunction":
        """fn(i, j) -> value on [t_i, t_j], evaluated on index grids."""
        ii, jj = np.meshgrid(np.arange(n_nodes), np.arange(n_nodes), indexing="ij")
        pair = np.asarray(fn(ii, jj), dtype=np.float64)
        tri = np.triu(np.ones((n_nodes, n_nodes), dtype=bool), k=1)
        pair = np.where(tri.reshape(tri.shape + (1,) * (pair.ndim - 2)), pair, 0.0)
        return cls(n_nodes, pair=pair)

    @property
    def vshape(self) -> tuple:
        if self.pair is not None:
            return self.pair.shape[2:]
        return self.dyadic[0].shape[1:]

    def dyadic_level(self, j: int) -> np.ndarray:
        if self.dyadic is not None:
            return self.dyadic[j]
        stride = 1 << (self.depth - j)
        idx = np.arange(0, self.n_nodes - 1, stride)
        return self.pair[idx, idx + stride]

    def pair_norms(self) -> np.ndarray:
        """(n, n) Euclidean magnitudes; requires full pair storage."""
        return self._pair_norm_block(0, self.n_nodes, 0, self.n_nodes)

    def _pair_norm_block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """Euclidean magnitudes on the pairs [r0, r1) x [c0, c1)."""
        if self.pair is None:
            raise PathError("this interval function stores dyadic values only")
        return _magnitudes(self.pair[r0:r1, c0:c1])

    def __sub__(self, other: "IntervalFunction") -> "IntervalFunction":
        if self.n_nodes != other.n_nodes:
            raise PathError("grid mismatch")
        if self.pair is not None and other.pair is not None:
            return IntervalFunction(self.n_nodes, pair=self.pair - other.pair)
        return IntervalFunction.from_dyadic(
            [self.dyadic_level(j) - other.dyadic_level(j) for j in range(self.depth + 1)])


class ControlReport(NamedTuple):
    ok: bool
    worst: float  # largest relative superadditivity excess over dyadic triples


def control_check(omega: IntervalFunction, tol: float = CTRL_TOL) -> ControlReport:
    """Superadditivity check on dyadic triples:
    omega(s,u) + omega(u,t) <= omega(s,t) * (1 + tol) for children [s,u], [u,t]."""
    worst = -math.inf
    for j in range(omega.depth):
        parent = np.asarray(omega.dyadic_level(j), dtype=np.float64)
        child = np.asarray(omega.dyadic_level(j + 1), dtype=np.float64)
        if parent.ndim != 1:
            raise PathError("control_check needs scalar interval values")
        ssum = child[0::2] + child[1::2]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(parent > 0, ssum / np.maximum(parent, 1e-300) - 1.0,
                           np.where(ssum > 0, math.inf, 0.0))
        worst = max(worst, float(np.max(rel)))
    if worst == -math.inf:
        worst = 0.0
    return ControlReport(worst <= tol, worst)


def _integral_control(grid, alpha: float, p: float):
    """(block, control): block(r0, r1, r0, n) returns grid.dist_block of an
    upper row block once it has added the block's integral terms into every
    dyadic square that holds them; control() is the interval function."""
    _check_admissible(alpha, p, finite=True)
    if grid.depth is None:
        raise PathError("dyadic interval family needs 2^J + 1 samples")
    J, n, h = grid.depth, grid.n_nodes, grid.h
    weights = _gap_powers(h, -(alpha * p + 1.0), n)
    sums = [np.zeros(1 << j) for j in range(J + 1)]

    def block(r0, r1, c0, c1):
        dist = grid.dist_block(r0, r1, c0, c1)
        # row u holds the pairs u < v <= b of its square [a, b] at each level:
        # the running sum of its terms from v = u + 1, read at v = b
        with np.errstate(over="ignore"):
            run = np.cumsum(np.triu(dist**p * _block_view(weights, *dist.shape), 1), axis=1)
        u = np.arange(r0, min(r1, n - 1))  # node n - 1 starts no pair
        for j, level in enumerate(sums):
            square = u >> (J - j)
            level += np.bincount(square, run[u - r0, ((square + 1) << (J - j)) - r0], level.size)
        return dist

    return block, lambda: IntervalFunction.from_dyadic([2.0 * s * h * h for s in sums])


def integral_norm_interval_function(path, alpha: float, p: float) -> IntervalFunction:
    """sobolev_norm_integral(.)^p restricted to the dyadic interval family (a
    control function; used with control_check): on each dyadic [t_a, t_b],
    2 h^2 sum_{a <= u < v <= b} d(X_u, X_v)^p / |t_v - t_u|^{alpha p + 1}, the
    upper triangle doubled as in sobolev_norm_integral.  Each square is summed
    from its own terms, so its value is exact up to rounding, short or long."""
    grid = _as_grid(path)
    block, control = _integral_control(grid, alpha, p)
    _push_rows(lambda *_: None, None, block, 0, grid.n_nodes)
    return control()
