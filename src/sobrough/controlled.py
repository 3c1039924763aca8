"""Controlled paths of Sobolev type at level 2: remainders, the two
remainder norms (partition-variation and dyadic), the controlled-path
norm, composition with smooth polynomial maps, and rough integration
by compensated Riemann sums on dyadic grids.

A controlled pair (Y, Y') has Y on the grid with values of any shape
``vshape`` and Y' of shape ``vshape + (d,)``; the remainder is
R_{s,t} = Y_t - Y_s - Y'_s x_{s,t} with x the level-1 driver increment.
Integration requires values in L(R^d, R^w), i.e. vshape = (w, d).

`_remainder_at` forms the remainder on any index pairs; `remainder` takes all
grid pairs, an (n, n, ...) array, from it for `rough_integral`.  The Picard
solver builds no pair array: per iteration, the integral path (O(n)) and the
dyadic remainders (O(n log n)) for ||R||_hatW, while ||R||_tildeV streams the
remainder one row block at a time.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fields import PolyVectorField
from .paths import (IntervalFunction, PathError, SampledRoughPath, VectorPath,
                    _check_admissible, _dyadic_sum, _interval_table, _magnitudes,
                    _mixed_variation, sobolev_norm_dyadic)

#: derivative self-test threshold for smooth maps (relative, vs finite differences)
SELF_TEST_TOL = 1e-6

SmoothMap = PolyVectorField


class NonFiniteError(PathError):
    """Controlled-path values that are not finite."""


class ControlledPath:
    """Pair (Y, Y') on the grid of a level-2 rough path X."""

    def __init__(self, X: SampledRoughPath, Y: np.ndarray, Yprime: np.ndarray):
        Y = np.asarray(Y, dtype=np.float64)
        Yprime = np.asarray(Yprime, dtype=np.float64)
        n = X.n_nodes
        if Y.ndim < 2 or Y.shape[0] != n:
            raise PathError(f"Y must be (n_nodes, ...) with n_nodes={n}")
        if Yprime.shape != Y.shape + (X.alg.dim,):
            raise PathError(f"Yprime shape {Yprime.shape}, expected {Y.shape + (X.alg.dim,)}")
        if not (np.all(np.isfinite(Y)) and np.all(np.isfinite(Yprime))):
            raise NonFiniteError("non-finite controlled-path values")
        self.X = X
        self.Y = Y
        self.Yprime = Yprime

    @property
    def vshape(self) -> tuple:
        return self.Y.shape[1:]

    def sub(self, other: "ControlledPath") -> "ControlledPath":
        if other.X is not self.X:
            raise PathError("difference pairs must share the driver")
        return ControlledPath(self.X, self.Y - other.Y, self.Yprime - other.Yprime)


def coordinate_controlled(X: SampledRoughPath) -> ControlledPath:
    """The canonical pair (pi_1 X, Id): exact Gubinelli derivative, zero remainder."""
    d = X.alg.dim
    x1 = X.nodes[:, X.alg.slice(1)].copy()
    Yp = np.tile(np.eye(d), (X.n_nodes, 1, 1))
    return ControlledPath(X, x1, Yp)


def _remainder_at(cp: ControlledPath, u, v) -> np.ndarray:
    """R_{u,v} = Y_{u,v} - Y'_u x_{u,v} for grid indices u and v (index arrays
    or slices) whose selections broadcast to one shape S; the result has
    shape S + vshape.  The only place the linear term Y'_u x_{u,v} is formed."""
    x1 = cp.X.nodes[:, cp.X.alg.slice(1)]
    xinc = x1[v] - x1[u]
    xinc = xinc.reshape(xinc.shape[:-1] + (1,) * len(cp.vshape) + xinc.shape[-1:])
    lin = np.einsum("...j,...j->...", cp.Yprime[u], xinc)
    del xinc
    # built in place: R and lin are the only result-sized arrays alive at once
    R = cp.Y[v] - cp.Y[u]
    R -= lin
    return R


def _upper_remainder(cp: ControlledPath, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """R on the pairs [r0, r1) x [c0, c1), zero on the pairs u >= v."""
    R = _remainder_at(cp, np.s_[r0:r1, None], np.s_[c0:c1])
    lower = np.tri(r1 - r0, c1 - c0, r0 - c0, dtype=bool)
    np.copyto(R, 0.0, where=lower.reshape(lower.shape + (1,) * len(cp.vshape)))
    return R


def remainder(cp: ControlledPath) -> IntervalFunction:
    """R^Y on all grid intervals: R_{s,t} = Y_{s,t} - Y'_s x_{s,t}."""
    n = cp.X.n_nodes
    return IntervalFunction(n, pair=_upper_remainder(cp, 0, n, 0, n))


def _dyadic_remainder(cp: ControlledPath) -> IntervalFunction:
    """R^Y on the dyadic intervals [u, u+s] only."""
    X = cp.X
    levels = []
    for j in range(X.depth + 1):
        stride = 1 << (X.depth - j)
        levels.append(_remainder_at(cp, np.s_[:-1:stride], np.s_[stride::stride]))
    return IntervalFunction.from_dyadic(levels)


def remainder_norm_tildeV(R: IntervalFunction | ControlledPath, alpha: float, p: float) -> float:
    """Mixed variation norm of a two-parameter function:

        ( sup_P sum_{[u,v] in P} ||R||_{1/(2 alpha)-var;[u,v]}^{p/2} / |v-u|^{alpha p - 1} )^{2/p}

    with the inner variation taken over grid partitions of [u, v].  Given a
    ControlledPath, its remainder is streamed one row block at a time and
    the pair array is never built."""
    _check_admissible(alpha, p)
    if isinstance(R, ControlledPath):
        n = R.X.n_nodes

        def block(*span):
            pair = _upper_remainder(R, *span)
            if not np.all(np.isfinite(pair)):
                raise PathError("non-finite interval values")
            return _magnitudes(pair)
    else:
        n, block = R.n_nodes, R._pair_norm_block
    # inner[u,v]^(2 alpha) is the 1/(2 alpha)-variation of R over [u, v]
    inner = _interval_table(lambda *span: block(*span) ** (1.0 / (2.0 * alpha)), n)
    return _mixed_variation(inner, alpha, p) ** (2.0 / p)


def remainder_norm_hatW(R: IntervalFunction, alpha: float, p: float) -> float:
    """Dyadic remainder norm

        ( sum_{j<=J} 2^{j(alpha p - 1)} sum_i |R on level-j interval i|^{p/2} )^{2/p}
    """
    _check_admissible(alpha, p)
    mags = (np.linalg.norm(R.dyadic_level(j).reshape(1 << j, -1), axis=1)
            for j in range(R.depth + 1))
    return _dyadic_sum(mags, alpha, p, 2)[0] ** (2.0 / p)


def controlled_norm(cp: ControlledPath, alpha: float | None = None,
                    p: float | None = None, cutoff: float = math.inf) -> float:
    """|Y_0| + |Y'_0| + ||Y'||_{W^alpha_p (dyadic)} + ||R||_tildeV + ||R||_hatW.

    Every term is >= 0 and rounding is monotone, so the sum without the
    O(n^3) ||R||_tildeV term never exceeds the full sum.  When that partial
    sum already reaches `cutoff` it is returned and ||R||_tildeV is not
    computed; a result below `cutoff` is always the full norm.

    ||R||_hatW reads the dyadic remainders only and ||R||_tildeV streams the
    remainder in row blocks: no pair remainder is built."""
    alpha = cp.X.alpha if alpha is None else alpha
    p = cp.X.p if p is None else p
    yp = sobolev_norm_dyadic(VectorPath(cp.Yprime.reshape(cp.X.n_nodes, -1)), alpha, p).value
    head = float(np.linalg.norm(cp.Y[0])) + float(np.linalg.norm(cp.Yprime[0])) + yp
    hat = remainder_norm_hatW(_dyadic_remainder(cp), alpha, p)
    if head + hat >= cutoff:
        return head + hat
    return head + remainder_norm_tildeV(cp, alpha, p) + hat


def compose_smooth(F: SmoothMap, cp: ControlledPath) -> ControlledPath:
    """(F(Y), DF(Y) Y') for a polynomial F: R^e -> L(R^d, R^e)."""
    if cp.vshape != (F.e,):
        raise PathError(f"controlled path has vshape {cp.vshape}, field expects ({F.e},)")
    if F.self_test() > SELF_TEST_TOL:
        raise PathError("smooth map failed its derivative self-test")
    FY = F.eval_batch(cp.Y)                                     # (n, e, d)
    DF = F.fmap.jacobian().eval_batch(cp.Y)                     # (n, e, d, e)
    FpY = np.einsum("naib,nbj->naij", DF, cp.Yprime)            # (n, e, d, d)
    return ControlledPath(cp.X, FY, FpY)


class RoughIntegral(NamedTuple):
    values: np.ndarray          # integral path I on the grid, I[0] = 0
    gubinelli: np.ndarray       # the integrand Y: Gubinelli derivative of I
    remainder: IntervalFunction  # R^I_{s,t} = I_{s,t} - Y_s pi_1(X_{s,t})
    refinement: np.ndarray      # full-interval compensated sums at depths 0..J
    refinement_order: float     # fitted decay order of coarse-to-fine increments


def _compensated_terms(cp: ControlledPath, j: int) -> np.ndarray:
    """Per-interval terms Y_u pi_1(X_{u,v}) + Y'_u pi_2(X_{u,v}) at dyadic level j."""
    X = cp.X
    d = X.alg.dim
    incs = X.dyadic_increments(j)
    pi1 = incs[:, X.alg.slice(1)]
    pi2 = incs[:, X.alg.slice(2)].reshape(-1, d, d)
    stride = 1 << (X.depth - j)
    Yl = cp.Y[:-1:stride]
    Ypl = cp.Yprime[:-1:stride]
    return (np.einsum("n...j,nj->n...", Yl, pi1)
            + np.einsum("n...kj,njk->n...", Ypl, pi2))


def _integral_values(cp: ControlledPath) -> np.ndarray:
    """The integral path I on the grid, I[0] = 0, without its remainder."""
    X = cp.X
    if X.alg.level != 2:
        raise PathError("rough integration needs a level-2 driver")
    if X.depth == 0:
        raise PathError("depth-0 grid admits no refinement")
    if len(cp.vshape) < 2 or cp.vshape[-1] != X.alg.dim:
        raise PathError(f"integrand values must lie in L(R^{X.alg.dim}, R^w), got vshape {cp.vshape}")
    terms = _compensated_terms(cp, X.depth)
    values = np.zeros((X.n_nodes,) + cp.vshape[:-1])
    np.cumsum(terms, axis=0, out=values[1:])
    return values


def rough_integral(cp: ControlledPath) -> RoughIntegral:
    """Rough integral of a controlled integrand with values in L(R^d, R^w),
    as the deepest-grid compensated Riemann sum

        I_t = sum over finest intervals [u,v] <= t of  Y_u pi_1(X_{u,v}) + Y'_u pi_2(X_{u,v}).

    Its remainder R^I_{s,t} = I_{s,t} - Y_s pi_1(X_{s,t}) is the pair remainder
    of the controlled path (I, Y), built in place by `remainder`.  The
    refinement diagnostic records the full-interval sums at every dyadic
    depth; on exact lifts their increments decay at the sewing rate."""
    X = cp.X
    values = _integral_values(cp)
    R = remainder(ControlledPath(X, values, cp.Y))
    refinement = np.zeros((X.depth + 1,) + cp.vshape[:-1])
    for j in range(X.depth + 1):
        refinement[j] = np.sum(_compensated_terms(cp, j), axis=0)
    deltas = np.linalg.norm(
        (refinement[1:] - refinement[:-1]).reshape(X.depth, -1), axis=1)
    # median of successive log-ratios: robust to the occasional
    # accidentally-small delta (e.g. loops with zero net increment)
    rates = [math.log2(a / b) for a, b in zip(deltas[:-1], deltas[1:])
             if a > 0 and b > 0]
    order = float(np.median(rates)) if rates else math.nan
    return RoughIntegral(values, cp.Y, R, refinement, order)
