"""RDE solvers on dyadic grids: the step-N Euler scheme and the level-2
Picard fixed-point solver built on controlled-path integration.

The Euler update sums operator products of the vector field against the
signature levels of the driver increment; the operator-product ordering
is fixed in fields.PolyVectorField (right-to-left directional derivatives)
and validated against scalar and classical-ODE oracles in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import GroupElement
from .controlled import (ControlledPath, SELF_TEST_TOL, _integral_values,
                         compose_smooth, controlled_norm)
from .fields import PolyVectorField
from .paths import PathError, SampledRoughPath


class BlowUpError(RuntimeError):
    """Non-finite state during stepping; carries the failing step index."""

    def __init__(self, step: int):
        super().__init__(f"solution blew up at step {step}")
        self.step = step


class NonConvergenceError(RuntimeError):
    """Picard iteration did not reach tolerance; carries the last residual."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"no fixed point after {iterations} iterations (residual {residual:.3e}); "
            "consider windowed_solve on shorter windows")
        self.residual = residual
        self.iterations = iterations


@dataclass
class RdeSolution:
    """Grid solution values plus solver metadata."""
    values: np.ndarray          # (n_steps + 1, e)
    step_depth: int
    scheme: str
    meta: dict = field(default_factory=dict)

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


def euler_step(V: PolyVectorField, y: np.ndarray, g: GroupElement) -> np.ndarray:
    """One step of the step-N Euler scheme:

        y + sum_{k=1}^{N} sum_words (V_{i_1}...V_{i_k} I)(y) pi_k(g)^{i_1..i_k}
    """
    y = np.asarray(y, dtype=np.float64)
    out = y.copy()
    for k in range(1, g.level + 1):
        Ek = V.level_map(k)(y)          # (e, d^k)
        out = out + Ek @ g.coeffs(k)
    return out


def solve_euler(y0, V: PolyVectorField, X: SampledRoughPath,
                step_depth: int | None = None) -> RdeSolution:
    """Iterate euler_step over the depth-j dyadic increments of X."""
    j = X.depth if step_depth is None else step_depth
    if not 0 <= j <= X.depth:
        raise PathError(f"step depth {j} outside 0..{X.depth}")
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (V.e,):
        raise PathError(f"initial value of shape {y0.shape}, field expects ({V.e},)")
    incs = X.dyadic_increments(j)
    n_steps = incs.shape[0]
    values = np.empty((n_steps + 1, V.e))
    values[0] = y0
    y = y0
    inc_norms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n_steps):
            g = GroupElement(X.alg, incs[m].copy())
            y = euler_step(V, y, g)
            if not np.all(np.isfinite(y)):
                raise BlowUpError(m)
            values[m + 1] = y
            inc_norms.append(float(np.linalg.norm(incs[m, X.alg.slice(1)])))
    return RdeSolution(values, j, "euler", {"step_increment_norms": inc_norms})


def solve_picard_level2(y0, V: PolyVectorField, X: SampledRoughPath,
                        tol: float = 1e-9, max_iter: int = 100) -> RdeSolution:
    """Fixed point of (Y, Y') -> (y0 + int V(Y) dX, V(Y)) at full grid depth,
    stopping when successive iterates differ by < tol in controlled norm.

    Each iteration builds the integral path and, for the residual, the
    remainder of the difference pair on the dyadic intervals: O(n log n)
    work and memory, no (n, n) array.  The residual first sums the cheap
    terms of the controlled norm, which bound it from below; the full norm,
    with its O(n^3) ||R||_tildeV term streamed by row blocks, is
    evaluated only when that bound is below `tol` or on the last iteration.
    The reported residual is always the full norm; if it is not finite at the
    last iteration, BlowUpError names the iteration from which it stayed so."""
    if X.alg.level != 2:
        raise PathError("the Picard solver is a level-2 construction")
    if V.self_test() > SELF_TEST_TOL:
        raise PathError("vector field failed its derivative self-test")
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (V.e,):
        raise PathError(f"initial value of shape {y0.shape}, field expects ({V.e},)")
    n = X.n_nodes
    Y = np.tile(y0, (n, 1))
    cp = ControlledPath(X, Y, V.eval_batch(Y))
    residual = math.inf
    finite_until = 0  # the last iteration with a finite residual
    for it in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                integrand = compose_smooth(V, cp)
                values = _integral_values(integrand)
            except PathError as exc:
                if "non-finite" in str(exc):
                    raise BlowUpError(it) from None
                raise
            Ynew = y0[None, :] + values
            if not np.all(np.isfinite(Ynew)):
                raise BlowUpError(it)
            nxt = ControlledPath(X, Ynew, integrand.Y)     # V(Y), evaluated once
            try:
                residual = controlled_norm(nxt.sub(cp), cutoff=tol if it < max_iter else math.inf)
            except OverflowError:  # a Python float ** (2/p) beyond the float range, p < 2
                residual = math.inf
        if math.isfinite(residual):
            finite_until = it
        cp = nxt
        if residual < tol:
            return RdeSolution(cp.Y, X.depth, "picard",
                               {"iterations": it, "residual": residual})
    if finite_until < max_iter:
        raise BlowUpError(finite_until + 1)
    raise NonConvergenceError(residual, max_iter)


def _window_subpath(X: SampledRoughPath, a: int, b: int) -> SampledRoughPath:
    """Relative path X_a^{-1} (x) X_t on [t_a, t_b], reparametrised to [0, 1].

    RDE solutions are invariant under this reparametrisation, so window
    solutions paste into a global one.  Node 0, X_a^{-1} (x) X_a, is the
    identity by definition; it is set so, without the rounding residue of
    the product."""
    span = b - a
    depth = int(round(math.log2(span)))
    if (1 << depth) != span:
        raise PathError("window must span a power-of-two number of steps")
    rel = X.increment_packed(np.full(span + 1, a), np.arange(a, b + 1))
    rel[0] = 0.0
    rel[0, 0] = 1.0
    return SampledRoughPath(X.alg, depth, rel, X.alpha, X.p, trusted=True)


def windowed_solve(y0, V: PolyVectorField, X: SampledRoughPath,
                   splits=(), tol: float = 1e-9, max_iter: int = 100) -> RdeSolution:
    """Picard on consecutive windows, each started from the previous endpoint;
    the concatenation is continuous at the seams by construction."""
    idx = [0] + [X.index_of(t) for t in splits] + [X.n_nodes - 1]
    if any(b <= a for a, b in zip(idx[:-1], idx[1:])):
        raise PathError(f"splits {splits} are not strictly increasing interior times")
    y0 = np.asarray(y0, dtype=np.float64)
    pieces = []
    iters = []
    y = y0
    for a, b in zip(idx[:-1], idx[1:]):
        sub = _window_subpath(X, a, b)
        sol = solve_picard_level2(y, V, sub, tol=tol, max_iter=max_iter)
        pieces.append(sol.values if a == 0 else sol.values[1:])
        iters.append(sol.meta["iterations"])
        y = sol.values[-1]
    values = np.vstack(pieces)
    return RdeSolution(values, X.depth, "picard-windowed",
                       {"windows": len(iters), "iterations": iters})
