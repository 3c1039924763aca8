"""Polynomial maps and vector fields with exact derivatives.

A PolyMap is a polynomial R^e -> R^(shape) stored as monomial terms
{exponent tuple: coefficient array}.  Vector fields V: R^e -> L(R^d, R^e)
wrap a PolyMap with output shape (e, d) and provide the directional
operator products used by the step-N Euler scheme, plus smoothness
surrogates evaluated on a stated ball (polynomials are not globally
bounded, so every bound carries its radius).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np


class FieldError(ValueError):
    pass


class PolyMap:
    """Polynomial map R^e_in -> R^(out_shape) with exact calculus."""

    def __init__(self, e_in: int, out_shape: tuple, terms: dict | None = None):
        self.e_in = int(e_in)
        self.out_shape = tuple(out_shape)
        self.terms = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(x) for x in exps)
            if len(exps) != self.e_in or any(x < 0 for x in exps):
                raise FieldError(f"bad exponent tuple {exps}")
            coeff = np.asarray(coeff, dtype=np.float64)
            if coeff.shape != self.out_shape:
                raise FieldError(f"coefficient shape {coeff.shape}, expected {self.out_shape}")
            if np.any(coeff != 0.0):
                self.terms[exps] = coeff

    # ----------------------------------------------------------- constructors

    @classmethod
    def zero(cls, e_in, out_shape):
        return cls(e_in, out_shape, {})

    @classmethod
    def constant(cls, e_in, value):
        value = np.asarray(value, dtype=np.float64)
        return cls(e_in, value.shape, {(0,) * e_in: value})

    @classmethod
    def identity(cls, e: int):
        terms = {}
        for j in range(e):
            exps = tuple(1 if i == j else 0 for i in range(e))
            coeff = np.zeros(e)
            coeff[j] = 1.0
            terms[exps] = coeff
        return cls(e, (e,), terms)

    # ------------------------------------------------------------- evaluation

    def __call__(self, y) -> np.ndarray:
        return self.eval_batch(np.asarray(y, dtype=np.float64)[None, :])[0]

    def eval_batch(self, Y: np.ndarray) -> np.ndarray:
        Y = np.asarray(Y, dtype=np.float64)
        out = np.zeros((Y.shape[0],) + self.out_shape)
        for exps, coeff in self.terms.items():
            mono = np.ones(Y.shape[0])
            for j, k in enumerate(exps):
                if k:
                    mono = mono * Y[:, j] ** k
            out += mono.reshape((-1,) + (1,) * len(self.out_shape)) * coeff
        return out

    def point_evaluator(self):
        """`__call__` for loops over many single points, on Python floats: a
        function taking the point as a list of floats and returning the value
        as a flat list in row-major order.

        It is generated once per map as straight-line code that does the
        float operations of `eval_batch` in the same order, so results are
        bit-identical: each monomial is 1.0 times its factors, left to right,
        and each output entry is 0.0 plus monomial times coefficient over the
        terms in dict order.  NumPy takes y**1 as y and y**2 as y*y, but
        higher powers through its vector `pow`, which can differ from libm's
        in the last bit: those stay NumPy `**` on the point's array."""
        size = int(np.prod(self.out_shape, dtype=int))
        coeffs = np.reshape([c.ravel() for c in self.terms.values()], (len(self.terms), size))
        # coefficients are bound by name, so that every float (inf, -0.0) is exact
        env = {"np": np}
        env.update((f"c{t}_{r}", float(c)) for (t, r), c in np.ndenumerate(coeffs))
        high = sorted({k for exps in self.terms for k in exps if k > 2})

        def factor(j: int, k: int) -> str:
            return f"y{j}" if k == 1 else f"(y{j} * y{j})" if k == 2 else f"p{k}[{j}]"

        # V(y) = 0.3 + 0.2 y - 0.15 y^2 (terms in that order) reads
        #     y0, = y; m0 = 1.0; m1 = 1.0 * y0; m2 = 1.0 * (y0 * y0)
        #     return [0.0 + m0 * c0_0 + m1 * c1_0 + m2 * c2_0]
        lines = ["def at(y):", f"    {''.join(f'y{j}, ' for j in range(self.e_in))}= y"]
        lines += [f"    p{k} = (np.array(y) ** {k}).tolist()" for k in high]
        for t, exps in enumerate(self.terms):
            lines.append(f"    m{t} = " + " * ".join(
                ["1.0"] + [factor(j, k) for j, k in enumerate(exps) if k]))
        entries = [" + ".join(["0.0"] + [f"m{t} * c{t}_{r}" for t in range(len(self.terms))])
                   for r in range(size)]
        lines.append(f"    return [{', '.join(entries)}]")
        exec("\n".join(lines), env)
        return env["at"]

    # --------------------------------------------------------------- calculus

    def partial(self, j: int) -> "PolyMap":
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[j] == 0:
                continue
            new = list(exps)
            new[j] -= 1
            key = tuple(new)
            add = exps[j] * coeff
            terms[key] = terms.get(key, 0) + add
        return PolyMap(self.e_in, self.out_shape, terms)

    def jacobian(self) -> "PolyMap":
        """Stacked partials; output shape out_shape + (e_in,)."""
        terms = {}
        for j in range(self.e_in):
            pj = self.partial(j)
            for exps, coeff in pj.terms.items():
                tgt = terms.setdefault(exps, np.zeros(self.out_shape + (self.e_in,)))
                tgt[..., j] += coeff
        return PolyMap(self.e_in, self.out_shape + (self.e_in,), terms)

    def directional(self, v: "PolyMap") -> "PolyMap":
        """Directional derivative along a polynomial field: sum_j (d self/dy_j) v_j."""
        if v.e_in != self.e_in or v.out_shape != (self.e_in,):
            raise FieldError("direction must map R^e -> R^e")
        out = PolyMap.zero(self.e_in, self.out_shape)
        for j in range(self.e_in):
            out = out + self.partial(j)._mul_scalar_poly(v.component(j))
        return out

    def component(self, idx) -> "PolyMap":
        """Scalar-valued component at a fixed output multi-index."""
        if not isinstance(idx, tuple):
            idx = (idx,)
        terms = {exps: np.asarray(coeff[idx]) for exps, coeff in self.terms.items()}
        return PolyMap(self.e_in, (), terms)

    def _mul_scalar_poly(self, q: "PolyMap") -> "PolyMap":
        if q.out_shape != ():
            raise FieldError("multiplier must be scalar-valued")
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in q.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                terms[key] = terms.get(key, 0) + ca * float(cb)
        return PolyMap(self.e_in, self.out_shape, terms)

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if other.e_in != self.e_in or other.out_shape != self.out_shape:
            raise FieldError("shape mismatch")
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return PolyMap(self.e_in, self.out_shape, terms)

    def scale(self, c: float) -> "PolyMap":
        return PolyMap(self.e_in, self.out_shape,
                       {exps: c * coeff for exps, coeff in self.terms.items()})

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        return self + other.scale(-1.0)

    def jacobians(self, order: int) -> list:
        """[self, D self, ..., D^order self] as polynomial maps, each the
        `jacobian` of the one before: the derivative axes of D^k are stacked
        last, in the order the derivatives are taken."""
        maps = [self]
        for _ in range(order):
            maps.append(maps[-1].jacobian())
        return maps

    def derivative_tensor(self, y, order: int) -> np.ndarray:
        """D^order at y; shape out_shape + (e_in,) * order.  Exact."""
        return _reverse_last_axes(self.jacobians(order)[-1](y), order)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sup_on_ball(self, radius: float, order: int, n_samples: int = 96) -> float:
        """max Frobenius norm of D^order over a deterministic sample of the
        closed ball B(0, radius).

        D^order is built once and evaluated on the whole sample by one
        `eval_batch`, whose rows are bit-identical to single-point calls.
        Each row's norm is taken on its own, in memory order, as it was for
        the `derivative_tensor` of one point."""
        values = self.jacobians(order)[-1].eval_batch(_ball_sample(self.e_in, radius, n_samples))
        worst = 0.0
        for row in values:
            worst = max(worst, float(np.linalg.norm(row)))
        return worst


def _reverse_last_axes(values: np.ndarray, order: int) -> np.ndarray:
    """View of D^order values from `jacobians` with the derivative axes listed
    last-taken first, the layout of `derivative_tensor`."""
    axes = list(range(values.ndim - order, values.ndim))
    return np.moveaxis(values, axes, axes[::-1])


def _ball_sample(e: int, radius: float, n: int) -> np.ndarray:
    """Deterministic sample of B(0, radius): fixed-seed directions at several radii,
    plus the centre and axis points."""
    rng = np.random.default_rng(1729)
    dirs = rng.standard_normal((n, e))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    radii = np.linspace(0.25, 1.0, 4)
    pts = [np.zeros(e)]
    for r in radii:
        pts.append(dirs[: n // 4] * (r * radius))
        dirs = np.roll(dirs, n // 4, axis=0)
    pts.extend(np.eye(e) * radius)
    pts.extend(-np.eye(e) * radius)
    return np.vstack([p if p.ndim == 2 else p[None, :] for p in pts])


class LipBound(NamedTuple):
    """Smoothness surrogate |.|_{Lip^gamma} evaluated on a ball."""
    value: float
    gamma: float
    radius: float
    derivative_sups: tuple


def derivative_self_test(pm: PolyMap, seed: int = 7, orders=(1, 2, 3),
                         step: float = 1e-5) -> float:
    """Max relative error of the analytic derivative tensors against central
    finite differences at random points."""
    rng = np.random.default_rng(seed)
    maps = pm.jacobians(max(orders, default=0))
    worst = 0.0
    for _ in range(4):
        y = rng.uniform(-1.0, 1.0, pm.e_in)
        for order in orders:
            exact = _reverse_last_axes(maps[order](y), order)
            base = maps[order - 1]
            approx = np.empty_like(exact)
            for j in range(pm.e_in):
                yp = y.copy()
                ym = y.copy()
                yp[j] += step
                ym[j] -= step
                approx[..., j] = (base(yp) - base(ym)) / (2 * step)
            scale = max(float(np.max(np.abs(exact))), 1.0)
            worst = max(worst, float(np.max(np.abs(approx - exact))) / scale)
    return worst


class PolyVectorField:
    """Vector field V: R^e -> L(R^d, R^e) with polynomial components.

    Supplies the operator products V_{i_1}...V_{i_k} I of the step-N Euler
    scheme via right-to-left composition of directional derivatives:
    applying V_i to a map W means DW . V_i.
    """

    def __init__(self, fmap: PolyMap):
        if len(fmap.out_shape) != 2:
            raise FieldError("vector field output must have shape (e, d)")
        if fmap.out_shape[0] != fmap.e_in:
            raise FieldError("state dimension mismatch between domain and output")
        self.fmap = fmap
        self.e = fmap.out_shape[0]
        self.d = fmap.out_shape[1]
        self._word_cache: dict[tuple, PolyMap] = {(): PolyMap.identity(self.e)}
        self._level_cache: dict[int, PolyMap] = {}
        self._self_test: float | None = None

    # ----------------------------------------------------------- constructors

    @classmethod
    def zero(cls, e: int, d: int):
        return cls(PolyMap.zero(e, (e, d)))

    @classmethod
    def constant(cls, c) -> "PolyVectorField":
        c = np.asarray(c, dtype=np.float64)
        return cls(PolyMap.constant(c.shape[0], c))

    @classmethod
    def linear(cls, A, b=None) -> "PolyVectorField":
        """V(y) = A y + b with A of shape (e, d, e) and b of shape (e, d)."""
        A = np.asarray(A, dtype=np.float64)
        e, d = A.shape[0], A.shape[1]
        terms = {}
        if b is not None:
            terms[(0,) * e] = np.asarray(b, dtype=np.float64)
        for j in range(e):
            exps = tuple(1 if i == j else 0 for i in range(e))
            terms[exps] = terms.get(exps, np.zeros((e, d))) + A[:, :, j]
        return cls(PolyMap(e, (e, d), terms))

    @classmethod
    def scalar(cls, coeffs) -> "PolyVectorField":
        """d = e = 1 field V(y) = sum_k coeffs[k] y^k."""
        terms = {(k,): np.full((1, 1), c) for k, c in enumerate(coeffs) if c != 0.0}
        return cls(PolyMap(1, (1, 1), terms))

    @classmethod
    def from_config(cls, cfg: dict) -> "PolyVectorField":
        kind = cfg.get("kind", "poly")
        if kind == "zero":
            return cls.zero(int(cfg["e"]), int(cfg["d"]))
        if kind == "constant":
            return cls.constant(cfg["matrix"])
        if kind == "linear":
            return cls.linear(cfg["A"], cfg.get("b"))
        if kind == "scalar":
            return cls.scalar(cfg["coeffs"])
        if kind == "poly":
            e, d = int(cfg["e"]), int(cfg["d"])
            terms = {}
            for term in cfg["terms"]:
                exps = tuple(int(x) for x in term["exps"])
                terms[exps] = terms.get(exps, 0) + np.asarray(term["coeff"], dtype=np.float64)
            return cls(PolyMap(e, (e, d), terms))
        raise FieldError(f"unknown vector-field kind {kind!r}")

    # ------------------------------------------------------------- evaluation

    def __call__(self, y) -> np.ndarray:
        return self.fmap(y)

    def eval_batch(self, Y) -> np.ndarray:
        return self.fmap.eval_batch(Y)

    def component(self, i: int) -> PolyMap:
        """V_i: R^e -> R^e, the field paired with driver direction i."""
        terms = {exps: coeff[:, i] for exps, coeff in self.fmap.terms.items()}
        return PolyMap(self.e, (self.e,), terms)

    # ------------------------------------------------------------ Euler terms

    def word_map(self, word: tuple) -> PolyMap:
        """V_{i_1}...V_{i_k} I as a polynomial map R^e -> R^e."""
        word = tuple(word)
        if word not in self._word_cache:
            suffix = self.word_map(word[1:])
            self._word_cache[word] = suffix.directional(self.component(word[0]))
        return self._word_cache[word]

    def level_map(self, k: int) -> PolyMap:
        """All level-k operator products stacked: R^e -> (e, d^k), columns in
        row-major word order matching the level-k tensor packing."""
        if k not in self._level_cache:
            words = list(itertools.product(range(self.d), repeat=k))
            terms = {}
            for col, word in enumerate(words):
                wm = self.word_map(word)
                for exps, coeff in wm.terms.items():
                    tgt = terms.setdefault(exps, np.zeros((self.e, len(words))))
                    tgt[:, col] += coeff
            self._level_cache[k] = PolyMap(self.e, (self.e, len(words)), terms)
        return self._level_cache[k]

    # ------------------------------------------------------------- smoothness

    def self_test(self) -> float:
        """Max relative derivative error vs finite differences (cached)."""
        if self._self_test is None:
            self._self_test = derivative_self_test(self.fmap)
        return self._self_test

    def lip_surrogate(self, gamma: float, radius: float = 2.0) -> LipBound:
        """|V|_{Lip^gamma} surrogate on B(0, radius): sup norms of V and its
        derivatives up to order [gamma], plus a Hoelder term for the
        fractional part bounded through the next derivative."""
        if gamma <= 0:
            raise FieldError("gamma must be positive")
        k = int(math.ceil(gamma)) - 1
        delta = gamma - k
        sups = tuple(self.fmap.sup_on_ball(radius, m) for m in range(k + 1))
        hoelder = self.fmap.sup_on_ball(radius, k + 1) * (2 * radius) ** (1.0 - delta)
        return LipBound(max((*sups, hoelder)), gamma, radius, sups)

    def sub(self, other: "PolyVectorField") -> "PolyVectorField":
        return PolyVectorField(self.fmap - other.fmap)

    def add_scaled(self, other: "PolyVectorField", c: float) -> "PolyVectorField":
        return PolyVectorField(self.fmap + other.fmap.scale(c))
