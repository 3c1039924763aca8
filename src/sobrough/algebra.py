"""Truncated tensor algebra T^N(R^d) and the step-N nilpotent group.

Coefficients are stored level-packed: one flat float64 vector of length
1 + d + ... + d^N, level k occupying a contiguous block of d^k entries in
row-major multi-index order (i_1, ..., i_k).  All values are immutable
after construction and every operation is pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _kernels

MAX_DIM = 8
MAX_LEVEL = 4

#: tolerance for geometricity (shuffle-relation) checks
GEO_TOL = 1e-9


class AlgebraError(ValueError):
    """Rejected input: dimension/level mismatch or unsupported envelope."""


class TensorAlgebra:
    """Shape descriptor for T^N(R^d): level offsets and sizes."""

    __slots__ = ("dim", "level", "offsets", "sizes", "length")

    def __init__(self, dim: int, level: int):
        if not (1 <= dim <= MAX_DIM):
            raise AlgebraError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
        if not (1 <= level <= MAX_LEVEL):
            raise AlgebraError(f"level {level} outside supported range 1..{MAX_LEVEL}")
        self.dim = dim
        self.level = level
        off, sz = _kernels.level_layout(dim, level)
        self.offsets = off
        self.sizes = sz
        self.length = int(off[-1] + sz[-1])

    def __eq__(self, other):
        return (isinstance(other, TensorAlgebra)
                and self.dim == other.dim and self.level == other.level)

    def __hash__(self):
        return hash((self.dim, self.level))

    def __repr__(self):
        return f"TensorAlgebra(dim={self.dim}, level={self.level})"

    def slice(self, k: int) -> slice:
        return slice(int(self.offsets[k]), int(self.offsets[k] + self.sizes[k]))


class TruncatedTensor:
    """Element of T^N(R^d), immutable."""

    __slots__ = ("alg", "data")

    def __init__(self, alg: TensorAlgebra, data: np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.float64)
        if data.shape != (alg.length,):
            raise AlgebraError(f"packed data has length {data.shape}, expected ({alg.length},)")
        if not np.all(np.isfinite(data)):
            raise AlgebraError("non-finite coefficient")
        self.alg = alg
        self.data = data
        self.data.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def level(self) -> int:
        return self.alg.level

    def coeffs(self, k: int) -> np.ndarray:
        """Level-k block, flat, length d^k."""
        return self.data[self.alg.slice(k)]

    def scalar(self) -> float:
        return float(self.data[0])

    def __add__(self, other):
        self._check(other)
        return TruncatedTensor(self.alg, self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return TruncatedTensor(self.alg, self.data - other.data)

    def __mul__(self, c):
        return TruncatedTensor(self.alg, self.data * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return TruncatedTensor(self.alg, -self.data)

    def _check(self, other):
        if not isinstance(other, TruncatedTensor):
            raise AlgebraError(f"expected TruncatedTensor, got {type(other).__name__}")
        if self.alg != other.alg:
            raise AlgebraError(f"algebra mismatch: {self.alg} vs {other.alg}")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.data)))

    def __repr__(self):
        return f"TruncatedTensor(d={self.dim}, N={self.level}, levels={[self.coeffs(k).tolist() for k in range(self.level + 1)]})"


def zero(alg: TensorAlgebra) -> TruncatedTensor:
    return TruncatedTensor(alg, np.zeros(alg.length))


class GroupElement(TruncatedTensor):
    """Tensor with scalar level exactly 1; levels 1..N carry the increments."""

    __slots__ = ()

    def __init__(self, alg, data, check_geometric_levels=False):
        super().__init__(alg, data)
        if self.data[0] != 1.0:
            raise AlgebraError(f"group element must have scalar level 1, got {self.data[0]}")
        if check_geometric_levels:
            rep = check_geometric(self)
            if not rep.ok:
                raise AlgebraError(f"element fails geometricity: violation {rep.violation:.3e}")


class LieElement(TruncatedTensor):
    """Tensor with scalar level exactly 0; the log of a group element."""

    __slots__ = ()

    def __init__(self, alg, data):
        super().__init__(alg, data)
        if self.data[0] != 0.0:
            raise AlgebraError(f"Lie element must have scalar level 0, got {self.data[0]}")


def identity(alg: TensorAlgebra) -> GroupElement:
    data = np.zeros(alg.length)
    data[0] = 1.0
    return GroupElement(alg, data)


def tensor_mul(a: TruncatedTensor, b: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor product, (a ⊗ b)_k = Σ_{i+j=k} a_i ⊗ b_j."""
    a._check(b)
    out = _kernels.rowwise_mul(a.data[None, :], b.data[None, :], a.dim, a.level)[0]
    if isinstance(a, GroupElement) and isinstance(b, GroupElement):
        return GroupElement(a.alg, out)
    return TruncatedTensor(a.alg, out)


def group_inverse(g: GroupElement) -> GroupElement:
    """Inverse via the Neumann series (1 + x)^{-1} = Σ_{k≤N} (−x)^k, exact."""
    out = _kernels.inverse_batch(g.data[None, :], g.dim, g.level)[0]
    return GroupElement(g.alg, out)


def exp(ell: TruncatedTensor) -> GroupElement:
    """exp(ℓ) = Σ_{k≤N} ℓ^{⊗k} / k! for a scalar-free ℓ."""
    if ell.scalar() != 0.0:
        raise AlgebraError("exp expects a tensor with scalar level 0")
    alg = ell.alg
    acc = np.zeros(alg.length)
    acc[0] = 1.0
    cur = acc.copy()
    fact = 1.0
    for k in range(1, alg.level + 1):
        cur = _kernels.rowwise_mul(cur[None, :], ell.data[None, :], alg.dim, alg.level)[0]
        fact *= k
        acc += cur / fact
    return GroupElement(alg, acc)


def log(g: GroupElement) -> LieElement:
    """log(g) = Σ_{k≤N} (−1)^{k+1} (g − 1)^{⊗k} / k."""
    alg = g.alg
    x = g.data.copy()
    x[0] = 0.0
    acc = np.zeros(alg.length)
    cur = np.zeros(alg.length)
    cur[0] = 1.0
    sign = 1.0
    for k in range(1, alg.level + 1):
        cur = _kernels.rowwise_mul(cur[None, :], x[None, :], alg.dim, alg.level)[0]
        acc += sign * cur / k
        sign = -sign
    return LieElement(alg, acc)


def lie_from_vector(alg: TensorAlgebra, v) -> LieElement:
    """Level-1 Lie element with π_1 = v."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (alg.dim,):
        raise AlgebraError(f"vector of shape {v.shape}, expected ({alg.dim},)")
    data = np.zeros(alg.length)
    data[alg.slice(1)] = v
    return LieElement(alg, data)


def signature_segment(z0, z1, level: int) -> GroupElement:
    """Step-N signature of the linear segment from z0 to z1: exp(z1 − z0)."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=np.float64))
    z1 = np.atleast_1d(np.asarray(z1, dtype=np.float64))
    if z0.shape != z1.shape:
        raise AlgebraError("endpoint dimension mismatch")
    if not (np.all(np.isfinite(z0)) and np.all(np.isfinite(z1))):
        raise AlgebraError("non-finite endpoint")
    alg = TensorAlgebra(z0.shape[0], level)
    return exp(lie_from_vector(alg, z1 - z0))


def signature_path(points, level: int) -> list[GroupElement]:
    """Running step-N signatures of the piecewise-linear path through `points`.

    Element m is the signature over [t_0, t_m]; element 0 is the identity.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 1:
        raise AlgebraError("signature_path needs at least one point")
    alg = TensorAlgebra(pts.shape[1], level)
    packed = signature_path_packed(pts, alg)
    return [GroupElement(alg, row) for row in packed]


def signature_path_packed(pts: np.ndarray, alg: TensorAlgebra) -> np.ndarray:
    """Packed (n, L) array of running signatures; row 0 is the identity."""
    n = pts.shape[0]
    if n == 1:
        out = np.zeros((1, alg.length))
        out[0, 0] = 1.0
        return out
    incs = np.diff(pts, axis=0)
    segs = np.zeros((n - 1, alg.length))
    segs[:, 0] = 1.0
    segs[:, alg.slice(1)] = incs
    cur = incs
    fact = 1.0
    for k in range(2, alg.level + 1):
        # (v^{⊗k})_(i_1..i_k) built by outer product with the previous level
        cur = (cur[:, :, None] * incs[:, None, :]).reshape(n - 1, -1)
        fact *= k
        segs[:, alg.slice(k)] = cur / fact
    return _kernels.chen_prefix(segs, alg.dim, alg.level)


def increment(g_s: GroupElement, g_t: GroupElement) -> GroupElement:
    """Group increment g_s^{-1} ⊗ g_t."""
    g_s._check(g_t)
    return tensor_mul(group_inverse(g_s), g_t)


def homogeneous_norm(g: GroupElement) -> float:
    """Σ_{k=1}^N |π_k g|^{1/k} with Euclidean norms per level.

    Equivalent to the Carnot–Carathéodory norm on the group; dilation-homogeneous.
    """
    total = 0.0
    for k in range(1, g.level + 1):
        nk = float(np.linalg.norm(g.coeffs(k)))
        total += nk ** (1.0 / k)
    return total


def rho_metric(g: GroupElement, h: GroupElement) -> float:
    """max_{k=1..N} |π_k(g − h)|, Euclidean per level."""
    g._check(h)
    worst = 0.0
    for k in range(1, g.level + 1):
        worst = max(worst, float(np.linalg.norm(g.coeffs(k) - h.coeffs(k))))
    return worst


def dilate(g: GroupElement, lam: float) -> GroupElement:
    """Dilation δ_λ: level k scaled by λ^k."""
    data = g.data.copy()
    for k in range(1, g.level + 1):
        data[g.alg.slice(k)] *= lam**k
    return GroupElement(g.alg, data)


class GeometricityReport(NamedTuple):
    ok: bool
    violation: float


def _shuffle3_violation(g1: np.ndarray, g2: np.ndarray, g3: np.ndarray, d: int) -> float:
    """Worst |g_{ijk} + g_{jik} + g_{jki} − g_i g_{jk}| over all words."""
    G3 = g3.reshape(d, d, d)
    G2 = g2.reshape(d, d)
    # entries g_{ijk} + g_{jik} + g_{jki} at position (i, j, k)
    lhs = G3 + np.transpose(G3, (1, 0, 2)) + np.transpose(G3, (2, 0, 1))
    rhs = g1[:, None, None] * G2[None, :, :]
    return float(np.max(np.abs(lhs - rhs)))


def check_geometric(g: GroupElement, tol: float = GEO_TOL) -> GeometricityReport:
    """Shuffle-relation check: Sym(π_2) = ½ π_1 ⊗ π_1, plus the level-3
    relations ⟨g, i ⧢ jk⟩ = g_i g_{jk} when N = 3.  N ≥ 4 is unsupported;
    level-4 paths must come from signatures, which are geometric by
    construction."""
    if g.level > 3:
        raise AlgebraError("geometricity check supports N <= 3 only")
    worst = 0.0
    if g.level >= 2:
        d = g.dim
        g1 = g.coeffs(1)
        G2 = g.coeffs(2).reshape(d, d)
        sym = 0.5 * (G2 + G2.T)
        worst = float(np.max(np.abs(sym - 0.5 * np.outer(g1, g1))))
    if g.level >= 3:
        worst = max(worst, _shuffle3_violation(g.coeffs(1), g.coeffs(2), g.coeffs(3), g.dim))
    return GeometricityReport(worst <= tol, worst)


def random_group_element(alg: TensorAlgebra, rng, scale: float = 0.5) -> GroupElement:
    """exp of a random Lie-like tensor with coefficients at every level;
    geometric by construction (it is a group exponential)."""
    data = scale * rng.standard_normal(alg.length)
    data[0] = 0.0
    if alg.level >= 2:
        # antisymmetrise level 2 so exp stays group-like for N >= 2
        d = alg.dim
        G2 = data[alg.slice(2)].reshape(d, d)
        data[alg.slice(2)] = (0.5 * (G2 - G2.T)).ravel()
    if alg.level >= 3:
        # project level 3 onto brackets of level-1/level-2 data
        d = alg.dim
        lead = np.zeros(alg.length)
        lead[0] = 0.0
        v = data[alg.slice(1)]
        A = data[alg.slice(2)].reshape(d, d)
        B = scale * rng.standard_normal((d, d))
        B = 0.5 * (B - B.T)
        # [v, B]: a genuine Lie element at level 3
        br = np.einsum("i,jk->ijk", v, B) - np.einsum("jk,i->jki", B, v)
        data[alg.slice(3)] = br.ravel()
    if alg.level >= 4:
        data[alg.slice(4)] = 0.0
    return exp(TruncatedTensor(alg, data))
