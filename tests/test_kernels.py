"""The NumPy kernels against their per-element reference loops, and the
pair kernels against increments built pair by pair with `algebra`."""

import math

import numpy as np
import pytest

from sobrough import algebra as A
from sobrough._kernels import _fallback

from oracles import chen_prefix_per_row, interval_dp_table_per_cell


def random_group_batch(rng, n, d, N):
    alg = A.TensorAlgebra(d, N)
    rows = [A.random_group_element(alg, rng).data for _ in range(n)]
    return np.ascontiguousarray(np.stack(rows)), alg


def increments(nodes, alg):
    """inc[u][v] = nodes[u]⁻¹ ⊗ nodes[v], one `algebra.increment` per pair."""
    g = [A.GroupElement(alg, row) for row in nodes]
    return [[A.increment(gu, gv) for gv in g] for gu in g]


class TestFallbackMatchesLoops:
    def test_layout_cached_and_read_only(self):
        off, sz = _fallback.level_layout(2, 3)
        assert _fallback.level_layout(2, 3)[0] is off
        assert list(off) == [0, 1, 3, 7] and list(sz) == [1, 2, 4, 8]
        assert not off.flags.writeable and not sz.flags.writeable

    @pytest.mark.parametrize("d,N", [(1, 1), (1, 2), (2, 2), (3, 3), (2, 4)])
    @pytest.mark.parametrize("m", [0, 1, 2, 37])
    @pytest.mark.parametrize("start", ["identity", "group", "arbitrary"])
    def test_chen_prefix_bitwise(self, rng, d, N, m, start):
        L = sum(d**k for k in range(N + 1))
        segs = random_group_batch(rng, m, d, N)[0] if m else np.zeros((0, L))
        s0 = {"identity": None,
              "group": random_group_batch(rng, 1, d, N)[0][0],
              "arbitrary": rng.standard_normal(L)}[start]
        got = _fallback.chen_prefix(segs, d, N, start=s0)
        assert got.shape == (m + 1, L)
        assert np.array_equal(got, chen_prefix_per_row(segs, d, N, start=s0))

    def test_chen_prefix_keeps_signed_zeros(self):
        segs = np.array([[1.0, -0.0, -0.0], [1.0, 0.5, -0.0]])
        start = np.array([1.0, -0.0, 0.25])
        got = _fallback.chen_prefix(segs, 1, 2, start=start)
        want = chen_prefix_per_row(segs, 1, 2, start=start)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scalar", [0.0, 2.0, np.nan])
    def test_chen_prefix_rejects_scalar_level_other_than_one(self, rng, scalar):
        segs, _ = random_group_batch(rng, 4, 2, 2)
        segs[2, 0] = scalar
        with pytest.raises(ValueError, match="scalar level 1"):
            _fallback.chen_prefix(segs, 2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 130])
    def test_interval_dp_table_bitwise(self, rng, n):
        w = rng.random((n, n)) ** 3
        w[n // 2] = 0.0
        w[n // 4] = -0.0
        if n > 2:
            w[0, n - 1] = np.inf
            w[n // 3, n // 3 + 1:] = np.inf
        got = _fallback.interval_dp_table(w)
        want = interval_dp_table_per_cell(w)
        assert got.shape == (n, n) and not np.isnan(got).any()
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.tril(got).any()

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 130])
    def test_interval_table_corner_is_partition_dp(self, rng, n):
        w = rng.random((n, n))
        assert _fallback.interval_dp_table(w)[0, -1] == _fallback.partition_dp_max(w)


class TestPairKernelsMatchAlgebra:
    @pytest.mark.parametrize("case", ["hom_dist_block", "hom_dist_matrix",
                                      "level_diff_block-1", "level_diff_block-2"])
    def test_pairs(self, rng, case):
        d, N = 2, 2
        if case.startswith("level_diff_block"):
            k = int(case[-1])
            n1, alg = random_group_batch(rng, 9, d, N)
            n2, _ = random_group_batch(rng, 9, d, N)
            got = _fallback.level_diff_block(_fallback.inverse_batch(n1, d, N), n1,
                                             _fallback.inverse_batch(n2, d, N), n2, d, N, k)
            want = [[np.linalg.norm(a.coeffs(k) - b.coeffs(k)) for a, b in zip(r1, r2)]
                    for r1, r2 in zip(increments(n1, alg), increments(n2, alg))]
        else:
            nodes, alg = random_group_batch(rng, 12, d, N)
            inv = _fallback.inverse_batch(nodes, d, N)
            want = np.array([[A.homogeneous_norm(g) for g in row]
                             for row in increments(nodes, alg)])
            if case == "hom_dist_block":
                got = _fallback.hom_dist_block(inv, nodes, d, N)
            else:
                got = _fallback.hom_dist_matrix(nodes, inv, d, N, 2, 10)
                want = want[2:10, 2:10]
        assert got.shape == np.shape(want)
        assert np.allclose(got, want, atol=1e-13)

    def test_sobolev_pair_sum(self, rng):
        nodes, alg = random_group_batch(rng, 17, 2, 2)
        inv = _fallback.inverse_batch(nodes, 2, 2)
        p, expo, h = 4.0, 2.6, 1 / 16
        inc = increments(nodes, alg)
        want = math.fsum(A.homogeneous_norm(inc[u][v]) ** p * ((v - u) * h) ** (-expo)
                         for u in range(17) for v in range(u + 1, 17))
        got = _fallback.sobolev_pair_sum(nodes, inv, 2, 2, p, expo, h, 0, 17)
        assert got == pytest.approx(want, rel=1e-12)
