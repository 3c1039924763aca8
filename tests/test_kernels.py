"""The NumPy kernels against their per-element reference loops, and the
pair kernels against increments built pair by pair with `algebra`."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sobrough import algebra as A
from sobrough._kernels import _fallback

from oracles import (chen_prefix_per_row, hom_dist_block_einsum, hom_dist_block_per_pair,
                     increment_levels_einsum, interval_dp_table_diagonal,
                     interval_dp_table_per_cell,
                     level_diff_block_einsum, level_diff_block_per_pair,
                     partition_dp_max_pull)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 130, 257])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("ties", [False, True])
    def test_interval_table_bitwise_equal_to_diagonal_form(self, rng, n, order, ties):
        w = rng.random((n, n)) ** 3
        if ties:  # quarters: many partitions reach exactly the same sum
            w = np.floor(4 * w) / 4
        w[n // 2] = 0.0
        w[n // 4, n // 4:] = -0.0
        if n > 2:
            w[0, n - 1] = np.inf
            w[n // 3, n // 3 + 1:] = np.inf
        if n > 5:  # below every partition sum so far
            w[n // 6] *= -1.0
        w = np.asarray(w, order=order)
        want = interval_dp_table_diagonal(w).tobytes()
        assert interval_dp_table_per_cell(w).tobytes() == want
        assert _fallback.interval_dp_table(w).tobytes() == want
        # the same rows pushed whole, then one upper block at a time
        for rows in (n, 1, 5, 128):
            T = np.zeros((n, n))
            for r0 in range(0, n, rows):
                _fallback.interval_push_rows(T, r0, w[r0:r0 + rows, r0:])
            assert T.tobytes() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 130])
    def test_interval_table_corner_is_partition_dp(self, rng, n):
        w = rng.random((n, n))
        assert _fallback.interval_dp_table(w)[0, -1] == _fallback.partition_dp_max(w)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 130])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("ties", [False, True])
    def test_partition_dp_bitwise_equal_to_pull_form(self, rng, n, order, ties):
        w = rng.random((n, n)) ** 3
        if ties:  # quarters: many partitions reach exactly the same sum
            w = np.floor(4 * w) / 4
        w[n // 2] = 0.0
        w[n // 4, n // 4:] = -0.0
        if n > 2:
            w[n // 3, n // 3 + 1:] = np.inf
        w = np.asarray(w, order=order)
        want = partition_dp_max_pull(w).hex()
        assert _fallback.partition_dp_max(w).hex() == want
        if n > 2:  # the inf entries are on a partition to the end
            assert want == "inf"
            w[n // 3, n // 3 + 1:] = 1.0
            want = partition_dp_max_pull(w).hex()
            assert _fallback.partition_dp_max(w).hex() == want
        # the same rows pushed one upper block at a time
        for rows in (1, 5, 128):
            best = np.full(n, -np.inf)
            best[0] = 0.0
            for r0 in range(0, n, rows):
                _fallback.partition_push_rows(best, r0, w[r0:r0 + rows, r0:])
            assert float(best[-1]).hex() == want


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


class TestPastTheSquareOverflow:
    """An entry whose sum of squares overflows is rebuilt from its
    coefficients scaled by their largest magnitude; every other entry keeps
    the bytes of the einsum kernels.  Scaling a path by 2^e scales every
    coefficient of level k by 2^(ek) exactly, so the rebuilt distances are
    2^e times those at scale 1 up to rounding."""

    @staticmethod
    def scaled_walks(N, e):
        rng = np.random.default_rng(N)
        pts = [np.vstack([np.zeros(2), np.cumsum(rng.standard_normal((40, 2)), axis=0)])
               for _ in range(2)]
        alg = A.TensorAlgebra(2, N)
        out = []
        for scale in (1.0, 2.0**e):
            nodes = [A.signature_path_packed(scale * x, alg) for x in pts]
            out.append([(_fallback.inverse_batch(x[5:30], 2, N), x) for x in nodes])
        return out

    @staticmethod
    def check(got, old, want):
        over = np.isinf(old)
        assert over.any() and not over.all()
        assert np.array_equal(got[~over], old[~over])
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got[over], want[over], rtol=1e-13)

    @pytest.mark.parametrize("N,e", [(1, 511), (2, 255)])
    def test_hom_dist_block(self, N, e):
        small, big = self.scaled_walks(N, e)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _fallback.hom_dist_block(*big[0], 2, N)
        with np.errstate(over="ignore"):
            old = hom_dist_block_einsum(*big[0], 2, N)
        self.check(got, old, 2.0**e * _fallback.hom_dist_block(*small[0], 2, N))

    @pytest.mark.parametrize("N,e", [(1, 511), (2, 255)])
    def test_level_diff_block(self, N, e):
        small, big = self.scaled_walks(N, e)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _fallback.level_diff_block(*big[0], *big[1], 2, N, N)
        with np.errstate(over="ignore"):
            old = level_diff_block_einsum(*big[0], *big[1], 2, N, N)
        want = 2.0 ** (e * N) * _fallback.level_diff_block(*small[0], *small[1], 2, N, N)
        self.check(got, old, want)

    def test_non_finite_coefficients_stay_inf(self):
        cols = np.array([[3e200, np.inf, 0.0, np.nan, -4.0],
                         [4e200, 1.0, 0.0, 1.0, 3.0]])
        got = _fallback._scaled_norms(cols)
        assert got.tolist() == [pytest.approx(5e200, rel=1e-15), np.inf, 0.0, np.inf, 5.0]


class TestIncrementLevels:
    """_increment_planes builds each level as (d^k, m, n) coefficient planes
    and adds the two terms with a scalar-level factor by broadcasting; the
    pair kernels sum the squared planes by a halving tree."""

    @staticmethod
    def pair_batches(rng, d, N):
        n1, _ = random_group_batch(rng, 23, d, N)
        n2, _ = random_group_batch(rng, 23, d, N)
        n2[3:6, 1:] = n1[3:6, 1:]                    # zero level differences
        inv1 = _fallback.inverse_batch(n1[5:16], d, N)
        inv2 = _fallback.inverse_batch(n2[5:16], d, N)
        return inv1, n1, inv2, n2

    @staticmethod
    def kernel_bytes(hom_dist_block, level_diff_block, inv1, n1, inv2, n2, d, N):
        return [hom_dist_block(inv1, n1, d, N).tobytes()] + [
            level_diff_block(inv1, n1, inv2, n2, d, N, k).tobytes() for k in range(1, N + 1)]

    @pytest.mark.parametrize("d,N", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 3), (2, 4), (3, 3)])
    def test_pair_kernels_bitwise_equal_to_einsum_levels(self, rng, d, N):
        inv1, n1, inv2, n2 = batches = self.pair_batches(rng, d, N)
        for k in range(1, N + 1):
            got = _fallback._increment_planes(inv1, n1, d, N, k)
            want = increment_levels_einsum(inv1, n1, d, N, k)
            assert got.shape == (d**k, 11, 23)
            assert np.array_equal(got, np.moveaxis(want, -1, 0))
        got = self.kernel_bytes(_fallback.hom_dist_block, _fallback.level_diff_block, *batches, d, N)
        assert got == self.kernel_bytes(hom_dist_block_per_pair, level_diff_block_per_pair,
                                        *batches, d, N)

    @pytest.mark.parametrize("d,N", [(1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1)])
    def test_pair_kernels_bitwise_equal_to_einsum_kernels(self, rng, d, N):
        """Where every level has at most 4 coefficients, the halving tree is
        the order in which einsum sums them."""
        batches = self.pair_batches(rng, d, N)
        got = self.kernel_bytes(_fallback.hom_dist_block, _fallback.level_diff_block, *batches, d, N)
        assert got == self.kernel_bytes(hom_dist_block_einsum, level_diff_block_einsum,
                                        *batches, d, N)

    def test_rejects_scalar_level_other_than_one(self, rng):
        nodes, _ = random_group_batch(rng, 4, 2, 2)
        inv = _fallback.inverse_batch(nodes, 2, 2)
        nodes[1, 0] = 2.0
        with pytest.raises(ValueError, match="scalar level 1"):
            _fallback.hom_dist_block(inv, nodes, 2, 2)

    def test_hom_dist_block_transient_memory(self):
        d, N, m, n = 2, 2, 128, 1025
        segs = np.zeros((n - 1, 7))
        segs[:, 0] = 1.0
        segs[:, 1:3] = np.random.default_rng(8).standard_normal((n - 1, 2)) / 32
        nodes = _fallback.chen_prefix(segs, d, N)
        inv = _fallback.inverse_batch(nodes[:m], d, N)
        inv2 = _fallback.inverse_batch(nodes[1:m + 1], d, N)
        calls = [lambda: _fallback.hom_dist_block(inv, nodes, d, N),
                 lambda: _fallback.level_diff_block(inv, nodes, inv2, nodes, d, N, 2)]
        for call in calls:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # every level-2 term as its own einsum temporary reads 12 (m, n) arrays
            assert peak - base <= 9 * m * n * 8
