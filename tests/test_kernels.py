"""The pure-NumPy kernels against their per-element reference loops, and
parity between the compiled kernels and the fallback."""

import numpy as np
import pytest

from sobrough._kernels import _fallback

from oracles import chen_prefix_per_row, interval_dp_table_per_cell

try:
    from sobrough._kernels import _speedups
except ImportError:
    _speedups = None

needs_compiled = pytest.mark.skipif(_speedups is None, reason="compiled kernels unavailable")


def random_group_batch(rng, n, d, N):
    from sobrough import algebra as A
    alg = A.TensorAlgebra(d, N)
    rows = [A.random_group_element(alg, rng).data for _ in range(n)]
    return np.ascontiguousarray(np.stack(rows)), alg


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


@needs_compiled
class TestParity:
    @pytest.mark.parametrize("d,N", [(1, 2), (2, 2), (3, 3), (2, 4)])
    def test_layout(self, d, N):
        off_a, sz_a = _fallback.level_layout(d, N)
        off_b, sz_b = _speedups.level_layout(d, N)
        assert np.array_equal(off_a, off_b) and np.array_equal(sz_a, sz_b)

    @pytest.mark.parametrize("d,N", [(2, 2), (3, 3), (2, 4)])
    def test_rowwise_mul(self, rng, d, N):
        a, alg = random_group_batch(rng, 5, d, N)
        b, _ = random_group_batch(rng, 5, d, N)
        assert np.allclose(_fallback.rowwise_mul(a, b, d, N),
                           _speedups.rowwise_mul(a, b, d, N), atol=1e-14)

    def test_chen_prefix(self, rng):
        segs, alg = random_group_batch(rng, 16, 2, 3)
        assert np.allclose(_fallback.chen_prefix(segs, 2, 3),
                           _speedups.chen_prefix(segs, 2, 3), atol=1e-12)

    def test_inverse_batch(self, rng):
        nodes, alg = random_group_batch(rng, 8, 2, 3)
        assert np.allclose(_fallback.inverse_batch(nodes, 2, 3),
                           _speedups.inverse_batch(nodes, 2, 3), atol=1e-13)

    def test_hom_dist(self, rng):
        nodes, alg = random_group_batch(rng, 12, 2, 2)
        inv = _speedups.inverse_batch(nodes, 2, 2)
        a = _fallback.hom_dist_block(inv, nodes, 2, 2)
        b = _speedups.hom_dist_block(inv, nodes, 2, 2)
        assert np.allclose(a, b, atol=1e-13)
        am = _fallback.hom_dist_matrix(nodes, inv, 2, 2, 2, 10)
        bm = _speedups.hom_dist_matrix(nodes, inv, 2, 2, 2, 10)
        assert np.allclose(am, bm, atol=1e-13)

    def test_level_diff(self, rng):
        n1, _ = random_group_batch(rng, 9, 2, 2)
        n2, _ = random_group_batch(rng, 9, 2, 2)
        i1 = _speedups.inverse_batch(n1, 2, 2)
        i2 = _speedups.inverse_batch(n2, 2, 2)
        for k in (1, 2):
            a = _fallback.level_diff_block(i1, n1, i2, n2, 2, 2, k)
            b = _speedups.level_diff_block(i1, n1, i2, n2, 2, 2, k)
            assert np.allclose(a, b, atol=1e-13)

    def test_sobolev_pair_sum(self, rng):
        nodes, alg = random_group_batch(rng, 17, 2, 2)
        inv = _speedups.inverse_batch(nodes, 2, 2)
        a = _fallback.sobolev_pair_sum(nodes, inv, 2, 2, 4.0, 2.6, 1 / 16, 0, 17)
        b = _speedups.sobolev_pair_sum(nodes, inv, 2, 2, 4.0, 2.6, 1 / 16, 0, 17)
        assert a == pytest.approx(b, rel=1e-12)

    def test_partition_dp(self, rng):
        w = rng.random((20, 20))
        assert _fallback.partition_dp_max(w) == _speedups.partition_dp_max(w)

    def test_interval_dp_table(self, rng):
        w = rng.random((15, 15))
        assert np.array_equal(_fallback.interval_dp_table(w),
                              _speedups.interval_dp_table(w))
