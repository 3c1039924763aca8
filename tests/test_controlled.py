import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobrough import paths as P
from sobrough.controlled import (ControlledPath, _dyadic_remainder, _remainder_at, compose_smooth,
                                 controlled_norm, coordinate_controlled, remainder,
                                 remainder_norm_hatW, remainder_norm_tildeV,
                                 rough_integral)
from sobrough.fields import PolyMap, PolyVectorField
from sobrough.harness import make_trig_driver, lift_smooth

import oracles

ALPHA, PP = 0.4, 4.0


def lift_line(depth, level=2):
    ts = np.linspace(0.0, 1.0, (1 << depth) + 1)[:, None]
    return P.SampledRoughPath.from_samples(ts, level, ALPHA, PP)


def lift_walk(seed, depth=4, d=1, level=2, scale=0.4):
    rng = np.random.default_rng(seed)
    pts = np.vstack([np.zeros(d), np.cumsum(scale * rng.standard_normal((1 << depth, d)), axis=0)])
    return P.SampledRoughPath.from_samples(pts, level, ALPHA, PP)


class TestRemainder:
    def test_constant_pair_zero(self):
        X = lift_walk(0)
        n = X.n_nodes
        cp = ControlledPath(X, np.full((n, 1), 2.0), np.zeros((n, 1, 1)))
        assert np.all(remainder(cp).pair == 0.0)

    def test_coordinate_projection_zero(self):
        X = lift_walk(1, d=2)
        R = remainder(coordinate_controlled(X))
        assert np.max(np.abs(R.pair)) < 1e-15

    def test_quadratic_remainder(self):
        X = lift_line(4)
        ts = X.times
        cp = ControlledPath(X, (ts**2)[:, None], (2 * ts)[:, None, None])
        R = remainder(cp)
        for (i, j) in [(0, 16), (3, 11), (7, 8)]:
            assert R.pair[i, j, 0] == pytest.approx((ts[j] - ts[i]) ** 2, rel=1e-12)

    @pytest.mark.parametrize("d, vshape", [(2, (2,)), (2, (3, 2)), (3, (2, 3))])
    @pytest.mark.parametrize("J", [1, 5, 8])
    def test_bitwise_equal_to_out_of_place_reference(self, J, d, vshape):
        X = lift_walk(J, depth=J, d=d)
        rng = np.random.default_rng(J)
        cp = ControlledPath(X, rng.standard_normal((X.n_nodes,) + vshape),
                            rng.standard_normal((X.n_nodes,) + vshape + (d,)))
        want = oracles.remainder_out_of_place(cp)
        got = remainder(cp).pair
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_remainder_transient_memory(self):
        # built in place: the einsum's two operands, then R and its linear
        # term, about 2.03 (n, n, 2) arrays
        X = lift_walk(17, depth=9, d=2)
        n = X.n_nodes
        rng = np.random.default_rng(9)
        cp = ControlledPath(X, rng.standard_normal((n, 2)), rng.standard_normal((n, 2, 2)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            remainder(cp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.5 * n * n * 2 * 8


class TestRemainderAt:
    """The one remainder formula, read on all pairs by index arrays and on row
    blocks and dyadic levels by slices, as the library reads it, against the
    out-of-place pair remainder."""

    @pytest.mark.parametrize("d, vshape", [(1, (1,)), (2, (2,)), (2, (3, 2)), (3, (2, 3)),
                                           (4, (4,)), (4, (2, 2))])
    @pytest.mark.parametrize("J", [1, 3, 8])
    def test_bitwise_equal_to_out_of_place_reference(self, J, d, vshape):
        X = lift_walk(J + 40, depth=J, d=d)
        n = X.n_nodes
        rng = np.random.default_rng(J + d)
        cp = ControlledPath(X, rng.standard_normal((n,) + vshape),
                            rng.standard_normal((n,) + vshape + (d,)))
        want = oracles.remainder_out_of_place(cp)
        idx = np.arange(n)
        upper = idx[:, None] < idx[None, :]
        full = _remainder_at(cp, idx[:, None], idx[None, :])
        assert full.shape == want.shape
        assert full[upper].tobytes() == want[upper].tobytes()
        for rows in (1, 5, 128):
            for r0 in range(0, n, rows):
                r1 = min(r0 + rows, n)
                block = _remainder_at(cp, np.s_[r0:r1, None], np.s_[r0:])
                keep = upper[r0:r1, r0:]
                assert block[keep].tobytes() == want[r0:r1, r0:][keep].tobytes()
        for j in range(J + 1):
            stride = 1 << (J - j)
            lo = np.arange(0, n - 1, stride)
            level = _remainder_at(cp, np.s_[:-1:stride], np.s_[stride::stride])
            assert level.tobytes() == want[lo, lo + stride].tobytes()


class TestDyadicRemainder:
    @pytest.mark.parametrize("vshape", [(2,), (3, 2)])
    @pytest.mark.parametrize("J", [1, 5, 8])
    def test_levels_bitwise_equal_to_pair_remainder(self, J, vshape):
        X = lift_walk(J, depth=J, d=2)
        rng = np.random.default_rng(J)
        Y = rng.standard_normal((X.n_nodes,) + vshape)
        Yp = rng.standard_normal((X.n_nodes,) + vshape + (2,))
        dyadic = _dyadic_remainder(ControlledPath(X, Y, Yp))
        cp = ControlledPath(X, Y, Yp)
        pair = remainder(cp)
        for j in range(J + 1):
            assert dyadic.dyadic_level(j).tobytes() == pair.dyadic_level(j).tobytes()


class TestRemainderNorms:
    def test_zero(self):
        R = P.IntervalFunction.from_pair_matrix(np.zeros((9, 9, 1)))
        assert remainder_norm_tildeV(R, ALPHA, PP) == 0.0
        assert remainder_norm_hatW(R, ALPHA, PP) == 0.0

    @pytest.mark.parametrize("alpha, p", [(ALPHA, 0.0), (ALPHA, -2.0), (0.2, PP), (1.5, PP)])
    def test_inadmissible_parameters_rejected(self, alpha, p):
        R = P.IntervalFunction.from_pair_matrix(np.zeros((9, 9, 1)))
        cp = coordinate_controlled(lift_walk(20, depth=3))
        for call in (lambda: remainder_norm_tildeV(R, alpha, p),
                     lambda: remainder_norm_tildeV(cp, alpha, p),
                     lambda: remainder_norm_hatW(R, alpha, p)):
            with pytest.raises(P.PathError, match="inadmissible"):
                call()

    def test_quadratic_tildeV_matches_enumeration(self):
        n = 5
        ts = np.linspace(0, 1, n)
        pair = (ts[None, :] - ts[:, None]) ** 2
        pair = np.triu(pair, k=1)[:, :, None]
        R = P.IntervalFunction.from_pair_matrix(pair)
        val = remainder_norm_tildeV(R, ALPHA, PP)
        assert val == oracles.enum_tildeV(R.pair_norms(), ALPHA, PP)

    @given(st.integers(0, 200))
    @settings(max_examples=40)
    def test_tildeV_matches_enumeration_random(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        pair = np.triu(rng.random((n, n)), k=1)[:, :, None]
        R = P.IntervalFunction.from_pair_matrix(pair)
        assert remainder_norm_tildeV(R, ALPHA, PP) == \
            oracles.enum_tildeV(R.pair_norms(), ALPHA, PP)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=20)
    def test_tildeV_scaling(self, lam):
        rng = np.random.default_rng(99)
        pair = np.triu(rng.random((9, 9)), k=1)[:, :, None]
        a = remainder_norm_tildeV(P.IntervalFunction.from_pair_matrix(lam * pair), ALPHA, PP)
        b = remainder_norm_tildeV(P.IntervalFunction.from_pair_matrix(pair), ALPHA, PP)
        assert a == pytest.approx(lam * b, rel=1e-12)

    def test_hatW_geometric_closed_form(self):
        for J in (3, 5):
            n = (1 << J) + 1
            ts = np.linspace(0, 1, n)
            pair = np.triu((ts[None, :] - ts[:, None]) ** 2, k=1)[:, :, None]
            R = P.IntervalFunction.from_pair_matrix(pair)
            # per level j: 2^{j(alpha p - 1)} * 2^j * (2^{-2j})^{p/2}
            series = sum(2.0 ** (-j * PP * (1 - ALPHA)) for j in range(J + 1))
            assert remainder_norm_hatW(R, ALPHA, PP) == pytest.approx(series ** (2 / PP), rel=1e-12)

    def test_hatW_scaling(self):
        rng = np.random.default_rng(7)
        pair = np.triu(rng.random((9, 9)), k=1)[:, :, None]
        a = remainder_norm_hatW(P.IntervalFunction.from_pair_matrix(3.0 * pair), ALPHA, PP)
        b = remainder_norm_hatW(P.IntervalFunction.from_pair_matrix(pair), ALPHA, PP)
        assert a == pytest.approx(3.0 * b, rel=1e-13)

    @pytest.mark.parametrize("vshape", [(1,), (2,), (3,), (4,), (8,), (9,), (16,), (2, 2), (3, 4)],
                             ids=lambda v: "x".join(map(str, v)))
    @pytest.mark.parametrize("J", [8, 9])
    def test_tildeV_streamed_from_controlled_path_equals_pair(self, J, vshape):
        # several row blocks of the remainder, streamed, against the norm
        # of the pair remainder
        X = lift_walk(J, depth=J, d=2)
        rng = np.random.default_rng(J + sum(vshape))
        cp = ControlledPath(X, rng.standard_normal((X.n_nodes,) + vshape),
                            rng.standard_normal((X.n_nodes,) + vshape + (2,)))
        want = remainder_norm_tildeV(remainder(cp), ALPHA, PP)
        assert remainder_norm_tildeV(cp, ALPHA, PP).hex() == want.hex()

    def test_tildeV_streamed_rejects_non_finite_remainder(self):
        # Y_t - Y_s overflows: the pair remainder and the streamed one fail alike
        X = lift_walk(18, depth=8)
        n = X.n_nodes
        Y = np.zeros((n, 1))
        Y[0], Y[-1] = -1e308, 1e308
        cp = ControlledPath(X, Y, np.zeros((n, 1, 1)))
        with np.errstate(over="ignore"):
            with pytest.raises(P.PathError, match="non-finite interval values"):
                remainder(cp)
            with pytest.raises(P.PathError, match="non-finite interval values"):
                remainder_norm_tildeV(cp, ALPHA, PP)

    def test_tildeV_transient_memory(self):
        # the interval table, one row push's candidates (up to n^2 / 4 floats)
        # and one row block of magnitudes: about 1.50 (n, n) arrays beyond the
        # input pair array, at most 2.0
        n = (1 << 9) + 1
        pair = np.triu(np.random.default_rng(5).random((n, n)), k=1)[:, :, None]
        R = P.IntervalFunction.from_pair_matrix(pair)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            remainder_norm_tildeV(R, ALPHA, PP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.0 * n * n * 8


class TestControlledNorm:
    def test_transient_memory(self):
        # ||R||_tildeV streams the remainder, so no (n, n, 2) pair array: the
        # interval table, one row push's candidates and one row block of the
        # remainder, about 2.06 (n, n) arrays
        X = lift_walk(19, depth=9, d=2)
        n = X.n_nodes
        rng = np.random.default_rng(9)
        cp = ControlledPath(X, rng.standard_normal((n, 2)), rng.standard_normal((n, 2, 2)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            controlled_norm(cp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 2.25 * n * n * 8

    def test_zero_path(self):
        X = lift_walk(2)
        cp = ControlledPath(X, np.zeros((X.n_nodes, 1)), np.zeros((X.n_nodes, 1, 1)))
        assert controlled_norm(cp) == 0.0

    def test_constant_path_gives_initial_value(self):
        X = lift_walk(3)
        cp = ControlledPath(X, np.full((X.n_nodes, 2), [1.5, -2.0]),
                            np.zeros((X.n_nodes, 2, 1)))
        assert controlled_norm(cp) == pytest.approx(math.hypot(1.5, 2.0), rel=1e-15)

    def test_recomposition(self):
        X = lift_walk(4)
        ts = X.times
        cp = ControlledPath(X, np.stack([ts, ts**2], axis=1),
                            np.stack([np.ones_like(ts), 2 * ts], axis=1)[:, :, None])
        R = remainder(cp)
        total = (np.linalg.norm(cp.Y[0]) + np.linalg.norm(cp.Yprime[0])
                 + P.sobolev_norm_dyadic(P.VectorPath(cp.Yprime.reshape(X.n_nodes, -1)),
                                         ALPHA, PP).value
                 + remainder_norm_tildeV(R, ALPHA, PP)
                 + remainder_norm_hatW(R, ALPHA, PP))
        assert controlled_norm(cp) == total

    def test_cutoff_skips_tildeV_only_above_the_cutoff(self):
        X = lift_walk(4)
        ts = X.times
        cp = ControlledPath(X, np.stack([ts, ts**2], axis=1),
                            np.stack([np.ones_like(ts), 2 * ts], axis=1)[:, :, None])
        R = remainder(cp)
        full = controlled_norm(cp)
        partial = full - remainder_norm_tildeV(R, ALPHA, PP)
        assert remainder_norm_tildeV(R, ALPHA, PP) > 0
        # at or below the cheap terms' sum: a lower bound that reaches the cutoff
        for cutoff in (0.0, 0.5 * partial):
            low = controlled_norm(cp, cutoff=cutoff)
            assert cutoff <= low < full
        # above it: the full norm, bit for bit
        for cutoff in (full, 2.0 * full, math.inf):
            assert controlled_norm(cp, cutoff=cutoff) == full


class TestCompose:
    def test_constant_map(self):
        X = lift_walk(5, d=2)
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        F = PolyVectorField.constant(c)
        cp = coordinate_controlled(X)
        out = compose_smooth(F, cp)
        assert np.all(out.Y == c)
        assert np.all(out.Yprime == 0.0)
        assert np.all(remainder(out).pair == 0.0)

    def test_linear_map_derivative(self, rng):
        X = lift_walk(6, d=2)
        A = rng.standard_normal((2, 2, 2))
        F = PolyVectorField.linear(A)
        cp = coordinate_controlled(X)
        out = compose_smooth(F, cp)
        # DF = A exactly, so F(Y)' = A contracted with Y' = A here (Y' = Id)
        expect = np.einsum("aib,bj->aij", A, np.eye(2))
        assert np.allclose(out.Yprime - expect[None], 0.0, atol=1e-14)

    def test_composition_stability_fitted_constant(self):
        # quadratic map, pairs at shrinking perturbation scales; the
        # remainder-difference ratio must not blow up as eps -> 0
        F = PolyVectorField(PolyMap(1, (1, 1), {
            (1,): np.array([[0.6]]), (2,): np.array([[0.25]])}))
        drv = make_trig_driver(3, 1)
        ratios = {}
        for eps in (1e-1, 1e-2, 1e-3):
            X = lift_smooth(drv.samples(5), 2, 5, ALPHA, PP)
            pert = make_trig_driver(4, 1)
            X2 = lift_smooth(drv.samples(5) + eps * pert.samples(5), 2, 5, ALPHA, PP)
            cp1, cp2 = coordinate_controlled(X), coordinate_controlled(X2)
            o1, o2 = compose_smooth(F, cp1), compose_smooth(F, cp2)
            dR = remainder(o1) - remainder(o2)
            lhs = (remainder_norm_tildeV(dR, ALPHA, PP)
                   + remainder_norm_hatW(dR, ALPHA, PP))
            dRin = remainder(cp1) - remainder(cp2)
            rhs = (remainder_norm_tildeV(dRin, ALPHA, PP)
                   + remainder_norm_hatW(dRin, ALPHA, PP)
                   + P.sobolev_norm_dyadic(
                       P.VectorPath((cp1.Yprime - cp2.Yprime).reshape(X.n_nodes, -1)),
                       ALPHA, PP).value
                   + P.mixed_dist(X, X2, ALPHA, PP).value
                   + P.inhom_sobolev_dist(X, X2, ALPHA, PP).total)
            ratios[eps] = lhs / rhs
        assert ratios[1e-3] <= 2.0 * ratios[1e-1]

    def test_requires_matching_state_dim(self):
        X = lift_walk(7, d=2)
        cp = coordinate_controlled(X)
        F = PolyVectorField.scalar([0.0, 1.0])
        with pytest.raises(P.PathError):
            compose_smooth(F, cp)


class TestRoughIntegral:
    def test_constant_integrand_exact(self):
        X = lift_walk(8, d=2, depth=5)
        n = X.n_nodes
        c = np.array([[2.0, -1.0]])
        cp = ControlledPath(X, np.tile(c, (n, 1, 1)), np.zeros((n, 1, 2, 2)))
        res = rough_integral(cp)
        x1 = X.nodes[:, X.alg.slice(1)]
        assert np.allclose(res.values[:, 0], x1 @ c[0], atol=1e-14)

    def test_telescoping_exact(self):
        for J in (4, 8, 10):
            X = lift_line(J)
            ts = X.times
            cp = ControlledPath(X, ts[:, None, None], np.ones((X.n_nodes, 1, 1, 1)))
            res = rough_integral(cp)
            assert res.values[-1, 0] == 0.5
            assert np.all(res.refinement[:, 0] == 0.5)

    def test_additivity(self):
        X = lift_walk(9, depth=5)
        cp = compose_smooth(PolyVectorField.scalar([0.1, 0.8]), coordinate_controlled(X))
        I = rough_integral(cp).values[:, 0]
        for (s, u, t) in [(0, 7, 20), (3, 16, 32), (0, 16, 32)]:
            assert (I[u] - I[s]) + (I[t] - I[u]) == pytest.approx(I[t] - I[s], abs=1e-12)

    def test_smooth_lift_matches_trapezoid_oracle(self):
        drv = make_trig_driver(11, 1)
        F = PolyVectorField(PolyMap(1, (1, 1), {(1,): np.array([[1.0]]),
                                                (2,): np.array([[0.4]])}))
        errs = []
        for J in (6, 8, 10):
            X = lift_smooth(drv.samples(J), 2, J, ALPHA, PP)
            cp = compose_smooth(F, coordinate_controlled(X))
            val = rough_integral(cp).values[-1, 0]
            fine = drv.samples(J + 6)
            g = F.eval_batch(fine)
            oracle = oracles.trapezoid_stieltjes(g, fine)[0]
            errs.append(abs(val - oracle))
        order = -np.polyfit((6, 8, 10), np.log2(errs), 1)[0]
        assert order >= 3 * ALPHA - 1 - 0.1
        assert errs[-1] < 1e-5

    def test_refinement_order_on_smooth_lift(self):
        # affine integrands telescope exactly, so use a quadratic one
        drv = make_trig_driver(12, 1)
        X = lift_smooth(drv.samples(8), 2, 8, ALPHA, PP)
        cp = compose_smooth(PolyVectorField.scalar([0.2, 0.5, 0.3]), coordinate_controlled(X))
        res = rough_integral(cp)
        assert res.refinement_order >= 3 * ALPHA - 1

    @pytest.mark.parametrize("d, w", [(1, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize("J", [1, 5, 8])
    def test_remainder_bitwise_equal_to_integral_block(self, J, d, w):
        X = lift_walk(J + 20, depth=J, d=d)
        rng = np.random.default_rng(J)
        cp = ControlledPath(X, rng.standard_normal((X.n_nodes, w, d)),
                            rng.standard_normal((X.n_nodes, w, d, d)))
        res = rough_integral(cp)
        want = oracles.integral_remainder_block(cp, res.values)
        assert res.remainder.pair.shape == want.shape
        assert res.remainder.pair.tobytes() == want.tobytes()

    def test_integral_pair_is_controlled(self):
        # closure: (I, Y) is itself a controlled path with finite norm
        X = lift_walk(13, depth=5)
        cp = compose_smooth(PolyVectorField.scalar([0.3, 0.4]), coordinate_controlled(X))
        res = rough_integral(cp)
        out = ControlledPath(X, res.values, res.gubinelli)
        val = controlled_norm(out)
        assert math.isfinite(val) and val > 0
        dR = remainder(out).pair - res.remainder.pair
        assert np.max(np.abs(dR)) < 1e-14

    def test_integration_stability_fitted_constant(self):
        # paired drivers at shrinking eps: remainder-difference ratio stays bounded
        drv = make_trig_driver(14, 1)
        pert = make_trig_driver(15, 1)
        F = PolyVectorField.scalar([0.5, 0.3])
        ratios = {}
        for eps in (1e-1, 1e-2, 1e-3):
            X1 = lift_smooth(drv.samples(5), 2, 5, ALPHA, PP)
            X2 = lift_smooth(drv.samples(5) + eps * pert.samples(5), 2, 5, ALPHA, PP)
            cp1 = compose_smooth(F, coordinate_controlled(X1))
            cp2 = compose_smooth(F, coordinate_controlled(X2))
            r1 = rough_integral(cp1)
            r2 = rough_integral(cp2)
            dR = r1.remainder - r2.remainder
            lhs = (remainder_norm_tildeV(dR, ALPHA, PP)
                   + remainder_norm_hatW(dR, ALPHA, PP))
            dRin = remainder(cp1) - remainder(cp2)
            rhs = (remainder_norm_tildeV(dRin, ALPHA, PP)
                   + remainder_norm_hatW(dRin, ALPHA, PP)
                   + P.sobolev_norm_dyadic(
                       P.VectorPath((cp1.Yprime - cp2.Yprime).reshape(X1.n_nodes, -1)),
                       ALPHA, PP).value
                   + P.mixed_dist(X1, X2, ALPHA, PP).value
                   + P.inhom_sobolev_dist(X1, X2, ALPHA, PP).total)
            ratios[eps] = lhs / rhs
        assert ratios[1e-3] <= 2.0 * ratios[1e-1]

    def test_depth_zero_rejected(self):
        ts = np.array([[0.0], [1.0]])
        X = P.SampledRoughPath.from_samples(ts, 2, ALPHA, PP)
        cp = ControlledPath(X, np.zeros((2, 1, 1)), np.zeros((2, 1, 1, 1)))
        with pytest.raises(P.PathError):
            rough_integral(cp)

    def test_wrong_vshape_rejected(self):
        X = lift_walk(16, depth=3)
        cp = ControlledPath(X, np.zeros((X.n_nodes, 1)), np.zeros((X.n_nodes, 1, 1)))
        with pytest.raises(P.PathError):
            rough_integral(cp)
