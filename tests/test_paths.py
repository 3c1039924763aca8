import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobrough import algebra as A
from sobrough import paths as P

import oracles

ALPHA, PP = 0.4, 4.0


def walk_path(seed, depth=3, d=2, level=2, scale=0.4, alpha=ALPHA, p=PP):
    rng = np.random.default_rng(seed)
    pts = np.vstack([np.zeros(d), np.cumsum(scale * rng.standard_normal(((1 << depth), d)), axis=0)])
    return P.SampledRoughPath.from_samples(pts, level, alpha, p)


def linear_path(depth, level=1, alpha=ALPHA, p=PP):
    ts = np.linspace(0.0, 1.0, (1 << depth) + 1)[:, None]
    return P.SampledRoughPath.from_samples(ts, level, alpha, p)


class TestConstruction:
    def test_identity_start_enforced(self):
        alg = A.TensorAlgebra(1, 1)
        nodes = np.zeros((3, 2))
        nodes[:, 0] = 1.0
        nodes[0, 1] = 0.5
        with pytest.raises(P.PathError):
            P.SampledRoughPath(alg, 1, nodes, ALPHA, PP)

    def test_admissibility(self):
        ts = np.linspace(0, 1, 5)[:, None]
        with pytest.raises(P.PathError):
            P.SampledRoughPath.from_samples(ts, 1, 0.2, 4.0)  # alpha <= 1/p

    def test_geometricity_validated(self):
        X = walk_path(0)
        nodes = X.nodes.copy()
        nodes[3, X.alg.slice(2)] += 0.2   # break the shuffle relation
        with pytest.raises(P.PathError):
            P.SampledRoughPath(X.alg, X.depth, nodes, ALPHA, PP)

    def test_subsample_restricts_nodes(self):
        X = walk_path(1, depth=4)
        Xc = X.subsample(2)
        assert np.array_equal(Xc.nodes, X.nodes[::4])

    def test_level4_requires_signature_construction(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([np.zeros(2), np.cumsum(0.3 * rng.standard_normal((4, 2)), axis=0)])
        X = P.SampledRoughPath.from_samples(pts, 4, ALPHA, PP)  # trusted lift
        with pytest.raises(P.PathError):
            P.SampledRoughPath(X.alg, X.depth, X.nodes.copy(), ALPHA, PP)


class TestArgumentChecks:
    @pytest.mark.parametrize("alpha, p", [(ALPHA, 0.0), (ALPHA, -2.0), (ALPHA, 1.0), (0.2, PP),
                                          (ALPHA, math.nan)])
    def test_inadmissible_p_rejected(self, alpha, p):
        path = P.VectorPath(np.linspace(0.0, 1.0, 17))
        X1, X2 = walk_path(70), walk_path(71)
        for call in (lambda: P.sobolev_norm_dyadic(path, alpha, p),
                     lambda: P.sobolev_norm_integral(path, alpha, p),
                     lambda: P.integral_norm_interval_function(path, alpha, p),
                     lambda: P.inhom_sobolev_dist(X1, X2, alpha, p),
                     lambda: P.mixed_dist(X1, X2, alpha, p),
                     lambda: P.SampledRoughPath.from_samples(np.zeros((5, 1)), 2, alpha, p)):
            with pytest.raises(P.PathError, match="inadmissible"):
                call()

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0, 1.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        path = P.VectorPath(np.linspace(0.0, 1.0, 17))
        for call in (lambda: P.sobolev_norm_dyadic(path, alpha, PP),
                     lambda: P.sobolev_norm_integral(path, alpha, PP),
                     lambda: P.SampledRoughPath.from_samples(np.zeros((5, 1)), 2, alpha, PP)):
            with pytest.raises(P.PathError, match="inadmissible"):
                call()

    def test_off_grid_time_names_the_node_count(self):
        assert P.VectorPath.index_of is P.SampledRoughPath.index_of
        with pytest.raises(P.PathError, match="7-node grid"):
            P.qvar_norm(np.arange(7.0), 2.0, window=(0.3, 1.0))
        X = walk_path(72)
        with pytest.raises(P.PathError, match="9-node grid"):
            X.index_of(0.3)
        assert X.index_of(0.375) == 3
        assert P.VectorPath(np.arange(7.0)).index_of(0.5) == 3


class TestQvar:
    @given(st.floats(0.1, 5.0), st.floats(1.0, 4.0))
    @settings(max_examples=30)
    def test_monotone_rise(self, rise, q):
        vals = np.linspace(0.0, rise, 9)
        assert P.qvar_norm(vals, q) == pytest.approx(rise, rel=1e-12)

    def test_zigzag_at_q1(self):
        # increments +1, -1, +1: brute force over partitions of 4 points gives 3
        vals = np.array([0.0, 1.0, 0.0, 1.0])
        grid = P.VectorPath(vals)
        dist = grid.dist_matrix(0, 4)
        assert oracles.enum_qvar(dist, 1.0) == 3.0
        assert P.qvar_norm(vals, 1.0) == 3.0

    def test_constant_path(self):
        assert P.qvar_norm(np.zeros(9), 2.0) == 0.0

    def test_q_below_one_rejected(self):
        with pytest.raises(P.PathError):
            P.qvar_norm(np.zeros(9), 0.5)

    @given(st.integers(0, 200), st.floats(1.0, 3.5))
    @settings(max_examples=40)
    def test_matches_enumeration_group(self, seed, q):
        X = walk_path(seed, depth=2)
        dist = X.dist_matrix(0, X.n_nodes)
        assert P.qvar_norm(X, q) == oracles.enum_qvar(dist, q)

    @given(st.integers(0, 100))
    @settings(max_examples=30)
    def test_matches_enumeration_vector(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((6, 2))
        grid = P.VectorPath(vals)
        dist = grid.dist_matrix(0, 6)
        q = 1.0 + 2.0 * rng.random()
        assert P.qvar_norm(vals, q) == oracles.enum_qvar(dist, q)

    def test_window_monotonicity(self):
        X = walk_path(7, depth=4)
        inner = P.qvar_norm(X, 2.5, window=(0.25, 0.75))
        outer = P.qvar_norm(X, 2.5, window=(0.0, 1.0))
        assert outer >= inner


class TestHolder:
    def test_constant(self):
        assert P.holder_norm(np.zeros(9), 0.4) == 0.0

    def test_linear_is_one(self):
        X = linear_path(6)
        for a in (0.2, 0.5, 0.9):
            assert P.holder_norm(X, a) == pytest.approx(1.0, rel=1e-12)

    def test_scaling(self, rng):
        vals = rng.standard_normal(17)
        assert P.holder_norm(3.0 * vals, 0.3) == pytest.approx(3.0 * P.holder_norm(vals, 0.3), rel=1e-14)

    def test_differences_past_the_square_overflow(self):
        # every difference of 1e200 * t squares to inf; the norms do not
        path = np.linspace(0, 1, 257)[:, None] * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert P.holder_norm(path, 0.4) == pytest.approx(1e200, rel=1e-12)
            assert P.qvar_norm(path, 1.0) == pytest.approx(1e200, rel=1e-12)

    def test_group_increments_past_the_square_overflow(self):
        # level 1 at 1e200, and level 2 at 2^500 (about 3e150), square to inf
        # in the pair kernels; the norms do not.  Scaling by a power of two
        # is exact, so the level-2 norms are 2^500 times those at scale 1
        # up to the rounding of the rescaled entries
        pts = np.vstack([np.zeros(2), np.cumsum(np.random.default_rng(5).standard_normal((64, 2)),
                                                axis=0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ramp = np.linspace(0, 1, 257)[:, None] * 1e200
            X = P.SampledRoughPath.from_samples(ramp, 1, 0.4, 4.0)
            assert P.holder_norm(X, 0.4) == pytest.approx(1e200, rel=1e-12)
            assert P.qvar_norm(X, 1.0) == pytest.approx(1e200, rel=1e-12)
            small = P.SampledRoughPath.from_samples(pts, 2, 0.4, 4.0)
            big = P.SampledRoughPath.from_samples(pts * 2.0**500, 2, 0.4, 4.0)
            for norm in (lambda Y: P.holder_norm(Y, 0.4), lambda Y: P.qvar_norm(Y, 1.0)):
                assert math.isfinite(norm(big))
                assert norm(big) == pytest.approx(2.0**500 * norm(small), rel=1e-12)


class TestSobolevIntegral:
    def test_constant(self):
        assert P.sobolev_norm_integral(np.zeros(17), ALPHA, PP) == 0.0

    def test_linear_closed_form(self):
        # double integral of |v-u|^{p - alpha p - 1} over the unit square
        exact = (2.0 / (PP * (1 - ALPHA) * (PP * (1 - ALPHA) + 1))) ** (1 / PP)
        errs = []
        for J in (8, 10):
            v = P.sobolev_norm_integral(linear_path(J), ALPHA, PP)
            errs.append(abs(v - exact) / exact)
        assert errs[0] < 1e-2
        assert errs[1] < 2e-3
        assert errs[1] < errs[0]

    def test_scaling(self, rng):
        vals = rng.standard_normal((17, 2))
        a = P.sobolev_norm_integral(2.5 * vals, ALPHA, PP)
        b = P.sobolev_norm_integral(vals, ALPHA, PP)
        assert a == pytest.approx(2.5 * b, rel=1e-13)

    def test_infinite_p_routes_to_holder(self):
        X = walk_path(3)
        assert P.sobolev_norm_integral(X, ALPHA, math.inf) == P.holder_norm(X, ALPHA)

    def test_window_monotonicity(self):
        X = walk_path(11, depth=4)
        inner = P.sobolev_norm_integral(X, ALPHA, PP, window=(0.25, 0.75))
        outer = P.sobolev_norm_integral(X, ALPHA, PP)
        assert outer >= inner

    def test_overflowing_pair_sum_reads_inf(self):
        # 257 nodes make two row blocks, whose pair sums are about 0.95 and
        # 0.10 times the largest float: each is finite, their total is not
        path = P.VectorPath(np.linspace(0, 1, 257)[:, None] * 1.235e76)
        with np.errstate(over="ignore"):
            assert P.sobolev_norm_integral(path, ALPHA, PP) == math.inf

    def test_overflow_warns_nothing(self):
        # each block computes the terms of its discarded pairs u >= v too;
        # on this path they overflow, which used to warn
        path = P.VectorPath(np.linspace(0, 1, 257)[:, None] * 1e76)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert P.sobolev_norm_integral(path, ALPHA, PP) == 7.0594842962162165e+75
            # overflow in a kept pair still reads inf
            path = P.VectorPath(np.linspace(0, 1, 257)[:, None] * 1e80)
            assert P.sobolev_norm_integral(path, ALPHA, PP) == math.inf


class TestSobolevDyadic:
    def test_constant(self):
        res = P.sobolev_norm_dyadic(np.zeros(17), ALPHA, PP)
        assert res.value == 0.0

    def test_linear_closed_form_truncated(self):
        for J in (6, 10):
            res = P.sobolev_norm_dyadic(linear_path(J), ALPHA, PP)
            series = sum(2.0 ** (-j * PP * (1 - ALPHA)) for j in range(J + 1))
            assert res.value == pytest.approx(series ** (1 / PP), rel=1e-12)
            assert res.tail == pytest.approx(2.0 ** (-J * PP * (1 - ALPHA) / PP), rel=1e-12)

    def test_ratio_to_integral_bounded_and_stable(self):
        base = 8
        ratios = {}
        for J in (8, 10):
            ratios[J] = []
            for seed in range(6):
                rng = np.random.default_rng(seed)
                steps = rng.choice([-1.0, 1.0], size=(1 << base, 2)) * 2.0 ** (-base * 0.6)
                knots = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
                if J > base:
                    idx = np.linspace(0, 1 << base, (1 << J) + 1)
                    knots_fine = np.stack([np.interp(idx, np.arange((1 << base) + 1), knots[:, i])
                                           for i in range(2)], axis=1)
                else:
                    knots_fine = knots
                X = P.SampledRoughPath.from_samples(knots_fine, 2, ALPHA, PP)
                ratios[J].append(P.sobolev_norm_integral(X, ALPHA, PP)
                                 / P.sobolev_norm_dyadic(X, ALPHA, PP).value)
        allr = ratios[8] + ratios[10]
        assert max(allr) / min(allr) < 20.0
        for r8, r10 in zip(ratios[8], ratios[10]):
            assert abs(r10 / r8 - 1.0) < 0.05

    def test_overflowing_sum_reads_inf(self):
        # finite per-level terms whose sum leaves the float range, as np.sum reads it
        path = P.VectorPath(np.linspace(0, 1, 33)[:, None] * 1.7e308 ** 0.25)
        res = P.sobolev_norm_dyadic(path, ALPHA, PP)
        assert res.value == math.inf and math.isfinite(res.tail)
        with np.errstate(over="ignore"):
            assert P.sobolev_norm_integral(path, ALPHA, PP) == math.inf


class TestInhomDistances:
    def test_zero_for_identical(self):
        X = walk_path(5)
        res = P.inhom_sobolev_dist(X, X, ALPHA, PP)
        assert res.total == 0.0 and all(v == 0.0 for v in res.levels)
        assert P.mixed_dist(X, X, ALPHA, PP).value == 0.0
        assert all(v == 0.0 for v in P.inhom_qvar_dist(X, X, ALPHA))

    def test_dilation_scaling(self):
        X = walk_path(8, depth=3)
        lam = 1.3
        nodes = X.nodes.copy()
        for k in range(1, X.alg.level + 1):
            nodes[:, X.alg.slice(k)] *= lam**k
        X2 = P.SampledRoughPath(X.alg, X.depth, nodes, ALPHA, PP, trusted=True)
        res = P.inhom_sobolev_dist(X, X2, ALPHA, PP)
        for k in range(1, 3):
            terms = [2.0 ** (j * (ALPHA * PP - 1)) *
                     float(np.sum(np.linalg.norm(
                         X.dyadic_increments(j)[:, X.alg.slice(k)], axis=1) ** (PP / k)))
                     for j in range(X.depth + 1)]
            level_norm = math.fsum(terms) ** (k / PP)
            assert res.levels[k - 1] == pytest.approx(abs(lam**k - 1) * level_norm, rel=1e-12)

    def test_inhom_sobolev_independent_reimplementation(self):
        X1, X2 = walk_path(21), walk_path(22)
        res = P.inhom_sobolev_dist(X1, X2, ALPHA, PP)
        # direct double loop over dyadic intervals through the group API
        totals = []
        for k in (1, 2):
            acc = []
            for j in range(X1.depth + 1):
                stride = 1 << (X1.depth - j)
                s = 0.0
                for i in range(1 << j):
                    g1 = X1.increment(i * stride, (i + 1) * stride)
                    g2 = X2.increment(i * stride, (i + 1) * stride)
                    s += np.linalg.norm(g1.coeffs(k) - g2.coeffs(k)) ** (PP / k)
                acc.append(2.0 ** (j * (ALPHA * PP - 1)) * s)
            totals.append(math.fsum(acc) ** (k / PP))
        assert res.levels[0] == pytest.approx(totals[0], rel=1e-12)
        assert res.levels[1] == pytest.approx(totals[1], rel=1e-12)
        assert res.total == pytest.approx(sum(totals), rel=1e-12)

    @given(st.integers(0, 100))
    @settings(max_examples=25)
    def test_inhom_qvar_matches_enumeration(self, seed):
        X1, X2 = walk_path(seed, depth=2), walk_path(seed + 1000, depth=2)
        res = P.inhom_qvar_dist(X1, X2, ALPHA)
        corners = P.mixed_dist(X1, X2, ALPHA, PP).qvar_levels
        for k in (1, 2):
            diff = oracles.pair_level_diff_matrix(X1, X2, k, 0, X1.n_nodes)
            assert res[k - 1] == oracles.enum_inhom_qvar_level(diff, ALPHA, k)
            assert corners[k - 1] == res[k - 1]

    def test_single_segment_level1_difference(self):
        a = P.SampledRoughPath.from_samples(np.array([[0.0], [1.0]]), 1, 0.8, 8.0)
        b = P.SampledRoughPath.from_samples(np.array([[0.0], [1.5]]), 1, 0.8, 8.0)
        res = P.inhom_qvar_dist(a, b, 0.8)
        assert res[0] == pytest.approx(0.5, abs=1e-15)

    @given(st.integers(0, 100))
    @settings(max_examples=15)
    def test_mixed_matches_enumeration(self, seed):
        X1, X2 = walk_path(seed, depth=2), walk_path(seed + 2000, depth=2)
        res = P.mixed_dist(X1, X2, ALPHA, PP)
        for k in (1, 2):
            diff = oracles.pair_level_diff_matrix(X1, X2, k, 0, X1.n_nodes)
            assert res.levels[k - 1] == oracles.enum_mixed_level(diff, ALPHA, PP, k)
        assert res.value == max(res.levels)

    @pytest.mark.parametrize("seed", [60, 61])
    def test_mixed_matches_out_of_place_reference(self, seed):
        X1, X2 = walk_path(seed, depth=9), walk_path(seed + 100, depth=9)
        res = P.mixed_dist(X1, X2, ALPHA, PP)
        assert (res.levels, res.value) == oracles.mixed_dist_out_of_place(X1, X2, ALPHA, PP)
        assert res.qvar_levels == P.inhom_qvar_dist(X1, X2, ALPHA)

    def test_mixed_transient_memory(self, traced_memory):
        # one level's table and the level_diff_block transient of one row
        # block (about 2 (n, n) arrays at 128 x 513) come to about 3.07 (n, n)
        # arrays, once the previous level's table is dropped
        X1, X2 = walk_path(61, depth=9), walk_path(62, depth=9)
        n = X1.n_nodes
        X1.inv_nodes, X2.inv_nodes
        assert traced_memory(lambda: P.mixed_dist(X1, X2, ALPHA, PP))[0] <= 3.5 * n * n * 8

    def test_qvar_dist_transient_memory(self, traced_memory):
        # no (n, n) array: the level_diff_block transient of one row block and
        # that block's weights, about 2.08 (n, n) arrays at J = 9
        X1, X2 = walk_path(61, depth=9), walk_path(62, depth=9)
        n = X1.n_nodes
        X1.inv_nodes, X2.inv_nodes
        assert traced_memory(lambda: P.inhom_qvar_dist(X1, X2, ALPHA))[0] <= 2.5 * n * n * 8

    def test_mixed_bounded_by_norm_sum(self):
        # fit the comparison constant on one family, check it on a fresh one
        def ratios(seeds):
            out = []
            for s in seeds:
                X1, X2 = walk_path(s, depth=4), walk_path(s + 5000, depth=4)
                val = P.mixed_dist(X1, X2, ALPHA, PP).value
                tot = (P.sobolev_norm_dyadic(X1, ALPHA, PP).value
                       + P.sobolev_norm_dyadic(X2, ALPHA, PP).value)
                out.append(val / tot)
            return out

        K = max(ratios(range(10))) * 1.5
        assert all(r <= K for r in ratios(range(100, 110)))

    def test_grid_mismatch_rejected(self):
        with pytest.raises(P.PathError):
            P.inhom_sobolev_dist(walk_path(0, depth=3), walk_path(0, depth=4), ALPHA, PP)

    def test_distance_positive_for_different_paths(self):
        X1, X2 = walk_path(31), walk_path(32)
        assert P.inhom_sobolev_dist(X1, X2, ALPHA, PP).total > 1e-12
        assert P.mixed_dist(X1, X2, ALPHA, PP).value > 1e-12

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0, 1.5])
    def test_distances_reject_alpha_outside_unit_interval(self, alpha):
        X1, X2 = walk_path(33), walk_path(34)
        for dist in (lambda: P.inhom_qvar_dist(X1, X2, alpha),
                     lambda: P.inhom_sobolev_dist(X1, X2, alpha, PP),
                     lambda: P.mixed_dist(X1, X2, alpha, PP)):
            with pytest.raises(P.PathError, match=r"outside \(0, 1\)"):
                dist()


class TestControlCheck:
    def test_additive_is_control(self):
        levels = [np.full(1 << j, 2.0 ** (-j)) for j in range(5)]
        omega = P.IntervalFunction.from_dyadic(levels)
        rep = P.control_check(omega)
        assert rep.ok and rep.worst == 0.0

    def test_sqrt_gap_fails(self):
        levels = [np.full(1 << j, 2.0 ** (-j / 2)) for j in range(5)]
        rep = P.control_check(P.IntervalFunction.from_dyadic(levels))
        assert not rep.ok
        assert rep.worst == pytest.approx(2.0 * 0.5**0.5 - 1.0, rel=1e-12)

    def test_integral_norm_power_is_control(self):
        X = walk_path(41, depth=5)
        omega = P.integral_norm_interval_function(X, ALPHA, PP)
        rep = P.control_check(omega)
        assert rep.ok

    @staticmethod
    def _assert_integral_control_equals_fsum(path):
        # each dyadic square is summed from its own terms, so short intervals
        # keep the relative accuracy of long ones
        got = P.integral_norm_interval_function(path, ALPHA, PP)
        want = oracles.integral_control_fsum(path, ALPHA, PP)
        for j, level in enumerate(want):
            assert np.all(np.abs(got.dyadic_level(j) - level) <= 1e-14 * level), j

    @pytest.mark.parametrize("J", [1, 3, 7, 9])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_integral_control_equals_fsum(self, J, d, N):
        # J = 9 has 513 nodes, so its row blocks cross the 128-row boundary
        rng = np.random.default_rng(100 * J + 10 * d + N)
        pts = np.vstack([np.zeros(d), np.cumsum(0.1 * rng.standard_normal(((1 << J), d)), axis=0)])
        self._assert_integral_control_equals_fsum(P.SampledRoughPath.from_samples(pts, N, ALPHA, PP))

    @pytest.mark.parametrize("J", [3, 9])
    @pytest.mark.parametrize("m", [1, 3, 8, 9, 16])
    def test_integral_control_of_vector_path_equals_fsum(self, J, m):
        vals = np.random.default_rng(10 * J + m).standard_normal(((1 << J) + 1, m))
        self._assert_integral_control_equals_fsum(P.VectorPath(vals))

    @pytest.mark.parametrize("J", [7, 9, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_integral_control_of_rough_walk_equals_fsum(self, J, seed):
        self._assert_integral_control_equals_fsum(walk_path(seed, depth=J))

    @pytest.mark.parametrize("kind, size", [("walk", 3), ("walk", 7), ("walk", 10),
                                            ("vector", 1), ("vector", 3), ("vector", 16)])
    def test_whole_interval_is_the_integral_norm(self, kind, size):
        # the same upper-triangle terms, summed in another order
        path = (walk_path(5, depth=size) if kind == "walk"
                else P.VectorPath(np.random.default_rng(size).standard_normal((129, size))))
        top = P.integral_norm_interval_function(path, ALPHA, PP).dyadic_level(0)[0]
        assert top == pytest.approx(P.sobolev_norm_integral(path, ALPHA, PP) ** PP, rel=1e-14)

    def test_integral_control_memory(self, traced_memory, kept_arrays):
        # no (n, n) array: one upper row block of distances with its level-2
        # planes, about 1.33 (n, n) arrays at J = 9; the 2-D prefix sums of
        # full row blocks peaked at 2.33 and the whole-matrix form at 6.0
        X = walk_path(61, depth=9)
        n = X.n_nodes
        X.inv_nodes
        peak, held = traced_memory(lambda: P.integral_norm_interval_function(X, ALPHA, PP))
        assert peak <= 1.6 * n * n * 8
        assert held < n * 8 * 8
        assert not kept_arrays(X)

    def test_integral_norm_interval_function_checks_its_input(self):
        with pytest.raises(P.PathError, match=r"2\^J \+ 1 samples"):
            P.integral_norm_interval_function(P.VectorPath(np.arange(7.0)), ALPHA, PP)
        X = walk_path(41, depth=3)
        for alpha, p in [(0.2, 4.0), (ALPHA, math.inf)]:
            with pytest.raises(P.PathError, match="inadmissible"):
                P.integral_norm_interval_function(X, alpha, p)

    @pytest.mark.parametrize("vshape", [(1,), (2,), (3,), (4,), (8,), (9,), (16,), (2, 2), (3, 4)],
                             ids=lambda v: "x".join(map(str, v)))
    def test_pair_norm_rows_bitwise_equal_to_column_major(self, vshape):
        # the row blocks that remainder_norm_tildeV streams, against the
        # magnitudes reduced by one column-major einsum
        n = 257
        rng = np.random.default_rng(sum(vshape) * 10 + len(vshape))
        shape = (n, n) + vshape
        pair = rng.standard_normal(shape) * np.exp(4.0 * rng.standard_normal(shape))
        R = P.IntervalFunction.from_pair_matrix(pair)
        want = np.ascontiguousarray(oracles.pair_norms_column_major(pair))
        assert R.pair_norms().tobytes() == want.tobytes()
        blocks = P._push_rows(lambda out, r0, mags: out.append((r0, mags)), [],
                              R._pair_norm_block, 0, n)
        assert [r0 for r0, _ in blocks] == [0, 128, 256]
        for r0, mags in blocks:
            assert mags.tobytes() == want[r0:r0 + mags.shape[0], r0:].copy().tobytes()

    def test_interval_function_storage(self):
        n = 9
        fn = P.IntervalFunction.from_callable(n, lambda i, j: (j - i) / 8.0)
        for j in range(1, 4):
            assert np.allclose(fn.dyadic_level(j), 2.0 ** (-j))
        diff = fn - fn
        assert np.all(diff.pair == 0.0)

    def test_interval_function_rejects_nonfinite(self):
        with pytest.raises(P.PathError):
            P.IntervalFunction.from_dyadic([np.array([np.inf])])


class TestWindowMonotonicity:
    def test_all_windowed_norms_nest(self):
        X1, X2 = walk_path(51, depth=4), walk_path(52, depth=4)
        windows = [(0.25, 0.5), (0.25, 0.75), (0.0, 1.0)]
        for fn in (lambda w: P.qvar_norm(X1, 2.5, window=w),
                   lambda w: P.holder_norm(X1, ALPHA, window=w),
                   lambda w: P.sobolev_norm_integral(X1, ALPHA, PP, window=w),
                   lambda w: P.inhom_qvar_dist(X1, X2, ALPHA, window=w)[0],
                   lambda w: P.inhom_qvar_dist(X1, X2, ALPHA, window=w)[1]):
            vals = [fn(w) for w in windows]
            assert vals[0] <= vals[1] <= vals[2]


def _norm_windows(J):
    """Whole path, then a window starting at 0 or at 128 (aligned with the
    distance blocks at J=9), then one starting inside a block."""
    if J < 4:
        return [None, (0.0, 0.5), (0.5, 1.0)]
    return [None, (0.25, 0.75), (0.3125, 0.875)]


_NORMS = {
    "holder": lambda X, w: P.holder_norm(X, ALPHA, window=w),
    "integral": lambda X, w: P.sobolev_norm_integral(X, ALPHA, PP, window=w),
    "qvar": lambda X, w: P.qvar_norm(X, 1.0 / ALPHA, window=w),
}


def _reference_norms(grid, window):
    a, b = 0, grid.n_nodes
    if window is not None:
        a, b = grid.index_of(window[0]), grid.index_of(window[1]) + 1
    return {
        "holder": oracles.holder_norm_streaming(grid, ALPHA, a, b).hex(),
        "integral": oracles.sobolev_norm_integral_streaming(grid, ALPHA, PP, a, b).hex(),
        "qvar": oracles.qvar_norm_full_matrix(grid, 1.0 / ALPHA, a, b).hex(),
    }


class TestSharedPairDistances:
    """pair_norms reads each upper distance block row once for all three
    norms.  Each norm, alone or from one call that asks for all three, must
    equal its per-call reference bitwise."""

    def _check(self, make, J):
        for window in _norm_windows(J):
            expected = _reference_norms(make(), window)
            got = {name: _NORMS[name](make(), window).hex() for name in _NORMS}
            assert got == expected, window
            both = P.pair_norms(make(), qvar=1.0 / ALPHA, holder=ALPHA, integral=(ALPHA, PP),
                                window=window)
            assert {name: getattr(both, name).hex() for name in _NORMS} == expected, window

    @pytest.mark.parametrize("J", [1, 2, 3, 7, 9])
    @pytest.mark.parametrize("d,N", [(1, 1), (2, 2), (3, 2), (2, 3)])
    def test_group_path_norms_bitwise(self, J, d, N):
        rng = np.random.default_rng(100 * J + 10 * d + N)
        pts = np.vstack([np.zeros(d), np.cumsum(0.1 * rng.standard_normal(((1 << J), d)), axis=0)])
        self._check(lambda: P.SampledRoughPath.from_samples(pts, N, ALPHA, PP), J)

    @pytest.mark.parametrize("J", [3, 9])
    def test_vector_path_norms_bitwise(self, J):
        vals = np.random.default_rng(J).standard_normal(((1 << J) + 1, 2))
        self._check(lambda: P.VectorPath(vals), J)

    def test_asked_norms_and_argument_checks(self):
        X = walk_path(60, depth=4)
        assert P.pair_norms(X) == (None, None, None)
        got = P.pair_norms(X, holder=ALPHA)
        assert got.qvar is None and got.integral is None
        assert got.holder == P.holder_norm(X, ALPHA)
        with pytest.raises(P.PathError, match="must be >= 1"):
            P.pair_norms(X, qvar=0.5)
        with pytest.raises(P.PathError, match="outside"):
            P.pair_norms(X, holder=1.0)
        for integral in ((0.2, PP), (ALPHA, math.inf)):
            with pytest.raises(P.PathError, match="inadmissible"):
                P.pair_norms(X, integral=integral)

    def test_each_block_row_computed_once(self, monkeypatch):
        X = walk_path(61, depth=8)
        n = X.n_nodes
        calls = []
        original = P._kernels.hom_dist_block

        def counted(inv_rows, nodes, d, N):
            calls.append((inv_rows.shape[0], nodes.shape[0]))
            return original(inv_rows, nodes, d, N)

        monkeypatch.setattr(P._kernels, "hom_dist_block", counted)
        P.pair_norms(X, qvar=1.0 / ALPHA, holder=ALPHA, integral=(ALPHA, PP))
        # rows [r0, r0 + 128) over the columns [r0, n): every pair u < v once
        assert calls == [(min(128, n - r0), n - r0) for r0 in range(0, n, 128)]

    def test_streamed_pass_memory(self, traced_memory, kept_arrays):
        # J = 11: one row block is 128 x 2049 floats; the kept rows of all
        # blocks would be about 8 of them, the (n, n) weights 16
        X = walk_path(63, depth=11)
        X.inv_nodes  # the path's own inverses, kept before the pass
        block = 128 * X.n_nodes * 8
        peak, held = traced_memory(
            lambda: P.pair_norms(X, qvar=1.0 / ALPHA, holder=ALPHA, integral=(ALPHA, PP)))
        assert peak <= 9 * block
        assert held < block // 8
        assert X._dist_cache is None
        assert not kept_arrays(X)
