import numpy as np
import pytest

from sobrough import harness as H
from sobrough import paths as P
from sobrough.fields import PolyMap, PolyVectorField
from sobrough.rde import BlowUpError
from sobrough.report import dumps

import oracles


class TestDrivers:
    def test_trig_driver_deterministic_and_smooth(self):
        d1 = H.make_trig_driver(7, 2)
        d2 = H.make_trig_driver(7, 2)
        t = np.linspace(0, 1, 33)
        assert np.array_equal(d1.x(t), d2.x(t))
        # derivative consistent with finite differences
        eps = 1e-6
        fd = (d1.x(t + eps) - d1.x(t - eps)) / (2 * eps)
        assert np.allclose(fd, d1.xdot(t), atol=1e-6)
        assert np.allclose(d1.x(np.array([0.0])), 0.0, atol=1e-15)

    def test_walk_supersampling_consistent(self):
        coarse = H.make_walk_samples(3, 2, 4, 0.6, 4)
        fine = H.make_walk_samples(3, 2, 4, 0.6, 6)
        assert np.allclose(fine[::4], coarse, atol=1e-15)
        # increments scale like 2^(-J h)
        steps = np.diff(coarse, axis=0)
        assert np.allclose(np.abs(steps), 2.0 ** (-4 * 0.6), atol=1e-12)

    def test_walk_lift_is_geometric(self):
        samples = H.make_walk_samples(5, 2, 5, 0.7, 5)
        X = H.lift_smooth(samples, 3, 5, 0.35, 4.0)
        # constructor would reject a non-geometric set of nodes
        P.SampledRoughPath(X.alg, X.depth, X.nodes.copy(), 0.35, 4.0)

    def test_lift_smooth_cases(self):
        const = np.zeros((9, 2))
        X = H.lift_smooth(const, 2, 3, 0.4, 4.0)
        ident = np.zeros(X.alg.length)
        ident[0] = 1.0
        assert np.array_equal(X.nodes, np.tile(ident, (9, 1)))

        v = np.array([2.0, -1.0])
        ts = np.linspace(0, 1, 9)
        X = H.lift_smooth(np.outer(ts, v), 2, 3, 0.4, 4.0)
        for i, t in enumerate(ts):
            assert np.allclose(X.nodes[i, X.alg.slice(1)], t * v, atol=1e-14)
            assert np.allclose(X.nodes[i, X.alg.slice(2)],
                               np.outer(t * v, t * v).ravel() / 2, atol=1e-13)


class TestOdeOracle:
    def test_zero_field(self):
        drv = H.make_trig_driver(0, 1)
        res = H.ode_oracle(np.array([2.0]), PolyVectorField.zero(1, 1), drv, 4)
        assert np.all(res.values == 2.0)

    def test_exponential(self):
        drv = H.SmoothDriver(1, lambda t: np.atleast_1d(t)[:, None],
                             lambda t: np.ones((np.size(t), 1)))
        res = H.ode_oracle(np.array([1.0]), PolyVectorField.scalar([0.0, 1.0]), drv, 5,
                           refinement=64)
        assert abs(res.values[-1, 0] - np.e) < 1e-10
        assert res.richardson_error < 1e-12

    def test_fourth_order_richardson(self):
        drv = H.SmoothDriver(1, lambda t: np.atleast_1d(t)[:, None],
                             lambda t: np.ones((np.size(t), 1)))
        V = PolyVectorField.scalar([0.0, 1.0])
        errs = []
        for refinement in (1, 2, 4, 8):
            val = H.ode_oracle(np.array([1.0]), V, drv, 3, refinement=refinement).values[-1, 0]
            errs.append(abs(val - np.e))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(12.0 < r < 20.0 for r in ratios)


class TestOdeOracleMatchesPerSubstepLoop:
    """ode_oracle evaluates the driver derivative once per stage offset on
    arrays, and runs the stages on Python floats through a single-point form
    of the field; both must leave the RK4 arithmetic of the per-substep loop
    bit for bit unchanged, down to the sign of a zero."""

    @staticmethod
    def _problems():
        # the three convergence_study problems (seed 0) and a 2-d field
        A = np.zeros((2, 2, 2))
        A[:, 0, :] = [[0.0, 0.6], [0.0, 0.0]]
        A[:, 1, :] = [[0.0, 0.0], [0.5, 0.0]]
        return [
            (PolyVectorField.scalar([0.0, 1.0]),
             H.SmoothDriver(1, lambda t: np.atleast_1d(t)[:, None],
                            lambda t: np.ones((np.size(t), 1))), np.array([1.0])),
            (PolyVectorField.scalar([0.5, 0.4]), H.make_trig_driver([0, 1], 1),
             np.array([0.2])),
            (PolyVectorField.scalar([0.3, 0.2, -0.15]), H.make_trig_driver([0, 2], 1),
             np.array([0.1])),
            (PolyVectorField.linear(A, np.array([[0.3, 0.0], [0.0, 0.4]])),
             H.make_trig_driver(21, 2), np.array([0.2, -0.1])),
            # (e, d) = (2, 1) with a cubic term, which NumPy powers apart
            (PolyVectorField(PolyMap(2, (2, 1), {(0, 0): np.array([[0.3], [-0.2]]),
                                                 (1, 1): np.array([[0.5], [0.0]]),
                                                 (0, 2): np.array([[0.1], [0.2]]),
                                                 (3, 0): np.array([[-0.2], [0.4]])})),
             H.make_trig_driver(22, 1), np.array([0.1, -0.3])),
            # V(y) = y from -0.0 with xdot = -1: each product V(y) xdot is
            # -0.0, which `@` adds to +0.0
            (PolyVectorField.scalar([0.0, 1.0]),
             H.SmoothDriver(1, lambda t: -np.atleast_1d(t)[:, None],
                            lambda t: -np.ones((np.size(t), 1))), np.array([-0.0])),
        ]

    @staticmethod
    def _check(V, drv, y0, depth, refinement):
        res = H.ode_oracle(y0, V, drv, depth, refinement=refinement)
        values, rich = oracles.rk4_per_substep(y0, V, drv, depth, refinement)
        assert np.array_equal(res.values, values)
        assert res.values.tobytes() == values.tobytes()
        assert res.richardson_error == rich

    def test_bitwise_equal(self):
        for V, drv, y0 in self._problems():
            for depth, refinement in ((3, 1), (4, 8), (5, 5)):
                self._check(V, drv, y0, depth, refinement)

    def test_bitwise_equal_at_convergence_study_size(self):
        # the deepest oracle of the convergence study, on its quadratic
        # problem and on the (e, d) = (2, 1) field
        problems = self._problems()
        for V, drv, y0 in (problems[2], problems[4]):
            self._check(V, drv, y0, 8, 16)

    def test_blow_up_step_index(self):
        V = PolyVectorField.scalar([0.0, 0.0, 4.0])
        drv = H.make_trig_driver(3, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as ref:
                oracles.rk4_per_substep(np.array([60.0]), V, drv, 4, 8)
            with pytest.raises(BlowUpError) as exc:
                H.ode_oracle(np.array([60.0]), V, drv, 4, refinement=8)
        assert exc.value.step == ref.value.step > 0


class TestStudies:
    def test_equivalence_interval_and_linear_check(self):
        rep = H.equivalence_study({"n_paths": 8, "depths": [6, 8], "seed": 0})
        c1, c2 = rep["ratio_interval"]
        assert 0 < c1 <= c2
        assert rep["interval_spread"] < 20.0
        assert rep["linear_path_check"]["rel_error"] < 0.01

    def test_embedding_zero_heldout_violations(self):
        rep = H.embedding_study({"n_paths": 12, "depth": 6, "seed": 0})
        assert rep["heldout_violations"] == 0
        assert rep["fitted_constant"] >= rep["calibration_max_ratio"]

    @pytest.mark.parametrize("cfg", [
        {"n_paths": 4, "depth": 5, "seed": 1},
        {"n_paths": 4, "depth": 6, "seed": 2, "level": 3, "alpha": 0.3, "p": 5.0, "d": 3},
    ])
    def test_embedding_bitwise_equal_to_per_window_reference(self, cfg):
        rep = H.embedding_study(cfg)
        cal, held = oracles.embedding_ratios_per_window(cfg)
        K = max(cal) * H.FIT_MARGIN
        assert rep["calibration_max_ratio"] == max(cal)
        assert rep["heldout_max_ratio"] == max(held)
        assert rep["fitted_constant"] == K
        assert (rep["n_calibration"], rep["n_heldout"]) == (len(cal), len(held))
        assert rep["heldout_violations"] == sum(1 for r in held if r > K)

    def test_embedding_paths_keep_no_pair_array(self, monkeypatch, kept_arrays):
        lifted, original = [], H.lift_smooth

        def lift(*args):
            lifted.append(original(*args))
            return lifted[-1]

        monkeypatch.setattr(H, "lift_smooth", lift)
        H.embedding_study({"n_paths": 2, "depth": 5, "seed": 0})
        assert len(lifted) == 2
        for X in lifted:
            assert not kept_arrays(X)

    def test_apriori_zero_heldout_violations(self):
        rep = H.apriori_study({"n_paths": 12, "depth": 6, "seed": 0})
        assert rep["heldout_violations"] == 0

    def test_convergence_orders(self):
        rep = H.convergence_study({"depths": [4, 5, 6, 7], "seed": 0, "refinement": 16})
        exp = next(r for r in rep["problems"] if r["name"] == "exponential")
        assert exp["orders"]["N2"] > 1.8
        assert rep["order_gap_n2_vs_n1"] > 0.5
        for prob in rep["problems"]:
            errs = prob["errors"]["N2"]
            assert all(b <= a for a, b in zip(errs, errs[1:])), prob["name"]

    def test_study_determinism(self):
        a = H.equivalence_study({"n_paths": 4, "depths": [6], "seed": 3})
        b = H.equivalence_study({"n_paths": 4, "depths": [6], "seed": 3})
        assert dumps(a) == dumps(b)


class TestSweep:
    def test_small_sweep_shape_and_trivia(self):
        rep = H.lipschitz_sweep({"pairs_per_cell": 1, "depth": 5, "seed": 1})
        trivial = [r for r in rep["records"] if r["channel"] == "identical"]
        assert len(trivial) == 1
        assert trivial[0]["solution_gap"] == 0.0
        assert trivial[0]["rho_hat"] == 0.0 and trivial[0]["rho_mixed"] == 0.0
        assert trivial[0]["ratio"] is None
        zf = [r for r in rep["records"] if r["channel"] == "zero-field"]
        assert len(zf) == 3
        for r in zf:
            assert r["ratio"] == 1.0
            assert r["solution_gap"] == r["dy0"]
        for ch, factor in rep["stability_factor"].items():
            assert factor is not None and factor <= 2.0

    def test_sweep_determinism(self):
        a = H.lipschitz_sweep({"pairs_per_cell": 1, "depth": 4, "seed": 2})
        b = H.lipschitz_sweep({"pairs_per_cell": 1, "depth": 4, "seed": 2})
        assert dumps(a) == dumps(b)

    def test_sweep_hypothesis_recorded(self):
        rep = H.lipschitz_sweep({"pairs_per_cell": 1, "depth": 4, "seed": 0})
        assert rep["hypothesis"]["driver_norm_bound_b"] > 0
        assert rep["hypothesis"]["field_lip_bound_l"] > 0


class TestStabilityControls:
    def test_omega_prime_le_omega_and_superadditivity(self):
        for seed in range(3):
            drv = H.make_trig_driver([seed, 500, 0], 2, amp=0.5)
            eta = H.make_trig_driver([seed, 600, 0], 2, amp=0.4)
            X1 = H.lift_smooth(drv.samples(5), 2, 5, 0.4, 4.0)
            X2 = H.lift_smooth(drv.samples(5) + 0.05 * eta.samples(5), 2, 5, 0.4, 4.0)
            res = H.stability_controls(X1, X2, 0.4, 4.0)
            assert res["omega_prime_le_omega"], res["worst_gap"]
            assert res["omega_superadditive"], res["omega_superadditivity_violation"]

    @pytest.mark.parametrize("depth", [5, 7])
    def test_bitwise_equal_to_rebuilt_tables(self, depth):
        for seed in range(3):
            drv = H.make_trig_driver([seed, 500, 0], 2, amp=0.5)
            eta = H.make_trig_driver([seed, 600, 0], 2, amp=0.4)
            X1 = H.lift_smooth(drv.samples(depth), 2, depth, 0.4, 4.0)
            X2 = H.lift_smooth(drv.samples(depth) + 0.05 * eta.samples(depth), 2, depth, 0.4, 4.0)
            res = H.stability_controls(X1, X2, 0.4, 4.0)
            omega, omega_prime, worst_gap, excess = oracles.stability_controls_levels(
                X1, X2, 0.4, 4.0)
            for j in range(depth + 1):
                assert res["omega"].dyadic_level(j).tobytes() == omega[j].tobytes()
                assert res["omega_prime"].dyadic_level(j).tobytes() == omega_prime[j].tobytes()
            assert res["worst_gap"] == worst_gap
            assert res["omega_superadditivity_violation"] == excess

    @staticmethod
    def _pair(depth):
        drv = H.make_trig_driver([0, 500, 0], 2, amp=0.5)
        eta = H.make_trig_driver([0, 600, 0], 2, amp=0.4)
        return (H.lift_smooth(drv.samples(depth), 2, depth, 0.4, 4.0),
                H.lift_smooth(drv.samples(depth) + 0.05 * eta.samples(depth), 2, depth, 0.4, 4.0))

    def test_memory(self, traced_memory, kept_arrays):
        # one interval table at a time, and the level_diff_block transient of
        # one row block: about 3.17 (n, n) arrays at J = 9, where the
        # whole-matrix route peaked at 7.15 and kept both distance matrices
        X1, X2 = self._pair(9)
        n = X1.n_nodes
        X1.inv_nodes, X2.inv_nodes
        peak, _ = traced_memory(lambda: H.stability_controls(X1, X2, 0.4, 4.0))
        assert peak <= 3.5 * n * n * 8
        assert not kept_arrays(X1) and not kept_arrays(X2)

    def test_each_row_block_pushed_once(self, kernel_calls):
        calls = kernel_calls("hom_dist_block", "level_diff_block", "interval_push_rows",
                             "partition_push_rows", "interval_dp_table", "partition_dp_max",
                             "hom_dist_matrix")
        H.stability_controls(*self._pair(7), 0.4, 4.0)
        assert not (calls["interval_dp_table"] or calls["partition_dp_max"]
                    or calls["hom_dist_matrix"])
        # 129 nodes make the upper row blocks [0, 128) and [128, 129), over the
        # columns [r0, 129): (rows, columns) once per block of each path
        assert [(a[0].shape[0], a[1].shape[0]) for a in calls["hom_dist_block"]] == \
            [(128, 129), (1, 1)] * 2
        assert [(a[6], a[0].shape[0]) for a in calls["level_diff_block"]] == \
            [(1, 128), (1, 1), (2, 128), (2, 1)]
        # four tables (two paths, two levels), each block pushed once; each
        # level's outer weights pushed once into its mixed variation
        assert [(a[1], a[2].shape[0]) for a in calls["interval_push_rows"]] == \
            [(0, 128), (128, 1)] * 4
        assert [(a[1], a[2].shape[0]) for a in calls["partition_push_rows"]] == \
            [(0, 128), (128, 1)] * 2
