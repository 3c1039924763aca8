import warnings

import numpy as np
import pytest

from sobrough import _kernels
from sobrough import algebra as A
from sobrough import paths as P
from sobrough import controlled, rde
from sobrough.controlled import ControlledPath, compose_smooth, controlled_norm, rough_integral
from sobrough.fields import PolyVectorField
from sobrough.harness import lift_smooth, make_trig_driver, ode_oracle

import oracles

ALPHA, PP = 0.4, 4.0


def lift_line(depth, level=2):
    ts = np.linspace(0.0, 1.0, (1 << depth) + 1)[:, None]
    return P.SampledRoughPath.from_samples(ts, level, ALPHA, PP)


def noncommuting_case(depth):
    """(d, e) = (2, 2) linear field with non-commuting parts, on a trig driver."""
    A = np.zeros((2, 2, 2))
    A[:, 0, :] = [[0.0, 0.6], [0.0, 0.0]]
    A[:, 1, :] = [[0.0, 0.0], [0.5, 0.0]]
    V = PolyVectorField.linear(A, np.array([[0.3, 0.0], [0.0, 0.4]]))
    X = lift_smooth(make_trig_driver(21, 2).samples(depth), 2, depth, ALPHA, PP)
    return V, np.array([0.2, -0.1]), X


class TestEulerStep:
    def test_constant_field(self, rng):
        c = rng.standard_normal((2, 3))
        V = PolyVectorField.constant(c)
        g = A.random_group_element(A.TensorAlgebra(3, 2), rng)
        y = rng.standard_normal(2)
        out = rde.euler_step(V, y, g)
        # all operator products of order >= 2 vanish for a constant field
        assert np.allclose(out, y + c @ g.coeffs(1), atol=1e-14)

    def test_scalar_linear_closed_form(self):
        V = PolyVectorField.scalar([0.0, 1.0])
        alg = A.TensorAlgebra(1, 2)
        for h in (0.1, 0.5, -0.3):
            g = A.exp(A.lie_from_vector(alg, [h]))
            out = rde.euler_step(V, np.array([2.0]), g)
            assert out[0] == pytest.approx(2.0 * (1 + h + h * h / 2), rel=1e-15)

    def test_identity_increment(self, rng):
        V = PolyVectorField.scalar([0.3, 0.4, 0.1])
        g = A.identity(A.TensorAlgebra(1, 2))
        y = np.array([0.7])
        assert np.array_equal(rde.euler_step(V, y, g), y)


class TestSolveEuler:
    def test_zero_field_constant(self):
        X = lift_line(5)
        sol = rde.solve_euler(np.array([3.0]), PolyVectorField.zero(1, 1), X)
        assert np.all(sol.values == 3.0)

    def test_constant_field_telescopes(self, rng):
        c = rng.standard_normal((2, 1))
        X = lift_line(5)
        for j in (2, 4, 5):
            sol = rde.solve_euler(np.zeros(2), PolyVectorField.constant(c), X, step_depth=j)
            x1 = X.nodes[:: 1 << (5 - j), X.alg.slice(1)]
            assert np.allclose(sol.values, x1 * c.T, atol=1e-12)

    def test_exponential_convergence_monotone(self):
        V = PolyVectorField.scalar([0.0, 1.0])
        X = lift_line(10)
        errs = []
        for j in range(4, 11):
            sol = rde.solve_euler(np.array([1.0]), V, X, step_depth=j)
            errs.append(abs(sol.terminal[0] - np.e))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 5e-7

    def test_blow_up_detected(self):
        ts = 20.0 * np.linspace(0.0, 1.0, (1 << 6) + 1)[:, None]
        X = P.SampledRoughPath.from_samples(ts, 2, ALPHA, PP)
        V = PolyVectorField.scalar([0.0, 0.0, 1.0])  # V(y) = y^2
        with pytest.raises(rde.BlowUpError) as exc:
            rde.solve_euler(np.array([1.0]), V, X)
        assert 0 <= exc.value.step < (1 << 6)

    def test_step_increment_norms_recorded(self):
        X = lift_line(4)
        sol = rde.solve_euler(np.array([0.0]), PolyVectorField.scalar([1.0]), X)
        norms = sol.meta["step_increment_norms"]
        assert len(norms) == 16
        assert all(v == pytest.approx(1.0 / 16, rel=1e-12) for v in norms)


class TestPicard:
    def test_zero_field_one_iteration(self):
        X = lift_line(4)
        sol = rde.solve_picard_level2(np.array([1.5]), PolyVectorField.zero(1, 1), X)
        assert sol.meta["iterations"] == 1
        assert np.all(sol.values == 1.5)

    def test_constant_field_two_iterations(self, rng):
        c = rng.standard_normal((1, 1))
        X = lift_line(4)
        sol = rde.solve_picard_level2(np.array([0.5]), PolyVectorField.constant(c), X)
        assert sol.meta["iterations"] == 2
        x1 = X.nodes[:, X.alg.slice(1)]
        assert np.allclose(sol.values, 0.5 + x1 * c[0, 0], atol=1e-12)

    def test_agrees_with_euler_on_linear_problem(self):
        V = PolyVectorField.scalar([0.0, 1.0])
        X = lift_line(8)
        pic = rde.solve_picard_level2(np.array([1.0]), V, X)
        eul = rde.solve_euler(np.array([1.0]), V, X)
        assert np.max(np.abs(pic.values - eul.values)) < 1e-6

    def test_fixed_point_property(self):
        tol = 1e-9
        V = PolyVectorField.scalar([0.2, 0.7])
        drv = make_trig_driver(5, 1)
        X = lift_smooth(drv.samples(6), 2, 6, ALPHA, PP)
        sol = rde.solve_picard_level2(np.array([0.4]), V, X, tol=tol)
        cp = ControlledPath(X, sol.values, V.eval_batch(sol.values))
        integrand = compose_smooth(V, cp)
        I = rough_integral(integrand)
        nxt = ControlledPath(X, np.array([0.4])[None, :] + I.values, V.eval_batch(cp.Y))
        assert controlled_norm(nxt.sub(cp)) < 2 * tol

    def test_self_test_gate(self):
        X = lift_line(3)
        V = PolyVectorField.scalar([0.0, 1.0])
        V._self_test = 1.0  # simulate a failed derivative check
        with pytest.raises(P.PathError):
            rde.solve_picard_level2(np.array([1.0]), V, X)

    @pytest.mark.parametrize("scale, step", [(20.0, 9), (200.0, 8), (1e100, 2)])
    def test_blow_up_step_without_warnings(self, scale, step):
        # dy = y^2 dx, y0 = 1, x_t = scale * t: the solution blows up before t = 1
        ts = scale * np.linspace(0.0, 1.0, (1 << 6) + 1)[:, None]
        X = P.SampledRoughPath.from_samples(ts, 2, ALPHA, PP)
        V = PolyVectorField.scalar([0.0, 0.0, 1.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(rde.BlowUpError) as exc:
                rde.solve_picard_level2(np.array([1.0]), V, X, max_iter=50)
        assert exc.value.step == step
        # overflow on the way to the blow-up stays inside the solver
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("depth, scale, step", [(6, 1e3, 45), (8, 1e3, 45), (6, 1e5, 19)])
    def test_blow_up_when_residual_not_finite(self, depth, scale, step):
        # dy = y dx, y0 = 1, x_t = scale * t: every iterate is finite, but the
        # controlled norm of their difference leaves the float range; at 1e5
        # its dyadic sum overflows inside math.fsum
        ts = scale * np.linspace(0.0, 1.0, (1 << depth) + 1)[:, None]
        X = P.SampledRoughPath.from_samples(ts, 2, ALPHA, PP)
        V = PolyVectorField.scalar([0.0, 1.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(rde.BlowUpError) as exc:
                rde.solve_picard_level2(np.array([1.0]), V, X, max_iter=50)
        assert exc.value.step == step
        assert [str(w.message) for w in caught] == []

    def test_non_finite_values_raise_their_own_path_error(self):
        X = lift_line(3)
        Y = np.ones((X.n_nodes, 1))
        Y[4] = np.inf
        with pytest.raises(controlled.NonFiniteError, match="non-finite controlled-path values"):
            ControlledPath(X, Y, np.zeros((X.n_nodes, 1, 1)))
        assert issubclass(controlled.NonFiniteError, P.PathError)

    def test_blow_up_decided_by_error_class_not_wording(self, monkeypatch):
        X = lift_line(3)
        V = PolyVectorField.scalar([0.0, 1.0])

        def refuse(cp):
            raise P.PathError("non-finite, but not a blow-up")

        monkeypatch.setattr(rde, "_integral_values", refuse)
        with pytest.raises(P.PathError, match="not a blow-up"):
            rde.solve_picard_level2(np.array([1.0]), V, X)

    def test_nonconvergence_raises_with_residual(self):
        V = PolyVectorField.scalar([0.0, 5.0])
        X = lift_line(5)
        with pytest.raises(rde.NonConvergenceError) as exc:
            rde.solve_picard_level2(np.array([1.0]), V, X, max_iter=2)
        assert exc.value.residual > 0
        assert "windowed_solve" in str(exc.value)


class TestPicardStoppingTest:
    """The solver skips ||R||_tildeV while the cheap terms of the controlled
    norm already reach tol; it must still match the full-norm loop bitwise."""

    @staticmethod
    def _counting_tildeV(monkeypatch):
        calls = []
        original = controlled.remainder_norm_tildeV

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(controlled, "remainder_norm_tildeV", counted)
        return calls

    def test_converging_matches_full_norm_loop(self, monkeypatch):
        cases = [
            (PolyVectorField.scalar([0.2, 0.7]), np.array([0.4]),
             lift_smooth(make_trig_driver(5, 1).samples(6), 2, 6, ALPHA, PP)),
            noncommuting_case(5), noncommuting_case(7), noncommuting_case(8),
        ]
        for V, y0, X in cases:
            ref = oracles.picard_full_norm(y0, V, X)
            calls = self._counting_tildeV(monkeypatch)
            sol = rde.solve_picard_level2(y0, V, X)
            assert np.array_equal(sol.values, ref.values)
            assert sol.meta["iterations"] == ref.meta["iterations"] > 2
            assert sol.meta["residual"] == ref.meta["residual"]
            assert 1 <= len(calls) < sol.meta["iterations"]

    def test_max_iter_matches_full_norm_loop(self, monkeypatch):
        V = PolyVectorField.scalar([0.0, 5.0])
        X = lift_line(5)
        for max_iter in (1, 2, 4):
            with pytest.raises(rde.NonConvergenceError) as ref:
                oracles.picard_full_norm(np.array([1.0]), V, X, max_iter=max_iter)
            calls = self._counting_tildeV(monkeypatch)
            with pytest.raises(rde.NonConvergenceError) as exc:
                rde.solve_picard_level2(np.array([1.0]), V, X, max_iter=max_iter)
            assert exc.value.residual == ref.value.residual
            assert exc.value.iterations == ref.value.iterations == max_iter
            # the residual carried by the error is always the full norm
            assert len(calls) >= 1

    def test_windowed_matches_full_norm_loop(self):
        V, y0, X = noncommuting_case(9)
        idx = [0, 128, 256, 384, 512]
        pieces, iters, y = [], [], y0
        for a, b in zip(idx[:-1], idx[1:]):
            ref = oracles.picard_full_norm(y, V, rde._window_subpath(X, a, b))
            pieces.append(ref.values if a == 0 else ref.values[1:])
            iters.append(ref.meta["iterations"])
            y = ref.values[-1]
        win = rde.windowed_solve(y0, V, X, splits=(0.25, 0.5, 0.75))
        assert np.array_equal(win.values, np.vstack(pieces))
        assert win.meta["iterations"] == iters


class TestWindowSubpath:
    @pytest.mark.parametrize("level", [2, 3])
    def test_relative_nodes(self, level):
        rng = np.random.default_rng(level)
        pts = np.vstack([np.zeros(2), np.cumsum(0.3 * rng.standard_normal((128, 2)), axis=0)])
        X = P.SampledRoughPath.from_samples(pts, level, ALPHA, PP)
        sub = rde._window_subpath(X, 32, 64)
        ident = np.zeros(X.alg.length)
        ident[0] = 1.0
        assert np.array_equal(sub.nodes[0], ident)
        # every later node is the packed product X_32^-1 (x) X_v
        inv = np.tile(X.inv_nodes[32], (32, 1))
        want = _kernels.rowwise_mul(inv, X.nodes[33:65].copy(), 2, level)
        assert np.array_equal(sub.nodes[1:], want)
        # the product's node 0 is the identity up to rounding only
        residue = _kernels.rowwise_mul(X.inv_nodes[32:33], X.nodes[32:33], 2, level)[0]
        assert np.max(np.abs(residue - ident)) < 1e-12
        # a validated path accepts it: node 0 exact, geometric up to rounding
        P.SampledRoughPath(X.alg, 5, sub.nodes.copy(), ALPHA, PP)


class TestPicardWork:
    """Each Picard iteration builds the integral path and the dyadic
    remainders only; ||R||_tildeV streams the remainder in row blocks, so no
    (n, n) pair remainder is ever built."""

    def test_no_pair_remainder_built(self, monkeypatch):
        counts = {"rough_integral": 0, "remainder": 0, "remainder_norm_tildeV": 0}
        originals = {name: getattr(controlled, name) for name in counts}

        def count(module, name):
            def counted(*args, **kwargs):
                counts[name] += 1
                return originals[name](*args, **kwargs)

            monkeypatch.setattr(module, name, counted, raising=False)

        for name in counts:
            count(controlled, name)
        count(rde, "rough_integral")
        V, y0, X = noncommuting_case(7)
        field_evals = 0
        field_eval_batch = V.eval_batch

        def counted_eval_batch(Y):
            nonlocal field_evals
            field_evals += 1
            return field_eval_batch(Y)

        monkeypatch.setattr(V, "eval_batch", counted_eval_batch)
        sol = rde.solve_picard_level2(y0, V, X)
        assert sol.meta["iterations"] > 2
        assert counts["rough_integral"] == 0
        assert counts["remainder"] == 0
        assert counts["remainder_norm_tildeV"] >= 1
        # V(Y) once for the start and once per iteration, in compose_smooth
        assert field_evals == sol.meta["iterations"] + 1


class TestWindowed:
    def test_single_window_identical(self):
        V = PolyVectorField.scalar([0.1, 0.6])
        drv = make_trig_driver(6, 1)
        X = lift_smooth(drv.samples(5), 2, 5, ALPHA, PP)
        one = rde.solve_picard_level2(np.array([0.3]), V, X)
        win = rde.windowed_solve(np.array([0.3]), V, X)
        assert np.array_equal(one.values, win.values)

    def test_two_windows_match_one_shot(self):
        V = PolyVectorField.scalar([0.0, 1.0])
        X = lift_line(6)
        one = rde.solve_picard_level2(np.array([1.0]), V, X)
        win = rde.windowed_solve(np.array([1.0]), V, X, splits=(0.5,))
        assert np.max(np.abs(one.values - win.values)) < 1e-8

    def test_seam_continuity_and_alignment(self):
        V = PolyVectorField.scalar([0.2, 0.5])
        X = lift_line(6)
        win = rde.windowed_solve(np.array([0.1]), V, X, splits=(0.25, 0.5, 0.75))
        assert win.values.shape == (65, 1)
        with pytest.raises(P.PathError):
            rde.windowed_solve(np.array([0.1]), V, X, splits=(0.3,))

    def test_inner_solver_failure_propagates(self):
        V = PolyVectorField.scalar([0.0, 5.0])
        X = lift_line(5)
        with pytest.raises(rde.NonConvergenceError):
            rde.windowed_solve(np.array([1.0]), V, X, splits=(0.5,), max_iter=2)


class TestMultidimensional:
    def test_noncommutative_fields_converge_to_classical_solution(self):
        # genuinely non-commuting linear fields; a wrong second-level
        # contraction order would stall convergence at the area scale
        A = np.zeros((2, 2, 2))
        A[:, 0, :] = [[0.0, 0.6], [0.0, 0.0]]
        A[:, 1, :] = [[0.0, 0.0], [0.5, 0.0]]
        b = np.array([[0.3, 0.0], [0.0, 0.4]])
        V = PolyVectorField.linear(A, b)
        assert not np.allclose(A[:, 0, :] @ A[:, 1, :], A[:, 1, :] @ A[:, 0, :])
        drv = make_trig_driver(21, 2)
        y0 = np.array([0.2, -0.1])
        oracle = ode_oracle(y0, V, drv, 8, refinement=32)
        errs = []
        for J in (5, 6, 7, 8):
            X = lift_smooth(drv.samples(J), 2, J, ALPHA, PP)
            eul = rde.solve_euler(y0, V, X)
            stride = 1 << (8 - J)
            errs.append(float(np.max(np.abs(eul.values - oracle.values[::stride]))))
            if J == 7:
                pic = rde.solve_picard_level2(y0, V, X)
                assert np.max(np.abs(pic.values - eul.values)) < 1e-6
        order = -np.polyfit((5, 6, 7, 8), np.log2(errs), 1)[0]
        assert order > 1.8
        assert errs[-1] < 1e-4

    def test_step_order_matches_truncation_level(self):
        V = PolyVectorField.scalar([0.0, 1.0])
        for N in (1, 2, 3, 4):
            ts = np.linspace(0, 1, 2**7 + 1)[:, None]
            X = P.SampledRoughPath.from_samples(ts, N, ALPHA, PP)
            errs = [abs(rde.solve_euler(np.array([1.0]), V, X, step_depth=j).terminal[0] - np.e)
                    for j in (4, 5, 6)]
            order = -np.polyfit((4, 5, 6), np.log2(errs), 1)[0]
            assert abs(order - N) < 0.15, (N, order)


class TestAprioriEulerEstimate:
    def test_local_error_bounded_by_variation_power(self):
        # |Y_t - Y_s - (euler step from the reference)| <= K qvar(1/alpha;[s,t])^gamma,
        # K fitted on a calibration family, checked on fresh drivers
        gamma = 2.99
        V = PolyVectorField.scalar([0.3, 0.5, 0.2])

        def step_ratios(seed):
            drv = make_trig_driver(seed, 1)
            J = 8
            X = lift_smooth(drv.samples(J), 2, J, ALPHA, PP)
            oracle = ode_oracle(np.array([0.2]), V, drv, 5, refinement=32).values
            out = []
            stride = 1 << (J - 5)
            for m in range(1 << 5):
                a, b = m * stride, (m + 1) * stride
                g = A.GroupElement(X.alg, X.increment_packed([a], [b])[0])
                pred = rde.euler_step(V, oracle[m], g)
                lhs = float(np.max(np.abs(oracle[m + 1] - pred)))
                qv = P.qvar_norm(X, 1 / ALPHA, window=(a * X.h, b * X.h))
                out.append(lhs / qv**gamma)
            return out

        cal = [r for s in range(4) for r in step_ratios(s)]
        K = max(cal) * 1.5
        held = [r for s in range(10, 14) for r in step_ratios(s)]
        assert all(r <= K for r in held)
