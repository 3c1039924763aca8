import itertools

import numpy as np
import pytest

from sobrough.fields import FieldError, LipBound, PolyMap, PolyVectorField, derivative_self_test

import oracles


class TestPolyMap:
    def test_identity(self, rng):
        I = PolyMap.identity(3)
        y = rng.standard_normal(3)
        assert np.array_equal(I(y), y)

    def test_eval_batch_matches_pointwise(self, rng):
        pm = PolyMap(2, (2,), {(1, 0): np.array([1.0, 0.0]),
                               (0, 2): np.array([0.5, -1.0]),
                               (1, 1): np.array([0.0, 2.0])})
        Y = rng.standard_normal((7, 2))
        batch = pm.eval_batch(Y)
        for i in range(7):
            assert np.allclose(batch[i], pm(Y[i]), atol=1e-15)

    def test_point_evaluator_bitwise(self, rng):
        maps = [
            PolyMap(2, (2, 3), {(0, 0): rng.standard_normal((2, 3)),
                                (1, 0): rng.standard_normal((2, 3)),
                                (3, 1): rng.standard_normal((2, 3)),
                                (0, 4): rng.standard_normal((2, 3)),
                                (2, 2): rng.standard_normal((2, 3))}),
            PolyMap(3, (), {(1, 2, 0): np.asarray(0.7), (0, 0, 5): np.asarray(-1.3)}),
            PolyMap.zero(2, (2, 2)),
        ]
        for pm in maps:
            at = pm.point_evaluator()
            # signed zeros, where a sum that did not start from 0.0 would differ
            zeros = np.array(list(itertools.product([-0.0, 0.0, 1.0], repeat=pm.e_in)))
            for y in np.vstack([rng.uniform(-2.0, 2.0, (50, pm.e_in)), zeros]):
                assert np.array(at(y.tolist())).tobytes() == pm(y).tobytes()

    def test_partial_derivative(self):
        # f(y) = y0^2 y1: df/dy0 = 2 y0 y1, df/dy1 = y0^2
        pm = PolyMap(2, (), {(2, 1): np.asarray(1.0)})
        y = np.array([3.0, 5.0])
        assert pm.partial(0)(y) == pytest.approx(30.0)
        assert pm.partial(1)(y) == pytest.approx(9.0)

    def test_jacobian_vs_finite_differences(self, rng):
        pm = PolyMap(3, (2,), {
            (1, 0, 0): rng.standard_normal(2),
            (0, 1, 1): rng.standard_normal(2),
            (2, 0, 1): rng.standard_normal(2),
        })
        y = rng.uniform(-1, 1, 3)
        fd = oracles.central_difference(pm, y)
        assert np.allclose(pm.jacobian()(y), fd, atol=1e-8)

    def test_derivative_tensor_symmetry(self, rng):
        pm = PolyMap(2, (), {(2, 1): np.asarray(0.7), (0, 3): np.asarray(-0.2)})
        y = rng.uniform(-1, 1, 2)
        D2 = pm.derivative_tensor(y, 2)
        assert np.allclose(D2, D2.T, atol=1e-15)

    def test_directional_is_polynomial_product(self):
        # W(y) = y^2 (scalar out), direction v(y) = y: DW.v = 2 y^2
        W = PolyMap(1, (1,), {(2,): np.array([1.0])})
        v = PolyMap(1, (1,), {(1,): np.array([1.0])})
        out = W.directional(v)
        assert out(np.array([3.0]))[0] == pytest.approx(18.0)

    def test_degree(self):
        pm = PolyMap(2, (), {(2, 1): np.asarray(1.0)})
        assert pm.degree() == 3
        assert PolyMap.zero(2, ()).degree() == 0


class TestSelfTest:
    def test_clean_fields_pass(self, rng):
        V = PolyVectorField.linear(0.3 * rng.standard_normal((2, 2, 2)),
                                   rng.standard_normal((2, 2)))
        assert V.self_test() < 1e-6

    def test_reports_relative_error(self):
        pm = PolyMap(1, (), {(3,): np.asarray(2.0)})
        assert derivative_self_test(pm) < 1e-6


class TestVectorField:
    def test_component_extraction(self, rng):
        c = rng.standard_normal((2, 3))
        V = PolyVectorField.constant(c)
        y = rng.standard_normal(2)
        for i in range(3):
            assert np.allclose(V.component(i)(y), c[:, i], atol=1e-15)

    def test_scalar_field_word_maps(self):
        V = PolyVectorField.scalar([0.0, 1.0])  # V(y) = y
        y = np.array([2.0])
        # right-to-left directional products: every word map equals y
        for word in [(0,), (0, 0), (0, 0, 0)]:
            assert V.word_map(word)(y)[0] == pytest.approx(2.0)

    def test_word_map_noncommutative_order(self):
        # V_0(y) = (y1, 0), V_1(y) = (0, 1): constant second field
        terms = {(0, 1): np.array([[1.0, 0.0], [0.0, 0.0]]),
                 (0, 0): np.array([[0.0, 0.0], [0.0, 1.0]])}
        V = PolyVectorField(PolyMap(2, (2, 2), terms))
        y = np.array([0.3, 0.7])
        # V_0 V_1 I = D(V_1 I) . V_0 = 0 (V_1 I constant)
        assert np.allclose(V.word_map((0, 1))(y), 0.0, atol=1e-15)
        # V_1 V_0 I = D(V_0 I) . V_1 = (d/dy1 of (y1, 0)) = (1, 0)
        assert np.allclose(V.word_map((1, 0))(y), [1.0, 0.0], atol=1e-15)

    def test_level_map_stacks_words(self, rng):
        V = PolyVectorField.linear(0.4 * rng.standard_normal((2, 2, 2)))
        y = rng.standard_normal(2)
        L2 = V.level_map(2)(y)
        cols = [V.word_map(w)(y) for w in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        assert np.allclose(L2, np.stack(cols, axis=1), atol=1e-14)

    def test_lip_surrogate_monotone_in_radius(self, rng):
        V = PolyVectorField(PolyMap(2, (2, 1), {
            (2, 0): rng.standard_normal((2, 1)),
            (1, 1): rng.standard_normal((2, 1)),
        }))
        b1 = V.lip_surrogate(2.99, radius=1.0)
        b2 = V.lip_surrogate(2.99, radius=2.0)
        assert isinstance(b1, LipBound)
        assert b2.value >= b1.value
        assert b1.radius == 1.0

    def test_zero_field_has_zero_bound(self):
        assert PolyVectorField.zero(2, 2).lip_surrogate(1.99).value == 0.0

    def test_from_config_kinds(self):
        assert PolyVectorField.from_config({"kind": "zero", "e": 2, "d": 3}).e == 2
        V = PolyVectorField.from_config({"kind": "scalar", "coeffs": [0, 2.0]})
        assert V(np.array([3.0]))[0, 0] == 6.0
        V = PolyVectorField.from_config(
            {"kind": "poly", "e": 1, "d": 1,
             "terms": [{"exps": [2], "coeff": [[1.5]]}]})
        assert V(np.array([2.0]))[0, 0] == 6.0
        with pytest.raises(FieldError):
            PolyVectorField.from_config({"kind": "nope"})

    def test_shape_validation(self):
        with pytest.raises(FieldError):
            PolyVectorField(PolyMap.zero(2, (3, 2)))  # state dim mismatch


def smooth_fields(rng):
    """Fields with e <= 3, d <= 3 and degree <= 3, up to four random terms each."""
    fields = [PolyVectorField.zero(2, 2),
              PolyVectorField.linear(rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2)))]
    for e, d, deg in itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2, 3)):
        exps = [x for x in itertools.product(range(deg + 1), repeat=e) if sum(x) <= deg]
        pick = rng.choice(len(exps), size=min(len(exps), 4), replace=False)
        terms = {exps[i]: rng.standard_normal((e, d)) for i in pick}
        fields.append(PolyVectorField(PolyMap(e, (e, d), terms)))
    return fields


class TestOneEvaluationPerOrder:
    """sup_on_ball and derivative_tensor build each derivative map once per
    call and sup_on_ball evaluates the whole ball sample in one batch; the
    results must be those of rebuilding the jacobian chain at every point."""

    def test_sup_on_ball_bitwise(self, rng):
        # lip_surrogate below covers radius 2 with the default sample
        for V in smooth_fields(rng):
            for order in range(5):
                got = V.fmap.sup_on_ball(0.5, order, n_samples=24)
                want = oracles.sup_on_ball_per_point(V.fmap, 0.5, order, n_samples=24)
                assert got.hex() == want.hex()

    def test_derivative_tensor_bitwise(self, rng):
        for V in smooth_fields(rng):
            y = rng.uniform(-2.0, 2.0, V.e)
            for order in range(5):
                got = V.fmap.derivative_tensor(y, order)
                want = oracles.derivative_tensor_recursive(V.fmap, y, order)
                assert got.shape == want.shape == (V.e, V.d) + (V.e,) * order
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    def test_lip_surrogate_bitwise(self, rng, monkeypatch):
        fields = smooth_fields(rng)

        def bounds():
            return [(b.value.hex(), [x.hex() for x in b.derivative_sups])
                    for V in fields for b in (V.lip_surrogate(g) for g in (1.99, 2.99, 3.5))]

        got = bounds()
        monkeypatch.setattr(PolyMap, "sup_on_ball", oracles.sup_on_ball_per_point)
        assert got == bounds()

    def test_jacobians_built_once_per_order(self, rng, monkeypatch):
        calls = []
        jacobian = PolyMap.jacobian
        monkeypatch.setattr(PolyMap, "jacobian", lambda pm: calls.append(pm) or jacobian(pm))
        V = PolyVectorField.linear(rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2)))
        V.lip_surrogate(2.99)
        # orders 0..3 at 101 sample points: 606 builds when each point rebuilt its chain
        assert len(calls) <= 6
        calls.clear()
        derivative_self_test(V.fmap)
        # orders 1..3 at 4 points: 36 builds when each point rebuilt its chain
        assert len(calls) <= 3
