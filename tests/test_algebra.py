import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sobrough import algebra as A
from sobrough import paths as P

from oracles import shuffle_violation_per_word


def make_alg(d, N):
    return A.TensorAlgebra(d, N)


def random_tensor(alg, rng, scale=1.0):
    return A.TruncatedTensor(alg, scale * rng.standard_normal(alg.length))


class TestTensorMul:
    def test_identity_element(self, rng):
        alg = make_alg(2, 3)
        b = random_tensor(alg, rng)
        data = np.zeros(alg.length)
        data[0] = 1.0
        one = A.TruncatedTensor(alg, data)
        out = A.tensor_mul(one, b)
        assert np.array_equal(out.data, b.data)
        out = A.tensor_mul(b, one)
        assert np.array_equal(out.data, b.data)

    def test_exp_product_level2(self):
        # exp(e1) (x) exp(e2) at N=2, d=2: symbolic expansion of the
        # truncated series gives level 1 = (1,1) and level 2 = (1/2, 1, 0, 1/2)
        alg = make_alg(2, 2)
        g = A.tensor_mul(A.exp(A.lie_from_vector(alg, [1, 0])),
                         A.exp(A.lie_from_vector(alg, [0, 1])))
        assert np.array_equal(g.coeffs(1), [1.0, 1.0])
        assert np.array_equal(g.coeffs(2), [0.5, 1.0, 0.0, 0.5])

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=60)
    def test_associativity(self, d, N, seed):
        rng = np.random.default_rng(seed)
        alg = make_alg(d, N)
        a, b, c = (random_tensor(alg, rng) for _ in range(3))
        lhs = A.tensor_mul(A.tensor_mul(a, b), c)
        rhs = A.tensor_mul(a, A.tensor_mul(b, c))
        assert (lhs - rhs).max_abs() < 1e-12

    def test_bilinear(self, rng):
        alg = make_alg(2, 2)
        a, b = random_tensor(alg, rng), random_tensor(alg, rng)
        lhs = A.tensor_mul(2.0 * a, b)
        rhs = 2.0 * A.tensor_mul(a, b)
        assert (lhs - rhs).max_abs() < 1e-12

    def test_mismatch_rejected(self, rng):
        a = random_tensor(make_alg(2, 2), rng)
        b = random_tensor(make_alg(3, 2), rng)
        with pytest.raises(A.AlgebraError):
            A.tensor_mul(a, b)
        c = random_tensor(make_alg(2, 3), rng)
        with pytest.raises(A.AlgebraError):
            A.tensor_mul(a, c)


class TestInverse:
    def test_identity(self):
        alg = make_alg(3, 2)
        gi = A.group_inverse(A.identity(alg))
        assert np.array_equal(gi.data, A.identity(alg).data)

    def test_exp_inverse_is_exp_neg(self, rng):
        alg = make_alg(2, 3)
        v = rng.standard_normal(2)
        gi = A.group_inverse(A.exp(A.lie_from_vector(alg, v)))
        expected = A.exp(A.lie_from_vector(alg, -v))
        assert (gi - expected).max_abs() < 1e-14

    @given(st.integers(0, 500))
    @settings(max_examples=50)
    def test_inverse_law_random_geometric(self, seed):
        rng = np.random.default_rng(seed)
        alg = make_alg(3, 3)
        g = A.random_group_element(alg, rng)
        gi = A.group_inverse(g)
        assert (A.tensor_mul(g, gi) - A.identity(alg)).max_abs() < 1e-12


class TestExpLog:
    def test_exp_zero(self):
        alg = make_alg(2, 4)
        assert np.array_equal(A.exp(A.zero(alg)).data, A.identity(alg).data)

    def test_exp_series_levels(self):
        alg = make_alg(3, 3)
        v = np.array([1.0, 0.0, 0.0])
        g = A.exp(A.lie_from_vector(alg, v))
        vv = np.outer(v, v).ravel()
        vvv = np.einsum("i,j,k->ijk", v, v, v).ravel()
        assert np.allclose(g.coeffs(1), v, atol=1e-15)
        assert np.allclose(g.coeffs(2), vv / 2.0, atol=1e-15)
        assert np.allclose(g.coeffs(3), vvv / 6.0, atol=1e-15)

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 500))
    @settings(max_examples=60)
    def test_round_trips(self, d, N, seed):
        rng = np.random.default_rng(seed)
        alg = make_alg(d, N)
        ell = random_tensor(alg, rng, scale=0.6)
        ell = A.LieElement(alg, np.concatenate([[0.0], ell.data[1:]]))
        g = A.exp(ell)
        assert (A.log(g) - ell).max_abs() < 1e-12
        g2 = A.random_group_element(alg, rng)
        assert (A.exp(A.log(g2)) - g2).max_abs() < 1e-12

    def test_log_of_level1_exp(self):
        alg = make_alg(2, 4)
        v = np.array([0.3, -0.7])
        ell = A.log(A.exp(A.lie_from_vector(alg, v)))
        assert np.allclose(ell.coeffs(1), v, atol=1e-15)


class TestSignatures:
    def test_degenerate_segment(self):
        g = A.signature_segment([1.0, 2.0], [1.0, 2.0], 3)
        assert np.array_equal(g.data, A.identity(g.alg).data)

    def test_segment_closed_form(self, rng):
        v = rng.standard_normal(3)
        g = A.signature_segment(np.zeros(3), v, 4)
        power = v.copy()
        fact = 1.0
        for k in range(1, 5):
            assert np.allclose(g.coeffs(k), power / fact, atol=1e-15)
            power = np.einsum("c,j->cj", power, v).ravel()
            fact *= k + 1

    def test_path_chen_product(self):
        alg = make_alg(2, 2)
        sig = A.signature_path([[0, 0], [1, 0], [1, 1]], 2)
        expected = A.tensor_mul(A.exp(A.lie_from_vector(alg, [1, 0])),
                                A.exp(A.lie_from_vector(alg, [0, 1])))
        assert (sig[-1] - expected).max_abs() < 1e-15
        assert np.array_equal(sig[0].data, A.identity(alg).data)

    def test_single_and_two_points(self):
        sig = A.signature_path([[0.5, 0.5]], 2)
        assert len(sig) == 1
        assert np.array_equal(sig[0].data, A.identity(sig[0].alg).data)
        sig = A.signature_path([[0.0], [2.0]], 3)
        assert (sig[1] - A.signature_segment([0.0], [2.0], 3)).max_abs() == 0.0

    def test_empty_rejected(self):
        with pytest.raises(A.AlgebraError):
            A.signature_path(np.zeros((0, 2)), 2)


class TestIncrement:
    def test_self_increment_is_identity(self, rng):
        alg = make_alg(2, 3)
        g = A.random_group_element(alg, rng)
        assert (A.increment(g, g) - A.identity(alg)).max_abs() < 1e-12

    def test_from_identity(self, rng):
        alg = make_alg(2, 3)
        g = A.random_group_element(alg, rng)
        assert (A.increment(A.identity(alg), g) - g).max_abs() < 1e-14

    def test_chen_identity_on_path(self, rng):
        pts = rng.standard_normal((5, 2))
        sig = A.signature_path(pts, 3)
        for (s, u, t) in [(0, 1, 3), (0, 2, 4), (1, 3, 4)]:
            lhs = A.tensor_mul(A.increment(sig[s], sig[u]), A.increment(sig[u], sig[t]))
            rhs = A.increment(sig[s], sig[t])
            assert A.rho_metric(lhs, rhs) < 1e-10

    def test_chen_identity_every_triple(self, rng):
        pts = 0.7 * rng.standard_normal((17, 2))
        sig = A.signature_path(pts, 2)
        worst = 0.0
        for s in range(17):
            for u in range(s + 1, 17):
                inc_su = A.increment(sig[s], sig[u])
                for t in range(u + 1, 17):
                    lhs = A.tensor_mul(inc_su, A.increment(sig[u], sig[t]))
                    worst = max(worst, A.rho_metric(lhs, A.increment(sig[s], sig[t])))
        assert worst < 1e-10


class TestNorms:
    def test_identity_norm_zero(self):
        assert A.homogeneous_norm(A.identity(make_alg(3, 3))) == 0.0

    def test_exp_unit_vector(self):
        alg = make_alg(2, 2)
        g = A.exp(A.lie_from_vector(alg, [1.0, 0.0]))
        # levels are v and v (x) v / 2, so the norm is 1 + (1/2)^(1/2)
        assert A.homogeneous_norm(g) == pytest.approx(1.0 + 0.5**0.5, rel=1e-15)

    @given(st.floats(0.1, 8.0), st.integers(0, 200))
    @settings(max_examples=40)
    def test_dilation_homogeneity(self, lam, seed):
        rng = np.random.default_rng(seed)
        alg = make_alg(2, 3)
        g = A.random_group_element(alg, rng)
        assert A.homogeneous_norm(A.dilate(g, lam)) == \
            pytest.approx(lam * A.homogeneous_norm(g), rel=1e-13)

    def test_dilation_by_two_exact(self, rng):
        alg = make_alg(2, 2)
        g = A.random_group_element(alg, rng)
        assert A.homogeneous_norm(A.dilate(g, 2.0)) == 2.0 * A.homogeneous_norm(g)

    def test_rho_metric(self, rng):
        alg = make_alg(2, 2)
        g = A.random_group_element(alg, rng)
        assert A.rho_metric(g, g) == 0.0
        e = A.exp(A.lie_from_vector(alg, [1.0, 0.0]))
        # level differences from the identity: |v| = 1 and |v (x) v / 2| = 1/2
        assert A.rho_metric(A.identity(alg), e) == pytest.approx(1.0, rel=1e-15)
        h = A.random_group_element(alg, rng)
        assert A.rho_metric(g, h) == A.rho_metric(h, g)

    def test_rho_dominated_by_homogeneous_norm_stable_fit(self):
        # fitted comparison constant is stable across resamples
        def fit(seed, n=400):
            rng = np.random.default_rng(seed)
            alg = make_alg(2, 3)
            worst = 0.0
            for _ in range(n):
                g = A.random_group_element(alg, rng, scale=0.5)
                h = A.tensor_mul(g, A.random_group_element(alg, rng, scale=0.3))
                denom = A.homogeneous_norm(A.increment(g, h))
                if denom > 1e-9:
                    worst = max(worst, A.rho_metric(g, h) / denom)
            return worst

        c0, c1 = fit(0), fit(1)
        assert abs(c0 / c1 - 1.0) < 0.2


class TestGeometricity:
    def test_signature_is_geometric(self, rng):
        pts = rng.standard_normal((6, 2))
        for g in A.signature_path(pts, 3):
            rep = A.check_geometric(g)
            assert rep.ok and rep.violation < 1e-12

    def test_antisymmetric_perturbation_passes(self):
        alg = make_alg(2, 2)
        data = A.identity(alg).data.copy()
        data[alg.slice(2)] = np.array([[0.0, 0.3], [-0.3, 0.0]]).ravel()
        rep = A.check_geometric(A.GroupElement(alg, data))
        assert rep.ok

    def test_symmetric_unit_violation(self):
        alg = make_alg(2, 2)
        data = A.identity(alg).data.copy()
        data[alg.slice(2)] = np.eye(2).ravel()
        rep = A.check_geometric(A.GroupElement(alg, data))
        assert not rep.ok
        assert rep.violation == pytest.approx(1.0, abs=1e-15)

    def test_level3_shuffle_detects_fake(self, rng):
        alg = make_alg(2, 3)
        g = A.random_group_element(alg, rng)
        data = g.data.copy()
        data[alg.slice(3)] += 0.1
        rep = A.check_geometric(A.GroupElement(alg, data))
        assert not rep.ok

    def test_level4_unsupported(self, rng):
        alg = make_alg(2, 4)
        g = A.random_group_element(alg, rng)
        with pytest.raises(A.AlgebraError):
            A.check_geometric(g)

    @pytest.mark.parametrize("d,N", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_one_batch_check_bitwise(self, rng, d, N):
        # near-geometric rows: the violations are rounding residue plus noise
        alg = make_alg(d, N)
        rows = np.stack([A.random_group_element(alg, rng).data for _ in range(9)])
        rows[:, 1:] += 1e-12 * rng.standard_normal((9, alg.length - 1))
        want = shuffle_violation_per_word(d, N, rows)
        assert A.shuffle_violation(alg, rows).hex() == want.hex()
        singles = [A.check_geometric(A.GroupElement(alg, r)).violation for r in rows]
        assert max(singles).hex() == want.hex()
        # the path check reads the same batch function
        nodes = np.vstack([A.identity(alg).data, rows])[:5]
        rows[:, 1:] += 1e-6
        bad = np.vstack([A.identity(alg).data, rows])[:5]
        P.SampledRoughPath(alg, 2, nodes, 0.4, 4.0)
        worst = shuffle_violation_per_word(d, N, bad)
        with pytest.raises(P.PathError, match=f"violation {worst:.3e}"):
            P.SampledRoughPath(alg, 2, bad, 0.4, 4.0)


class TestEnvelope:
    def test_dimension_cap(self):
        with pytest.raises(A.AlgebraError):
            A.TensorAlgebra(9, 2)
        with pytest.raises(A.AlgebraError):
            A.TensorAlgebra(2, 5)

    def test_group_scalar_enforced(self):
        alg = make_alg(2, 2)
        data = np.zeros(alg.length)
        data[0] = 0.5
        with pytest.raises(A.AlgebraError):
            A.GroupElement(alg, data)
        with pytest.raises(A.AlgebraError):
            A.LieElement(alg, A.identity(alg).data)
