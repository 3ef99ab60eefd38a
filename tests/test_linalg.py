import numpy as np
import pytest
from numpy.testing import assert_allclose

from interpanel.linalg import RankDeficient, gram_det, residual_makers, solve_ols

from conftest import inv3_cofactor


class TestSolveOls:
    def test_column_of_ones_gives_mean(self):
        fit = solve_ols(np.ones((2, 1)), [3.0, 5.0])
        assert_allclose(fit.coefficients, [4.0])

    def test_identity_design(self):
        y = np.array([1.5, -2.0, 0.25])
        fit = solve_ols(np.eye(3), y)
        assert_allclose(fit.coefficients, y)
        assert_allclose(fit.residuals, 0.0, atol=1e-15)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        expected = inv3_cofactor(A.T @ A) @ (A.T @ y)
        fit = solve_ols(A, y)
        assert_allclose(fit.coefficients, expected, atol=1e-10)

    def test_rank_deficient_raises_with_condition(self):
        A = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(RankDeficient) as err:
            solve_ols(A, np.arange(5.0))
        assert err.value.condition > 1e10

    def test_underdetermined_raises(self):
        with pytest.raises(ValueError):
            solve_ols(np.ones((2, 3)), np.ones(2))

    def test_empty_design(self):
        fit = solve_ols(np.empty((4, 0)), np.arange(4.0))
        assert fit.coefficients.shape == (0,)
        assert_allclose(fit.residuals, np.arange(4.0))

    @pytest.mark.parametrize("seed", range(8))
    def test_residuals_orthogonal_to_design(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(20, 4)) * rng.uniform(0.1, 10)
        y = rng.normal(size=20) * rng.uniform(0.1, 10)
        fit = solve_ols(A, y)
        scale = np.abs(A).max() * max(np.abs(y).max(), 1.0)
        assert np.max(np.abs(A.T @ fit.residuals)) < 1e-8 * scale


class TestResidualMaker:
    def test_demeaning_projector_T2(self):
        M = residual_makers(np.ones((1, 2, 1)))[0][0]
        assert_allclose(M, [[0.5, -0.5], [-0.5, 0.5]])

    @pytest.mark.parametrize("seed", range(6))
    def test_annihilates_columns(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(4, 7, 3))
        M, _, _ = residual_makers(A)
        assert np.max(np.abs(M @ A)) < 1e-10

    def test_idempotent_direct_multiplication(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 5, 2))
        M, _, _ = residual_makers(A)
        assert_allclose(M @ M, M, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_projection_properties(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, T, k = 5, 8, 3
        A = rng.normal(size=(n, T, k))
        M, _, _ = residual_makers(A)
        assert np.max(np.abs(M - M.transpose(0, 2, 1))) < 1e-8
        assert np.max(np.abs(M @ M - M)) < 1e-8
        assert np.max(np.abs(M @ A)) < 1e-8
        assert np.max(np.abs(np.trace(M, axis1=1, axis2=2) - (T - k))) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_depends_only_on_column_space(self, seed):
        rng = np.random.default_rng(200 + seed)
        A = rng.normal(size=(3, 6, 2))
        C = rng.normal(size=(3, 2, 2)) + 2 * np.eye(2)
        assert np.max(np.abs(residual_makers(A @ C)[0] - residual_makers(A)[0])) < 1e-8

    def test_empty_columns_is_identity(self):
        M, Q, R = residual_makers(np.empty((3, 4, 0)))
        assert_allclose(M, np.broadcast_to(np.eye(4), (3, 4, 4)))
        assert Q.shape == (3, 4, 0) and R.shape == (3, 0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_factors_reproduce_design(self, seed):
        # the returned QR is the factorization M was made from
        rng = np.random.default_rng(300 + seed)
        A = rng.normal(size=(4, 7, 3))
        M, Q, R = residual_makers(A)
        assert_allclose(Q @ R, A, atol=1e-12)
        assert_allclose(Q.transpose(0, 2, 1) @ Q,
                        np.broadcast_to(np.eye(3), (4, 3, 3)), atol=1e-12)
        assert np.all(np.tril(R, -1) == 0.0)
        assert_allclose(M, np.eye(7) - Q @ Q.transpose(0, 2, 1), atol=1e-14)

    def test_singular_raises(self):
        A = np.column_stack([np.ones(4), 2 * np.ones(4)])[None]
        with pytest.raises(RankDeficient):
            residual_makers(A)

    def test_batched_reports_offending_unit(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 4, 2))
        X[3, :, 1] = X[3, :, 0]
        with pytest.raises(RankDeficient) as err:
            residual_makers(X)
        assert err.value.unit == 3


class TestGramDet:
    def test_ones_column(self):
        assert_allclose(gram_det(np.ones((3, 1))), 3.0)

    def test_duplicated_column_is_singular(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=6)
        assert abs(gram_det(np.column_stack([a, a]))) < 1e-10

    def test_matches_cofactor_expansion(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(6, 2))
        G = A.T @ A
        expected = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        assert_allclose(gram_det(A), expected, atol=1e-10)

    def test_empty_matrix(self):
        assert gram_det(np.empty((4, 0))) == 1.0

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(5, 6, 3))
        assert_allclose(gram_det(A), [gram_det(a) for a in A], rtol=1e-12)
        assert_allclose(gram_det(A[:, :, :0]), np.ones(5))
