import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from interpanel.linalg import (RANK_TOL, RankDeficient, residual_makers, solve_ols,
                              solve_units, unit_rank_deficient)

from conftest import assert_same_bits, inv3_cofactor


class TestSolveOls:
    def test_column_of_ones_gives_mean(self):
        fit = solve_ols(np.ones((2, 1)), [3.0, 5.0])
        assert_allclose(fit.coefficients, [4.0])

    def test_identity_design(self):
        y = np.array([1.5, -2.0, 0.25])
        fit = solve_ols(np.eye(3), y)
        assert_allclose(fit.coefficients, y)
        assert_allclose(y - np.eye(3) @ fit.coefficients, 0.0, atol=1e-15)

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

    def test_condition_past_overflow_is_inf(self):
        # sv ratio about 1e160: its square overflows, with no RuntimeWarning
        b = np.random.default_rng(3).normal(size=5)
        A = np.column_stack([1e-160 * b, b])
        with pytest.raises(RankDeficient) as err:
            solve_ols(A, b)
        assert err.value.condition == np.inf

    @pytest.mark.parametrize("ratio, fits", [(1.2e-10, True), (0.9e-10, False)])
    def test_many_rows_keep_the_rank_rule(self, ratio, fits):
        # lstsq's default cutoff, eps * max(m, k), is 1.3e-10 at m = 6e5:
        # past RANK_TOL, so it would truncate a design the rule passes
        U = np.linalg.qr(np.random.default_rng(5).normal(size=(600_000, 2)))[0]
        A = U * [1.0, ratio]
        assert fits == (ratio >= RANK_TOL)  # ratio is the sv ratio of A
        if fits:
            fit = solve_ols(A, U[:, 1])
            assert_allclose(fit.coefficients[1], 1.0 / ratio, rtol=1e-5)
            assert_allclose(1.0 / fit.gram_condition, ratio ** 2, rtol=1e-5)
        else:
            with pytest.raises(RankDeficient):
                solve_ols(A, U[:, 1])

    def test_underdetermined_raises(self):
        # the one rule for a design with too few rows: RankDeficient, whose
        # Gram has a zero eigenvalue, so its condition is inf
        with pytest.raises(RankDeficient,
                           match="^underdetermined system: 2 rows < 3 columns$"
                           ) as exc:
            solve_ols(np.ones((2, 3)), np.ones(2))
        assert exc.value.condition == np.inf

    def test_stage_names_the_fit_before_the_reason(self):
        with pytest.raises(RankDeficient, match="^S: underdetermined system: "
                                                "2 rows < 3 columns$") as exc:
            solve_ols(np.ones((2, 3)), np.ones(2), stage="S")
        assert exc.value.condition == np.inf
        with pytest.raises(RankDeficient, match="^S: design is numerically "
                                                "rank deficient") as exc:
            solve_ols(np.ones((4, 2)), np.ones(4), stage="S")
        assert exc.value.condition > 1e20

    def test_unit_label_ends_the_message(self):
        exc = RankDeficient("X_i'X_i is numerically singular", unit=7)
        assert (str(exc), exc.unit, exc.condition) == (
            "X_i'X_i is numerically singular (unit 7)", 7, np.inf)
        exc = RankDeficient("reason", condition=3.0)
        assert (str(exc), exc.unit, exc.condition) == ("reason", None, 3.0)

    def test_empty_design(self):
        A, y = np.empty((4, 0)), np.arange(4.0)
        fit = solve_ols(A, y)
        assert fit.coefficients.shape == (0,)
        assert fit.gram_condition == 1.0
        assert_allclose(y - A @ fit.coefficients, y)

    @pytest.mark.parametrize("seed", range(8))
    def test_residuals_orthogonal_to_design(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(20, 4)) * rng.uniform(0.1, 10)
        y = rng.normal(size=20) * rng.uniform(0.1, 10)
        fit = solve_ols(A, y)
        scale = np.abs(A).max() * max(np.abs(y).max(), 1.0)
        residuals = y - A @ fit.coefficients
        assert np.max(np.abs(A.T @ residuals)) < 1e-8 * scale


def makers(A):
    """Residual makers of a stack of designs, from their reduced QR."""
    return residual_makers(np.linalg.qr(A)[0])


class TestResidualMaker:
    def test_demeaning_projector_T2(self):
        M = makers(np.ones((1, 2, 1)))[0]
        assert_allclose(M, [[0.5, -0.5], [-0.5, 0.5]])

    @pytest.mark.parametrize("seed", range(6))
    def test_annihilates_columns(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(4, 7, 3))
        M = makers(A)
        assert np.max(np.abs(M @ A)) < 1e-10

    def test_idempotent_direct_multiplication(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 5, 2))
        M = makers(A)
        assert_allclose(M @ M, M, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_projection_properties(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, T, k = 5, 8, 3
        A = rng.normal(size=(n, T, k))
        M = makers(A)
        assert np.max(np.abs(M - M.transpose(0, 2, 1))) < 1e-8
        assert np.max(np.abs(M @ M - M)) < 1e-8
        assert np.max(np.abs(M @ A)) < 1e-8
        assert np.max(np.abs(np.trace(M, axis1=1, axis2=2) - (T - k))) < 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_depends_only_on_column_space(self, seed):
        rng = np.random.default_rng(200 + seed)
        A = rng.normal(size=(3, 6, 2))
        C = rng.normal(size=(3, 2, 2)) + 2 * np.eye(2)
        assert np.max(np.abs(makers(A @ C) - makers(A))) < 1e-8

    def test_empty_columns_is_identity(self):
        M = residual_makers(np.empty((3, 4, 0)))
        assert_allclose(M, np.broadcast_to(np.eye(4), (3, 4, 4)))

    @pytest.mark.parametrize("seed", range(4))
    def test_factors_reproduce_design(self, seed):
        # M is made from the Q it is given, of the QR that reproduces A
        rng = np.random.default_rng(300 + seed)
        A = rng.normal(size=(4, 7, 3))
        Q, R = np.linalg.qr(A)
        M = residual_makers(Q)
        assert_allclose(Q @ R, A, atol=1e-12)
        assert_allclose(M, np.eye(7) - Q @ Q.transpose(0, 2, 1), atol=1e-14)
        assert np.max(np.abs(M @ A)) < 1e-12

    @pytest.mark.parametrize("T, k", [(T, k) for T in (2, 6, 50) for k in (1, 2, 3)
                                      if k <= T])
    def test_exactly_symmetric(self, T, k):
        # entries (s, t) and (t, s) of Q_i Q_i' sum the same products in the
        # same order, so M needs no symmetrizing; strided and rescaled inputs
        rng = np.random.default_rng(10 * T + k)
        scales = np.logspace(-3, 4, 8)[:, None, None]
        wide = rng.normal(size=(8, T, 2 * k)) * scales
        tall = rng.normal(size=(k, T, 8)).transpose(2, 1, 0) * scales
        for A in (wide[:, :, ::2], tall, tall[::-1] * 1e4, wide[:, :, 1::2] * 1e-3):
            M = makers(A)
            assert np.array_equal(M, M.transpose(0, 2, 1))

    @pytest.mark.parametrize("seed", range(4))
    def test_one_column_verdict_matches_svd_rule(self, seed):
        # at k = 1 the singular value of R_i = [r_i] is |r_i|, so the rank
        # rule must give the verdict the SVD of R_i gives, batched or alone
        rng = np.random.default_rng(400 + seed)
        n = 60
        X = rng.normal(size=(n, 6, 1)) * 10.0 ** rng.uniform(-150, 150, size=(n, 1, 1))
        X[rng.random(n) < 0.2] = 0.0
        X[rng.random(n) < 0.1] = 1e-310  # subnormal
        R = np.linalg.qr(X)[1]
        sv = np.linalg.svd(R, compute_uv=False)
        want = (sv[:, 0] == 0.0) | (sv[:, -1] < RANK_TOL * sv[:, 0])
        alone = [unit_rank_deficient(np.linalg.qr(X[i:i + 1])[1])[0][0]
                 for i in range(n)]
        assert np.array_equal(unit_rank_deficient(R)[0], want) and want.any()
        assert np.array_equal(alone, want)

    def test_batched_reports_offending_unit(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 4, 2))
        X[3, :, 1] = X[3, :, 0]
        bad, sv = unit_rank_deficient(np.linalg.qr(X)[1])
        assert np.flatnonzero(bad).tolist() == [3]
        assert sv[3, -1] < RANK_TOL * sv[3, 0]

    def test_empty_design_runs_no_svd(self, monkeypatch):
        # X_{i,-1} of a K_x = 1 panel has no columns: every unit passes,
        # with no singular values, and LAPACK is not called for them
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        bad, sv = unit_rank_deficient(np.empty((7, 0, 0)))
        assert bad.dtype == bool and bad.shape == (7,) and not bad.any()
        assert sv.shape == (7, 0)


def einsum_makers(Q):
    """M_i = I - Q_i Q_i' by the einsum that residual_makers runs at k >= 3."""
    return np.eye(Q.shape[1]) - np.einsum("nik,njk->nij", Q, Q)


def awkward_q(rng, n, T, k):
    """(n, T, k) entries at magnitudes 10^U(-150, 150), 20% exact zeros and
    10% -0.0, with a few NaN and inf in some units, C-ordered or strided."""
    Q = rng.normal(size=(n, T, 2 * k)) * 10.0 ** rng.uniform(-150, 150,
                                                            (n, T, 2 * k))
    Q[rng.random(Q.shape) < 0.2] = 0.0
    Q[rng.random(Q.shape) < 0.1] = -0.0
    Q[0, 0, :] = np.nan
    Q[1, -1, :] = [np.inf, -np.inf] * k
    return Q[:, :, ::2] if rng.random() < 0.5 else np.ascontiguousarray(Q[:, :, :k])


class TestResidualMakerKernels:
    # at k <= 2 residual_makers forms Q_i Q_i' by broadcast products;
    # these pin that its M is the einsum's to the bit on this build

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("T", [2, 3, 6, 17, 50])
    def test_broadcast_is_the_einsum_bit_for_bit(self, T, k):
        rng = np.random.default_rng(100 * T + k)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, inf - inf
            for _ in range(5):
                Q = awkward_q(rng, 30, T, k)
                assert_same_bits(residual_makers(Q), einsum_makers(Q))
        Q = np.linalg.qr(rng.normal(size=(40, T, k)))[0]
        assert_same_bits(residual_makers(Q), einsum_makers(Q))

    @pytest.mark.parametrize("k, einsum", [(0, True), (1, False), (2, False),
                                           (3, True), (5, True)])
    def test_only_one_or_two_columns_leave_the_einsum(self, k, einsum,
                                                      monkeypatch):
        Q = np.linalg.qr(np.random.default_rng(7).normal(size=(9, 6, k)))[0]
        want = einsum_makers(Q)
        calls = []
        real = np.einsum
        monkeypatch.setattr(np, "einsum",
                            lambda *a, **kw: calls.append(a[0]) or real(*a, **kw))
        got = residual_makers(Q)
        assert calls == (["nik,njk->nij"] if einsum else [])
        assert_same_bits(got, want)


def extreme_pairs(seed, n):
    """n pairs (r, b) of signed floats with magnitudes 10^U(-150, 150)."""
    rng = np.random.default_rng(seed)
    r, b = rng.choice([-1.0, 1.0], (2, n)) * 10.0 ** rng.uniform(-150, 150, (2, n))
    return r, b


class TestSolveUnits:
    # at k = 1 with one right-hand side solve_units divides; these pin that
    # the division is the batched LAPACK solve bit for bit on this build

    def test_division_is_the_batched_solve(self):
        r, b = extreme_pairs(500, 10**5)
        R, B = r[:, None, None], b[:, None, None]
        got = solve_units(R, B)
        assert got.shape == (r.size, 1, 1)
        assert_same_bits(got, np.linalg.solve(R, B))

    def test_non_finite_and_subnormal_entries_match_the_solve(self):
        r = np.array([1e-310, 5e-320, 1e308, np.inf, -np.inf, np.nan, 2.0, 3.0, -0.5])
        b = np.array([1e-300, 1.0, 1e-308, np.inf, 1.0, 1.0, np.inf, np.nan, -0.0])
        R, B = r[:, None, None], b[:, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve_units(R, B)
        assert_same_bits(got, np.linalg.solve(R, B))

    def test_overflow_is_inf_with_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve_units(np.array([[[1e-200]], [[-1e-200]]]),
                              np.array([[[1e200]], [[1e200]]]))
        assert got[:, 0, 0].tolist() == [np.inf, -np.inf]

    def test_an_exact_zero_still_raises(self):
        r, b = extreme_pairs(501, 50)
        r[17] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            solve_units(r[:, None, None], b[:, None, None])

    @pytest.mark.parametrize("k, m, lapack", [(1, 1, False), (1, 4, True),
                                              (2, 1, True), (3, 3, True)])
    def test_only_one_by_one_with_one_column_divides(self, k, m, lapack,
                                                     monkeypatch):
        rng = np.random.default_rng(502)
        R = np.linalg.qr(rng.normal(size=(40, 6, k)))[1]
        B = rng.normal(size=(40, k, m))
        want = np.linalg.solve(R, B)
        calls = []

        def spy(*args):
            calls.append(args)
            return want

        monkeypatch.setattr(np.linalg, "solve", spy)
        got = solve_units(R, B)
        assert len(calls) == int(lapack)
        assert_same_bits(got, want)
