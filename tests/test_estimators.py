import json
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from interpanel.data import build_regressors, make_dataset
from interpanel.dgp import packaged_config, simulate
from interpanel.estimators import (LengthMismatch, MissingWeights, cite_delta,
                                   cite_kappa, cite_theta, fit_cite, inv11,
                                   ite, mean_effect, second_stage_weights)
from interpanel.linalg import RankDeficient, solve_ols

from conftest import (assert_same_bits, dummy_variable_oracle, random_panel,
                      within_ols_oracle)

GOLDEN = Path(__file__).parent / "golden"


def noiseless_config(n=60, seed=3):
    cfg = packaged_config("baseline")
    return replace(cfg, dims=replace(cfg.dims, n=n), seed=seed,
                   u_scale=0.0, v_scale=0.0, eps_scale=0.0)


def golden_cite_case():
    cfg = packaged_config("baseline")
    return replace(cfg, dims=replace(cfg.dims, n=30, T=8), seed=42)


class TestCiteTheta:
    def test_noiseless_exact_recovery(self):
        cfg = noiseless_config()
        ds = simulate(cfg).dataset
        theta = cite_theta(build_regressors(ds).cite)
        truth = np.concatenate([np.asarray(cfg.phi).reshape(-1), cfg.gamma])
        assert np.max(np.abs(theta - truth)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dummy_variable_oracle(self, seed):
        ds = random_panel(seed, n=15, T=7)
        dr = build_regressors(ds).cite
        theta = cite_theta(dr)
        delta = cite_delta(dr, theta)
        theta_o, delta_o = dummy_variable_oracle(ds)
        assert np.max(np.abs(theta - theta_o)) < 1e-8
        assert np.max(np.abs(delta - delta_o)) < 1e-8

    def test_golden_value_confirmed_against_oracle(self):
        ds = simulate(golden_cite_case()).dataset
        dr = build_regressors(ds).cite
        theta = cite_theta(dr)
        theta_o, _ = dummy_variable_oracle(ds)
        assert np.max(np.abs(theta - theta_o)) < 1e-8
        with open(GOLDEN / "cite_theta_seed42.json", encoding="utf-8") as fh:
            frozen = json.load(fh)
        assert_allclose(theta, frozen["theta_hat"], atol=1e-12)


class TestCiteDelta:
    def test_unit_means_when_x_is_ones(self):
        rng = np.random.default_rng(4)
        n, T = 9, 5
        Y = rng.normal(size=(n, T))
        X = np.ones((n, T, 1))
        Z = rng.normal(size=(n, T, 1))
        ds = make_dataset(Y, X, Z=Z)
        dr = build_regressors(ds).cite
        delta = cite_delta(dr, np.zeros(1))
        assert_allclose(delta[:, 0], Y.mean(axis=1), atol=1e-12)

    def test_noiseless_recovers_true_delta(self):
        truth = simulate(noiseless_config())
        ds = truth.dataset
        dr = build_regressors(ds).cite
        delta = cite_delta(dr, cite_theta(dr))
        assert np.max(np.abs(delta - truth.delta)) < 1e-10


class TestOneColumnDivision:
    # at K_x = 1 cite_delta and inv11 divide (linalg.solve_units); each must
    # equal its batched np.linalg.solve form bit for bit, extreme magnitudes,
    # overflow and underflow included, with no RuntimeWarning
    @staticmethod
    def pairs(seed, e, n=10**5):
        """n pairs of signed floats with magnitudes 10^U(-e, e)."""
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], (2, n))
        return signs * 10.0 ** rng.uniform(-e, e, (2, n))

    @pytest.mark.parametrize("e", [150, 300])  # 300: quotients overflow
    def test_cite_delta_is_the_batched_solve(self, e):
        r, b = self.pairs(610, e)
        # T = 1 and q_i = 1: the right-hand side Q_i'Y_i is b_i itself
        dr = SimpleNamespace(Y=b[:, None], Psi=np.zeros((b.size, 1, 0)),
                             q_x=np.ones((b.size, 1, 1)), r_x=r[:, None, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cite_delta(dr, np.zeros(0))
        want = np.linalg.solve(dr.r_x, b[:, None, None])[..., 0]
        assert got.shape == (b.size, 1)
        assert_same_bits(got, want)
        assert np.isinf(got).any() == (e == 300)

    @pytest.mark.parametrize("e", [150, 300])  # 300: 1/r^2 over- and underflows
    def test_inv11_is_the_batched_solve_and_einsum(self, e):
        r, _ = self.pairs(611, e)
        r_x = r[:, None, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inv11(r_x)
        r_inv = np.linalg.solve(r_x, np.broadcast_to(np.eye(1), r_x.shape))
        want = np.einsum("nk,nk->n", r_inv[:, 0, :], r_inv[:, 0, :])
        assert_same_bits(got, want)
        assert (np.isinf(got).any() and (got == 0.0).any()) == (e == 300)

    def test_fit_on_a_simulated_panel_is_unchanged(self):
        cfg = packaged_config("ite_gap")
        ds = simulate(replace(cfg, dims=replace(cfg.dims, n=300))).dataset
        dr = build_regressors(ds).cite
        theta = cite_theta(dr)
        rhs = np.einsum("ntk,nt->nk", dr.q_x, dr.Y - dr.Psi @ theta)
        want = np.linalg.solve(dr.r_x, rhs[..., None])[..., 0]
        assert_same_bits(cite_delta(dr, theta), want)

    def test_k2_goes_through_the_solve(self, monkeypatch):
        dr = build_regressors(random_panel(612, K_x=2)).cite
        theta = cite_theta(dr)
        want = cite_delta(dr, theta), inv11(dr.r_x)
        calls = []
        solve = np.linalg.solve

        def spy(*args):
            calls.append(args[1].shape)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", spy)
        got = cite_delta(dr, theta), inv11(dr.r_x)
        assert calls == [(12, 2, 1), (12, 2, 2)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestCiteKappa:
    def test_exact_linear_relation_every_mode(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(40, 3))
        c = np.array([0.5, -1.0, 2.0])
        delta1 = H @ c
        w = rng.uniform(0.5, 2.0, size=40)
        for weights in (None, w):
            assert_allclose(cite_kappa(delta1, H, weights), c, atol=1e-10)

    def test_weighted_normal_equations_oracle(self):
        rng = np.random.default_rng(6)
        H = rng.normal(size=(30, 2))
        delta1 = rng.normal(size=30)
        se = rng.uniform(0.2, 3.0, size=30)
        for mode, w in (("inv_se", 1.0 / se), ("inv_var", 1.0 / se**2)):
            assert_allclose(second_stage_weights(se, mode), w, rtol=1e-15)
            W = np.diag(w)
            expected = np.linalg.solve(H.T @ W @ H, H.T @ W @ delta1)
            got = cite_kappa(delta1, H, weights=w)
            assert_allclose(got, expected, atol=1e-10)

    def test_second_stage_format_with_intercept_and_dummy(self):
        # Layout of the second-stage regression in applied work: an
        # explicit constant plus a binary policy column with mean 0.64.
        # The slope/constant are recovered exactly when the residual is
        # H-orthogonal by construction.
        rng = np.random.default_rng(7)
        n = 25
        dummy = (np.arange(n) < 16).astype(float)  # mean 0.64
        H = np.column_stack([np.ones(n), dummy])
        resid = rng.normal(size=n)
        resid -= H @ np.linalg.solve(H.T @ H, H.T @ resid)
        delta1 = 0.905 - 0.624 * dummy + resid
        kappa = cite_kappa(delta1, H)
        assert_allclose(kappa, [0.905, -0.624], atol=1e-10)

    def test_missing_weights(self):
        # each w_i must be strictly positive and finite
        for bad in (0.0, -1.0, np.inf, np.nan):
            weights = np.ones(10)
            weights[3] = bad
            with pytest.raises(MissingWeights):
                cite_kappa(np.zeros(10), np.ones((10, 1)), weights)

    def test_weights_length_must_match(self):
        with pytest.raises(LengthMismatch):
            cite_kappa(np.zeros(10), np.ones((10, 1)), np.ones(9))

    @pytest.mark.parametrize("weights", [None, np.ones(4)],
                             ids=["unweighted", "weighted"])
    def test_rank_deficient_names_the_stage(self, weights):
        # a repeated column of H: the solver's reason and condition, named
        H = np.repeat(np.arange(1.0, 5.0)[:, None], 2, axis=1)
        with pytest.raises(RankDeficient) as exc:
            cite_kappa(np.arange(4.0), H, weights)
        assert str(exc.value).startswith(
            "CITE kappa stage: design is numerically rank deficient "
            "(gram condition ~ ")
        assert exc.value.condition > 1e20


class TestFitCiteWeights:
    def test_unweighted_fit_has_unit_weights(self):
        dr = build_regressors(random_panel(3, n=20)).cite
        res = fit_cite(dr, "none")
        assert (res.weight_mode, res.weights.tolist()) == ("none", [1.0] * 20)
        assert_same_bits(res.kappa_hat,
                         cite_kappa(res.delta_hat[:, 0], dr.H, None))

    def test_no_h_is_unweighted_with_no_first_stage_se(self):
        # K_h = 0 and an empty Psi at T = K_x: the first-stage residuals
        # have no degrees of freedom, and none are formed, since no kappa
        # stage reads a weight
        dr = build_regressors(random_panel(4, n=6, T=2, K_x=2, K_g=0, K_z=0,
                                           K_h=0)).cite
        res = fit_cite(dr, "inv_se")
        assert (res.weight_mode, res.weights.tolist(), res.kappa_hat.shape) \
            == ("none", [1.0] * 6, (0,))


class TestIte:
    def test_noiseless_exact_recovery(self):
        cfg = noiseless_config()
        ds = simulate(cfg).dataset
        res = ite(build_regressors(ds).ite)
        assert np.max(np.abs(res[:ds.dims.K_h] - cfg.kappa)) < 1e-10
        phi_gamma = np.concatenate([np.ravel(cfg.phi), cfg.gamma])
        assert np.max(np.abs(res[ds.dims.K_h:] - phi_gamma)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_within_transformation_oracle(self, seed):
        ds = random_panel(seed, n=14, T=5, K_x=2, K_g=0, K_z=0, K_h=1,
                          constant_col=1)
        res = ite(build_regressors(ds).ite)
        assert abs(res[0] - within_ols_oracle(ds)) < 1e-9

    def test_pooled_ols_reduction_when_x_is_constant(self):
        # K_x = 1 with x identically 1 and no G: the one-step estimator
        # is pooled OLS of Y on (H, Z).
        ds = random_panel(9, n=20, T=4, K_x=1, K_g=0, K_z=2, K_h=2,
                          constant_col=0)
        res = ite(build_regressors(ds).ite)
        n, T = ds.dims.n, ds.dims.T
        design = np.column_stack([
            np.repeat(ds.H, T, axis=0), ds.Z.reshape(n * T, -1)])
        pooled = solve_ols(design, ds.Y.reshape(-1)).coefficients
        assert np.max(np.abs(res - pooled)) < 1e-9


class TestSpecialCases:
    @pytest.mark.parametrize("seed", range(5))
    def test_fixed_effects_reduction_for_cite(self, seed):
        # K_x = 1 with x identically 1: gamma_hat is the within estimator.
        ds = random_panel(30 + seed, n=18, T=5, K_x=1, K_g=0, K_z=2, K_h=1,
                          constant_col=0)
        theta = cite_theta(build_regressors(ds).cite)
        Yd = ds.Y - ds.Y.mean(axis=1, keepdims=True)
        Zd = ds.Z - ds.Z.mean(axis=1, keepdims=True)
        within = solve_ols(Zd.reshape(-1, 2), Yd.reshape(-1)).coefficients
        assert np.max(np.abs(theta - within)) < 1e-9

    @pytest.mark.parametrize("col", [0, 1])
    def test_h_rescaling_equivariance(self, col):
        ds = random_panel(40, n=16, T=6, K_h=2)
        c = 3.7
        H2 = ds.H.copy()
        H2[:, col] = c * H2[:, col]
        scaled = make_dataset(ds.Y, ds.X, ds.G, ds.Z, H2)
        for fit in (lambda d: fit_cite(build_regressors(d).cite).kappa_hat,
                    lambda d: ite(build_regressors(d).ite)[:d.dims.K_h]):
            k1, k2 = fit(ds), fit(scaled)
            expect = k1.copy()
            expect[col] /= c
            assert np.max(np.abs(k2 - expect)) < 1e-9

    def test_determinism(self):
        # on blocks built twice: one set of blocks returns its cached fit
        ds = random_panel(50)
        dr, dr2 = build_regressors(ds), build_regressors(ds)
        a = fit_cite(dr.cite)
        b = fit_cite(dr2.cite)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(a.kappa_hat, b.kappa_hat)
        assert np.array_equal(ite(dr.ite), ite(dr2.ite))


class TestMeanEffect:
    def test_zero_coefficients(self):
        assert mean_effect([0.0, 0.0], [5.0, -2.0], 1.25) == 1.25

    def test_identity_invariant(self):
        coeffs = np.array([-1.146, 0.805, -0.0274])
        means = np.array([0.64, 61.867, 75.774])
        assert mean_effect(coeffs, means, -46.5) \
            == -46.5 + float(np.dot(coeffs, means))

    def test_second_stage_average(self):
        # coefficient x mean + constant for the single-variable second stage
        assert abs(mean_effect([-0.624], [0.64], 0.905) - 0.506) < 1e-3

    def test_overflow_is_inf_with_no_warning(self):
        assert mean_effect([1e308], [10.0], 0.0) == np.inf

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mean_effect([1.0], [1.0, 2.0], 0.0)
