import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from interpanel.data import build_regressors, make_dataset
from interpanel.dgp import packaged_config, simulate
from interpanel.estimators import (LengthMismatch, MissingWeights,
                                   NoConstantColumn, cite_delta, cite_kappa,
                                   cite_theta, fit_cite, ite, mean_effect,
                                   within_transform)
from interpanel.linalg import residual_makers, solve_ols

from conftest import dummy_variable_oracle, random_panel, within_ols_oracle

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
        theta = cite_theta(build_regressors(ds))
        truth = np.concatenate([np.asarray(cfg.phi).reshape(-1), cfg.gamma])
        assert np.max(np.abs(theta - truth)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dummy_variable_oracle(self, seed):
        ds = random_panel(seed, n=15, T=7)
        dr = build_regressors(ds)
        theta = cite_theta(dr)
        delta = cite_delta(dr, theta)
        theta_o, delta_o = dummy_variable_oracle(ds)
        assert np.max(np.abs(theta - theta_o)) < 1e-8
        assert np.max(np.abs(delta - delta_o)) < 1e-8

    def test_golden_value_confirmed_against_oracle(self):
        ds = simulate(golden_cite_case()).dataset
        dr = build_regressors(ds)
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
        dr = build_regressors(ds)
        delta = cite_delta(dr, np.zeros(1))
        assert_allclose(delta[:, 0], Y.mean(axis=1), atol=1e-12)

    def test_noiseless_recovers_true_delta(self):
        truth = simulate(noiseless_config())
        ds = truth.dataset
        dr = build_regressors(ds)
        delta = cite_delta(dr, cite_theta(dr))
        assert np.max(np.abs(delta - truth.delta)) < 1e-10


class TestCiteKappa:
    def test_exact_linear_relation_every_mode(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(40, 3))
        c = np.array([0.5, -1.0, 2.0])
        delta1 = H @ c
        se = rng.uniform(0.5, 2.0, size=40)
        for mode, w in (("none", None), ("inv_se", se), ("inv_var", se)):
            assert_allclose(cite_kappa(delta1, H, weights=w, mode=mode), c,
                            atol=1e-10)

    def test_weighted_normal_equations_oracle(self):
        rng = np.random.default_rng(6)
        H = rng.normal(size=(30, 2))
        delta1 = rng.normal(size=30)
        se = rng.uniform(0.2, 3.0, size=30)
        for mode, w in (("inv_se", 1.0 / se), ("inv_var", 1.0 / se**2)):
            W = np.diag(w)
            expected = np.linalg.solve(H.T @ W @ H, H.T @ W @ delta1)
            got = cite_kappa(delta1, H, weights=se, mode=mode)
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
        H = np.ones((10, 1))
        with pytest.raises(MissingWeights):
            cite_kappa(np.zeros(10), H, mode="inv_se")
        with pytest.raises(MissingWeights):
            cite_kappa(np.zeros(10), H, weights=np.zeros(10), mode="inv_var")


class TestIte:
    def test_noiseless_exact_recovery(self):
        cfg = noiseless_config()
        ds = simulate(cfg).dataset
        res = ite(ds, build_regressors(ds))
        assert np.max(np.abs(res.kappa_hat - cfg.kappa)) < 1e-10
        assert np.max(np.abs(res.phi_hat - np.asarray(cfg.phi))) < 1e-10
        assert np.max(np.abs(res.gamma_hat - cfg.gamma)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_within_transformation_oracle(self, seed):
        ds = random_panel(seed, n=14, T=5, K_x=2, K_g=0, K_z=0, K_h=1,
                          constant_col=1)
        res = ite(ds, build_regressors(ds))
        assert abs(res.kappa_hat[0] - within_ols_oracle(ds)) < 1e-9

    def test_pooled_ols_reduction_when_x_is_constant(self):
        # K_x = 1 with x identically 1 and no G: the one-step estimator
        # is pooled OLS of Y on (H, Z).
        ds = random_panel(9, n=20, T=4, K_x=1, K_g=0, K_z=2, K_h=2,
                          constant_col=0)
        res = ite(ds, build_regressors(ds))
        n, T = ds.dims.n, ds.dims.T
        design = np.column_stack([
            np.repeat(ds.H, T, axis=0), ds.Z.reshape(n * T, -1)])
        pooled = solve_ols(design, ds.Y.reshape(-1)).coefficients
        assert np.max(np.abs(res.theta_tilde_hat - pooled)) < 1e-9


class TestSpecialCases:
    @pytest.mark.parametrize("seed", range(5))
    def test_fixed_effects_reduction_for_cite(self, seed):
        # K_x = 1 with x identically 1: gamma_hat is the within estimator.
        ds = random_panel(30 + seed, n=18, T=5, K_x=1, K_g=0, K_z=2, K_h=1,
                          constant_col=0)
        theta = cite_theta(build_regressors(ds))
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
        for fit in (lambda d: fit_cite(d, build_regressors(d)).kappa_hat,
                    lambda d: ite(d, build_regressors(d)).kappa_hat):
            k1, k2 = fit(ds), fit(scaled)
            expect = k1.copy()
            expect[col] /= c
            assert np.max(np.abs(k2 - expect)) < 1e-9

    def test_determinism(self):
        ds = random_panel(50)
        dr = build_regressors(ds)
        a = fit_cite(ds, dr)
        b = fit_cite(ds, dr)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(a.kappa_hat, b.kappa_hat)
        r1, r2 = ite(ds, dr), ite(ds, dr)
        assert np.array_equal(r1.theta_tilde_hat, r2.theta_tilde_hat)


class TestWithinTransform:
    def test_constant_y_becomes_zero(self):
        ds = random_panel(60, K_x=2, constant_col=1)
        Y = np.tile(np.arange(1.0, ds.dims.n + 1)[:, None], (1, ds.dims.T))
        flat = make_dataset(Y, ds.X, ds.G, ds.Z, ds.H)
        out = within_transform(flat)
        assert_allclose(out.Y, 0.0, atol=1e-12)

    def test_unit_means_are_zero(self):
        ds = random_panel(61, K_x=3, constant_col=2)
        out = within_transform(ds)
        assert np.max(np.abs(out.Y.mean(axis=1))) < 1e-12
        assert np.max(np.abs(out.X.mean(axis=1))) < 1e-12

    def test_matches_demeaning_projector(self):
        ds = random_panel(62, K_x=2, constant_col=1)
        out = within_transform(ds)
        M = residual_makers(np.ones((1, ds.dims.T, 1)))[0][0]
        for i in range(ds.dims.n):
            assert_allclose(out.Y[i], M @ ds.Y[i], atol=1e-10)

    def test_drops_constant_column(self):
        ds = random_panel(63, K_x=2, constant_col=1)
        out = within_transform(ds)
        assert out.dims.K_x == 1
        assert out.columns["x"] == ["x1"]

    def test_no_constant_column_raises(self):
        ds = random_panel(64, K_x=2)
        with pytest.raises(NoConstantColumn):
            within_transform(ds)


class TestMeanEffect:
    def test_zero_coefficients(self):
        assert mean_effect([0.0, 0.0], [5.0, -2.0], 1.25).mean_effect == 1.25

    def test_identity_invariant(self):
        coeffs = np.array([-1.146, 0.805, -0.0274])
        means = np.array([0.64, 61.867, 75.774])
        s = mean_effect(coeffs, means, -46.5)
        assert s.mean_effect == -46.5 + float(np.dot(coeffs, means))

    def test_second_stage_average(self):
        # coefficient x mean + constant for the single-variable second stage
        s = mean_effect([-0.624], [0.64], 0.905)
        assert abs(s.mean_effect - 0.506) < 1e-3

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mean_effect([1.0], [1.0, 2.0], 0.0)
