from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from interpanel.data import (add_intercept_h, build_regressors, make_dataset,
                             subset_units)
from interpanel.dgp import packaged_config, simulate
from interpanel.estimators import WEIGHT_MODES, fit_cite, ite
from interpanel.inference import (DegenerateResample, TooFewClusters,
                                  ZeroDegreesOfFreedom, bootstrap_cite,
                                  cite_kappa_se, cite_theta_se,
                                  cluster_robust_se, first_stage_se,
                                  fit_cite_weighted, ite_se)

from conftest import random_panel


def small_baseline(n=80, seed=21, **overrides):
    cfg = packaged_config("baseline")
    cfg = replace(cfg, dims=replace(cfg.dims, n=n), seed=seed, **overrides)
    return simulate(cfg).dataset


def weighted_fit(ds, weight_mode):
    """fit_cite_weighted on blocks built here."""
    return fit_cite_weighted(ds, build_regressors(ds), weight_mode)


def bootstrap(ds, replications, seed, weight_mode="none"):
    """bootstrap_cite around a full-sample fit made here."""
    dr = build_regressors(ds)
    return bootstrap_cite(ds, dr, fit_cite_weighted(ds, dr, weight_mode),
                          replications, seed)


class TestFirstStageSe:
    def test_noiseless_is_zero(self):
        cfg = packaged_config("baseline")
        cfg = replace(cfg, dims=replace(cfg.dims, n=40), seed=2,
                      u_scale=0.0, v_scale=0.0, eps_scale=0.0)
        ds = simulate(cfg).dataset
        dr = build_regressors(ds)
        se = first_stage_se(dr, fit_cite(ds, dr))
        assert np.max(np.abs(se)) < 1e-8

    def test_mean_reduction_when_x_is_ones(self):
        rng = np.random.default_rng(3)
        n, T = 10, 6
        Y = rng.normal(size=(n, T))
        ds = make_dataset(Y, np.ones((n, T, 1)), Z=rng.normal(size=(n, T, 1)))
        dr = build_regressors(ds)
        res = fit_cite(ds, dr)
        se = first_stage_se(dr, res)
        resid = Y - dr.Psi @ res.theta_hat - res.delta_hat[:, :1]
        s = np.sqrt((resid**2).sum(axis=1) / (T - 1))
        assert_allclose(se, s / np.sqrt(T), atol=1e-12)

    def test_per_unit_reregression_oracle(self):
        ds = small_baseline(n=25, seed=4)
        dr = build_regressors(ds)
        res = fit_cite(ds, dr)
        se = first_stage_se(dr, res)
        T, K_x = ds.dims.T, ds.dims.K_x
        for i in range(ds.dims.n):
            # regress unit i's net outcome on its own X from scratch
            yi = ds.Y[i] - dr.Psi[i] @ res.theta_hat
            Xi = ds.X[i]
            bi = np.linalg.solve(Xi.T @ Xi, Xi.T @ yi)
            ri = yi - Xi @ bi
            s2 = (ri @ ri) / (T - K_x)
            want = np.sqrt(s2 * np.linalg.inv(Xi.T @ Xi)[0, 0])
            assert abs(se[i] - want) < 1e-10

    def test_zero_degrees_of_freedom(self):
        ds = random_panel(5, n=8, T=2, K_x=2, K_g=0, K_z=0, K_h=1)
        dr = build_regressors(ds)
        with pytest.raises(ZeroDegreesOfFreedom):
            first_stage_se(dr, fit_cite(ds, dr))


class TestClusterRobust:
    def test_singleton_clusters_collapse_to_hc0(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3))
        e = rng.normal(size=40)
        ids = np.arange(40)
        got = cluster_robust_se(X, e, ids, small_sample=False)
        bread = np.linalg.inv(X.T @ X)
        hc0 = bread @ (X * e[:, None] ** 2).T @ X @ bread
        assert_allclose(got.vcov, hc0, atol=1e-12)
        # default small-sample factor scales it by G/(G-1) * (N-1)/(N-k)
        scaled = cluster_robust_se(X, e, ids)
        c = (40 / 39) * (39 / 37)
        assert_allclose(scaled.vcov, c * hc0, atol=1e-12)

    def test_duplicating_clusters_halves_variance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 2))
        e = rng.normal(size=30)
        ids = np.repeat(np.arange(10), 3)
        base = cluster_robust_se(X, e, ids, small_sample=False)
        X2 = np.vstack([X, X])
        e2 = np.concatenate([e, e])
        ids2 = np.concatenate([ids, 10 + ids])
        twice = cluster_robust_se(X2, e2, ids2, small_sample=False)
        assert_allclose(twice.vcov, base.vcov / 2.0, atol=1e-12)
        # with the finite-cluster corrections the ratio carries the factors
        b = cluster_robust_se(X, e, ids)
        t = cluster_robust_se(X2, e2, ids2)
        corr = ((20 / 19) * (59 / 58)) / ((10 / 9) * (29 / 28))
        assert_allclose(t.vcov, 0.5 * corr * b.vcov, atol=1e-12)

    def test_score_accumulation_oracle(self):
        rng = np.random.default_rng(8)
        N, k, G = 60, 3, 12
        X = rng.normal(size=(N, k))
        e = rng.normal(size=N)
        ids = rng.integers(0, G, size=N)
        got = cluster_robust_se(X, e, ids, small_sample=False)
        meat = np.zeros((k, k))
        for g in range(G):
            s = np.zeros(k)
            for i in range(N):
                if ids[i] == g:
                    s += X[i] * e[i]
            meat += np.outer(s, s)
        bread = np.linalg.inv(X.T @ X)
        assert_allclose(got.vcov, bread @ meat @ bread, atol=1e-12)

    def test_too_few_clusters(self):
        with pytest.raises(TooFewClusters):
            cluster_robust_se(np.ones((5, 1)), np.ones(5), np.zeros(5))

    def test_variance_matrix_invariants(self):
        ds = small_baseline(n=50, seed=9)
        dr = build_regressors(ds)
        res = fit_cite(ds, dr)
        for se in (ite_se(dr, ite(ds, dr)),
                   cite_theta_se(dr, res),
                   cite_kappa_se(dr, res)):
            assert np.max(np.abs(se.vcov - se.vcov.T)) < 1e-10
            assert np.all(np.diag(se.vcov) >= 0)
            assert_allclose(se.se, np.sqrt(np.diag(se.vcov)))


class TestBootstrap:
    def test_noiseless_bootstrap_se_is_zero(self):
        cfg = packaged_config("baseline")
        cfg = replace(cfg, dims=replace(cfg.dims, n=30), seed=11,
                      u_scale=0.0, v_scale=0.0, eps_scale=0.0)
        ds = simulate(cfg).dataset
        se = bootstrap(ds, replications=50, seed=1)
        assert np.max(se.se) < 1e-8

    def test_seeded_runs_are_bit_identical(self):
        ds = small_baseline(n=40, seed=12)
        a = bootstrap(ds, replications=60, seed=5)
        b = bootstrap(ds, replications=60, seed=5)
        assert np.array_equal(a.se, b.se)
        assert np.array_equal(a.vcov, b.vcov)

    def test_replays_documented_draws(self):
        # draw r uses SeedSequence(seed, spawn_key=(r, 0)) unless it had
        # to be redrawn; none is at this size
        ds = small_baseline(n=40, seed=17)
        n, reps, seed = ds.dims.n, 60, 5
        boot = bootstrap(ds, replications=reps, seed=seed, weight_mode="inv_se")
        draws = []
        for r in range(reps):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(r, 0)))
            idx = rng.integers(0, n, size=n)
            draws.append(weighted_fit(subset_units(ds, idx), "inv_se").kappa_hat)
        assert_allclose(boot.se, np.std(draws, axis=0, ddof=1), rtol=1e-12)
        assert np.array_equal(
            boot.estimates, weighted_fit(ds, "inv_se").kappa_hat)

    def test_minimum_replications(self):
        ds = small_baseline(n=30, seed=13)
        with pytest.raises(ValueError):
            bootstrap(ds, replications=10, seed=0)

    def test_matches_monte_carlo_sd(self):
        # bootstrap SE at n=400 vs the SD of kappa_hat across independent
        # datasets from the same DGP
        cfg = packaged_config("baseline")
        cfg = replace(cfg, dims=replace(cfg.dims, n=400))
        draws = []
        for r in range(150):
            ds = simulate(replace(cfg, seed=40_000 + r)).dataset
            draws.append(fit_cite(ds, build_regressors(ds)).kappa_hat)
        mc_sd = np.array(draws).std(axis=0, ddof=1)
        ds = simulate(replace(cfg, seed=123)).dataset
        boot = bootstrap(ds, replications=200, seed=9)
        assert np.all(np.abs(boot.se - mc_sd) < 0.25 * mc_sd)

    def test_degenerate_resample_cap(self):
        # With K_h == n the cross-sectional stage needs all n distinct
        # units, so a resample succeeds only when it draws a permutation
        # (probability n!/n^n, about 4% here). The redraw budget of
        # 10x replications is then exhausted; deterministic given the seed.
        rng = np.random.default_rng(14)
        n, T = 5, 5
        Y = rng.normal(size=(n, T))
        X = rng.normal(size=(n, T, 1))
        H = rng.normal(size=(n, 5))
        ds = make_dataset(Y, X, H=H)
        with pytest.raises(DegenerateResample):
            bootstrap(ds, replications=50, seed=3)


class TestWeightedFit:
    def test_weight_modes_change_kappa(self):
        ds = small_baseline(n=60, seed=15)
        plain = weighted_fit(ds, "none")
        inv_se = weighted_fit(ds, "inv_se")
        inv_var = weighted_fit(ds, "inv_var")
        assert plain.weight_mode == "none"
        assert inv_se.weight_mode == "inv_se"
        # theta and delta stages are shared; only kappa differs
        assert np.array_equal(plain.theta_hat, inv_se.theta_hat)
        assert not np.array_equal(plain.kappa_hat, inv_se.kappa_hat)
        assert not np.array_equal(inv_se.kappa_hat, inv_var.kappa_hat)

    def test_zero_degrees_of_freedom_blames_no_unit(self):
        # T <= K_x holds for every unit of a balanced panel, not for one
        ds = random_panel(16, n=8, T=2, K_x=2, K_g=0, K_z=0, K_h=1)
        ds = make_dataset(ds.Y, ds.X, ds.G, ds.Z, ds.H, unit_labels=list("abcdefgh"))
        with pytest.raises(ZeroDegreesOfFreedom) as err:
            weighted_fit(ds, "inv_se")
        msg = str(err.value)
        assert not any(f"unit '{u}'" in msg for u in "abcdefgh")
        assert "every unit has T <= K_x (T = 2, K_x = 2)" in msg

    def test_weighting_rejected_when_residuals_are_exact(self):
        # T == K_x: per-unit fits are exactly identified, so first-stage
        # SEs (and thus weighted modes) are undefined
        ds = random_panel(16, n=10, T=2, K_x=2, K_g=0, K_z=0, K_h=1)
        assert weighted_fit(ds, "none") is not None
        with pytest.raises(ZeroDegreesOfFreedom):
            weighted_fit(ds, "inv_se")

    def test_unknown_weight_mode_is_rejected(self):
        # K_h = 0 skips the kappa stage, which must not hide the bad mode
        ds = random_panel(19, n=10, T=4, K_h=0)
        with pytest.raises(ValueError) as err:
            fit_cite_weighted(ds, build_regressors(ds), "bogus")
        assert "'bogus'" in str(err.value)
        assert str(WEIGHT_MODES) in str(err.value)

    @pytest.mark.parametrize("mode", ["none", "inv_se", "inv_var"])
    def test_fits_read_units_from_the_blocks(self, mode):
        # a resample is a reindex of the blocks; ds only carries labels
        ds = small_baseline(n=40, seed=18)
        idx = np.random.default_rng(2).integers(0, 40, size=50)
        assert np.unique(idx).size < idx.size
        got = fit_cite_weighted(ds, build_regressors(ds).take(idx), mode)
        want = weighted_fit(subset_units(ds, idx), mode)
        for name in ("theta_hat", "delta_hat", "kappa_hat"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_ite_reads_units_from_the_blocks(self):
        ds = small_baseline(n=40, seed=18)
        idx = np.random.default_rng(2).integers(0, 40, size=50)
        got = ite(ds, build_regressors(ds).take(idx))
        sub = subset_units(ds, idx)
        want = ite(sub, build_regressors(sub))
        assert np.array_equal(got.theta_tilde_hat, want.theta_tilde_hat)


class TestKappaSe:
    @pytest.mark.parametrize("mode", ["none", "inv_se", "inv_var"])
    def test_sandwich_at_the_fit_weights(self, mode):
        # HC0 at the fit's weights w (from the first-stage SEs), written out
        # with e_i = sqrt(w_i) u_i, u_i the raw residual of unit i:
        # (H'WH)^{-1} (sum_i w_i e_i^2 h_i h_i') (H'WH)^{-1}
        ds = add_intercept_h(small_baseline(n=80, seed=3))
        dr = build_regressors(ds)
        res = fit_cite_weighted(ds, dr, weight_mode=mode)
        se = first_stage_se(dr, fit_cite(ds, dr))
        w = {"none": np.ones_like(se), "inv_se": 1.0 / se,
             "inv_var": 1.0 / se**2}[mode]
        H = ds.H
        e = np.sqrt(w) * (res.delta_hat[:, 0] - H @ res.kappa_hat)
        bread = np.linalg.inv(H.T @ (w[:, None] * H))
        meat = np.zeros((H.shape[1], H.shape[1]))
        for i in range(ds.dims.n):
            meat += w[i] * e[i] ** 2 * np.outer(H[i], H[i])
        want = bread @ meat @ bread
        got = cite_kappa_se(dr, res)
        assert_allclose(got.vcov, want, rtol=0, atol=1e-12)
        assert_allclose(got.se, np.sqrt(np.diag(want)), rtol=0, atol=1e-12)
        assert (got.method, got.n_clusters) == ("hc_robust", ds.dims.n)
