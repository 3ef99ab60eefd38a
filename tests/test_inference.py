import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from interpanel.data import (add_intercept_h, build_regressors, make_dataset,
                             subset_units)
from interpanel.dgp import packaged_config, simulate
from interpanel import data, estimators, inference, linalg
from interpanel.estimators import (WEIGHT_MODES, MissingWeights,
                                   ZeroDegreesOfFreedom, first_stage_se,
                                   fit_cite)
from interpanel.inference import (DegenerateResample, TooFewClusters,
                                  bootstrap_cite, cite_kappa_se, cite_theta_se,
                                  cluster_robust_se, draw_kappas, ite_se,
                                  unit_summaries)

from conftest import assert_same_bits, random_panel


def small_baseline(n=80, seed=21, **overrides):
    cfg = packaged_config("baseline")
    cfg = replace(cfg, dims=replace(cfg.dims, n=n), seed=seed, **overrides)
    return simulate(cfg).dataset


def weighted_fit(ds, weight_mode):
    """fit_cite on blocks built here."""
    return fit_cite(build_regressors(ds).cite, weight_mode)


def exact_residual_panel(K_z):
    """X = 1 and Y constant in time, T = 4: every unit's slope is its mean
    and its first-stage residuals are exactly 0, also with K_z columns of
    Z in the pooled stage (theta is then exactly 0)."""
    rng = np.random.default_rng(3)
    H = rng.normal(size=(8, 1))
    Y = np.repeat(np.arange(1.0, 9.0)[:, None], 4, axis=1)
    return make_dataset(Y, np.ones((8, 4, 1)), Z=rng.normal(size=(8, 4, K_z)),
                        H=H)


def one_exact_unit_panel():
    """n = 8, T = 4, K_x = 1, K_h = 3, with unit 0 at X = 1 and Y constant
    in time: its first-stage residuals, and so its se_i, are exactly 0."""
    ds = random_panel(26, n=8, T=4, K_x=1, K_g=0, K_z=0, K_h=3)
    X, Y = ds.X.copy(), ds.Y.copy()
    X[0], Y[0] = 1.0, 2.0
    return make_dataset(Y, X, H=ds.H)


def bootstrap(ds, replications, seed, weight_mode="none"):
    """bootstrap_cite on the CITE blocks built here and their fit."""
    dr = build_regressors(ds).cite
    return bootstrap_cite(dr, fit_cite(dr, weight_mode), replications, seed)


class TestFirstStageSe:
    def test_noiseless_is_zero(self):
        cfg = packaged_config("baseline")
        cfg = replace(cfg, dims=replace(cfg.dims, n=40), seed=2,
                      u_scale=0.0, v_scale=0.0, eps_scale=0.0)
        ds = simulate(cfg).dataset
        dr = build_regressors(ds).cite
        res = fit_cite(dr)
        se = first_stage_se(dr, res.theta_hat, res.delta_hat)
        assert np.max(np.abs(se)) < 1e-8

    def test_mean_reduction_when_x_is_ones(self):
        rng = np.random.default_rng(3)
        n, T = 10, 6
        Y = rng.normal(size=(n, T))
        ds = make_dataset(Y, np.ones((n, T, 1)), Z=rng.normal(size=(n, T, 1)))
        dr = build_regressors(ds).cite
        res = fit_cite(dr)
        se = first_stage_se(dr, res.theta_hat, res.delta_hat)
        resid = Y - dr.Psi @ res.theta_hat - res.delta_hat[:, :1]
        s = np.sqrt((resid**2).sum(axis=1) / (T - 1))
        assert_allclose(se, s / np.sqrt(T), atol=1e-12)

    def test_per_unit_reregression_oracle(self):
        ds = small_baseline(n=25, seed=4)
        dr = build_regressors(ds).cite
        res = fit_cite(dr)
        se = first_stage_se(dr, res.theta_hat, res.delta_hat)
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
        dr = build_regressors(ds).cite
        res = fit_cite(dr)
        with pytest.raises(ZeroDegreesOfFreedom):
            first_stage_se(dr, res.theta_hat, res.delta_hat)


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

    @pytest.mark.parametrize("seed", range(4))
    def test_ill_conditioned_gram_matches_mpmath(self, seed):
        # Integer columns, two of them nearly collinear: X'X and the scores
        # are exact in float64, so only the sandwich's own solve rounds.
        # Gram condition about 2e8; the bound is a few times cond * eps.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        N, G = 60, 20
        base = rng.integers(-10**4, 10**4, N)
        X = np.column_stack([np.ones(N), base,
                             base + rng.integers(-1, 2, N)]).astype(float)
        e = rng.integers(-8, 9, N).astype(float)
        ids = np.repeat(np.arange(G), N // G)
        assert 1e8 < np.linalg.cond(X.T @ X) < 1e9
        got = cluster_robust_se(X, e, ids)

        with mpmath.workdps(50):
            Xm = mpmath.matrix(X.tolist())
            scores = mpmath.matrix(G, 3)
            for r in range(N):
                for j in range(3):
                    scores[ids[r], j] += Xm[r, j] * int(e[r])
            bread = (Xm.T * Xm) ** -1
            c = mpmath.mpf(G) / (G - 1) * mpmath.mpf(N - 1) / (N - 3)
            V = bread * (scores.T * scores) * bread * c
            want = np.array([[float(V[i, j]) for j in range(3)]
                             for i in range(3)])
        sd = np.sqrt(np.diag(want))
        assert_allclose(got.se, sd, rtol=1e-7, atol=0)
        assert np.max(np.abs(got.vcov - want) / np.outer(sd, sd)) < 1e-7

    def test_too_few_clusters(self):
        with pytest.raises(TooFewClusters):
            cluster_robust_se(np.ones((5, 1)), np.ones(5), np.zeros(5))

    def test_as_many_rows_as_columns_is_zero_degrees_of_freedom(self):
        # (N-1)/(N-k) is 1/0: the package's error for residuals with no
        # degrees of freedom; HC0, with no factor, still has its variance
        X, e = np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([0.5, -0.5])
        with pytest.raises(ZeroDegreesOfFreedom) as err:
            cluster_robust_se(X, e, np.arange(2))
        assert str(err.value) == ("the small-sample factor (N-1)/(N-k) needs "
                                  "more rows than columns, got N = 2, k = 2")
        hc0 = cluster_robust_se(X, e, np.arange(2), small_sample=False)
        assert np.isfinite(hc0.se).all()

    def test_variance_matrix_invariants(self):
        ds = small_baseline(n=50, seed=9)
        dr = build_regressors(ds)
        res = fit_cite(dr.cite)
        for se in (ite_se(dr.ite),
                   cite_theta_se(dr.cite),
                   cite_kappa_se(dr.cite, res)):
            assert np.max(np.abs(se.vcov - se.vcov.T)) < 1e-10
            assert np.all(np.diag(se.vcov) >= 0)
            assert_allclose(se.se, np.sqrt(np.diag(se.vcov)))

    def test_theta_se_is_empty_without_psi(self):
        # no G and no Z: theta is empty, and so are its SEs
        ds = random_panel(10, n=9, K_g=0, K_z=0)
        dr = build_regressors(ds).cite
        se = cite_theta_se(dr)
        assert (se.se.shape, se.vcov.shape) == ((0,), (0, 0))


def add_at_sums(rows, ids):
    """The cluster sums as np.add.at forms them, one row at a time, by
    np.unique's codes."""
    distinct, codes = np.unique(ids, return_inverse=True)
    sums = np.zeros((distinct.size, rows.shape[1]))
    np.add.at(sums, codes, rows)
    return sums


def cluster_codes(rng, layout):
    """Cluster codes in 0..G-1, every code used, in one of the layouts a
    sandwich meets: unit clusters of T rows (in order or shuffled),
    clusters of uneven sizes, singletons, and a few large clusters (in
    order, or two shuffled). Only unit clusters in order and singletons
    are runs that _cluster_sums sums without np.add.at."""
    if layout == "units":
        return np.repeat(np.arange(40), 6)
    if layout == "shuffled units":
        return rng.permutation(np.repeat(np.arange(40), 6))
    if layout == "uneven":
        return rng.permutation(np.concatenate([np.arange(30),
                                               rng.integers(0, 30, 200)]))
    if layout == "singletons":
        return rng.permutation(50)
    if layout == "few uneven clusters":
        return np.sort(rng.integers(0, 5, 400))
    return rng.permutation(np.arange(300) % 2)


def signed_rows(rng, N, k):
    """(N, k) rows over 300 decades, with -0.0 and 0.0 among them."""
    rows = rng.normal(size=(N, k)) * 10.0 ** rng.uniform(-150, 150, (N, 1))
    rows[rng.random(rows.shape) < 0.3] = -0.0
    rows[rng.random(rows.shape) < 0.1] = 0.0
    return rows


@pytest.fixture
def unique_calls(monkeypatch):
    """The arguments of each np.unique call, which only the np.add.at side
    of _cluster_sums makes."""
    calls, unique = [], np.unique
    monkeypatch.setattr(
        np, "unique", lambda *a, **kw: calls.append(a) or unique(*a, **kw))
    return calls


class TestClusterSums:
    # cluster_robust_se sums the scores of in-order runs without np.add.at;
    # these pin that the sums are add.at's to the bit, for ids in any order

    @pytest.mark.parametrize("layout", ["units", "shuffled units", "uneven",
                                        "singletons", "few uneven clusters",
                                        "two clusters"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_sums_are_add_at_bit_for_bit(self, layout, k):
        rng = np.random.default_rng(len(layout))
        codes = cluster_codes(rng, layout)
        rows = signed_rows(rng, codes.size, k)
        rows[codes == 0, 0] = -0.0  # add.at's sum is +0.0, from its 0 start
        assert_same_bits(inference._cluster_sums(rows, codes),
                         add_at_sums(rows, codes))
        rows[rng.random(rows.shape) < 0.02] = np.nan
        rows[rng.random(rows.shape) < 0.02] = -np.inf
        with np.errstate(invalid="ignore"):  # inf - inf
            assert_same_bits(inference._cluster_sums(rows, codes),
                             add_at_sums(rows, codes))

    @pytest.mark.parametrize("m, by_add_at", [(6, False), (7, True)])
    def test_runs_longer_than_their_number_go_to_add_at(self, m, by_add_at,
                                                        unique_calls):
        # 6 runs of m rows: the loop takes m <= G, add.at m = G + 1, so the
        # loop never runs more than sqrt(N) times
        rng = np.random.default_rng(m)
        ids = np.repeat(np.arange(6), m)
        rows = signed_rows(rng, ids.size, 2)
        got = inference._cluster_sums(rows, ids)
        assert len(unique_calls) == by_add_at
        assert_same_bits(got, add_at_sums(rows, ids))

    @pytest.mark.parametrize("ids", [[0, 0, -1, -1], [0, 0, 2 ** 64 - 1] * 2],
                             ids=["ending negative", "ending past int64"])
    def test_ids_that_only_start_as_runs_go_to_add_at(self, ids,
                                                      unique_calls):
        ids = np.array(ids, dtype=np.int64 if ids[-1] < 0 else np.uint64)
        rows = signed_rows(np.random.default_rng(5), ids.size, 2)
        got = inference._cluster_sums(rows, ids)
        assert len(unique_calls) == 1
        assert_same_bits(got, add_at_sums(rows, ids))
        se = cluster_robust_se(rows, np.ones(ids.size), ids)
        assert se.se.shape == (2,)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.intp])
    def test_unit_runs_of_any_integer_dtype_take_the_loop(self, dtype,
                                                          unique_calls):
        rng = np.random.default_rng(7)
        ids = np.repeat(np.arange(40), 6).astype(dtype)
        rows = signed_rows(rng, ids.size, 3)
        got = inference._cluster_sums(rows, ids)
        assert unique_calls == []
        assert_same_bits(got, add_at_sums(rows, ids))

    def test_ite_se_with_more_periods_than_units(self, monkeypatch,
                                                  unique_calls):
        # T = 9 rows per unit and n = 5 units: the unit clusters take the
        # add.at side, and ite_se is the add.at sandwich
        dr = build_regressors(random_panel(8, n=5, T=9, K_g=0, K_h=1)).ite
        unique_calls.clear()
        got = ite_se(dr)
        assert len(unique_calls) == 1
        monkeypatch.setattr(inference, "_cluster_sums", add_at_sums)
        want = ite_se(dr)
        assert_same_bits(got.vcov, want.vcov)
        assert_same_bits(got.se, want.se)

    @pytest.mark.parametrize("layout", ["units", "singletons",
                                        "shuffled units"])
    def test_ids_that_are_codes_skip_the_sort(self, layout, unique_calls):
        # the codes themselves, string labels and integer labels of other
        # dtypes, shifted or with gaps, all in the codes' order, name the
        # same clusters in the same order, so the sandwich is the same to
        # the bit; only in-order runs from 0, np.arange(N) // m, skip the
        # sort
        rng = np.random.default_rng(41)
        codes = (cluster_codes(rng, layout) if layout != "singletons"
                 else np.arange(50))
        X = rng.normal(size=(codes.size, 3))
        e = rng.normal(size=codes.size)
        want = cluster_robust_se(X, e, codes)
        assert len(unique_calls) == (layout == "shuffled units")
        for ids in (codes.astype(np.int32), codes.astype(np.uint64),
                    codes + 1, 2 * codes, 3 * codes - 7,
                    np.array([f"u{c:03d}" for c in codes])):
            got = cluster_robust_se(X, e, ids)
            assert_same_bits(got.se, want.se)
            assert_same_bits(got.vcov, want.vcov)

    @pytest.mark.parametrize("layout", ["units", "shuffled units", "uneven",
                                        "two clusters"])
    def test_sandwich_is_the_add_at_sandwich(self, layout, monkeypatch):
        rng = np.random.default_rng(31)
        codes = cluster_codes(rng, layout)
        labels = np.array([f"u{c:03d}"
                           for c in (codes * 7) % (codes.max() + 1)])
        X = rng.normal(size=(codes.size, 3))
        e = rng.normal(size=codes.size)
        for ids in (codes, labels):
            got = cluster_robust_se(X, e, ids)
            with monkeypatch.context() as m:
                m.setattr(inference, "_cluster_sums", add_at_sums)
                want = cluster_robust_se(X, e, ids)
            assert_same_bits(got.vcov, want.vcov)
            assert_same_bits(got.se, want.se)


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
        assert boot.redraws == 0

    def test_minimum_replications(self):
        ds = small_baseline(n=30, seed=13)
        with pytest.raises(ValueError):
            bootstrap(ds, replications=10, seed=0)

    def test_unknown_weight_mode(self):
        # the full fit the bootstrap is given rejects the mode first
        ds = small_baseline(n=30, seed=13)
        with pytest.raises(ValueError) as err:
            bootstrap(ds, replications=50, seed=0, weight_mode="inv_sd")
        assert "'inv_sd'" in str(err.value)
        assert str(WEIGHT_MODES) in str(err.value)

    def test_matches_monte_carlo_sd(self):
        # bootstrap SE at n=400 vs the SD of kappa_hat across independent
        # datasets from the same DGP
        cfg = packaged_config("baseline")
        cfg = replace(cfg, dims=replace(cfg.dims, n=400))
        draws = []
        for r in range(150):
            ds = simulate(replace(cfg, seed=40_000 + r)).dataset
            draws.append(fit_cite(build_regressors(ds).cite).kappa_hat)
        mc_sd = np.array(draws).std(axis=0, ddof=1)
        ds = simulate(replace(cfg, seed=123)).dataset
        boot = bootstrap(ds, replications=200, seed=9)
        assert np.all(np.abs(boot.se - mc_sd) < 0.25 * mc_sd)

    def test_redraws_are_reported(self):
        # K_h = 5 of n = 6 units: a draw fits only if it holds 5 distinct
        # units (about one draw in four), so most draws are redrawn; replay
        # the documented draws and count the rank-deficient ones
        rng = np.random.default_rng(17)
        n, T, K_h, reps, seed = 6, 5, 5, 50, 4
        ds = make_dataset(rng.normal(size=(n, T)), rng.normal(size=(n, T, 1)),
                          H=rng.normal(size=(n, K_h)))
        want = 0
        for r in range(reps):
            for attempt in range(1000):
                draw = np.random.default_rng(np.random.SeedSequence(
                    entropy=seed, spawn_key=(r, attempt)))
                idx = draw.integers(0, n, size=n)
                if np.linalg.matrix_rank(ds.H[idx]) == K_h:
                    break
                want += 1
        got = bootstrap(ds, replications=reps, seed=seed)
        assert got.redraws == want > reps
        clean = bootstrap(small_baseline(n=40, seed=18), replications=50, seed=1)
        assert clean.redraws == 0

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

    @pytest.mark.parametrize("dims, mode, error, message", [
        # 2 rows for 5 pooled columns; 6 rows of rank 3 after M_i
        (dict(n=2, T=1, K_z=5, K_h=1), "none", linalg.RankDeficient,
         "CITE pooled stage: "),
        (dict(n=3, T=2, K_z=6, K_h=1), "none", linalg.RankDeficient,
         "CITE pooled stage: "),
        # 2 units for K_h = 3 kappas
        (dict(n=2, T=3, K_z=0, K_h=3), "none", linalg.RankDeficient,
         "CITE kappa stage: underdetermined system: 2 rows < 3 columns"),
        # T = K_x: no first-stage SEs, so no weights
        (dict(n=8, T=1, K_z=0, K_h=1), "inv_se", ZeroDegreesOfFreedom,
         "every unit has T <= K_x (T = 1, K_x = 1)"),
    ], ids=["2-1-5", "3-2-6", "n<K_h", "T=K_x"])
    def test_blocks_whose_full_fit_fails_raise_it(self, dims, mode, error,
                                                  message):
        # no resample of these units can be fitted, and the full fit, which
        # the bootstrap needs as its input, raises first
        dr = build_regressors(random_panel(25, K_x=1, K_g=0, **dims)).cite
        with pytest.raises(error) as exc:
            fit_cite(dr, mode)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("ds, idx, mode, error", [
        # 2 distinct units cannot fit K_h = 3 kappas
        *[pytest.param(random_panel(23, n=8, K_h=3), [0, 1] * 4, mode,
                       linalg.RankDeficient, id=f"too-few-units-{mode}")
          for mode in WEIGHT_MODES],
        *[pytest.param(exact_residual_panel(K_z), [0, 0, 1, 2, 3, 5, 6, 7],
                       mode, MissingWeights, id=f"zero-se-K_z={K_z}-{mode}")
          for K_z in (0, 1) for mode in ("inv_se", "inv_var")],
        pytest.param(random_panel(24, n=8, T=2, K_x=2, K_g=0, K_z=0, K_h=1),
                     [1, 2] * 4, "inv_se", ZeroDegreesOfFreedom, id="T=K_x"),
        # 2 distinct units for K_h = 3, one with an exact fit: its infinite
        # weight is rejected before the kappa stage is solved
        pytest.param(one_exact_unit_panel(), [0, 1] * 4, "inv_se",
                     MissingWeights, id="too-few-units-zero-se"),
    ])
    def test_draw_kernel_raises_what_the_refit_raises(self, ds, idx, mode,
                                                        error):
        # a RankDeficient refit is a flagged draw; the other errors raise
        dr = build_regressors(ds).cite
        sub_cite = build_regressors(subset_units(ds, idx)).cite
        with pytest.raises(error):
            fit_cite(sub_cite, mode)
        counts = np.bincount(idx, minlength=ds.dims.n)[None, :]
        if error is linalg.RankDeficient:
            kappa, failed = draw_kappas(unit_summaries(dr), counts, mode)
            assert failed.tolist() == [True]
            assert np.array_equal(kappa, np.zeros((1, ds.dims.K_h)))
        else:
            with pytest.raises(error):
                draw_kappas(unit_summaries(dr), counts, mode)

    def test_weight_above_half_dbl_max_drawn_twice(self):
        # unit 0's Y is scaled down until its inv_var weight w_0 is about
        # 1.2e308: the refit of a draw holding it twice has two rows of
        # sqrt(w_0), finite, while 2 w_0 passes DBL_MAX. The draw matches
        # that refit, with no overflow warning and no MissingWeights
        ds = random_panel(5, n=6, T=4, K_x=1, K_g=0, K_z=0, K_h=1)
        w_0 = weighted_fit(ds, "inv_var").weights[0]
        Y = ds.Y.copy()
        Y[0] /= np.sqrt(1.2e308 / w_0)
        ds = make_dataset(Y, ds.X, H=ds.H)
        dr = build_regressors(ds).cite
        w_0 = fit_cite(dr, "inv_var").weights[0]
        assert sys.float_info.max / 2 < w_0 < sys.float_info.max
        idx = [0, 0, 1, 2, 3, 4]
        refit = weighted_fit(subset_units(ds, idx), "inv_var").kappa_hat
        counts = np.bincount(idx, minlength=ds.dims.n)[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kappa, failed = draw_kappas(unit_summaries(dr), counts, "inv_var")
        assert failed.tolist() == [False]
        assert_allclose(kappa[0], refit, rtol=1e-10, atol=0)

    def test_zero_first_stage_se_aborts_the_bootstrap(self):
        # units 0-6 have X = 1 and Y constant in time, unit 7 a Y that
        # varies: the full fit's theta is not 0, so it passes, but a draw
        # without unit 7 has theta exactly 0, and its units' first-stage
        # residuals, so their se_i, are exactly 0. Such a draw's refit
        # raises MissingWeights, and the bootstrap stops with it
        ds = exact_residual_panel(K_z=1)
        Y = ds.Y.copy()
        Y[7] = [1.0, 3.0, 2.0, 5.0]
        ds = make_dataset(Y, ds.X, Z=ds.Z, H=ds.H)
        dr = build_regressors(ds).cite
        res = fit_cite(dr, "inv_se")
        assert np.all(res.theta_hat != 0.0)
        counts = inference._draw_counts(1, np.arange(50), 0, ds.dims.n)
        first = np.flatnonzero(counts[:, 7] == 0)[0]
        idx = np.repeat(np.arange(ds.dims.n), counts[first])
        with pytest.raises(MissingWeights):
            fit_cite(build_regressors(subset_units(ds, idx)).cite, "inv_se")
        with pytest.raises(MissingWeights):
            bootstrap_cite(dr, res, replications=50, seed=1)

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    def test_draws_do_not_depend_on_the_chunk(self, mode, monkeypatch):
        # no product spans two draws, so every draw's kappa, and so the
        # bootstrap, has the same bits in chunks of 1, 3 or all draws
        ds = add_intercept_h(small_baseline(n=60, seed=19))
        dr = build_regressors(ds).cite
        res = fit_cite(dr, mode)
        s = unit_summaries(dr)
        counts = inference._draw_counts(7, np.arange(60), 0, ds.dims.n)
        whole = draw_kappas(s, counts, mode)[0]
        boots = []
        for chunk in (1, 3, 60):
            rows = [draw_kappas(s, counts[j:j + chunk], mode)[0]
                    for j in range(0, 60, chunk)]
            assert np.array_equal(np.concatenate(rows), whole), chunk
            monkeypatch.setattr(inference, "_draw_chunk", lambda s: chunk)
            boots.append(bootstrap_cite(dr, res, 60, 7))
        for boot in boots[1:]:
            assert np.array_equal(boot.se, boots[0].se)
            assert np.array_equal(boot.vcov, boots[0].vcov)

    def test_draws_form_no_all_draws_stack(self):
        # the 200 pooled-stage stacks of n = 300, T = 6 units would take
        # 7.7 MB at once, and the copy np.linalg.qr factors as much again
        # (a 16 MB peak); in chunks of 6 draws the peak is 0.55 MB
        ds = random_panel(41, n=300, T=6, K_x=2, K_g=1, K_z=1, K_h=3)
        dr = build_regressors(ds).cite
        res = fit_cite(dr, "inv_se")
        tracemalloc.start()
        try:
            bootstrap_cite(dr, res, 200, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


def stacked_r(rng, b, m, k, scale):
    """R factors (b, k + 1, k + 1) of b stacked [A | y] with m rows, draw j
    scaled by scale[j]; every fifth draw's A has a zero column, and every
    seventh's (at k >= 2) a repeated one, so they fail the rank rule."""
    A = rng.normal(size=(b, m, k + 1)) * scale[:, None, None]
    A[::5, :, 0] = 0.0
    if k >= 2:
        A[::7, :, 1] = A[::7, :, 0]
    return np.linalg.qr(A, mode="r")


class TestSolveR:
    # a draw's stage solves R11 x = r12 by linalg.solve_units; these pin
    # it to np.linalg.solve on the stacked R factors, to the bit

    @pytest.mark.parametrize("k, extreme", [(1, False), (1, True), (2, False),
                                            (2, True), (3, False)])
    def test_is_the_stacked_solve(self, k, extreme):
        rng = np.random.default_rng(10 * k + extreme)
        b = 400
        scale = 10.0 ** rng.uniform(-150, 150, b) if extreme else np.ones(b)
        R = stacked_r(rng, b, 12, k, scale)
        R11, r12 = R[:, :k, :k], R[:, :k, k:]
        want_bad = linalg.rank_deficient(np.linalg.svd(R11, compute_uv=False))
        want = np.linalg.solve(np.where(want_bad[:, None, None], np.eye(k), R11),
                               r12)[:, :, 0]
        x, bad = inference._solve_r(R, k)
        assert want_bad[::5].all() and not want_bad.all()
        assert_same_bits(bad, want_bad)
        assert_same_bits(x, want)

    def test_one_column_runs_no_lapack(self, monkeypatch):
        R = stacked_r(np.random.default_rng(5), 50, 8, 1, np.ones(50))
        want = inference._solve_r(R, 1)

        def no_lapack(*args, **kwargs):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(np.linalg, "svd", no_lapack)
        monkeypatch.setattr(np.linalg, "solve", no_lapack)
        got = inference._solve_r(R, 1)
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])


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

    @pytest.mark.parametrize("mode", ["inv_se", "inv_var"])
    def test_weighted_fit_solves_each_stage_once(self, mode, monkeypatch):
        # one pooled solve for theta (the blocks' own, in data) and one for
        # the weighted kappa; the unweighted kappa is never solved. Every
        # module's name for solve_ols counts, wherever the solve moves
        ds = small_baseline(n=60, seed=15)
        assert ds.dims.n_psi > 0 and ds.dims.K_h > 0
        dr = build_regressors(ds).cite
        calls = []
        solve_ols = linalg.solve_ols

        def counted(*args, **kwargs):
            calls.append(None)
            return solve_ols(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "interpanel" and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is solve_ols:
                        monkeypatch.setattr(module, attr, counted)
        assert data.solve_ols is estimators.solve_ols is counted
        res = fit_cite(dr, mode)
        assert len(calls) == 2
        assert res.weight_mode == mode

    def test_traced_names_are_the_fit_itself(self):
        # perfbench's tracer rebinds every alias of a wrapped function, so
        # these names must be the very objects the fit calls
        assert inference.fit_cite_weighted is estimators.fit_cite
        assert inference.first_stage_se is estimators.first_stage_se
        assert inference.ZeroDegreesOfFreedom is estimators.ZeroDegreesOfFreedom

    def test_zero_first_stage_se_is_missing_weights(self):
        # w_i = 1/se_i is infinite
        ds = exact_residual_panel(K_z=0)
        dr = build_regressors(ds).cite
        res = fit_cite(dr)
        assert np.all(first_stage_se(dr, res.theta_hat, res.delta_hat) == 0.0)
        for mode in ("inv_se", "inv_var"):
            with pytest.raises(MissingWeights):
                fit_cite(dr, mode)

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="an se_i that is 0 only to rounding gives a "
                              "finite weight, and kappa follows that unit")
    @pytest.mark.parametrize("mode", ["inv_se", "inv_var"])
    def test_rounding_zero_first_stage_se_is_missing_weights(self, mode):
        # unit 7 is constant in time, so X_i = [x1, 1] fits it exactly up
        # to rounding: its se_i is 7.0e-16 (the others 0.038-0.446), its
        # w_i 1.4e15 under inv_se and 2.0e30 under inv_var (the others at
        # most 26 and 677), and kappa_hat is 1.8e-11 and -1.4e-14 against
        # 0.513 unweighted. An se_i of exactly 0 raises MissingWeights
        # (test_zero_first_stage_se_is_missing_weights); this one should too
        rng = np.random.default_rng(1)
        n, T = 30, 6
        x1 = rng.normal(size=(n, T))
        H = rng.normal(size=(n, 1))
        Y = x1 * 0.5 * H + 1 + 0.3 * rng.normal(size=(n, T))
        Y[7] = 2.5
        dr = build_regressors(make_dataset(
            Y, np.stack([x1, np.ones((n, T))], axis=2), H=H)).cite
        res = fit_cite(dr)
        se = first_stage_se(dr, res.theta_hat, res.delta_hat)
        assert 0.0 < se[7] < 1e-15 and np.delete(se, 7).min() > 0.01
        with pytest.raises(MissingWeights):
            fit_cite(dr, mode)

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

    def test_weight_mode_that_is_no_str_is_named_by_its_type(self):
        # the blocks passed where the mode goes, as in the old call
        # fit_cite(ds, blocks), give one short line, not their arrays
        ds = random_panel(19, n=10, T=4)
        dr = build_regressors(ds).cite
        with pytest.raises(ValueError) as err:
            fit_cite(ds, dr)
        assert str(err.value) == "weight mode must be a str, got CiteBlocks"
        with pytest.raises(TypeError):
            fit_cite(ds, dr, "none")

    def test_unknown_weight_mode_is_rejected(self):
        # K_h = 0 skips the kappa stage, which must not hide the bad mode
        ds = random_panel(19, n=10, T=4, K_h=0)
        with pytest.raises(ValueError) as err:
            fit_cite(build_regressors(ds).cite, "bogus")
        assert "'bogus'" in str(err.value)
        assert str(WEIGHT_MODES) in str(err.value)


class TestKappaSe:
    @pytest.mark.parametrize("mode", ["none", "inv_se", "inv_var"])
    def test_sandwich_at_the_fit_weights(self, mode):
        # HC0 at the fit's weights w (from the first-stage SEs), written out
        # with e_i = sqrt(w_i) u_i, u_i the raw residual of unit i:
        # (H'WH)^{-1} (sum_i w_i e_i^2 h_i h_i') (H'WH)^{-1}
        ds = add_intercept_h(small_baseline(n=80, seed=3))
        dr = build_regressors(ds).cite
        res = fit_cite(dr, weight_mode=mode)
        se = first_stage_se(dr, res.theta_hat, res.delta_hat)
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
        assert got.se.shape == res.kappa_hat.shape
