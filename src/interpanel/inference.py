"""Standard errors: cluster-robust sandwiches and a unit-level bootstrap
for the two-step estimator.

The two-step point estimates treat the per-unit slopes as data in the
second stage, so the default second-stage SEs (heteroskedasticity-robust
OLS on the delta-on-H regression) ignore first-step noise. The bootstrap
resamples whole units and refits both stages, which propagates it.

A bootstrap draw is a count vector over units, not a copy of the blocks:
`unit_summaries` takes once what a refit reads of each unit (the R
factor of M_i [Psi_i | Y_i], the first rows of R_x^{-1} Q_i' Psi_i and
R_x^{-1} Q_i' Y_i, and [(X_i'X_i)^{-1}]_11), and `draw_kappa` fits a draw
from those summaries weighted by each unit's count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from .estimators import (ZeroDegreesOfFreedom, cite_kappa,  # noqa: F401
                         first_stage_se, fit_cite, inv11,
                         second_stage_weights)
from .linalg import RankDeficient, solve_ols

BOOTSTRAP_REDRAW_FACTOR = 10

fit_cite_weighted = fit_cite  # the name perfbench/tracer.py traces CITE fits by


class TooFewClusters(ValueError):
    pass


class DegenerateResample(RuntimeError):
    pass


@dataclass(frozen=True)
class SeResult:
    """Point estimates with a variance matrix and its method tag.
    `redraws` counts the bootstrap's redrawn samples (0 for a sandwich);
    `to_dict` leaves it out."""

    labels: tuple
    estimates: np.ndarray
    se: np.ndarray
    vcov: np.ndarray
    method: str
    n_clusters: int
    redraws: int = 0

    def to_dict(self):
        return {
            "labels": list(self.labels),
            "estimates": self.estimates.tolist(),
            "se": self.se.tolist(),
            "method": self.method,
            "n_clusters": self.n_clusters,
        }


def cluster_robust_se(design, residuals, cluster_ids, estimates=None,
                      labels=None, small_sample=True):
    """Cluster-robust sandwich variance for a pooled OLS fit.

    V = c * (X'X)^{-1} (sum_g s_g s_g') (X'X)^{-1} with per-cluster score
    sums s_g = sum_{i in g} x_i e_i. The small-sample factor
    c = G/(G-1) * (N-1)/(N-k) is applied by default. With one observation
    per cluster and c disabled this is exactly the HC0 variance.
    """
    X = np.asarray(design, dtype=float)
    e = np.asarray(residuals, dtype=float).reshape(-1)
    ids = np.asarray(cluster_ids)
    N, k = X.shape
    if e.shape[0] != N or ids.shape[0] != N:
        raise ValueError("design, residuals and cluster_ids must align")
    _, codes = np.unique(ids, return_inverse=True)
    G = int(codes.max()) + 1
    if G < 2:
        raise TooFewClusters(f"need at least 2 clusters, got {G}")

    scores = np.zeros((G, k))
    np.add.at(scores, codes, X * e[:, None])
    # V = W W' with W = (X'X)^{-1} [s_1 .. s_G]: one solve on the k x k
    # Gram, no inverse, and no meat S'S, whose condition is the square of S's
    W = np.linalg.solve(X.T @ X, scores.T)
    V = W @ W.T
    if small_sample:
        V = V * (G / (G - 1)) * ((N - 1) / (N - k))
    V = 0.5 * (V + V.T)
    if estimates is None:
        estimates = np.full(k, np.nan)
    if labels is None:
        labels = tuple(f"b{j}" for j in range(k))
    return SeResult(
        labels=tuple(labels),
        estimates=np.asarray(estimates, dtype=float),
        se=np.sqrt(np.clip(np.diag(V), 0.0, None)),
        vcov=V,
        method="cluster_robust",
        n_clusters=G,
    )


def _unit_clustered_se(design, y, estimates, labels):
    """cluster_robust_se of a stacked fit on (n, T, k) blocks, by unit."""
    n, T, k = design.shape
    X = design.reshape(n * T, k)
    return cluster_robust_se(X, y.reshape(-1) - X @ estimates,
                             np.repeat(np.arange(n), T),
                             estimates=estimates, labels=labels)


def ite_se(dr, result):
    """Unit-clustered SEs for the one-step estimates."""
    return _unit_clustered_se(dr.M1PsiTilde, dr.M1Y,
                              result.theta_tilde_hat, result.labels)


def cite_theta_se(dr, result):
    """Unit-clustered SEs for the pooled stage of the two-step estimator;
    empty when Psi has no columns (theta is empty, and there is no MY)."""
    if dr.MY is None:
        return SeResult(labels=tuple(result.theta_labels),
                        estimates=result.theta_hat, se=np.zeros(0),
                        vcov=np.zeros((0, 0)), method="cluster_robust",
                        n_clusters=dr.Y.shape[0])
    return _unit_clustered_se(dr.MPsi, dr.MY, result.theta_hat,
                              result.theta_labels)


def cite_kappa_se(dr, result):
    """HC0 SEs for the delta-on-H second stage, treating the estimated
    slopes as data (first-step noise is ignored; use bootstrap_cite to
    propagate it): cluster_robust_se on sqrt(w) H and sqrt(w) e with one
    unit per cluster and no small-sample factor, where w are the fit's
    own weights (all 1 when unweighted)."""
    n = dr.H.shape[0]
    sw = np.ones(n) if result.weights is None else np.sqrt(result.weights)
    e = result.delta_hat[:, 0] - dr.H @ result.kappa_hat
    se = cluster_robust_se(dr.H * sw[:, None], e * sw, np.arange(n),
                           estimates=result.kappa_hat,
                           labels=result.kappa_labels, small_sample=False)
    return _dc_replace(se, method="hc_robust")


@dataclass(frozen=True)
class UnitSummaries:
    """What a bootstrap draw reads of each unit, from `unit_summaries`.

    Rb is (n, r, p + 1), r = min(T, p + 1): the R factor of
    M_i [Psi_i | Y_i], so ||Rb_i [-theta; 1]|| is the norm of unit i's
    first-stage residual M_i (Y_i - Psi_i theta). D1 (n, p) and d01 (n,)
    are the first rows of R_x^{-1} Q_i' Psi_i and R_x^{-1} Q_i' Y_i, so
    delta_i1 = d01_i - D1_i theta. inv11 is [(X_i'X_i)^{-1}]_11, H the
    panel's H, and T, K_x the unit design's shape.
    """

    Rb: np.ndarray
    D1: np.ndarray
    d01: np.ndarray
    inv11: np.ndarray
    H: np.ndarray
    T: int
    K_x: int


def unit_summaries(dr):
    """UnitSummaries of the CITE blocks `dr`, O(n (p + 1)^2) floats. When
    Psi has no columns MY is None, and M_i Y_i = Y_i - Q_i Q_i' Y_i is
    formed here from the QR factors."""
    Q, R = dr.q_x, dr.r_x
    n, T, K_x = Q.shape
    MY = dr.MY
    if MY is None:
        MY = dr.Y - np.einsum("ntk,nk->nt", Q, np.einsum("ntk,nt->nk", Q, dr.Y))
    Rb = np.linalg.qr(np.concatenate([dr.MPsi, MY[:, :, None]], axis=2),
                      mode="r")
    B = np.concatenate([dr.Psi, dr.Y[:, :, None]], axis=2)
    D = np.linalg.solve(R, np.einsum("ntk,ntp->nkp", Q, B))[:, 0, :]
    return UnitSummaries(Rb=Rb, D1=D[:, :-1], d01=D[:, -1], inv11=inv11(R),
                         H=dr.H, T=T, K_x=K_x)


def draw_kappa(s, counts, weight_mode):
    """kappa_hat of `fit_cite` on the resample that holds unit i counts[i]
    times, from the UnitSummaries `s` alone; equal to
    fit_cite(ds, dr.take(idx), weight_mode).kappa_hat, for counts =
    np.bincount(idx, minlength=n), up to the order of the sums.

    The pooled stage solves the stacked sqrt(c_i) Rb_i (the per-unit R
    factors pooled as in TSQR, never a summed Gram); the slopes and, under
    a weighted mode, the first-stage SEs follow from theta; kappa weights
    each drawn unit by its count (times its w_i). Raises what the refit
    raises: RankDeficient (also for fewer distinct units than K_h),
    ZeroDegreesOfFreedom, MissingWeights.
    """
    p = s.D1.shape[1]
    theta = np.zeros(0)
    if p:
        A = (np.sqrt(counts)[:, None, None] * s.Rb).reshape(-1, p + 1)
        theta = solve_ols(A[:, :p], A[:, p]).coefficients
    K_h = s.H.shape[1]
    if K_h == 0:
        return np.zeros(0)
    u = np.flatnonzero(counts)
    w = counts[u].astype(float)
    if weight_mode != "none":
        if s.T <= s.K_x:
            raise ZeroDegreesOfFreedom(s.T, s.K_x)
        n, r = s.Rb.shape[:2]
        e = (s.Rb.reshape(n * r, p + 1) @ np.append(-theta, 1.0)).reshape(n, r)
        s2 = np.einsum("nr,nr->n", e, e) / (s.T - s.K_x)
        w *= second_stage_weights(np.sqrt(s2 * s.inv11)[u], weight_mode)
    if u.size < K_h:
        raise RankDeficient(f"a draw of {u.size} distinct units cannot fit "
                            f"{K_h} kappa coefficients")
    return cite_kappa(s.d01[u] - s.D1[u] @ theta, s.H[u], w)


def bootstrap_cite(ds, dr, fit, replications, seed):
    """Unit bootstrap of the full two-step pipeline.

    `fit` is the full-sample fit on the CITE blocks `dr`; its kappa_hat,
    labels and weight mode are reported and reused. The per-unit
    summaries are taken once (`unit_summaries`); then units are
    resampled with replacement `replications` times, each draw is refit
    from its count vector (`draw_kappa`: no block is copied, nothing is
    reprojected or refactored), and the empirical SD of kappa_hat is
    reported. Draws that fail rank checks are redrawn; the total number
    of redraws is capped at BOOTSTRAP_REDRAW_FACTOR * replications and
    reported as the result's `redraws`.

    Each draw's randomness depends only on (seed, replication index,
    attempt), so results are reproducible and independent of execution
    order.
    """
    if replications < 50:
        raise ValueError(f"need at least 50 replications, got {replications}")
    n = ds.dims.n
    summaries = unit_summaries(dr)
    max_redraws = BOOTSTRAP_REDRAW_FACTOR * replications
    redraws = 0
    draws = np.empty((replications, ds.dims.K_h))
    for r in range(replications):
        attempt = 0
        while True:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=int(seed),
                                       spawn_key=(r, attempt)))
            idx = rng.integers(0, n, size=n)
            try:
                draws[r] = draw_kappa(summaries, np.bincount(idx, minlength=n),
                                      fit.weight_mode)
                break
            except (RankDeficient, np.linalg.LinAlgError):
                redraws += 1
                attempt += 1
                if redraws > max_redraws:
                    raise DegenerateResample(
                        f"exceeded {max_redraws} redraws after repeated "
                        "rank-deficient bootstrap samples"
                    ) from None
    vcov = np.atleast_2d(np.cov(draws, rowvar=False, ddof=1))
    return SeResult(
        labels=tuple(fit.kappa_labels),
        estimates=fit.kappa_hat,
        se=draws.std(axis=0, ddof=1),
        vcov=0.5 * (vcov + vcov.T),
        method="bootstrap",
        n_clusters=n,
        redraws=redraws,
    )
