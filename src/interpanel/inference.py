"""Standard errors: first-stage per-unit SEs, cluster-robust sandwiches,
and a unit-level bootstrap for the two-step estimator.

The two-step point estimates treat the per-unit slopes as data in the
second stage, so the default second-stage SEs (heteroskedasticity-robust
OLS on the delta-on-H regression) ignore first-step noise. The bootstrap
resamples whole units and re-runs the pipeline, which propagates it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace

import numpy as np

from .estimators import (check_weight_mode, cite_kappa, fit_cite,
                         second_stage_weights)
from .linalg import RankDeficient

BOOTSTRAP_REDRAW_FACTOR = 10


class ZeroDegreesOfFreedom(ValueError):
    """T <= K_x, which in a balanced panel holds for every unit or none."""

    def __init__(self, T, K_x):
        self.T, self.K_x = T, K_x
        super().__init__(
            f"every unit has T <= K_x (T = {T}, K_x = {K_x}): first-stage "
            "residuals have no degrees of freedom and their standard errors "
            "are undefined"
        )


class TooFewClusters(ValueError):
    pass


class DegenerateResample(RuntimeError):
    pass


@dataclass(frozen=True)
class SeResult:
    """Point estimates with a variance matrix and its method tag."""

    labels: tuple
    estimates: np.ndarray
    se: np.ndarray
    vcov: np.ndarray
    method: str
    n_clusters: int

    def to_dict(self):
        return {
            "labels": list(self.labels),
            "estimates": self.estimates.tolist(),
            "se": self.se.tolist(),
            "method": self.method,
            "n_clusters": self.n_clusters,
        }


def first_stage_se(dr, cite):
    """Standard error of each unit's first slope estimate.

    For unit i: se_i = sqrt(s_i^2 * [(X_i'X_i)^{-1}]_{11}) with
    s_i^2 = RSS_i / (T - K_x) from the residuals of
    Y_i - Psi_i theta_hat - X_i delta_hat_i.
    """
    n, T, K_x = dr.X.shape
    if T <= K_x:
        raise ZeroDegreesOfFreedom(T, K_x)
    resid = dr.Y - dr.Psi @ cite.theta_hat \
        - np.einsum("ntk,nk->nt", dr.X, cite.delta_hat)
    s2 = np.sum(resid * resid, axis=1) / (T - K_x)
    # (X'X)^{-1} = R^{-1} R^{-T} from the cached per-unit QR.
    eye = np.broadcast_to(np.eye(K_x), (n, K_x, K_x))
    r_inv = np.linalg.solve(dr.r_x, eye)
    inv11 = np.einsum("nk,nk->n", r_inv[:, 0, :], r_inv[:, 0, :])
    return np.sqrt(s2 * inv11)


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

    bread = np.linalg.inv(X.T @ X)
    scores = np.zeros((G, k))
    np.add.at(scores, codes, X * e[:, None])
    meat = scores.T @ scores
    V = bread @ meat @ bread
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
    return _unit_clustered_se(dr.M1PsiTilde, dr.M1Y, result.theta_tilde_hat,
                              result.labels)


def cite_theta_se(dr, result):
    """Unit-clustered SEs for the pooled stage of the two-step estimator."""
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


def bootstrap_cite(ds, dr, fit, replications, seed):
    """Unit bootstrap of the full two-step pipeline.

    `fit` is the full-sample fit on the blocks `dr`; its kappa_hat,
    labels and weight mode are reported and reused. Resamples units with
    replacement `replications` times, refits CITE on each draw's blocks
    (`dr.take`, no reprojection), and reports the empirical SD of
    kappa_hat. Draws that fail rank checks are redrawn; the total number
    of redraws is capped at BOOTSTRAP_REDRAW_FACTOR * replications.

    Each draw's randomness depends only on (seed, replication index,
    attempt), so results are reproducible and independent of execution
    order.
    """
    if replications < 50:
        raise ValueError(f"need at least 50 replications, got {replications}")
    n = ds.dims.n
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
                draws[r] = fit_cite_weighted(ds, dr.take(idx),
                                             weight_mode=fit.weight_mode).kappa_hat
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
    )


def fit_cite_weighted(ds, dr, weight_mode="none"):
    """Two-step fit where the second stage may weight by first-stage SEs.

    The unweighted pipeline runs first; for weight modes other than
    "none" the kappa stage is then redone with w_i = 1/se_i ("inv_se")
    or 1/se_i^2 ("inv_var"). An unknown mode raises ValueError.
    """
    check_weight_mode(weight_mode)
    res = fit_cite(ds, dr)
    if weight_mode == "none" or ds.dims.K_h == 0:
        return res
    se = first_stage_se(dr, res)
    kappa = cite_kappa(res.delta_hat[:, 0], dr.H, weights=se, mode=weight_mode)
    return _dc_replace(res, kappa_hat=kappa, weight_mode=weight_mode,
                       weights=second_stage_weights(se, weight_mode))
