"""The two interaction-effect estimators for fixed-T panels.

CITE (correlated interaction term estimator) is a two-step procedure:
project each unit's own regressors X_i out of the pooled stage to
estimate the shared coefficients, recover the unit-specific slopes
delta_i by per-unit regression, then project the first slope onto H in
the cross section. It treats the delta_i as free parameters, so they may
be arbitrarily correlated with the regressors.

ITE (interaction term estimator) is the familiar one-step pooled
regression of Y on the interactions (X_1 * H, X kron G, Z) after
projecting out the remaining X columns. It is consistent only under a
much stronger exogeneity condition on the unobserved slope heterogeneity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import make_dataset
from .linalg import solve_ols

WEIGHT_MODES = ("none", "inv_se", "inv_var")


class LengthMismatch(ValueError):
    pass


class MissingWeights(ValueError):
    pass


class NoConstantColumn(ValueError):
    pass


def theta_labels(columns):
    """Labels for the pooled-stage coefficients: phi block then gamma."""
    labels = [f"phi[{x}:{g}]" for x in columns["x"] for g in columns["g"]]
    labels += [f"gamma[{z}]" for z in columns["z"]]
    return labels


def kappa_labels(columns):
    return [f"kappa[{h}]" for h in columns["h"]]


def theta_tilde_labels(columns):
    """Labels for the one-step coefficients: kappa block first."""
    return kappa_labels(columns) + theta_labels(columns)


@dataclass(frozen=True)
class CiteResult:
    """Two-step estimates.

    theta_hat stacks the phi blocks (one per x column) and gamma.
    delta_hat is (n, K_x): the per-unit slope estimates. kappa_hat is the
    cross-sectional projection of delta_hat[:, 0] on H (empty if K_h=0).
    weights holds the w_i of a weighted kappa stage (None if unweighted).
    """

    theta_hat: np.ndarray
    delta_hat: np.ndarray
    kappa_hat: np.ndarray
    theta_labels: tuple
    kappa_labels: tuple
    weight_mode: str = "none"
    weights: np.ndarray = None

    def coefficients(self):
        """(labels, values) with kappa first, matching the one-step order."""
        labels = list(self.kappa_labels) + list(self.theta_labels)
        values = np.concatenate([self.kappa_hat, self.theta_hat])
        return labels, values


@dataclass(frozen=True)
class IteResult:
    """One-step estimates, ordered (kappa, phi, gamma)."""

    theta_tilde_hat: np.ndarray
    kappa_hat: np.ndarray
    phi_hat: np.ndarray
    gamma_hat: np.ndarray
    labels: tuple

    def coefficients(self):
        return list(self.labels), self.theta_tilde_hat


def cite_theta(dr):
    """Pooled-stage coefficients: OLS of M_i Y_i on M_i Psi_i across units.

    Solves (sum_i Psi_i'M_i Psi_i)^{-1} sum_i Psi_i'M_i Y_i through one
    stacked least-squares problem. Raises RankDeficient when the pooled
    transformed Gram is singular.
    """
    if dr.Psi.shape[2] == 0:
        return np.zeros(0)
    design = dr.MPsi.reshape(dr.MY.size, -1)
    return solve_ols(design, dr.MY.reshape(-1)).coefficients


def cite_delta(dr, theta_hat):
    """Per-unit slopes: delta_i = (X_i'X_i)^{-1} X_i'(Y_i - Psi_i theta)."""
    resid = dr.Y - dr.Psi @ theta_hat
    rhs = np.einsum("ntk,nt->nk", dr.q_x, resid)
    return np.linalg.solve(dr.r_x, rhs[..., None])[..., 0]


def cite_kappa(delta1, H, weights=None, mode="none"):
    """Cross-sectional projection of the unit slopes onto H.

    mode "none" solves (sum H_i'H_i)^{-1} sum H_i' delta1_i. Modes
    "inv_se" and "inv_var" run weighted least squares with observation
    weights w_i = 1/se_i and w_i = 1/se_i^2 respectively, where `weights`
    supplies the per-unit first-stage standard errors se_i.
    """
    delta1 = np.asarray(delta1, dtype=float).reshape(-1)
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != delta1.shape[0]:
        raise LengthMismatch("H and delta1 must have matching unit counts")
    check_weight_mode(mode)
    if mode == "none":
        return solve_ols(H, delta1).coefficients
    if weights is None:
        raise MissingWeights(f"mode {mode!r} requires per-unit standard errors")
    se = np.asarray(weights, dtype=float).reshape(-1)
    if se.shape[0] != delta1.shape[0]:
        raise LengthMismatch("weights length must match delta1")
    if np.any(se <= 0) or not np.all(np.isfinite(se)):
        raise MissingWeights("weights must be strictly positive and finite")
    sw = np.sqrt(second_stage_weights(se, mode))
    return solve_ols(H * sw[:, None], delta1 * sw).coefficients


def check_weight_mode(mode):
    """Raise ValueError, naming WEIGHT_MODES, for any other mode."""
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode {mode!r}; choose from {WEIGHT_MODES}")


def second_stage_weights(se, mode):
    """Weights w_i = 1/se_i ("inv_se") or 1/se_i^2 ("inv_var")."""
    return 1.0 / se if mode == "inv_se" else 1.0 / se**2


def fit_cite(ds, dr):
    """Run the full two-step pipeline (unweighted second stage) on the
    blocks `dr` and package the results; inference.fit_cite_weighted adds
    the weighting."""
    theta = cite_theta(dr)
    delta = cite_delta(dr, theta)
    kappa = cite_kappa(delta[:, 0], dr.H) if ds.dims.K_h > 0 else np.zeros(0)
    return CiteResult(
        theta_hat=theta,
        delta_hat=delta,
        kappa_hat=kappa,
        theta_labels=tuple(theta_labels(ds.columns)),
        kappa_labels=tuple(kappa_labels(ds.columns)),
    )


def ite(ds, dr):
    """One-step estimator of (kappa, phi, gamma) on the blocks `dr`.

    Solves (sum_i PsiTilde_i'M_{i,-1} PsiTilde_i)^{-1}
    sum_i PsiTilde_i'M_{i,-1} Y_i as one stacked least-squares problem.
    """
    d = ds.dims
    design = dr.M1PsiTilde.reshape(dr.M1Y.size, d.n_psi_tilde)
    tt = solve_ols(design, dr.M1Y.reshape(-1)).coefficients
    K_h = d.K_h
    return IteResult(
        theta_tilde_hat=tt,
        kappa_hat=tt[:K_h],
        phi_hat=tt[K_h:K_h + d.K_x * d.K_g].reshape(d.K_x, d.K_g),
        gamma_hat=tt[K_h + d.K_x * d.K_g:],
        labels=tuple(theta_tilde_labels(ds.columns)),
    )


def _find_constant_column(X):
    flat = X.reshape(-1, X.shape[2])
    const = np.all(flat == flat[0], axis=0) & (flat[0] != 0.0)
    hits = np.flatnonzero(const)
    if hits.size == 0:
        raise NoConstantColumn(
            "no constant x column found; pass constant_col explicitly"
        )
    return int(hits[0])


def within_transform(ds, constant_col=None):
    """Subtract unit-level time means from Y and the x regressors.

    Requires a constant x column (auto-detected unless `constant_col`, a
    0-based index, is given); that column is removed from the returned
    dataset since demeaning annihilates it. G, Z and H pass through.
    """
    j = _find_constant_column(ds.X) if constant_col is None else int(constant_col)
    if not (0 <= j < ds.dims.K_x):
        raise NoConstantColumn(f"constant_col {j} out of range")
    Y = ds.Y - ds.Y.mean(axis=1, keepdims=True)
    X = np.delete(ds.X, j, axis=2)
    X = X - X.mean(axis=1, keepdims=True)
    columns = dict(ds.columns)
    columns["x"] = [c for k, c in enumerate(ds.columns["x"]) if k != j]
    return make_dataset(Y, X, ds.G, ds.Z, ds.H, ds.unit_labels, ds.time_labels,
                        columns=columns)


@dataclass(frozen=True)
class MeanEffectSummary:
    """Average effect implied by interaction coefficients and sample means."""

    interaction_coefficients: np.ndarray
    interaction_means: np.ndarray
    constant: float
    mean_effect: float


def mean_effect(coeffs, means, constant):
    """constant + sum_j coeffs_j * means_j, packaged with its inputs."""
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    means = np.asarray(means, dtype=float).reshape(-1)
    if coeffs.shape != means.shape:
        raise LengthMismatch(
            f"{coeffs.shape[0]} coefficients vs {means.shape[0]} means"
        )
    value = float(constant) + float(np.dot(coeffs, means))
    return MeanEffectSummary(
        interaction_coefficients=coeffs,
        interaction_means=means,
        constant=float(constant),
        mean_effect=value,
    )
