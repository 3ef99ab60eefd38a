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

Each fit reads only its own blocks (`data.build_regressors`) and returns
only what it computes: `fit_cite(dr, weight_mode)` a CiteResult, `ite(dr)`
the (kappa, phi, gamma) vector. `theta_tilde_labels(columns)` names that
vector, and `CiteResult.coefficients()` is in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import solve_ols, solve_units

WEIGHT_MODES = ("none", "inv_se", "inv_var")


class LengthMismatch(ValueError):
    pass


class MissingWeights(ValueError):
    pass


class ZeroDegreesOfFreedom(ValueError):
    """Residuals with no degrees of freedom: a fit with no more rows than
    columns, whose residual variance is undefined (`first_stage_dof`,
    `inference.cluster_robust_se`)."""


def theta_tilde_labels(columns):
    """Labels of the (kappa, phi, gamma) vector both fits estimate, in
    the order of `CiteResult.coefficients()` and of `ite`."""
    labels = [f"kappa[{h}]" for h in columns["h"]]
    labels += [f"phi[{x}:{g}]" for x in columns["x"] for g in columns["g"]]
    return labels + [f"gamma[{z}]" for z in columns["z"]]


@dataclass(frozen=True)
class CiteResult:
    """Two-step estimates.

    theta_hat stacks the phi blocks (one per x column) and gamma.
    delta_hat is (n, K_x): the per-unit slope estimates. kappa_hat is the
    cross-sectional projection of delta_hat[:, 0] on H (empty if K_h=0).
    weights holds the kappa stage's w_i: 1/se_i or 1/se_i^2 under a
    weighted mode, all 1 under "none".
    """

    theta_hat: np.ndarray
    delta_hat: np.ndarray
    kappa_hat: np.ndarray
    weight_mode: str
    weights: np.ndarray

    def coefficients(self):
        """(kappa_hat, theta_hat) as one vector, in the order of `ite`."""
        return np.concatenate([self.kappa_hat, self.theta_hat])


def cite_theta(dr):
    """Pooled-stage coefficients: OLS of M_i Y_i on M_i Psi_i across units,
    from the CITE blocks `dr`; empty when Psi is.

    They are (sum_i Psi_i'M_i Psi_i)^{-1} sum_i Psi_i'M_i Y_i, read from
    the blocks' one stacked least-squares fit (`dr.pooled`), which
    `validate` may already have solved. Raises RankDeficient when the
    pooled transformed Gram is singular.
    """
    return dr.pooled.coefficients


def cite_delta(dr, theta_hat):
    """Per-unit slopes: delta_i = (X_i'X_i)^{-1} X_i'(Y_i - Psi_i theta),
    which solves R_i delta_i = Q_i'(Y_i - Psi_i theta) by `solve_units`.
    At K_x = 1 that is one division per unit, bit-equal to the batched
    np.linalg.solve (pinned by `tests/test_estimators.py`); at K_x >= 2
    it is LAPACK's solve."""
    resid = dr.Y - dr.Psi @ theta_hat
    rhs = np.einsum("ntk,nt->nk", dr.q_x, resid)
    return solve_units(dr.r_x, rhs[..., None])[..., 0]


def cite_kappa(delta1, H, weights=None):
    """Cross-sectional projection of the unit slopes onto H: weighted
    least squares with per-unit weights w_i (second_stage_weights),
    (sum w_i H_i'H_i)^{-1} sum w_i H_i' delta1_i, solved on the rows
    sqrt(w_i) [H_i | delta1_i]. Without `weights` every w_i is 1, and
    the solve is that of (H, delta1) bit for bit: sqrt(1.0) is 1.0 and
    x * 1.0 is x. Its RankDeficient names the "CITE kappa stage".
    """
    delta1 = np.asarray(delta1, dtype=float).reshape(-1)
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != delta1.shape[0]:
        raise LengthMismatch("H and delta1 must have matching unit counts")
    w = np.ones(delta1.shape[0]) if weights is None else np.asarray(
        weights, dtype=float).reshape(-1)
    if w.shape[0] != delta1.shape[0]:
        raise LengthMismatch("weights length must match delta1")
    if not usable_weights(w).all():
        raise MissingWeights("weights must be strictly positive and finite")
    sw = np.sqrt(w)
    return solve_ols(H * sw[:, None], delta1 * sw,
                     "CITE kappa stage").coefficients


def usable_weights(w):
    """True where a second-stage weight w_i is usable: finite and strictly
    positive. A fit with any other weight raises MissingWeights."""
    return np.isfinite(w) & (w > 0)


def check_weight_mode(mode):
    """mode; ValueError, naming WEIGHT_MODES, for any other mode, or
    naming its type for a mode that is not a str."""
    if not isinstance(mode, str):
        raise ValueError(
            f"weight mode must be a str, got {type(mode).__name__}")
    if mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight mode {mode!r}; choose from {WEIGHT_MODES}")
    return mode


def second_stage_weights(se, mode):
    """Weights w_i = 1/se_i ("inv_se") or 1/se_i^2 ("inv_var"). An se_i of
    exactly 0 gives an infinite w_i, which cite_kappa rejects; one that is
    0 only to rounding gives a finite w_i near 1e15 or 1e30, which it
    accepts, and kappa then follows that one unit."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / se if mode == "inv_se" else 1.0 / se**2


def first_stage_se(dr, theta_hat, delta_hat):
    """Standard error of each unit's first slope estimate.

    For unit i: se_i = sqrt(s_i^2 * [(X_i'X_i)^{-1}]_{11}) with
    s_i^2 = RSS_i / (T - K_x) from the residuals of
    Y_i - Psi_i theta_hat - X_i delta_hat_i.
    """
    dof = first_stage_dof(*dr.X.shape[1:])
    resid = dr.Y - dr.Psi @ theta_hat - np.einsum("ntk,nk->nt", dr.X, delta_hat)
    s2 = np.sum(resid * resid, axis=1) / dof
    return np.sqrt(s2 * inv11(dr.r_x))


def first_stage_dof(T, K_x):
    """T - K_x, the degrees of freedom of each unit's first-stage
    residuals; ZeroDegreesOfFreedom where T <= K_x, which in a balanced
    panel holds for every unit or none."""
    if T <= K_x:
        raise ZeroDegreesOfFreedom(
            f"every unit has T <= K_x (T = {T}, K_x = {K_x}): first-stage "
            "residuals have no degrees of freedom and their standard errors "
            "are undefined")
    return T - K_x


def inv11(r_x):
    """[(X_i'X_i)^{-1}]_11 of each unit from its QR factor R_i (n, K_x, K_x):
    (X'X)^{-1} = R^{-1} R^{-T}, so it is the squared norm of row 1 of R^{-1}.
    At K_x = 1 R^{-1} is 1/r_i, one division (`solve_units`), and the
    result (1/r_i)(1/r_i), bit-equal to the batched solve against eye(1)
    (pinned by `tests/test_estimators.py`). At K_x >= 2 the solve
    against the K_x columns of eye(K_x) stays on LAPACK (`solve_units`
    says why)."""
    n, K_x = r_x.shape[:2]
    eye = np.broadcast_to(np.eye(K_x), (n, K_x, K_x))
    r_inv = solve_units(r_x, eye)
    return np.einsum("nk,nk->n", r_inv[:, 0, :], r_inv[:, 0, :])


def fit_cite(dr, weight_mode="none"):
    """Run the two-step pipeline on the CITE blocks `dr`.

    Under "inv_se" or "inv_var" with K_h > 0 the kappa stage weights unit
    i by w_i = 1/se_i or 1/se_i^2, se_i from first_stage_se; otherwise
    every w_i is 1, no first-stage SE is formed and the result's
    weight_mode is "none". An unknown mode raises ValueError.
    """
    check_weight_mode(weight_mode)
    theta = cite_theta(dr)
    delta = cite_delta(dr, theta)
    weight_mode = weight_mode if dr.H.shape[1] else "none"
    weights = np.ones(len(delta)) if weight_mode == "none" else \
        second_stage_weights(first_stage_se(dr, theta, delta), weight_mode)
    return CiteResult(theta_hat=theta, delta_hat=delta,
                      kappa_hat=cite_kappa(delta[:, 0], dr.H, weights),
                      weight_mode=weight_mode, weights=weights)


def ite(dr):
    """One-step estimates of (kappa, phi, gamma) on the ITE blocks `dr`;
    kappa is the first K_h entries.

    They are (sum_i PsiTilde_i'M_{i,-1} PsiTilde_i)^{-1}
    sum_i PsiTilde_i'M_{i,-1} Y_i, read from the blocks' one stacked
    least-squares fit (`dr.pooled`), as `cite_theta` reads its own.
    """
    return dr.pooled.coefficients


def mean_effect(coeffs, means, constant):
    """The average effect constant + sum_j coeffs_j * means_j, a float;
    inf or NaN, with no RuntimeWarning, where the sum overflows."""
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    means = np.asarray(means, dtype=float).reshape(-1)
    if coeffs.shape != means.shape:
        raise LengthMismatch(
            f"{coeffs.shape[0]} coefficients vs {means.shape[0]} means"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        return float(constant) + float(np.dot(coeffs, means))
