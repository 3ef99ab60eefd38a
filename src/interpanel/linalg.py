"""Dense least-squares kernels and projection matrices.

Everything in this module is a pure function of its inputs. Solvers go
through orthogonal decompositions (SVD/QR), never explicit normal
equations, because the rank conditions we can check only bound the Gram
determinant away from zero, not its conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A design counts as rank deficient when its smallest singular value falls
# below RANK_TOL times the largest (`rank_deficient`).
RANK_TOL = 1e-10


class RankDeficient(np.linalg.LinAlgError):
    """Raised when a design or Gram matrix is numerically singular."""

    def __init__(self, message, condition=np.inf, unit=None):
        self.condition = float(condition)
        self.unit = unit
        super().__init__(message)

    def __str__(self):  # formatted late, so a unit label attached later shows
        where = "" if self.unit is None else f" (unit {self.unit})"
        return super().__str__() + where


def rank_deficient(sv):
    """The rank rule, on singular values sorted descending along the last
    axis: True where the largest is 0 or the smallest is below RANK_TOL
    times the largest (one verdict per design of a stack)."""
    return (sv[..., 0] == 0.0) | (sv[..., -1] < RANK_TOL * sv[..., 0])


@dataclass(frozen=True)
class LeastSquaresFit:
    """Solution of a least-squares problem. Residuals are not kept: no
    caller reads them, and a caller that needs them forms
    `response - design @ coefficients` itself.

    Attributes
    ----------
    coefficients : (k,) ndarray
        Minimizer of ||design @ b - response||^2.
    gram_condition : float
        Condition number estimate of the Gram matrix (squared singular
        value ratio); 1.0 for an empty design.
    """

    coefficients: np.ndarray
    gram_condition: float


def solve_ols(design, response):
    """Solve an ordinary least-squares problem via SVD.

    Parameters
    ----------
    design : (m, k) array_like
        Design matrix with m >= k.
    response : (m,) array_like

    Returns
    -------
    LeastSquaresFit

    Raises
    ------
    RankDeficient
        If the smallest singular value of the design is below RANK_TOL
        times the largest.
    """
    A = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).reshape(-1)
    if A.ndim != 2:
        raise ValueError("design must be 2-dimensional")
    m, k = A.shape
    if y.shape[0] != m:
        raise ValueError(f"response length {y.shape[0]} != design rows {m}")
    if m < k:
        raise ValueError(f"underdetermined system: {m} rows < {k} columns")
    if k == 0:
        return LeastSquaresFit(np.zeros(0), 1.0)

    coef, _, rank, sv = np.linalg.lstsq(A, y, rcond=None)
    if rank_deficient(sv) or rank < k:
        with np.errstate(over="ignore"):  # a ratio past 1e154 squares to inf
            cond = np.inf if sv[-1] == 0.0 else (sv[0] / sv[-1]) ** 2
        raise RankDeficient(
            f"design is numerically rank deficient (gram condition ~ {cond:.3e})",
            condition=cond,
        )
    return LeastSquaresFit(coef, float((sv[0] / sv[-1]) ** 2))


def qr_factors(X):
    """One reduced QR per unit, X_i = Q_i R_i, with the rank rule
    (`unit_rank_deficient`).

    Parameters
    ----------
    X : (n, T, k) ndarray
        One T x k design per unit. k may be 0.

    Returns
    -------
    (Q, R): the (n, T, k) and (n, k, k) QR factors.

    Raises
    ------
    RankDeficient
        Carrying the index of the first offending unit.
    """
    X = np.asarray(X, dtype=float)
    n, T, k = X.shape
    if T < k:
        raise RankDeficient(f"unit designs have more columns ({k}) than rows ({T})")
    Q, R = np.linalg.qr(X)
    bad, sv = unit_rank_deficient(R)
    if bad.any():
        i = int(np.argmax(bad))
        with np.errstate(over="ignore"):  # as in solve_ols
            cond = np.inf if sv[i, -1] == 0.0 else (sv[i, 0] / sv[i, -1]) ** 2
        raise RankDeficient("X_i'X_i is numerically singular", condition=cond, unit=i)
    return Q, R


def unit_rank_deficient(R):
    """(bad, sv): each unit's verdict under the rank rule, from the R
    factors (n, k, k) of its design X_i (those of `qr_factors`, or of
    np.linalg.qr(X, mode="r"), the same bits), and the singular values it
    read, those of X_i: |r_i| at k = 1. No unit fails at k = 0."""
    n, k = R.shape[:2]
    sv = np.abs(R[:, :, 0]) if k == 1 else np.linalg.svd(R, compute_uv=False)
    return (rank_deficient(sv) if k else np.zeros(n, dtype=bool)), sv


def residual_makers(X):
    """Batched residual makers M_i = I - Q_i Q_i' from `qr_factors(X)`,
    exactly symmetric: entries (s, t) and (t, s) of Q_i Q_i' sum the same
    products in the same order.

    Parameters
    ----------
    X : (n, T, k) ndarray
        One T x k design per unit. k may be 0.

    Returns
    -------
    (M, Q, R): (n, T, T) projection matrices and the (n, T, k), (n, k, k)
    QR factors.

    Raises
    ------
    RankDeficient
        As `qr_factors`.
    """
    Q, R = qr_factors(X)
    return np.eye(Q.shape[1]) - np.einsum("nik,njk->nij", Q, Q), Q, R


def gram_det(A):
    """det(A'A) for each matrix of a stack A (..., m, k); 1.0 when k = 0."""
    A = np.asarray(A, dtype=float)
    with np.errstate(divide="ignore"):  # LAPACK's LU may divide by a subnormal
        return np.linalg.det(np.einsum("...tk,...tl->...kl", A, A))
