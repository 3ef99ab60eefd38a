"""Dense least-squares kernels and projection matrices.

Everything in this module is a pure function of its inputs. Solvers go
through orthogonal decompositions (SVD/QR), never explicit normal
equations, because the rank conditions we can check only bound the Gram
determinant away from zero, not its conditioning. The per-unit kernels
read the QR factors of each unit's design, which their caller computes
once (`data.factor_units`): the rank rule reads R (`unit_rank_deficient`),
the residual makers read Q (`residual_makers`), and a Gram determinant,
where one is wanted, is prod(diag R_i)^2, never an LU of X_i'X_i.
A solve on the R_i with one right-hand side per unit goes through
`solve_units`, which divides where that is LAPACK's answer bit for bit.
`residual_makers` forms M_i = I - Q_i Q_i' by the same rule: by one
broadcast product per column of Q at k <= 2, where that is the einsum's
answer bit for bit, and by the einsum at k >= 3, where the einsum's
two-lane sums round in an order no column loop reproduces. The one
projection kernel, `data._project`, applies the M_i by the same rule:
to a block of two or more columns by an einsum whose inner loop runs
along T, which the exact symmetry of M_i makes the reference einsum's
sum bit for bit, and to one column or to Y by the reference einsum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A design counts as rank deficient when its smallest singular value falls
# below RANK_TOL times the largest (`rank_deficient`).
RANK_TOL = 1e-10


class RankDeficient(np.linalg.LinAlgError):
    """Raised when a design or Gram matrix is numerically singular; a
    `unit` label, if given, ends the message as " (unit <label>)"."""

    def __init__(self, message, condition=np.inf, unit=None):
        self.condition = float(condition)
        self.unit = unit
        super().__init__(message if unit is None else f"{message} (unit {unit})")


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


def solve_ols(design, response, stage=None):
    """Solve an ordinary least-squares problem via SVD.

    Parameters
    ----------
    design : (m, k) array_like
        Design matrix, m rows and k columns.
    response : (m,) array_like
    stage : str, optional
        The fit's name, put before the reason of its RankDeficient as
        "stage: reason".

    Returns
    -------
    LeastSquaresFit

    Raises
    ------
    RankDeficient
        If the design has fewer rows than columns (condition inf), or
        its smallest singular value is below RANK_TOL times the largest,
        or at that tie (lstsq truncates it).
    """
    A = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float).reshape(-1)
    if A.ndim != 2:
        raise ValueError("design must be 2-dimensional")
    m, k = A.shape
    if y.shape[0] != m:
        raise ValueError(f"response length {y.shape[0]} != design rows {m}")
    prefix = "" if stage is None else f"{stage}: "
    if m < k:
        raise RankDeficient(
            f"{prefix}underdetermined system: {m} rows < {k} columns")
    if k == 0:
        return LeastSquaresFit(np.zeros(0), 1.0)

    # rcond=None would truncate below eps * max(m, k), past RANK_TOL at m > 4.5e5
    coef, _, rank, sv = np.linalg.lstsq(A, y, rcond=RANK_TOL)
    cond = gram_condition(sv)
    if rank_deficient(sv) or rank < k:
        raise RankDeficient(
            f"{prefix}design is numerically rank deficient "
            f"(gram condition ~ {cond:.3e})",
            condition=cond,
        )
    return LeastSquaresFit(coef, cond)


def gram_condition(sv):
    """The Gram matrix's condition number (sv[0] / sv[-1])^2 from a
    design's singular values sorted descending; inf when the smallest is
    0 or the square overflows."""
    with np.errstate(over="ignore"):  # a ratio past 1e154 squares to inf
        return np.inf if sv[-1] == 0.0 else float((sv[0] / sv[-1]) ** 2)


def unit_rank_deficient(R):
    """(bad, sv): each unit's verdict under the rank rule, from the R
    factors (n, k, k) of the reduced QR of its design X_i, and the
    singular values it read, those of X_i: |r_i| at k = 1. No unit fails
    at k = 0, where sv is (n, 0) and no SVD is run."""
    n, k = R.shape[:2]
    if k == 0:
        return np.zeros(n, dtype=bool), np.empty((n, 0))
    sv = np.abs(R[:, :, 0]) if k == 1 else np.linalg.svd(R, compute_uv=False)
    return rank_deficient(sv), sv


def solve_units(R, B):
    """np.linalg.solve(R, B) on a stack of square R (n, k, k) and B
    (n, k, m). At k = m = 1, with no r_i exactly 0, it is B / R, one
    division per unit and no LAPACK call, which this build's batched
    solve equals bit for bit, inf, NaN and subnormals included (pinned
    by `tests/test_linalg.py`); an r_i of 0 still reaches LAPACK, which
    raises LinAlgError. Everything else stays on LAPACK: with several
    right-hand sides its triangular solve multiplies by 1/r, which moves
    the last bit of about one quotient in four against a division, and
    at k >= 2 an elimination of our own would round in another order."""
    if R.shape[1] == 1 and B.shape[-1] == 1 and R.all():
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return B / R  # as the solve, silent on overflow and inf / inf
    return np.linalg.solve(R, B)


def residual_makers(Q):
    """Batched residual makers M_i = I - Q_i Q_i' from the Q factors
    (n, T, k) of a stack of designs X_i = Q_i R_i, exactly symmetric:
    entries (s, t) and (t, s) of Q_i Q_i' sum the same products in the
    same order. Returns the (n, T, T) matrices; k may be 0 (M_i = I).
    Nothing is factored here: the caller holds the QR.

    Q_i Q_i' is np.einsum("nik,njk->nij", Q, Q), which runs a k-long
    inner loop per entry. At k <= 2 it is formed instead as q_1 q_1'
    (+ q_2 q_2'), one broadcast product per column added in column
    order, and M is that einsum's bit for bit, signed zeros and NaN
    included (pinned by `tests/test_linalg.py`): the einsum adds the
    same products in the same order to a 0 start, and the one thing the
    start changes, a -0.0 entry of P read as +0.0, is gone in I - P,
    where both give +0.0 (the diagonal of P is never -0.0). At k >= 3
    the einsum adds its products two lanes at a time, in an order no
    column loop reproduces, so it stays, as at k = 0.
    """
    T, k = Q.shape[1:]
    if k == 0 or k > 2:
        return np.eye(T) - np.einsum("nik,njk->nij", Q, Q)
    q = Q[:, :, 0]
    P = q[:, :, None] * q[:, None, :]
    if k == 2:
        q = Q[:, :, 1]
        P += q[:, :, None] * q[:, None, :]
    return np.subtract(np.eye(T), P, out=P)
