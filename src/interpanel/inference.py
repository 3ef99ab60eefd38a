"""Standard errors: cluster-robust sandwiches and a unit-level bootstrap
for the two-step estimator.

The two-step point estimates treat the per-unit slopes as data in the
second stage. The default second-stage SEs (heteroskedasticity-robust
OLS on the delta-on-H regression) still carry each unit's first-step
noise, since it is part of that unit's second-stage residual; what they
leave out is the sampling noise of the pooled theta and of estimated
weights. The bootstrap resamples whole units and refits both stages,
which propagates both.

The stacked fits' SEs take only their blocks: `ite_se(dr)` and
`cite_theta_se(dr)` read the coefficients of `dr.pooled`, which are
`ite(dr)` and `fit_cite(dr).theta_hat` themselves, so no estimate can be
paired with other blocks. The two SEs of the two-step fit,
`cite_kappa_se(dr, result)` and `bootstrap_cite(dr, result, ...)`, take
its CiteResult, that of `fit_cite(dr, mode)`: the first reads its slopes,
kappa and weights, the second its weight mode, and neither fits again.

A bootstrap draw is a count vector over units, not a copy of the blocks:
`unit_summaries` takes once what a refit reads of each unit (the R
factor of M_i [Psi_i | Y_i], the first rows of R_x^{-1} Q_i' Psi_i and
R_x^{-1} Q_i' Y_i, and [(X_i'X_i)^{-1}]_11). `draw_kappas` fits a chunk
of draws at once from those summaries and a (draws, units) count matrix:
one batched QR per stage, one stacked matrix per draw, so the cost is
array arithmetic, not a Python call per draw. A chunk holds about
`_DRAW_BYTES` of stacked rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import (MissingWeights, ZeroDegreesOfFreedom,  # noqa: F401
                         first_stage_dof, first_stage_se, fit_cite, inv11,
                         second_stage_weights, usable_weights)
from .linalg import solve_units, unit_rank_deficient

BOOTSTRAP_REDRAW_FACTOR = 10
_DRAW_BYTES = 2 ** 18  # stacked rows per draw_kappas call (`_draw_chunk`)

fit_cite_weighted = fit_cite  # the name perfbench/tracer.py traces CITE fits by


class TooFewClusters(ValueError):
    pass


class DegenerateResample(RuntimeError):
    pass


@dataclass(frozen=True)
class SeResult:
    """Standard errors and the variance matrix they are read from, in the
    order of the caller's coefficients. `redraws` counts the bootstrap's
    redrawn samples (0 for a sandwich)."""

    se: np.ndarray
    vcov: np.ndarray
    redraws: int = 0


def cluster_robust_se(design, residuals, cluster_ids, small_sample=True):
    """Cluster-robust sandwich variance for a pooled OLS fit.

    V = c * (X'X)^{-1} (sum_g s_g s_g') (X'X)^{-1} with per-cluster score
    sums s_g = sum_{i in g} x_i e_i. The small-sample factor
    c = G/(G-1) * (N-1)/(N-k) is applied by default; it needs N > k
    (ZeroDegreesOfFreedom otherwise), which a fit that passed may miss
    with exactly as many rows as columns. With one observation per
    cluster and c disabled this is exactly the HC0 variance.

    The s_g add each cluster's rows in row order from 0, as np.add.at
    adds them, bit for bit; cluster g is the g-th smallest id (np.unique's
    codes). `_cluster_sums` sums G in-order runs of m <= G rows (unit
    clusters of T <= n rows, singletons) by m vectorized adds, and sends
    any other ids to np.add.at.
    """
    X = np.asarray(design, dtype=float)
    e = np.asarray(residuals, dtype=float).reshape(-1)
    ids = np.asarray(cluster_ids)
    N, k = X.shape
    if e.shape[0] != N or ids.shape[0] != N:
        raise ValueError("design, residuals and cluster_ids must align")
    scores = _cluster_sums(X * e[:, None], ids)
    G = scores.shape[0]
    if G < 2:
        raise TooFewClusters(f"need at least 2 clusters, got {G}")
    if small_sample and N <= k:
        raise ZeroDegreesOfFreedom(f"the small-sample factor (N-1)/(N-k) "
                                   f"needs more rows than columns, got "
                                   f"N = {N}, k = {k}")

    # V = W W' with W = (X'X)^{-1} [s_1 .. s_G]: one solve on the k x k
    # Gram, no inverse, and no meat S'S, whose condition is the square of S's
    W = np.linalg.solve(X.T @ X, scores.T)
    V = W @ W.T
    if small_sample:
        V = V * (G / (G - 1)) * ((N - 1) / (N - k))
    V = 0.5 * (V + V.T)
    return SeResult(se=np.sqrt(np.clip(np.diag(V), 0.0, None)), vcov=V)


def _cluster_sums(rows, ids):
    """The (G, k) sums of rows (N, k) by cluster, cluster g the g-th
    smallest of the G distinct ids, each cluster's rows added in row
    order to a 0 start: np.add.at(np.zeros((G, k)), codes, rows) with
    np.unique's codes, bit for bit. Integer ids that are G runs of
    m <= G equal ids in order, np.arange(N) // m (unit clusters of
    T <= n rows, singletons), are summed one row of every run at a time,
    so the Python loop runs m <= sqrt(N) times. Any other ids go to
    np.add.at.
    """
    N, k = rows.shape
    runs = ids.ndim == 1 and N and ids.dtype.kind in "iu" and ids[0] == 0
    G = int(ids[-1]) + 1 if runs else 0
    m = N // max(G, 1)
    # ids == np.arange(N) // m, by a broadcast that allocates N bools
    if m <= G and m * G == N and \
            (ids.reshape(G, m) == np.arange(G)[:, None]).all():
        sums = np.zeros((G, k))
        for block in rows.reshape(G, m, k).swapaxes(0, 1):
            sums += block
        return sums
    distinct, codes = np.unique(ids, return_inverse=True)
    sums = np.zeros((distinct.size, k))
    np.add.at(sums, codes, rows)
    return sums


def _unit_clustered_se(design, y, estimates):
    """cluster_robust_se of a stacked fit on (n, T, k) blocks, by unit."""
    n, T, k = design.shape
    X = design.reshape(n * T, k)
    return cluster_robust_se(X, y.reshape(-1) - X @ estimates,
                             np.repeat(np.arange(n), T))


def ite_se(dr):
    """Unit-clustered SEs for the one-step estimates of the ITE blocks
    `dr`, those of `ite(dr)`."""
    return _unit_clustered_se(dr.M1PsiTilde, dr.M1Y, dr.pooled.coefficients)


def cite_theta_se(dr):
    """Unit-clustered SEs for the pooled stage of the two-step estimator
    on the CITE blocks `dr`; empty when Psi has no columns (theta is
    empty)."""
    return _unit_clustered_se(dr.MPsi, dr.MY, dr.pooled.coefficients)


def cite_kappa_se(dr, result):
    """HC0 SEs for the delta-on-H second stage, treating the estimated
    slopes as data: cluster_robust_se on sqrt(w) H and sqrt(w) e with one
    unit per cluster and no small-sample factor, where w are the fit's
    own weights (all 1 when unweighted), in the order of kappa_hat.
    Each unit's first-step noise is in its residual e_i, so it is
    covered; the sampling noise of theta and of estimated weights is not
    (bootstrap_cite propagates those)."""
    sw = np.sqrt(result.weights)
    e = result.delta_hat[:, 0] - dr.H @ result.kappa_hat
    return cluster_robust_se(dr.H * sw[:, None], e * sw, np.arange(sw.size),
                             small_sample=False)


@dataclass(frozen=True)
class UnitSummaries:
    """What a bootstrap draw reads of each unit, from `unit_summaries`.

    Rb is (p + 1, r, n), r = min(T, p + 1): Rb[:, :, i].T is the R factor
    of M_i [Psi_i | Y_i], so ||Rb[:, :, i].T [-theta; 1]|| is the norm of
    unit i's first-stage residual M_i (Y_i - Psi_i theta). It is stored
    unit-last, so a draw scales it by unit along contiguous memory and
    stacks it as a column-major matrix, the layout LAPACK factors. D1
    (n, p) and d01 (n,) are the first rows of R_x^{-1} Q_i' Psi_i and
    R_x^{-1} Q_i' Y_i, so delta_i1 = d01_i - D1_i theta. inv11 is
    [(X_i'X_i)^{-1}]_11, H the panel's H, and T, K_x the unit design's
    shape.
    """

    Rb: np.ndarray
    D1: np.ndarray
    d01: np.ndarray
    inv11: np.ndarray
    H: np.ndarray
    T: int
    K_x: int


def unit_summaries(dr):
    """UnitSummaries of the CITE blocks `dr`, O(n (p + 1)^2) floats."""
    Q, R = dr.q_x, dr.r_x
    T, K_x = Q.shape[1:]
    Rb = np.linalg.qr(np.concatenate([dr.MPsi, dr.MY[:, :, None]], axis=2),
                      mode="r")
    B = np.concatenate([dr.Psi, dr.Y[:, :, None]], axis=2)
    D = solve_units(R, np.einsum("ntk,ntp->nkp", Q, B))[:, 0, :]
    return UnitSummaries(Rb=np.ascontiguousarray(Rb.transpose(2, 1, 0)),
                         D1=D[:, :-1], d01=D[:, -1], inv11=inv11(R),
                         H=dr.H, T=T, K_x=K_x)


def draw_kappas(s, counts, weight_mode, work=None):
    """kappa_hat of `fit_cite` on each of b resamples at once, from the
    UnitSummaries `s` and a (b, n) count matrix, row j holding unit i
    counts[j, i] times. `s` must summarize blocks whose full fit,
    fit_cite(dr, weight_mode), works: then n >= K_h, so the kappa
    stage's R11 is square. Returns (kappa, failed), (b, K_h) and (b,):
    kappa[j] equals fit_cite on the resample subset_units(ds, idx) for
    counts[j] = np.bincount(idx, minlength=n), up to the order of the
    sums, and failed[j] is True (kappa[j] 0) where that refit raises
    RankDeficient. `work`, if given, is a float array of shape
    (b', p + 1, r, n) with b' >= b that receives the stacked pooled rows.

    Each stage is one batched QR, one matrix per draw. The pooled stage
    factors the stacked sqrt(c_i) Rb_i (the per-unit R factors pooled as
    in TSQR, never a summed Gram) and solves R11 theta = r12. The slopes
    and, under a weighted mode, the first-stage SEs and weights follow
    from theta. The kappa stage factors the rows sqrt(w_i) [H_i | delta_i1]
    with w_i = c_i (times 1/se_i or 1/se_i^2), so an undrawn unit's rows
    are 0; where c_i times a finite weight passes DBL_MAX, the rows are
    scaled by sqrt(c_i) times its root, as the refit's c_i copies of
    them are. A draw fails where the singular values of a stage's R11 fail
    linalg.rank_deficient; one with fewer distinct units than K_h has
    fewer than K_h nonzero rows there, so it fails by that verdict. No
    product spans two draws, so a draw's kappa does not depend on the
    others in the call. Raises what the refit raises for a draw whose
    pooled stage does not fail: ZeroDegreesOfFreedom, MissingWeights
    (checked before the kappa stage is solved, as `cite_kappa` checks).
    """
    b, n = counts.shape
    q = s.Rb.shape[0]
    p = q - 1
    failed = np.zeros(b, dtype=bool)
    theta = np.zeros((b, p))
    if p:
        A = np.multiply(np.sqrt(counts)[:, None, None, :], s.Rb,
                        out=None if work is None else work[:b])
        A = A.reshape(b, q, -1).transpose(0, 2, 1)
        theta, failed = _solve_r(np.linalg.qr(A, mode="r"), p)
    K_h = s.H.shape[1]
    if K_h == 0:
        return np.zeros((b, 0)), failed
    sw = np.sqrt(counts)
    if weight_mode != "none":
        dof = first_stage_dof(s.T, s.K_x)
        v = np.concatenate([-theta, np.ones((b, 1))], axis=1)
        e = (v[:, None, :] @ s.Rb.reshape(q, -1)).reshape(b, -1, n)
        s2 = np.einsum("brn,brn->bn", e, e) / dof
        drawn = counts > 0
        w = second_stage_weights(np.sqrt(s2 * s.inv11), weight_mode)
        if np.any((drawn & ~usable_weights(w))[~failed]):
            raise MissingWeights("weights must be strictly positive and finite")
        w = np.where(drawn, w, 1.0)
        w[failed] = 0.0
        with np.errstate(over="ignore"):  # inf where c_i w_i > DBL_MAX
            sw = np.sqrt(counts * w)
        over = np.isinf(sw)
        sw[over] = np.sqrt(counts[over]) * np.sqrt(w[over])
    A = np.empty((b, K_h + 1, n))
    A[:, :K_h] = s.H.T
    A[:, K_h] = s.d01 - (s.D1 @ theta[:, :, None])[:, :, 0]
    A *= sw[:, None, :]
    kappa, bad = _solve_r(np.linalg.qr(A.transpose(0, 2, 1), mode="r"), K_h)
    failed |= bad
    kappa[failed] = 0.0
    return kappa, failed


def _solve_r(R, k):
    """(x, bad) from the R factors (b, ., k + 1) of b stacked [A | y]:
    bad[j] where the singular values of R11 = R[j, :k, :k] (those of A)
    fail the rank rule, else x[j] solves R11 x = R[j, :k, k], the least
    squares fit of y on A. Where bad, the identity stands in for R11, so
    the solve cannot raise, and x[j] means nothing. The verdicts are
    `linalg.unit_rank_deficient`'s and the solve `linalg.solve_units`, so
    at k = 1 (one column in Psi, or K_h = 1) a draw runs no SVD and its
    x is one division."""
    R11, r12 = R[:, :k, :k], R[:, :k, k:]
    bad = unit_rank_deficient(R11)[0]
    R11 = np.where(bad[:, None, None], np.eye(k), R11)
    return solve_units(R11, r12)[:, :, 0], bad


def _draw_chunk(s):
    """Draws per draw_kappas call: about _DRAW_BYTES of the larger stage's
    stacked rows (n r (p + 1) or n (K_h + 1) floats a draw), to which
    np.linalg.qr adds a copy. Larger chunks save little call overhead and
    add their size to the peak memory of the process."""
    q, r, n = s.Rb.shape
    return max(1, _DRAW_BYTES // (8 * n * max(r * q, s.H.shape[1] + 1)))


def _draw_counts(seed, rs, attempt, n):
    """The (len(rs), n) count matrix of draws rs at `attempt`: draw r's
    units are n integers from SeedSequence(seed, spawn_key=(r, attempt))."""
    return np.stack([np.bincount(np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(r), attempt))
    ).integers(0, n, size=n), minlength=n) for r in rs])


def bootstrap_cite(dr, result, replications, seed):
    """Unit bootstrap of the full two-step pipeline on the CITE blocks
    `dr`, whose fit is `result`, the CiteResult of fit_cite(dr, mode);
    the draws run under result.weight_mode. A result exists only where
    the full fit passed, so n >= K_h and the pooled stage fits.

    The SEs are those of kappa, one per column of H. The per-unit
    summaries are taken once (`unit_summaries`); then units are
    resampled with replacement `replications` times, each draw is refit
    from its count vector (`draw_kappas`, a chunk of `_draw_chunk` draws
    per call: no block is copied, nothing is reprojected or refactored),
    and the empirical SD of kappa_hat is reported. All first attempts are
    fitted first; then only the failed draws, each with its next attempt,
    until every draw fits. A draw fails a rank check (`draw_kappas`
    flags it); the total number of redraws is capped at
    BOOTSTRAP_REDRAW_FACTOR * replications (DegenerateResample past it)
    and reported as the result's `redraws`. A draw whose refit raises
    MissingWeights aborts with it.

    Draw r's attempt a is drawn from SeedSequence(seed, spawn_key=(r, a)),
    so results are reproducible and independent of execution order and
    chunking.
    """
    if replications < 50:
        raise ValueError(f"need at least 50 replications, got {replications}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n, K_h = dr.H.shape
    summaries = unit_summaries(dr)
    chunk = _draw_chunk(summaries)
    max_redraws = BOOTSTRAP_REDRAW_FACTOR * replications
    redraws = 0
    draws = np.empty((replications, K_h))
    # one buffer for every chunk's pooled rows: with a new array per call,
    # malloc mapped and unmapped it each time (about 2700 page faults and
    # 7-9 ms of system time in a 200-draw run at n = 300, against 90)
    work = np.empty((chunk,) + summaries.Rb.shape)
    todo, attempt = np.arange(replications), 0
    while todo.size:
        retry = []
        for start in range(0, todo.size, chunk):
            rs = todo[start:start + chunk]
            kappa, failed = draw_kappas(
                summaries, _draw_counts(seed, rs, attempt, n),
                result.weight_mode, work)
            draws[rs[~failed]] = kappa[~failed]
            retry.append(rs[failed])
        todo, attempt = np.concatenate(retry), attempt + 1
        redraws += todo.size
        if redraws > max_redraws:
            raise DegenerateResample(
                f"exceeded {max_redraws} redraws after repeated "
                "rank-deficient bootstrap samples"
            )
    vcov = np.atleast_2d(np.cov(draws, rowvar=False, ddof=1))
    return SeResult(se=draws.std(axis=0, ddof=1), vcov=0.5 * (vcov + vcov.T),
                    redraws=redraws)
