"""Independent numpy references and the per-workload output checks.

Nothing here imports the package under test except `check_simulate`,
whose expected panel is by definition `dgp.simulate(cfg).dataset`; the
caller passes that in. Each check returns a list of failure messages,
empty when the output is correct.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import inputs

# Golden-test tolerance of the package's own estimator tests.
TOL = 1e-10


def _annihilate(A, B):
    """B minus its projection on col(A_i), unit by unit, by batched solves."""
    At = A.transpose(0, 2, 1)
    return B - A @ np.linalg.solve(At @ A, At @ B)


def unit_stats(panel):
    """Per-unit FWL pieces of the CITE and ITE fits, with an intercept in H."""
    Y, X, G, Z = panel["Y"], panel["X"], panel["G"], panel["Z"]
    n, T, K = X.shape
    H = np.column_stack([np.ones(n), panel["H"]])
    Psi = np.concatenate([(X[:, :, :, None] * G[:, :, None, :]).reshape(n, T, -1),
                          Z], axis=2)
    PsiT = np.concatenate([X[:, :, :1] * H[:, None, :], Psi], axis=2)
    Xt = X.transpose(0, 2, 1)
    XtX = Xt @ X
    return {
        "T": T, "K": K, "H": H,
        "MPsi": _annihilate(X, Psi),
        "MY": _annihilate(X, Y[:, :, None])[:, :, 0],
        "D": np.linalg.solve(XtX, Xt @ Psi),
        "d0": np.linalg.solve(XtX, (Xt @ Y[:, :, None]))[:, :, 0],
        "inv11": np.linalg.inv(XtX)[:, 0, 0],
        "M1PsiT": _annihilate(X[:, :, 1:], PsiT),
        "M1Y": _annihilate(X[:, :, 1:], Y[:, :, None])[:, :, 0],
    }


def cite(st, weight_mode="none", idx=None):
    """CITE (kappa, theta, delta) on all units or on the resample `idx`."""
    pick = (lambda a: a) if idx is None else (lambda a: a[idx])
    MPsi, MY, H = pick(st["MPsi"]), pick(st["MY"]), pick(st["H"])
    theta = np.linalg.solve(np.einsum("ntp,ntq->pq", MPsi, MPsi),
                            np.einsum("ntp,nt->p", MPsi, MY))
    delta = pick(st["d0"]) - pick(st["D"]) @ theta
    if weight_mode == "none":
        sw = np.ones(len(H))
    else:
        e = MY - MPsi @ theta
        se = np.sqrt(np.sum(e * e, axis=1) / (st["T"] - st["K"]) * pick(st["inv11"]))
        sw = np.sqrt(1.0 / se if weight_mode == "inv_se" else 1.0 / se**2)
    kappa = np.linalg.lstsq(H * sw[:, None], delta[:, 0] * sw, rcond=None)[0]
    return kappa, theta, delta


def ite(st):
    """ITE (kappa, phi, gamma) by pooled normal equations."""
    A, y = st["M1PsiT"], st["M1Y"]
    return np.linalg.solve(np.einsum("ntp,ntq->pq", A, A),
                           np.einsum("ntp,nt->p", A, y))


def bootstrap_kappa_se(st, seed, replications, weight_mode):
    """Unit-bootstrap SD of kappa, replaying the documented draw scheme.

    Draw r uses SeedSequence(seed, spawn_key=(r, attempt)); attempt is 0
    because no resample of these panels is rank deficient.
    """
    n = len(st["H"])
    draws = []
    for r in range(replications):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=int(seed), spawn_key=(r, 0)))
        draws.append(cite(st, weight_mode, rng.integers(0, n, size=n))[0])
    return np.std(draws, axis=0, ddof=1)


def _close(label, got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not np.all(np.isfinite(got)) or err > TOL * max(1.0, float(np.max(np.abs(want)))):
        return [f"{label}: max abs error {err:.3e} exceeds {TOL:g}"]
    return []


def _positive(label, values):
    v = np.asarray([np.nan if x is None else x for x in values], dtype=float)
    if v.size == 0 or not np.all(np.isfinite(v) & (v > 0)):
        return [f"{label}: standard errors not all finite and positive: {values}"]
    return []


def check_estimate(doc, st):
    """`estimate --estimator both --se cluster` against the reference."""
    errs = []
    if doc.get("dropped_units"):
        errs.append(f"dropped units {doc['dropped_units']}")
    kappa, theta, delta = cite(st)
    c, i = doc["estimators"]["cite"], doc["estimators"]["ite"]
    errs += _close("cite estimates", c["estimates"], np.concatenate([kappa, theta]))
    errs += _close("cite delta_hat", c["delta_hat"], delta)
    errs += _close("ite estimates", i["estimates"], ite(st))
    errs += _positive("cite se", c["se"]) + _positive("ite se", i["se"])
    return errs


def check_bootstrap(doc, st, kappa_se, weight_mode):
    """`estimate --estimator cite --se bootstrap` against the replayed draws
    (`kappa_se` from bootstrap_kappa_se)."""
    errs = []
    if doc.get("dropped_units"):
        errs.append(f"dropped units {doc['dropped_units']}")
    kappa, theta, _ = cite(st, weight_mode)
    c = doc["estimators"]["cite"]
    errs += _close("cite estimates", c["estimates"], np.concatenate([kappa, theta]))
    k = len(kappa)
    errs += _close("bootstrap kappa se", c["se"][:k], kappa_se)
    if c["se"][k:] != [None] * len(theta):
        errs.append("bootstrap theta se should be null")
    return errs


def file_digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_simulate(csv_path, truth_doc, sim):
    """Re-parse the written panel and compare it bit for bit with `sim`.

    `sim` is `interpanel.dgp.simulate(cfg)` for the same config; every
    float field must also be the `%.17g` text of its own value.
    """
    ds = sim.dataset
    n, T = ds.dims.n, ds.dims.T
    header, units, times, values, text = inputs.read_panel_csv(csv_path)
    errs = []
    if tuple(header) != inputs.HEADER:
        return [f"header {header}"]
    if units != np.repeat(np.arange(1, n + 1), T).tolist() \
            or times != np.tile(np.arange(1, T + 1), n).tolist():
        errs.append("unit/time labels out of order")
    want = np.concatenate([ds.Y[:, :, None], ds.X, ds.G, ds.Z,
                           np.broadcast_to(ds.H[:, None, :], (n, T, ds.dims.K_h))],
                          axis=2).reshape(n * T, -1)
    if values.shape != want.shape or \
            not np.array_equal(values.view(np.uint64), want.view(np.uint64)):
        errs.append("panel values differ from dgp.simulate")
    bad = sum(1 for row in text for s in row if "%.17g" % float(s) != s)
    if bad:
        errs.append(f"{bad} fields do not round-trip through %.17g")
    eps = np.asarray(truth_doc["eps"], dtype=float)
    if not np.array_equal(eps.view(np.uint64), sim.eps.view(np.uint64)):
        errs.append("truth sidecar eps differs from dgp.simulate")
    return errs


def check_mc(doc, raw_cfg):
    """`mc` report: every contract passes, no failed fit, every cell present."""
    errs = []
    contracts = doc.get("contracts") or []
    if not contracts:
        errs.append("no contracts evaluated")
    errs += [f"contract failed: {c['name']} ({c['detail']})"
             for c in contracts if not c["passed"]]
    if any(doc["failures"].values()):
        errs.append(f"failed replications {doc['failures']}")
    want = {(e, n, p) for e in raw_cfg["estimators"]
            for n in raw_cfg["sample_sizes"] for p in doc["parameters"]}
    got = {(c["estimator"], c["n"], c["parameter"]) for c in doc["cells"]}
    if not doc["parameters"] or got != want or len(doc["cells"]) != len(want):
        errs.append(f"cells {sorted(got)} != {sorted(want)}")
    if not all(math.isfinite(c[k]) for c in doc["cells"]
               for k in ("mean", "sd", "rmse", "mc_se")):
        errs.append("non-finite cell statistics")
    return errs
