"""Monte Carlo experiment runner.

Repeatedly simulates panels across a grid of sample sizes, fits the
selected estimators, and reports bias/SD/RMSE against the true
parameters and against the simulated large-n targets. Every replication
derives its seed from (experiment seed, scenario, n, replication index),
so any single cell can be reproduced in isolation.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .data import build_regressors, default_columns
from .dgp import DgpConfig, plim_targets, simulate
from .estimators import ite as _fit_ite
from .estimators import check_weight_mode, theta_tilde_labels
from .inference import fit_cite_weighted
from .linalg import RankDeficient

ESTIMATORS = ("cite", "ite")
FAILURE_RATE_LIMIT = 0.01


def parameter_labels(dims):
    """Labels in (kappa, phi, gamma) order for a given dimension set."""
    return theta_tilde_labels(default_columns(dims))


def true_parameters(cfg):
    """The (kappa, phi, gamma) vector of a DgpConfig."""
    phi = np.asarray(cfg.phi, dtype=float).reshape(-1)
    return np.concatenate([np.asarray(cfg.kappa, dtype=float), phi,
                           np.asarray(cfg.gamma, dtype=float)])


@dataclass(frozen=True)
class ExperimentConfig:
    """Monte Carlo design: DGP, sample sizes, replication count."""

    dgp: DgpConfig
    sample_sizes: tuple
    replications: int
    estimators: tuple = ESTIMATORS
    seed: int = 0
    weight_mode: str = "none"
    oracle_draws: int = 100_000
    oracle_blocks: int = 20

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sample_sizes)
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sample sizes must be strictly increasing")
        if not sizes:
            raise ValueError("need at least one sample size")
        object.__setattr__(self, "sample_sizes", sizes)
        if self.replications < 2:
            raise ValueError("need at least 2 replications")
        ests = tuple(str(e).lower() for e in self.estimators)
        if any(e not in ESTIMATORS for e in ests):
            raise ValueError(f"estimators must be among {ESTIMATORS}")
        object.__setattr__(self, "estimators", ests)
        check_weight_mode(self.weight_mode)

    @classmethod
    def from_dict(cls, raw):
        raw = dict(raw)
        dgp = DgpConfig.from_dict(raw.pop("dgp"))
        oracle = dict(raw.pop("oracle", {}))
        return cls(
            dgp=dgp,
            sample_sizes=tuple(raw.pop("sample_sizes")),
            replications=int(raw.pop("replications")),
            estimators=tuple(raw.pop("estimators", ESTIMATORS)),
            seed=int(raw.pop("seed", 0)),
            weight_mode=str(raw.pop("weight_mode", "none")),
            oracle_draws=int(oracle.get("draws", 100_000)),
            oracle_blocks=int(oracle.get("blocks", 20)),
        )


def load_experiment_config(path):
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


@dataclass(frozen=True)
class CellStats:
    """Summary for one (estimator, n, parameter) cell."""

    estimator: str
    n: int
    parameter: str
    truth: float
    target: float
    mean: float
    bias: float
    bias_vs_target: float
    sd: float
    rmse: float
    mc_se: float

    def to_dict(self):
        return {k: getattr(self, k) for k in (
            "estimator", "n", "parameter", "truth", "target", "mean", "bias",
            "bias_vs_target", "sd", "rmse", "mc_se")}


@dataclass(frozen=True)
class MonteCarloReport:
    """All cells of one experiment plus the attached large-n targets."""

    scenario: str
    sample_sizes: tuple
    replications: int
    estimators: tuple
    parameter_names: tuple
    truth: np.ndarray
    cells: tuple
    sign_agreement: dict
    targets: object
    failures: dict
    config: ExperimentConfig = field(repr=False, default=None)

    def cell(self, estimator, n, parameter):
        for c in self.cells:
            if (c.estimator, c.n, c.parameter) == (estimator, n, parameter):
                return c
        raise KeyError((estimator, n, parameter))

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "sample_sizes": list(self.sample_sizes),
            "replications": self.replications,
            "estimators": list(self.estimators),
            "parameters": list(self.parameter_names),
            "truth": self.truth.tolist(),
            "cells": [c.to_dict() for c in self.cells],
            "sign_agreement": {str(k): v for k, v in self.sign_agreement.items()},
            "targets": self.targets.to_dict() if self.targets is not None else None,
            "failures": {f"{est}:{n}": v
                         for (est, n), v in self.failures.items()},
        }


def replication_seed(seed, scenario, n, rep):
    """Derived seed making every (scenario, n, rep) cell reproducible."""
    tag = zlib.crc32(scenario.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(tag, int(n), int(rep)))
    return int(ss.generate_state(1, np.uint64)[0])


def _fit_one(estimator, ds, dr, weight_mode):
    if estimator == "cite":
        res = fit_cite_weighted(ds, dr, weight_mode=weight_mode)
        return np.concatenate([res.kappa_hat, res.theta_hat])
    res = _fit_ite(ds, dr)
    return res.theta_tilde_hat


def run_experiment(cfg):
    """Run the full Monte Carlo grid; deterministic given cfg.seed."""
    dgp = cfg.dgp
    labels = parameter_labels(dgp.dims)
    truth = true_parameters(dgp)
    n_params = len(labels)

    # Replications first: a DGP that cannot satisfy the rank conditions
    # should abort on the failure-rate limit, not inside the oracle.
    all_draws = {}
    all_ok = {}
    failures = {}
    sign_agreement = {}
    for n in cfg.sample_sizes:
        draws = {e: np.full((cfg.replications, n_params), np.nan)
                 for e in cfg.estimators}
        ok = {e: np.zeros(cfg.replications, dtype=bool) for e in cfg.estimators}
        for r in range(cfg.replications):
            seed_r = replication_seed(cfg.seed, dgp.scenario, n, r)
            cfg_r = replace(dgp, dims=replace(dgp.dims, n=int(n)), seed=seed_r)
            ds = simulate(cfg_r).dataset
            try:
                dr = build_regressors(ds)
            except RankDeficient:
                continue
            for est in cfg.estimators:
                try:
                    draws[est][r] = _fit_one(est, ds, dr, cfg.weight_mode)
                    ok[est][r] = True
                except (RankDeficient, np.linalg.LinAlgError):
                    pass
        for est in cfg.estimators:
            n_bad = int(cfg.replications - ok[est].sum())
            failures[(est, n)] = n_bad
            if n_bad > FAILURE_RATE_LIMIT * cfg.replications:
                raise RuntimeError(
                    f"estimator {est!r} failed {n_bad}/{cfg.replications} "
                    f"replications at n={n} (limit "
                    f"{FAILURE_RATE_LIMIT:.0%}); check the DGP rank conditions"
                )
        all_draws[n] = draws
        all_ok[n] = ok
        if "cite" in cfg.estimators and "ite" in cfg.estimators \
                and dgp.dims.K_h >= 1:
            both = ok["cite"] & ok["ite"]
            if np.any(both):
                same = (np.sign(draws["cite"][both, 0])
                        == np.sign(draws["ite"][both, 0]))
                sign_agreement[n] = float(np.mean(same))

    targets = None
    if dgp.dims.K_h >= 1:
        oracle_seed = replication_seed(cfg.seed, dgp.scenario + ":oracle", 0, 0)
        targets = plim_targets(dgp, oracle_draws=cfg.oracle_draws,
                               seed=oracle_seed, n_blocks=cfg.oracle_blocks)

    cells = []
    for n in cfg.sample_sizes:
        for est in cfg.estimators:
            good = all_draws[n][est][all_ok[n][est]]
            cells.extend(_summarize(est, n, labels, truth, good, targets, dgp))

    return MonteCarloReport(
        scenario=dgp.scenario,
        sample_sizes=cfg.sample_sizes,
        replications=cfg.replications,
        estimators=cfg.estimators,
        parameter_names=tuple(labels),
        truth=truth,
        cells=tuple(cells),
        sign_agreement=sign_agreement,
        targets=targets,
        failures=failures,
        config=cfg,
    )


def _target_for(estimator, j, truth, targets, dgp):
    """Large-n target for parameter j: the plim when known, else the truth."""
    K_h = dgp.dims.K_h
    if targets is None or j >= K_h:
        return float(truth[j])
    if estimator == "cite":
        return float(targets.kappa_tilde[j])
    if j == 0 and targets.ite_plim_kappa1 is not None:
        return float(targets.ite_plim_kappa1)
    return float(truth[j])


def _summarize(estimator, n, labels, truth, good, targets, dgp):
    R = good.shape[0]
    out = []
    for j, name in enumerate(labels):
        col = good[:, j]
        mean = float(col.mean()) if R else float("nan")
        sd = float(col.std(ddof=0)) if R else float("nan")
        bias = mean - float(truth[j])
        rmse = float(np.sqrt(np.mean((col - truth[j]) ** 2))) if R else float("nan")
        target = _target_for(estimator, j, truth, targets, dgp)
        out.append(CellStats(
            estimator=estimator, n=int(n), parameter=name,
            truth=float(truth[j]), target=target, mean=mean, bias=bias,
            bias_vs_target=mean - target, sd=sd, rmse=rmse,
            mc_se=sd / np.sqrt(R) if R else float("nan"),
        ))
    return out


def convergence_table(report):
    """Render a report as an aligned text table plus a JSON-ready dict.

    The target column holds the plim target used for the bias_vs_target
    column; |bias|/mc_se is the t-ratio of the bias against the truth.
    """
    headers = ["scenario", "estimator", "n", "parameter", "mean", "bias",
               "sd", "rmse", "target", "|bias|/mc_se"]
    rows = []
    for c in report.cells:
        ratio = abs(c.bias) / c.mc_se if c.mc_se > 0 else float("inf")
        rows.append([report.scenario, c.estimator, str(c.n), c.parameter,
                     f"{c.mean:.6g}", f"{c.bias:.3e}", f"{c.sd:.3e}",
                     f"{c.rmse:.3e}", f"{c.target:.6g}", f"{ratio:.2f}"])
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    if report.sign_agreement:
        lines.append("")
        for n, rate in sorted(report.sign_agreement.items()):
            lines.append(f"sign agreement (kappa[h1], cite vs ite) at "
                         f"n={n}: {rate:.3f}")
    if report.targets is not None:
        lines.append("")
        kt = ", ".join(f"{v:.6g} (se {s:.2g})" for v, s in
                       zip(report.targets.kappa_tilde,
                           report.targets.kappa_tilde_se))
        lines.append(f"projection target kappa_tilde: {kt}")
        if report.targets.ite_plim_kappa1 is not None:
            lines.append(
                f"one-step limit kappa1: {report.targets.ite_plim_kappa1:.6g} "
                f"(se {report.targets.ite_plim_kappa1_se:.2g})")
    text = "\n".join(lines) + "\n"
    return text, report.to_dict()


def evaluate_contracts(report):
    """Check the scenario's consistency contracts at the largest n.

    Returns a list of dicts with name/passed/detail. Comparisons against
    simulated targets use sqrt(mc_se^2 + target_se^2) since both sides
    carry simulation noise.
    """
    checks = []
    n = report.sample_sizes[-1]
    scen = report.scenario
    k1 = report.parameter_names[0] if report.parameter_names else None
    has_kappa = report.config is not None \
        and report.config.dgp.dims.K_h >= 1

    def add(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def bias_ratio(c):
        if c.mc_se > 0:
            return abs(c.bias) / c.mc_se
        return 0.0 if c.bias == 0 else float("inf")

    if scen in ("baseline", "correlated_x_delta", "correlated_random_effects") \
            and "cite" in report.estimators:
        worst = max(bias_ratio(c) for c in report.cells
                    if c.estimator == "cite" and c.n == n)
        add(f"{scen}: cite recovers the truth",
            worst < 3.0, f"max |bias|/mc_se = {worst:.2f} at n={n}")
    if scen == "correlated_random_effects" and "ite" in report.estimators \
            and has_kappa:
        c = report.cell("ite", n, k1)
        add("correlated_random_effects: ite recovers kappa",
            bias_ratio(c) < 3.0, f"|bias|/mc_se = {bias_ratio(c):.2f} at n={n}")
    if scen == "omitted_variable" and report.targets is not None and has_kappa:
        t = report.targets
        if "cite" in report.estimators:
            c = report.cell("cite", n, k1)
            se = np.hypot(c.mc_se, t.kappa_tilde_se[0])
            gap = abs(c.mean - t.kappa_tilde[0])
            add("omitted_variable: cite tracks the projection target",
                gap < 3.0 * se, f"|mean - kappa_tilde| = {gap:.4g}, "
                f"3*se = {3 * se:.4g} at n={n}")
        if "ite" in report.estimators and t.ite_plim_kappa1 is not None:
            c = report.cell("ite", n, k1)
            se = np.hypot(c.mc_se, t.ite_plim_kappa1_se)
            gap = abs(c.mean - t.ite_plim_kappa1)
            add("omitted_variable: ite tracks its own (different) limit",
                gap < 3.0 * se, f"|mean - plim| = {gap:.4g}, "
                f"3*se = {3 * se:.4g} at n={n}")
    return checks
