"""Monte Carlo experiment runner.

Repeatedly simulates panels across a grid of sample sizes, fits the
selected estimators, and reports bias/SD/RMSE against the true
parameters and against the simulated large-n targets. Every replication
derives its seed from (experiment seed, scenario, n, replication index),
so any single cell can be reproduced in isolation.

`_target_for` is the one rule for the target a cell is held to and its
simulation SE; the cell carries both, and the contracts read the cell.
"""

from __future__ import annotations

import json
import zlib
from collections import Counter
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import build_regressors, default_columns
from .dgp import (_SEQUENCE, ConfigInvalid, DgpConfig, _check, _json,
                  _number, _read, _section, plim_targets, simulate)
from .estimators import ite as _fit_ite
from .estimators import check_weight_mode, fit_cite, theta_tilde_labels

ESTIMATORS = ("cite", "ite")
FAILURE_RATE_LIMIT = 0.01


class FailureRateExceeded(RuntimeError):
    """More than FAILURE_RATE_LIMIT of a cell's replications failed."""


def parameter_labels(dims):
    """Labels in (kappa, phi, gamma) order for a given dimension set."""
    return theta_tilde_labels(default_columns(dims))


def true_parameters(cfg):
    """The (kappa, phi, gamma) vector of a DgpConfig."""
    phi = np.asarray(cfg.phi, dtype=float).reshape(-1)
    return np.concatenate([np.asarray(cfg.kappa, dtype=float), phi,
                           np.asarray(cfg.gamma, dtype=float)])


def _sample_sizes(v, cfg):
    """The sizes as a tuple; each must make a valid dgp as run_experiment
    builds it, replace(dgp, dims=replace(dgp.dims, n=n)): its Dims (the
    cell bound included) and its dims checks (K_h <= n)."""
    if not isinstance(v, _SEQUENCE):
        raise ValueError(f"must be a list, got {v!r}")
    sizes = tuple(_number(n, True, 2, reason="sample sizes must be >= 2")
                  for n in v)
    if not sizes:
        raise ValueError("need at least one sample size")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sample sizes must be strictly increasing")
    dgp = cfg["dgp"]
    for n in sizes:
        try:
            replace(dgp, dims=replace(dgp.dims, n=n))
        except ConfigInvalid as exc:  # at the dgp's path, not ours
            raise ValueError(str(exc)) from None
    return sizes


def _estimators(v, _):
    if not isinstance(v, _SEQUENCE):
        raise ValueError(f"must be a list, got {v!r}")
    names = tuple(e.lower() if isinstance(e, str) else e for e in v)
    if any(e not in ESTIMATORS for e in names):
        raise ValueError(f"estimators must be among {ESTIMATORS}")
    if len(set(names)) < len(names):
        raise ValueError(f"each estimator at most once, got {list(v)!r}")
    return names


@dataclass(frozen=True)
class ExperimentConfig:
    """Monte Carlo design: DGP, sample sizes, replication count.

    JSON fields, with their defaults: dgp, a DgpConfig or its JSON
    object (required); sample_sizes, a nonempty, strictly increasing list
    of integers >= 2, each a valid dims.n for dgp (required); replications, an integer >= 2 (required);
    estimators, a list of distinct names among "cite" and "ite", in any
    case [both]; seed, an integer >= 0 [0]; weight_mode, one of
    WEIGHT_MODES ["none"]; oracle.draws, an integer >= 0 [100000];
    oracle.blocks, an integer >= 2 [20].
    """

    # declared in JSON order; check(value, fields) returns the value to
    # store, where fields holds the fields checked before it, so
    # sample_sizes sees the checked dgp
    dgp: DgpConfig = _json(None, "dgp", lambda v, _: v if isinstance(
        v, DgpConfig) else DgpConfig.from_dict(_section(v, "dgp")))
    sample_sizes: tuple = _json(None, "sample_sizes", _sample_sizes)
    replications: int = _json(None, "replications", lambda v, _: _number(
        v, True, 2, reason="need at least 2 replications"))
    estimators: tuple = _json(None, "estimators", _estimators, ESTIMATORS)
    seed: int = _json(None, "seed", lambda v, _: _number(
        v, True, 0, reason="must be >= 0"), 0)
    weight_mode: str = _json(None, "weight_mode",
                             lambda v, _: check_weight_mode(v), "none")
    oracle_draws: int = _json("oracle", "draws", lambda v, _: _number(
        v, True, 0, reason="must be >= 0"), 100_000)
    oracle_blocks: int = _json("oracle", "blocks", lambda v, _: _number(
        v, True, 2, reason="need at least 2 oracle blocks"), 20)

    def __post_init__(self):
        _check(self.__dict__, _FIELDS, self.__dict__)

    @classmethod
    def from_dict(cls, raw):
        return cls(**_read(raw, _FIELDS,
                           ("dgp", "sample_sizes", "replications")))


# (group, key, check, name) of each field, as dgp._FIELDS
_FIELDS = tuple((*f.metadata["json"], f.name)
                for f in fields(ExperimentConfig))


def load_experiment_config(path):
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


@dataclass(frozen=True)
class CellStats:
    """Summary for one (estimator, n, parameter) cell.

    target is the large-n value the cell is held to (`_target_for`), and
    target_se its simulation SE: None where the target is the truth.
    `to_dict` leaves target_se out.
    """

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
    target_se: float | None = None

    @property
    def bias_ratio(self):
        """|bias| / mc_se, the t-ratio of the bias against the truth: 0 for
        a zero bias, inf for a nonzero bias at mc_se = 0."""
        if self.mc_se > 0:
            return abs(self.bias) / self.mc_se
        return 0.0 if self.bias == 0 else float("inf")

    def to_dict(self):
        return {k: getattr(self, k) for k in (
            "estimator", "n", "parameter", "truth", "target", "mean", "bias",
            "bias_vs_target", "sd", "rmse", "mc_se")}


@dataclass(frozen=True)
class MonteCarloReport:
    """All cells of one experiment plus the attached large-n targets.

    failure_types[(estimator, n)] is a Counter of the exception class
    names of a cell's failed replications; a failed regressor build counts
    under every estimator. `to_dict` writes their totals (`failures`) and
    leaves failure_types out.
    """

    scenario: str
    sample_sizes: tuple
    replications: int
    estimators: tuple
    parameter_names: tuple
    truth: np.ndarray
    cells: tuple
    sign_agreement: dict
    targets: object
    failure_types: dict

    @property
    def failures(self):
        """The failed replications of each (estimator, n) cell."""
        return {key: sum(types.values())
                for key, types in self.failure_types.items()}

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


def _fit_one(estimator, dr, weight_mode):
    if estimator == "cite":
        return fit_cite(dr.cite, weight_mode=weight_mode).coefficients()
    return _fit_ite(dr.ite)


def run_experiment(cfg):
    """Run the full Monte Carlo grid; deterministic given cfg.seed."""
    dgp = cfg.dgp
    labels = parameter_labels(dgp.dims)
    truth = true_parameters(dgp)
    n_params = len(labels)

    # Replications first: a DGP that cannot satisfy the rank conditions
    # should abort on the failure-rate limit, not inside the oracle.
    good = {}  # (n, estimator) -> the good draws, in n-major order
    failure_types = {}
    sign_agreement = {}
    for n in cfg.sample_sizes:
        dims_n = replace(dgp.dims, n=n)
        draws = {e: np.full((cfg.replications, n_params), np.nan)
                 for e in cfg.estimators}
        ok = {e: np.zeros(cfg.replications, dtype=bool) for e in cfg.estimators}
        types = {e: Counter() for e in cfg.estimators}
        for r in range(cfg.replications):
            seed_r = replication_seed(cfg.seed, dgp.scenario, n, r)
            ds = simulate(replace(dgp, dims=dims_n, seed=seed_r)).dataset
            try:
                dr = build_regressors(ds)
            except np.linalg.LinAlgError as exc:  # RankDeficient
                for est in cfg.estimators:
                    types[est][type(exc).__name__] += 1
                continue
            for est in cfg.estimators:
                try:
                    draws[est][r] = _fit_one(est, dr, cfg.weight_mode)
                    ok[est][r] = True
                except np.linalg.LinAlgError as exc:  # RankDeficient too
                    types[est][type(exc).__name__] += 1
        for est in cfg.estimators:
            failure_types[(est, n)] = types[est]
            n_bad = sum(types[est].values())
            if n_bad > FAILURE_RATE_LIMIT * cfg.replications:
                raise FailureRateExceeded(
                    f"estimator {est!r} failed {n_bad}/{cfg.replications} "
                    f"replications at n={n} (limit "
                    f"{FAILURE_RATE_LIMIT:.0%}); check the DGP rank conditions"
                )
            good[n, est] = draws[est][ok[est]]
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
    for (n, est), draws_ok in good.items():
        cells.extend(_summarize(est, n, labels, truth, draws_ok, targets))

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
        failure_types=failure_types,
    )


def _target_for(estimator, j, truth, targets):
    """(target, target_se) of parameter j: the simulated large-n limit and
    its simulation SE where `targets` has one for the estimator (CITE's
    kappa_tilde[j]; ITE's one-step limit of the first kappa), else
    (truth[j], None). The one rule for what a cell is held to."""
    if targets is not None and j < len(targets.kappa_tilde):
        if estimator == "cite":
            return (float(targets.kappa_tilde[j]),
                    float(targets.kappa_tilde_se[j]))
        if j == 0 and targets.ite_plim_kappa1 is not None:
            return targets.ite_plim_kappa1, targets.ite_plim_kappa1_se
    return float(truth[j]), None


def _summarize(estimator, n, labels, truth, good, targets):
    """The cells of one (estimator, n) from its R >= 2 good replications
    (`run_experiment` raises FailureRateExceeded before a cell has fewer)."""
    R = good.shape[0]
    out = []
    for j, name in enumerate(labels):
        col = good[:, j]
        mean = float(col.mean())
        sd = float(col.std(ddof=0))
        target, target_se = _target_for(estimator, j, truth, targets)
        out.append(CellStats(
            estimator=estimator, n=int(n), parameter=name,
            truth=float(truth[j]), target=target, mean=mean,
            bias=mean - float(truth[j]), bias_vs_target=mean - target, sd=sd,
            rmse=float(np.sqrt(np.mean((col - truth[j]) ** 2))),
            mc_se=sd / np.sqrt(R), target_se=target_se,
        ))
    return out


def convergence_table(report):
    """Render a report as an aligned text table.

    The target column holds the plim target used for the bias_vs_target
    column; |bias|/mc_se is the t-ratio of the bias against the truth.
    """
    headers = ["scenario", "estimator", "n", "parameter", "mean", "bias",
               "sd", "rmse", "target", "|bias|/mc_se"]
    rows = []
    for c in report.cells:
        rows.append([report.scenario, c.estimator, str(c.n), c.parameter,
                     f"{c.mean:.6g}", f"{c.bias:.3e}", f"{c.sd:.3e}",
                     f"{c.rmse:.3e}", f"{c.target:.6g}", f"{c.bias_ratio:.2f}"])
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
    return "\n".join(lines) + "\n"


def evaluate_contracts(report):
    """Check the scenario's consistency contracts at the largest n.

    Returns a list of dicts with name/passed/detail. A comparison against
    a simulated target reads the cell: its bias_vs_target against
    sqrt(mc_se^2 + target_se^2), since both sides carry simulation noise.
    """
    checks = []
    n = report.sample_sizes[-1]
    scen = report.scenario
    k1 = report.parameter_names[0] if report.parameter_names else None

    def add(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # no cite cells where cite was not run or there is no parameter
    cite_ratios = [c.bias_ratio for c in report.cells
                   if c.estimator == "cite" and c.n == n]
    if scen in ("baseline", "correlated_x_delta", "correlated_random_effects") \
            and cite_ratios:
        worst = max(cite_ratios)
        add(f"{scen}: cite recovers the truth",
            worst < 3.0, f"max |bias|/mc_se = {worst:.2f} at n={n}")
    # run_experiment sets targets exactly when K_h >= 1, so kappa is estimated
    if scen == "correlated_random_effects" and "ite" in report.estimators \
            and report.targets is not None:
        c = report.cell("ite", n, k1)
        add("correlated_random_effects: ite recovers kappa",
            c.bias_ratio < 3.0, f"|bias|/mc_se = {c.bias_ratio:.2f} at n={n}")
    if scen == "omitted_variable":
        held = {c.estimator: c for c in report.cells if c.n == n
                and c.parameter == k1 and c.target_se is not None}
        for est, what, limit in (
                ("cite", "cite tracks the projection target", "kappa_tilde"),
                ("ite", "ite tracks its own (different) limit", "plim")):
            if est in held:
                c = held[est]
                gap, se = abs(c.bias_vs_target), np.hypot(c.mc_se, c.target_se)
                add(f"omitted_variable: {what}", gap < 3.0 * se,
                    f"|mean - {limit}| = {gap:.4g}, 3*se = {3 * se:.4g} "
                    f"at n={n}")
    return checks
