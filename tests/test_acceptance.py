"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines
as they complete. The heavy Monte Carlo fixtures are module scoped and
shared across criteria.
"""

import json
import time
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from interpanel.cli import main as cli_main
from interpanel.data import build_regressors
from interpanel.dgp import packaged_config, plim_targets, simulate
from interpanel.estimators import (cite_delta, cite_theta, fit_cite, ite,
                                   mean_effect)
from interpanel.harness import ExperimentConfig, run_experiment
from interpanel.linalg import solve_ols

from conftest import dummy_variable_oracle, random_panel, within_ols_oracle


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def baseline_consistency_run():
    """Criterion 5 design: baseline DGP, T=6, n in {100,400,1600}, R=500."""
    cfg = ExperimentConfig(
        dgp=packaged_config("baseline"),
        sample_sizes=(100, 400, 1600),
        replications=500,
        estimators=("cite",),
        seed=505,
        oracle_draws=50_000,
        oracle_blocks=10,
    )
    start = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def omitted_variable_run():
    """Criterion 6 design: the checked-in omitted-variable calibration."""
    cfg = ExperimentConfig(
        dgp=packaged_config("ite_gap"),
        sample_sizes=(500, 2000),
        replications=300,
        estimators=("cite", "ite"),
        seed=606,
        oracle_draws=400_000,
        oracle_blocks=20,
    )
    start = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def correct_specification_runs():
    """Criterion 7 designs: eps-X correlation on/off."""
    out = {}
    for name in ("correlated_x", "correlated_re"):
        cfg = ExperimentConfig(
            dgp=packaged_config(name),
            sample_sizes=(2000,),
            replications=300,
            estimators=("cite", "ite"),
            seed=707,
            oracle_draws=50_000,
            oracle_blocks=10,
        )
        out[name] = run_experiment(cfg)
    return out


def test_criterion_01_fwl_oracle_equivalence():
    # 100 random datasets, n=30, T=8, K_x=2, K_g=1, K_z=1, K_h=2
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        ds = random_panel(seed, n=30, T=8, K_x=2, K_g=1, K_z=1, K_h=2)
        dr = build_regressors(ds).cite
        theta = cite_theta(dr)
        delta = cite_delta(dr, theta)
        theta_o, delta_o = dummy_variable_oracle(ds)
        worst = max(worst,
                    float(np.max(np.abs(theta - theta_o))),
                    float(np.max(np.abs(delta - delta_o))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8, f"max abs difference {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report("1 (pooled dummy-variable oracle)",
            f"max abs diff {worst:.2e} over 100 datasets in {elapsed:.2f}s")


def test_criterion_02_within_transformation_oracle():
    worst = 0.0
    for seed in range(100):
        ds = random_panel(1000 + seed, n=14, T=5, K_x=2, K_g=0, K_z=0,
                          K_h=1, constant_col=1)
        got = ite(build_regressors(ds).ite)[0]
        worst = max(worst, abs(got - within_ols_oracle(ds)))
    assert worst < 1e-9, f"max abs difference {worst:.3e}"
    _report("2 (within-transformation oracle)",
            f"max abs diff {worst:.2e} over 100 datasets")


def test_criterion_03_special_case_reductions():
    # (a) K_x=1 with x identically 1: the two-step gamma equals the
    # within estimator of the additive fixed-effects regression
    worst_fe = 0.0
    for seed in range(50):
        ds = random_panel(2000 + seed, n=16, T=5, K_x=1, K_g=0, K_z=2,
                          K_h=1, constant_col=0)
        theta = cite_theta(build_regressors(ds).cite)
        Yd = ds.Y - ds.Y.mean(axis=1, keepdims=True)
        Zd = ds.Z - ds.Z.mean(axis=1, keepdims=True)
        within = solve_ols(Zd.reshape(-1, 2), Yd.reshape(-1)).coefficients
        worst_fe = max(worst_fe, float(np.max(np.abs(theta - within))))
    assert worst_fe < 1e-9, f"fixed-effects reduction: {worst_fe:.3e}"
    # (b) same shape for the one-step estimator: pooled OLS of Y on (H, Z)
    worst_re = 0.0
    for seed in range(50):
        ds = random_panel(3000 + seed, n=16, T=5, K_x=1, K_g=0, K_z=2,
                          K_h=2, constant_col=0)
        got = ite(build_regressors(ds).ite)
        n, T = ds.dims.n, ds.dims.T
        design = np.column_stack([np.repeat(ds.H, T, axis=0),
                                  ds.Z.reshape(n * T, -1)])
        pooled = solve_ols(design, ds.Y.reshape(-1)).coefficients
        worst_re = max(worst_re, float(np.max(np.abs(got - pooled))))
    assert worst_re < 1e-9, f"pooled-OLS reduction: {worst_re:.3e}"
    _report("3 (special-case reductions)",
            f"fixed-effects {worst_fe:.2e}, pooled OLS {worst_re:.2e}")


def test_criterion_04_noiseless_exact_recovery():
    cfg = packaged_config("baseline")
    cfg = replace(cfg, dims=replace(cfg.dims, n=80), seed=44,
                  u_scale=0.0, v_scale=0.0, eps_scale=0.0)
    truth = simulate(cfg)
    ds = truth.dataset
    dr = build_regressors(ds)
    kappa = np.asarray(cfg.kappa)
    phi = np.asarray(cfg.phi)
    gamma = np.asarray(cfg.gamma)

    c = fit_cite(dr.cite)
    errs = [np.max(np.abs(c.kappa_hat - kappa)),
            np.max(np.abs(c.theta_hat
                          - np.concatenate([phi.reshape(-1), gamma])))]
    r = ite(dr.ite)
    K_h, K_xg = ds.dims.K_h, phi.size
    errs += [np.max(np.abs(r[:K_h] - kappa)),
             np.max(np.abs(r[K_h:K_h + K_xg] - phi.reshape(-1))),
             np.max(np.abs(r[K_h + K_xg:] - gamma))]
    worst = float(max(errs))
    assert worst < 1e-10, f"max abs error {worst:.3e}"
    _report("4 (noiseless exact recovery)", f"max abs error {worst:.2e}")


def test_criterion_05_cite_consistency(baseline_consistency_run):
    report, elapsed = baseline_consistency_run
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    n_top = 1600
    ratios = {}
    for c in report.cells:
        if c.n == n_top:
            z = abs(c.bias) / c.mc_se
            ratios[c.parameter] = z
            assert z < 3.0, (f"{c.parameter}: |bias|={abs(c.bias):.2e} "
                             f"is {z:.2f} mc_se at n={n_top}")
    for p in report.parameter_names:
        for n_small, n_big in ((100, 400), (400, 1600)):
            r_small = report.cell("cite", n_small, p).rmse
            r_big = report.cell("cite", n_big, p).rmse
            ratio = r_small / r_big
            assert 1.0 <= ratio <= 3.0, \
                f"{p}: rmse ratio {ratio:.2f} for n {n_small}->{n_big}"
    worst = max(ratios.values())
    _report("5 (two-step consistency)",
            f"max |bias|/mc_se {worst:.2f} at n=1600, rmse halves per 4x n, "
            f"{elapsed:.0f}s")


def test_criterion_06_ite_inconsistency(omitted_variable_run):
    report, elapsed = omitted_variable_run
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    t = report.targets
    n_top = 2000
    k1 = report.parameter_names[0]
    cite_cell = report.cell("cite", n_top, k1)
    ite_cell = report.cell("ite", n_top, k1)

    analytic_gap = abs(t.kappa_tilde[0] - t.ite_plim_kappa1)
    assert analytic_gap > 10 * ite_cell.mc_se, \
        f"gap {analytic_gap:.4f} vs mc_se {ite_cell.mc_se:.5f}"
    assert analytic_gap > 10 * cite_cell.mc_se

    se_ite = float(np.hypot(ite_cell.mc_se, t.ite_plim_kappa1_se))
    gap_ite = abs(ite_cell.mean - t.ite_plim_kappa1)
    assert gap_ite < 3 * se_ite, \
        f"ite mean {ite_cell.mean:.4f} vs plim {t.ite_plim_kappa1:.4f}"

    se_cite = float(np.hypot(cite_cell.mc_se, t.kappa_tilde_se[0]))
    gap_cite = abs(cite_cell.mean - t.kappa_tilde[0])
    assert gap_cite < 3 * se_cite, \
        f"cite mean {cite_cell.mean:.4f} vs kappa_tilde {t.kappa_tilde[0]:.4f}"

    # targets have opposite signs under this calibration, and the
    # sign-agreement diagnostic reports the disagreement
    assert np.sign(t.kappa_tilde[0]) != np.sign(t.ite_plim_kappa1)
    assert report.sign_agreement[n_top] < 0.5
    _report("6 (one-step inconsistency)",
            f"gap {analytic_gap:.3f} = {analytic_gap / ite_cell.mc_se:.0f} "
            f"mc_se, sign agreement {report.sign_agreement[n_top]:.2f}, "
            f"{elapsed:.0f}s")


def test_criterion_07_correct_specification_contrast(
        correct_specification_runs):
    n = 2000
    biased = correct_specification_runs["correlated_x"]
    k1 = biased.parameter_names[0]
    c_ite = biased.cell("ite", n, k1)
    c_cite = biased.cell("cite", n, k1)
    z_ite = abs(c_ite.bias) / c_ite.mc_se
    z_cite = abs(c_cite.bias) / c_cite.mc_se
    assert z_ite > 5.0, f"ite bias only {z_ite:.2f} mc_se"
    assert z_cite < 3.0, f"cite bias {z_cite:.2f} mc_se"

    clean = correct_specification_runs["correlated_re"]
    r_ite = clean.cell("ite", n, k1)
    z_clean = abs(r_ite.bias) / r_ite.mc_se
    assert z_clean < 3.0, f"ite bias {z_clean:.2f} mc_se under independence"
    _report("7 (correct-specification contrast)",
            f"eps-X correlated: ite {z_ite:.0f} mc_se vs cite "
            f"{z_cite:.2f}; independent eps: ite {z_clean:.2f}")


def _printed_interval(text):
    """Exact value of a printed decimal, give or take half its last digit."""
    printed = Decimal(text)
    value = Fraction(printed)
    half_unit = Fraction(1, 2) * Fraction(10) ** printed.as_tuple().exponent
    return value - half_unit, value + half_unit


def test_criterion_08_published_arithmetic():
    # The published inputs are rounded as printed, so they pin the mean
    # effect only to within the rounding range of their printed digits.
    # Worked exactly, -1.146*0.64 + 0.805*61.867 - 0.0274*75.774 - 46.5
    # = 0.4932874, and with each input at +/- half a unit in its last
    # printed digit the sum can be anything in [0.40210, 0.58447]; the
    # rounding of 0.805 alone, times 61.867, moves it by 0.031, the whole
    # gap to the published 0.462. Read as -46.500, the constant still
    # leaves [0.45160, 0.53497], which holds 0.462. So the test pins
    # mean_effect to the exact sum and checks that 0.462 is reproducible
    # from its inputs, i.e. lies within their rounding range.
    second_stage = mean_effect([-0.624], [0.64], 0.905)
    assert abs(second_stage - 0.506) < 1e-3, second_stage

    coeffs = ["-1.146", "0.805", "-0.0274"]
    means = ["0.64", "61.867", "75.774"]
    constant = "-46.5"
    full = mean_effect([float(c) for c in coeffs], [float(m) for m in means],
                       float(constant))
    exact = Fraction(Decimal(constant)) + sum(
        Fraction(Decimal(c)) * Fraction(Decimal(m))
        for c, m in zip(coeffs, means))
    assert exact == Fraction("0.4932874")
    assert abs(full - exact) < 1e-12, (full, float(exact))

    # the sum is bilinear in (coeffs, means), so its extremes over the box
    # of rounding intervals are at the box's corners
    k = len(coeffs)
    corner_sums = [
        sum(c * m for c, m in zip(corner[:k], corner[k:]))
        for corner in product(*map(_printed_interval, coeffs + means))
    ]
    const_lo, const_hi = _printed_interval(constant)
    lo, hi = min(corner_sums) + const_lo, max(corner_sums) + const_hi
    assert (round(float(lo), 5), round(float(hi), 5)) == (0.40210, 0.58447)
    p_lo, p_hi = _printed_interval("0.462")
    assert p_lo <= hi and lo <= p_hi, (
        f"the published 0.462 lies outside [{float(lo):.5f}, "
        f"{float(hi):.5f}], the rounding range of its published inputs"
    )
    _report("8 (published arithmetic)",
            f"second stage {second_stage:.5f}, full {full:.5f}")


def test_criterion_09_determinism(tmp_path):
    # machine-readable outputs are byte identical across runs
    cfg = ExperimentConfig(
        dgp=packaged_config("ite_gap"),
        sample_sizes=(60,), replications=8, estimators=("cite", "ite"),
        seed=909, oracle_draws=3_000, oracle_blocks=3,
    )
    a = json.dumps(run_experiment(cfg).to_dict(), sort_keys=True)
    b = json.dumps(run_experiment(cfg).to_dict(), sort_keys=True)
    assert a == b

    t1 = plim_targets(packaged_config("ite_gap"), oracle_draws=4_000,
                      seed=2, n_blocks=4)
    t2 = plim_targets(packaged_config("ite_gap"), oracle_draws=4_000,
                      seed=2, n_blocks=4)
    assert json.dumps(t1.to_dict(), sort_keys=True) \
        == json.dumps(t2.to_dict(), sort_keys=True)

    ds = simulate(replace(packaged_config("baseline"),
                          dims=replace(packaged_config("baseline").dims,
                                       n=30), seed=3)).dataset
    from interpanel.data import write_csv
    csv_path = tmp_path / "p.csv"
    write_csv(ds, csv_path)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["estimate", "--input", str(csv_path),
                     "--output", str(p1)]) == 0
    assert cli_main(["estimate", "--input", str(csv_path),
                     "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    _report("9 (determinism)", "repeated runs byte-identical")
