"""The benchmark's tracer wraps package functions by `module.function`
name; a rename here would break `perfbench/run.py --trace 1`, which the
unit tests do not run."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

from interpanel import cli, data, estimators, inference, linalg

from conftest import random_panel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracer):
    assert tracer.FUNCTIONS
    missing = []
    for name in tracer.FUNCTIONS:
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"interpanel.{module}"),
                                function, None)):
            missing.append(name)
    assert missing == []


def test_every_measured_name_is_traced(tracer):
    # latency, fit-ratio and byte metrics read the spans of FUNCTIONS only
    measured = {"LATENCY": set(tracer.LATENCY), "FITS": set(tracer.FITS),
                "BYTES": set(tracer.BYTES),
                "BYTES_METRIC": set(tracer.BYTES_METRIC)}
    untraced = {table: sorted(names - set(tracer.FUNCTIONS))
                for table, names in measured.items()}
    assert untraced == {table: [] for table in measured}


def test_projection_bytes_read_the_arguments_residual_makers_gets(
        tracer, monkeypatch):
    # the tracer sizes each residual_makers call from its first argument;
    # spy on the calls build_regressors makes, in chunks of 3 units (T = 6),
    # and every chunk must size to the m T x T float64 makers it returns
    seen = []

    def spy(*args, **kwargs):
        M = original(*args, **kwargs)
        seen.append((args, kwargs, M.shape))
        return M

    original = data.residual_makers
    monkeypatch.setattr(data, "residual_makers", spy)
    monkeypatch.setattr(data, "_PROJECT_BYTES", 3 * 8 * 6 * 6)
    data.build_regressors(random_panel(4, n=7, T=6, K_x=2))
    sizes = tracer.BYTES["linalg.residual_makers"]
    assert [m for _, _, (m, _, _) in seen] == [3, 3, 1] * 2
    for args, kwargs, (m, T, _) in seen:
        assert sizes(args, kwargs) == m * T * T * 8


def counted_calls(tracer, qualname, run):
    """The number of calls of `qualname` while run() runs, counted through
    the tracer's own rebinding, as `--trace 1` counts them, and what run()
    returns. The original is bound again under every alias after."""
    calls = []

    def count(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)
        return counted

    original = tracer.replace_function(qualname, count)
    try:
        result = run()
    finally:
        tracer.replace_function(qualname, lambda counted: original)
    return len(calls), result


def test_estimate_solves_each_pooled_design_once(tracer):
    # validate solves the stacked CITE and ITE designs on their blocks and
    # H; fit_cite reads the CITE fit and solves kappa, ite reads the ITE
    # fit: 4 solves
    ds = random_panel(5, n=12, K_x=2, K_g=1, K_z=1, K_h=2)
    assert ds.dims.n_psi > 0 and ds.dims.K_h >= 1

    def run():
        report = data.validate(ds)
        estimators.fit_cite(report.regressors.cite)
        estimators.ite(report.regressors.ite)
        return report

    original = linalg.solve_ols
    calls, report = counted_calls(tracer, "linalg.solve_ols", run)
    assert report.passed
    assert calls == 4
    assert data.solve_ols is estimators.solve_ols is linalg.solve_ols is original


def test_every_sandwich_is_one_cluster_robust_se_call(tracer):
    # the unit-clustered SEs of the two stacked fits and the HC0 of kappa
    # each go through the one sandwich kernel once: 3 calls
    ds = random_panel(5, n=12, K_x=2, K_g=1, K_z=1, K_h=2)
    dr = data.validate(ds).regressors

    def run():
        res = estimators.fit_cite(dr.cite)
        estimators.ite(dr.ite)
        return [inference.cite_kappa_se(dr.cite, res),
                inference.cite_theta_se(dr.cite), inference.ite_se(dr.ite)]

    original = inference.cluster_robust_se
    calls, ses = counted_calls(tracer, "inference.cluster_robust_se", run)
    assert calls == 3
    assert all(se.se.size for se in ses)
    assert inference.cluster_robust_se is original


@pytest.mark.parametrize("mode", ["none", "inv_se", "inv_var"])
def test_bootstrap_estimate_fits_cite_once(tracer, mode, tmp_path, capsys):
    # `estimate` fits CITE once and hands that fit to the bootstrap, whose
    # draws refit from unit summaries, not through fit_cite
    path = tmp_path / "panel.csv"
    data.write_csv(random_panel(5, n=30, K_x=2, K_g=1, K_z=1, K_h=2), path)
    argv = ["estimate", "--input", str(path), "--estimator", "cite",
            "--se", "bootstrap", "--weight-mode", mode,
            "--bootstrap-reps", "50"]

    original = estimators.fit_cite
    calls, code = counted_calls(tracer, "estimators.fit_cite",
                                lambda: cli.main(argv))
    assert code == 0, capsys.readouterr().err
    assert calls == 1
    assert estimators.fit_cite is original
