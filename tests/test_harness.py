import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from interpanel.dgp import ConfigInvalid, packaged_config
from interpanel.estimators import WEIGHT_MODES
from interpanel.harness import (CellStats, ExperimentConfig,
                                MonteCarloReport, convergence_table,
                                evaluate_contracts, replication_seed,
                                run_experiment)

GOLDEN = Path(__file__).parent / "golden"


def mini_experiment(**overrides):
    dgp = packaged_config("baseline")
    base = dict(dgp=dgp, sample_sizes=(50,), replications=20,
                estimators=("cite", "ite"), seed=99,
                oracle_draws=4_000, oracle_blocks=4)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_sample_sizes_must_increase(self):
        with pytest.raises(ValueError):
            mini_experiment(sample_sizes=(100, 100))
        with pytest.raises(ValueError):
            mini_experiment(sample_sizes=(400, 100))

    def test_minimum_replications(self):
        with pytest.raises(ValueError):
            mini_experiment(replications=1)

    def test_unknown_estimator(self):
        with pytest.raises(ValueError):
            mini_experiment(estimators=("cite", "gmm"))

    def test_unknown_weight_mode(self):
        with pytest.raises(ValueError) as err:
            mini_experiment(weight_mode="bogus")
        assert "'bogus'" in str(err.value)
        assert str(WEIGHT_MODES) in str(err.value)

    def test_values_are_stored_as_ints_and_tuples(self):
        cfg = mini_experiment(sample_sizes=[50.0, np.int64(80)],
                              replications=np.int32(3), estimators=["CITE"],
                              oracle_blocks=4.0)
        assert cfg.sample_sizes == (50, 80)
        assert all(type(n) is int for n in cfg.sample_sizes)
        assert type(cfg.replications) is int and cfg.estimators == ("cite",)
        assert type(cfg.oracle_blocks) is int

    def test_python_callers_get_the_json_paths(self):
        with pytest.raises(ConfigInvalid) as err:
            mini_experiment(replications=2.5)
        assert err.value.path == "replications"
        with pytest.raises(ConfigInvalid) as err:
            mini_experiment(estimators=("ite", "ITE"))
        assert err.value.path == "estimators"

    def test_from_dict(self):
        raw = {
            "dgp": packaged_config("baseline").to_dict(),
            "sample_sizes": [50, 100],
            "replications": 5,
            "estimators": ["cite"],
            "seed": 7,
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.sample_sizes == (50, 100)
        assert cfg.estimators == ("cite",)


class TestRunExperiment:
    def test_zero_noise_gives_zero_bias_and_sd(self):
        dgp = replace(packaged_config("baseline"), u_scale=0.0, v_scale=0.0,
                      eps_scale=0.0)
        cfg = mini_experiment(dgp=dgp, replications=5, oracle_draws=2_000,
                              oracle_blocks=2)
        report = run_experiment(cfg)
        for c in report.cells:
            assert abs(c.bias) < 1e-10, c
            assert c.sd < 1e-10, c

    def test_rmse_identity_and_mcse(self):
        report = run_experiment(mini_experiment())
        for c in report.cells:
            assert abs(c.rmse**2 - (c.bias**2 + c.sd**2)) \
                <= 1e-10 * max(c.rmse**2, 1e-30)
            assert abs(c.mc_se - c.sd / np.sqrt(report.replications)) < 1e-15

    def test_row_count_and_labels(self):
        cfg = mini_experiment(sample_sizes=(50, 100), replications=4,
                              oracle_draws=2_000, oracle_blocks=2)
        report = run_experiment(cfg)
        d = cfg.dgp.dims
        n_params = d.K_h + d.K_x * d.K_g + d.K_z
        assert len(report.cells) == 2 * 2 * n_params
        assert len(report.to_dict()["cells"]) == len(report.cells)
        assert "kappa[h1]" in convergence_table(report)

    def test_empty_estimators_keeps_targets(self):
        cfg = mini_experiment(estimators=(), replications=4,
                              oracle_draws=2_000, oracle_blocks=2)
        report = run_experiment(cfg)
        assert report.cells == ()
        assert report.to_dict()["cells"] == []
        assert report.to_dict()["targets"] is not None
        assert "kappa_tilde" in convergence_table(report)

    def test_sign_agreement_reported(self):
        report = run_experiment(mini_experiment(replications=6,
                                                oracle_draws=2_000,
                                                oracle_blocks=2))
        assert 50 in report.sign_agreement
        assert 0.0 <= report.sign_agreement[50] <= 1.0

    def test_deterministic_across_runs(self):
        cfg = mini_experiment(replications=6, oracle_draws=2_000,
                              oracle_blocks=2)
        a = json.dumps(run_experiment(cfg).to_dict(), sort_keys=True)
        b = json.dumps(run_experiment(cfg).to_dict(), sort_keys=True)
        assert a == b

    def test_replication_seeds_are_stable_and_distinct(self):
        s1 = replication_seed(1, "baseline", 100, 0)
        s2 = replication_seed(1, "baseline", 100, 1)
        s3 = replication_seed(1, "baseline", 200, 0)
        s4 = replication_seed(1, "omitted_variable", 100, 0)
        assert len({s1, s2, s3, s4}) == 4
        assert s1 == replication_seed(1, "baseline", 100, 0)

    def test_failure_rate_abort(self):
        # x scale 0 makes the lone varying column constant, colliding with
        # the constant column: every replication is rank deficient
        dgp = replace(packaged_config("baseline"), x_scale=0.0,
                      x_fe_loading=0.0)
        cfg = mini_experiment(dgp=dgp, replications=5, oracle_draws=2_000,
                              oracle_blocks=2)
        with pytest.raises(RuntimeError, match="failed"):
            run_experiment(cfg)

    def test_failures_by_exception_type(self, monkeypatch):
        # a failed build counts under both estimators, a failed fit under its own
        from interpanel import harness
        from interpanel.linalg import RankDeficient

        def failing(fn, bad_calls, exc):
            calls = []

            def wrapped(*args, **kwargs):
                calls.append(None)
                if len(calls) - 1 in bad_calls:
                    raise exc("injected")
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(harness, "FAILURE_RATE_LIMIT", 1.0)
        monkeypatch.setattr(harness, "build_regressors", failing(
            harness.build_regressors, {2}, RankDeficient))
        monkeypatch.setattr(harness, "fit_cite", failing(
            harness.fit_cite, {0}, RankDeficient))
        monkeypatch.setattr(harness, "_fit_ite", failing(
            harness._fit_ite, {1, 4}, np.linalg.LinAlgError))
        report = run_experiment(mini_experiment(replications=10,
                                                oracle_draws=2_000,
                                                oracle_blocks=2))
        assert report.failures == {("cite", 50): 2, ("ite", 50): 3}
        assert report.failure_types == {
            ("cite", 50): {"RankDeficient": 2},
            ("ite", 50): {"RankDeficient": 1, "LinAlgError": 2},
        }
        assert "failure_types" not in report.to_dict()

    def test_golden_mini_run(self):
        report = run_experiment(mini_experiment())
        got = json.dumps(report.to_dict(), sort_keys=True, indent=2)
        frozen = (GOLDEN / "mc_mini_report.json").read_text(encoding="utf-8")
        assert got == frozen.rstrip("\n")

    @pytest.mark.parametrize("mode", ["inv_se", "inv_var"])
    def test_weighted_mode_reweights_only_kappa(self, mode):
        # the weights enter the kappa stage only: theta (phi, gamma) is the
        # unweighted pooled fit in every mode
        unweighted = run_experiment(mini_experiment(estimators=("cite",)))
        report = run_experiment(mini_experiment(estimators=("cite",),
                                                weight_mode=mode))
        assert report.failures == {("cite", 50): 0}
        checks = evaluate_contracts(report)
        assert checks and all(c["passed"] for c in checks)
        for got, base in zip(report.cells, unweighted.cells, strict=True):
            assert got.parameter == base.parameter
            if got.parameter.startswith("kappa"):
                assert got.mean != base.mean, got.parameter
            else:
                assert got.to_dict() == base.to_dict(), got.parameter


class TestContracts:
    @pytest.mark.parametrize("mode", [
        "none",
        pytest.param("inv_se", marks=pytest.mark.xfail(strict=True, reason=(
            "weighted CITE misses kappa where w_i moves with eps_i: "
            "max |bias|/mc_se = 12.94 (FOUND, ROADMAP item 4)"))),
    ])
    def test_cite_recovers_the_truth_where_weights_move_with_eps(self, mode):
        # every X_it of correlated_x carries 0.8 eps_i, so [(X_i'X_i)^-1]_11,
        # se_i and the weights w_i move with eps_i; the contract holds the
        # cite cells to the truth, not to the oracle
        cfg = ExperimentConfig(dgp=packaged_config("correlated_x"),
                               sample_sizes=(400,), replications=100,
                               estimators=("cite",), seed=7, weight_mode=mode,
                               oracle_draws=2_000, oracle_blocks=2)
        checks = evaluate_contracts(run_experiment(cfg))
        assert [c["name"] for c in checks] \
            == ["correlated_x_delta: cite recovers the truth"]
        assert checks[0]["passed"], checks[0]["detail"]

    def test_baseline_contract_evaluates(self):
        cfg = mini_experiment(sample_sizes=(200,), replications=40,
                              oracle_draws=4_000, oracle_blocks=4)
        report = run_experiment(cfg)
        checks = evaluate_contracts(report)
        assert any("cite recovers the truth" in c["name"] for c in checks)
        assert all(c["passed"] for c in checks)

    def test_nothing_to_estimate_has_no_contract(self):
        # K_g = K_z = K_h = 0: neither fit has a parameter, so there is no
        # cite cell to hold to the truth
        cfg = ExperimentConfig.from_dict({
            "dgp": {"dims": {"n": 50, "T": 4, "K_x": 2, "K_g": 0, "K_z": 0,
                             "K_h": 0},
                    "kappa": [], "scenario": "baseline"},
            "sample_sizes": [40], "replications": 5,
            "estimators": ["cite", "ite"],
            "oracle": {"draws": 1000, "blocks": 2}})
        report = run_experiment(cfg)
        assert report.cells == ()
        assert evaluate_contracts(report) == []

    def test_contract_failure_is_detected(self):
        # fabricate a report whose bias is far outside 3 mc_se
        from dataclasses import replace as dc_replace

        cfg = mini_experiment(sample_sizes=(200,), replications=40,
                              oracle_draws=4_000, oracle_blocks=4)
        report = run_experiment(cfg)
        broken = tuple(
            dc_replace(c, bias=1.0) if c.estimator == "cite" and c.n == 200
            else c
            for c in report.cells
        )
        bad_report = dc_replace(report, cells=broken)
        checks = evaluate_contracts(bad_report)
        cite_check = [c for c in checks
                      if "cite recovers the truth" in c["name"]][0]
        assert not cite_check["passed"]

    def test_omitted_variable_contracts_read_the_cell(self):
        # each contract holds its first-kappa cell to the target and SE
        # that the cell carries: other targets attached to the report move
        # no contract, and a moved bias_vs_target moves its own contract
        report = run_experiment(mini_experiment(
            dgp=packaged_config("ite_gap"), sample_sizes=(80,)))
        checks = evaluate_contracts(report)
        assert [c["name"] for c in checks] == [
            "omitted_variable: cite tracks the projection target",
            "omitted_variable: ite tracks its own (different) limit"]
        t = report.targets
        other = replace(t, kappa_tilde=t.kappa_tilde + 1.0,
                        kappa_tilde_se=t.kappa_tilde_se * 0.0,
                        ite_plim_kappa1=t.ite_plim_kappa1 + 1.0,
                        ite_plim_kappa1_se=0.0)
        assert evaluate_contracts(replace(report, targets=other)) == checks
        assert evaluate_contracts(replace(report, targets=None)) == checks
        cell = report.cell("ite", 80, "kappa[h1]")
        moved = replace(cell, bias_vs_target=cell.bias_vs_target + 1.0)
        got = evaluate_contracts(replace(report, cells=tuple(
            moved if c is cell else c for c in report.cells)))
        se = np.hypot(cell.mc_se, cell.target_se)
        assert got[0] == checks[0]
        assert got[1] == {
            "name": checks[1]["name"], "passed": False,
            "detail": f"|mean - plim| = {abs(moved.bias_vs_target):.4g}, "
                      f"3*se = {3 * se:.4g} at n=80"}

    @pytest.mark.parametrize("bias, shown, passed", [
        (0.0, "0.00", True), (0.5, "inf", False)])
    def test_table_and_contract_share_the_bias_ratio(self, bias, shown,
                                                     passed):
        # a made-up cell with zero sd: the table prints the ratio the
        # contract judges
        cell = CellStats(estimator="cite", n=10, parameter="kappa[h1]",
                         truth=1.0, target=1.0, mean=1.0 + bias, bias=bias,
                         bias_vs_target=bias, sd=0.0, rmse=bias, mc_se=0.0)
        report = MonteCarloReport(
            scenario="baseline", sample_sizes=(10,), replications=4,
            estimators=("cite",), parameter_names=("kappa[h1]",),
            truth=np.ones(1), cells=(cell,), sign_agreement={}, targets=None,
            failure_types={("cite", 10): {}})
        text = convergence_table(report)
        assert text.splitlines()[2].split()[-1] == shown
        [check] = evaluate_contracts(report)
        assert check["passed"] is passed
        assert check["detail"] == f"max |bias|/mc_se = {shown} at n=10"
