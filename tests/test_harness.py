import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from interpanel.dgp import packaged_config
from interpanel.estimators import WEIGHT_MODES
from interpanel.harness import (ExperimentConfig, convergence_table,
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
        text, doc = convergence_table(report)
        assert len(doc["cells"]) == len(report.cells)
        assert "kappa[h1]" in text

    def test_empty_estimators_keeps_targets(self):
        cfg = mini_experiment(estimators=(), replications=4,
                              oracle_draws=2_000, oracle_blocks=2)
        report = run_experiment(cfg)
        assert report.cells == ()
        text, doc = convergence_table(report)
        assert doc["cells"] == []
        assert doc["targets"] is not None
        assert "kappa_tilde" in text

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

    def test_golden_mini_run(self):
        report = run_experiment(mini_experiment())
        got = json.dumps(report.to_dict(), sort_keys=True, indent=2)
        frozen = (GOLDEN / "mc_mini_report.json").read_text(encoding="utf-8")
        assert got == frozen.rstrip("\n")


class TestContracts:
    def test_baseline_contract_evaluates(self):
        cfg = mini_experiment(sample_sizes=(200,), replications=40,
                              oracle_draws=4_000, oracle_blocks=4)
        report = run_experiment(cfg)
        checks = evaluate_contracts(report)
        assert any("cite recovers the truth" in c["name"] for c in checks)
        assert all(c["passed"] for c in checks)

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
