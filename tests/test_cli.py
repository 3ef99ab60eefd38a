import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from interpanel.cli import main
from interpanel.data import build_regressors, load_csv, make_dataset, write_csv
from interpanel.dgp import packaged_config, packaged_config_path, simulate
from interpanel.estimators import fit_cite, ite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sim_csv(tmp_path):
    cfg = packaged_config("baseline")
    cfg = replace(cfg, dims=replace(cfg.dims, n=40), seed=8)
    ds = simulate(cfg).dataset
    path = tmp_path / "panel.csv"
    write_csv(ds, path)
    return str(path), ds


class TestMeanEffect:
    def test_prints_sum(self, capsys):
        code, out, _ = run(capsys, "mean-effect", "--coeffs", "0,0",
                           "--means", "3,4", "--constant", "1.5")
        assert code == 0
        assert out.strip() == "1.5"

    def test_second_stage_value(self, capsys):
        code, out, _ = run(capsys, "mean-effect", "--coeffs", "-0.624",
                           "--means", "0.64", "--constant", "0.905")
        assert code == 0
        assert abs(float(out) - 0.50564) < 1e-9

    def test_exact_arithmetic_of_published_inputs(self, capsys):
        # the widely quoted rounded inputs sum to 0.4933, not to the
        # originally reported 0.462; the rounding of the inputs explains
        # the gap (they allow anything in [0.40210, 0.58447])
        code, out, _ = run(capsys, "mean-effect",
                           "--coeffs", "-1.146,0.805,-0.0274",
                           "--means", "0.64,61.867,75.774",
                           "--constant", "-46.5")
        assert code == 0
        assert abs(float(out) - 0.4932874) < 1e-6

    def test_length_mismatch_is_exit_1(self, capsys):
        code, _, err = run(capsys, "mean-effect", "--coeffs", "1,2",
                           "--means", "1", "--constant", "0")
        assert code == 1
        assert "error" in err


class TestEstimate:
    def test_both_estimators_end_to_end(self, sim_csv, capsys, tmp_path):
        path, ds = sim_csv
        out_path = tmp_path / "est.json"
        code, _, err = run(capsys, "estimate", "--input", path,
                           "--estimator", "both", "--output", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert set(doc["estimators"]) == {"cite", "ite"}
        back = load_csv(path)
        dr = build_regressors(back)
        want_cite = fit_cite(back, dr)
        want_ite = ite(back, dr)
        got_cite = doc["estimators"]["cite"]
        np.testing.assert_allclose(
            got_cite["estimates"],
            np.concatenate([want_cite.kappa_hat, want_cite.theta_hat]))
        assert got_cite["labels"][0] == "kappa[h1]"
        np.testing.assert_allclose(doc["estimators"]["ite"]["estimates"],
                                   want_ite.theta_tilde_hat)
        assert "sign_disagreement" in doc

    def test_byte_identical_outputs(self, sim_csv, capsys, tmp_path):
        path, _ = sim_csv
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "estimate", "--input", path, "--output", str(p1))
        run(capsys, "estimate", "--input", path, "--output", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bootstrap_se_mode(self, sim_csv, capsys, tmp_path):
        path, _ = sim_csv
        out_path = tmp_path / "boot.json"
        code, _, _ = run(capsys, "estimate", "--input", path,
                         "--estimator", "cite", "--se", "bootstrap",
                         "--bootstrap-reps", "60", "--seed", "4",
                         "--output", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        se = doc["estimators"]["cite"]["se"]
        assert len([v for v in se if v is not None]) == 2  # K_h kappa entries


class TestBuildsOnce:
    @pytest.fixture
    def builds(self, monkeypatch):
        # count build_regressors calls under every interpanel alias
        from interpanel import data
        original = data.build_regressors
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "interpanel" or name.startswith("interpanel."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        return calls

    @pytest.mark.parametrize("extra", [
        ("--estimator", "both"),
        ("--estimator", "cite", "--se", "bootstrap", "--bootstrap-reps", "50"),
    ])
    def test_estimate_builds_regressors_once(self, sim_csv, capsys, builds,
                                             extra):
        path, _ = sim_csv
        code, _, _ = run(capsys, "estimate", "--input", path, *extra)
        assert code == 0
        assert len(builds) == 1

    def test_rank_error_names_the_unit_label(self, tmp_path, capsys):
        # labels 1..6; the fifth unit (label 5) has collinear x columns,
        # and --h-min -1 keeps it past validate
        rng = np.random.default_rng(15)
        X = rng.normal(size=(6, 5, 2))
        X[4, :, 1] = 2.0 * X[4, :, 0]
        ds = make_dataset(rng.normal(size=(6, 5)), X,
                          unit_labels=[1, 2, 3, 4, 5, 6])
        path = tmp_path / "collinear.csv"
        write_csv(ds, path)
        code, out, err = run(capsys, "estimate", "--input", str(path),
                             "--h-min", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: X_i'X_i is numerically singular (unit 5)\n"


class TestValidate:
    def test_rank_deficient_unit_reported(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 4, 2))
        X[:, :, 1] = 1.0
        X[2, :, 0] = 7.0  # unit label 3 has two constant columns
        ds = make_dataset(rng.normal(size=(6, 4)), X)
        path = tmp_path / "bad.csv"
        write_csv(ds, path)
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "validate", "--input", str(path),
                         "--output", str(out_path))
        assert code == 1
        doc = json.loads(out_path.read_text())
        assert 3 in doc["failing_units_x"]

    def test_clean_panel_passes(self, sim_csv, capsys):
        path, _ = sim_csv
        code, out, _ = run(capsys, "validate", "--input", path)
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestSimulateCommand:
    def test_writes_csv_and_truth(self, tmp_path, capsys):
        out_csv = tmp_path / "sim.csv"
        code, _, _ = run(capsys, "simulate", "--config",
                         packaged_config_path("ite_gap"), "--n", "30",
                         "--seed", "5", "--output", str(out_csv))
        assert code == 0
        ds = load_csv(out_csv)
        assert ds.dims.n == 30
        truth = json.loads((tmp_path / "sim.csv.truth.json").read_text())
        assert len(truth["delta"]) == 30
        assert len(truth["h_full"][0]) == 2  # hidden column retained here
        assert ds.dims.K_h == 1              # but absent from the panel


class TestMalformedCsv:
    @pytest.mark.parametrize("sub", ["estimate", "validate"])
    def test_short_row_is_exit_1_naming_row_and_column(self, sub, tmp_path,
                                                       capsys):
        path = tmp_path / "short.csv"
        path.write_text("y,x1,time,unit\n1.0,2.0,1,1\n1.5,2.5,2,1\n"
                        "2.0,3.0,1,2\n3.0,4.0,2\n")
        code, out, err = run(capsys, sub, "--input", str(path))
        assert code == 1
        assert out == ""
        assert err == ("error: row 5 has fewer fields than the header: "
                       "no value for column 'unit'\n")


def mini_mc_config(tmp_path, **extra):
    cfg = {
        "dgp": replace(packaged_config("baseline"),
                       dims=replace(packaged_config("baseline").dims,
                                    n=50)).to_dict(),
        "sample_sizes": [40],
        "replications": 10,
        "estimators": ["cite"],
        "seed": 3,
        "oracle": {"draws": 2000, "blocks": 2},
        **extra,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


class TestMc:
    def test_mini_run_writes_table_and_report(self, tmp_path, capsys):
        cfg_path = mini_mc_config(tmp_path)
        out_json = tmp_path / "mc.json"
        out_txt = tmp_path / "mc.txt"
        code, _, err = run(capsys, "mc", "--config", str(cfg_path),
                           "--output", str(out_json), "--table", str(out_txt))
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["cells"]
        assert "contracts" in doc
        assert "parameter" in out_txt.read_text()

    def test_unknown_weight_mode_fails_before_simulating(self, tmp_path, capsys,
                                                         monkeypatch):
        from interpanel import harness

        def no_simulation(cfg):
            raise AssertionError("simulated before the weight mode was checked")

        monkeypatch.setattr(harness, "simulate", no_simulation)
        cfg_path = mini_mc_config(tmp_path, weight_mode="bogus")
        code, out, err = run(capsys, "mc", "--config", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err == ("error: unknown weight mode 'bogus'; choose from "
                       "('none', 'inv_se', 'inv_var')\n")


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--nope"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    @pytest.mark.parametrize("sub", ["estimate", "simulate", "validate",
                                     "mc", "mean-effect"])
    def test_help_for_every_subcommand(self, sub, capsys):
        with pytest.raises(SystemExit) as err:
            main([sub, "--help"])
        assert err.value.code == 0
        assert "--" in capsys.readouterr().out

    def test_missing_input_file_exits_1(self, capsys):
        code, _, err = run(capsys, "estimate", "--input", "/nope/missing.csv")
        assert code == 1
        assert "error" in err
