import hashlib
import json
import re
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from interpanel import cli
from interpanel.cli import main
from interpanel.data import build_regressors, load_csv, make_dataset, write_csv
from interpanel.dgp import (DgpConfig, packaged_config, packaged_config_path,
                            simulate)
from interpanel.estimators import fit_cite, ite, theta_tilde_labels
from interpanel.inference import cite_theta_se

from conftest import (BAD_DGP_FIELDS, BAD_MC_FIELDS, dgp_json_with, json_with,
                      random_panel)


# A simulator config with three H columns, every other field at its default
THREE_H_DGP = {"dims": {"n": 50, "T": 3, "K_x": 1, "K_h": 3}}
K_H_ABOVE_2 = ("dims.K_h: must be at most n = 2 (kappa is fitted on n unit "
               "slopes)")

# The packaged simulator configs (the mc_* files are Monte Carlo configs)
DGP_CONFIGS = sorted(p.stem for p in Path(packaged_config_path(
    "baseline")).parent.glob("*.json") if not p.stem.startswith("mc_"))


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

    def test_finite_inputs_keep_their_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "me.json"
        code, out, err = run(capsys, "mean-effect",
                             "--coeffs", "-1.146,0.805,-0.0274",
                             "--means", "0.64,61.867,75.774",
                             "--constant", "-46.5", "--output", str(out_path))
        assert (code, out, err) == (0, "0.493287\n", "")
        assert out_path.read_text() == (
            '{\n  "coefficients": [\n    -1.146,\n    0.805,\n    -0.0274\n  ],\n'
            '  "constant": -46.5,\n  "mean_effect": 0.4932873999999998,\n'
            '  "means": [\n    0.64,\n    61.867,\n    75.774\n  ]\n}\n')

    @pytest.mark.parametrize("flag, value, entry", [
        ("--coeffs", "nan,1", "nan"), ("--coeffs", "-inf", "-inf"),
        ("--means", "1,Infinity", "Infinity"), ("--means", "1, -NaN", " -NaN"),
        ("--constant", "nan", "nan"), ("--constant", "-inf", "-inf")])
    def test_non_finite_input_is_a_usage_error(self, flag, value, entry,
                                               capsys, tmp_path):
        # JSON has no NaN or Infinity: argparse refuses them, and no file
        # is written
        argv = {"--coeffs": "1,2", "--means": "3,4", "--constant": "0"}
        argv[flag] = value
        out_path = tmp_path / "me.json"
        with pytest.raises(SystemExit) as err:
            main(["mean-effect", *(a for kv in argv.items() for a in kv),
                  "--output", str(out_path)])
        assert err.value.code == 2
        assert f"argument {flag}: {entry!r} is not a finite number" in \
            capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("coeffs, means, constant", [
        ("1e308", "10", "0"), ("1e308,-1e308", "10,10", "0"),
        ("1e308", "1", "1e308")])
    def test_overflowing_sum_is_one_error_line(self, coeffs, means, constant,
                                               capsys, tmp_path):
        out_path = tmp_path / "me.json"
        code, out, err = run(capsys, "mean-effect", "--coeffs", coeffs,
                             "--means", means, "--constant", constant,
                             "--output", str(out_path))
        assert (code, out) == (1, "")
        assert err == "error: the mean effect overflows the float range\n"
        assert not out_path.exists()

    def test_entry_that_is_no_number_is_still_exit_1(self, capsys):
        code, out, err = run(capsys, "mean-effect", "--coeffs", "1,abc",
                             "--means", "1,2", "--constant", "0")
        assert (code, out) == (1, "")
        assert err == "error: could not convert string to float: 'abc'\n"


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
        want_cite = fit_cite(dr.cite)
        got_cite = doc["estimators"]["cite"]
        np.testing.assert_allclose(
            got_cite["estimates"],
            np.concatenate([want_cite.kappa_hat, want_cite.theta_hat]))
        assert got_cite["labels"][0] == "kappa[h1]"
        np.testing.assert_allclose(doc["estimators"]["ite"]["estimates"],
                                   ite(dr.ite))
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

    def test_ite_bootstrap_is_a_usage_error(self, sim_csv, capsys, tmp_path):
        # the bootstrap covers cite only: ite estimates with no SE would
        # pass silently for SEs that were asked for
        path, _ = sim_csv
        out_path = tmp_path / "est.json"
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--input", path, "--estimator", "ite",
                  "--se", "bootstrap", "--output", str(out_path)])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --se: the bootstrap covers the cite estimator only" \
            in captured.err
        assert not out_path.exists()

    def test_both_with_bootstrap_says_ite_has_no_se(self, sim_csv, capsys):
        path, _ = sim_csv
        code, out, err = run(capsys, "estimate", "--input", path,
                             "--se", "bootstrap", "--bootstrap-reps", "50")
        assert code == 0
        notes = [line for line in err.splitlines() if "ite entry" in line]
        assert notes == ["warning: the ite entry has no SE: the bootstrap "
                         "covers cite only"]
        doc = json.loads(out)["estimators"]
        assert sorted(doc["ite"]) == ["estimates", "labels"]
        assert doc["cite"]["se_method"] == "bootstrap (kappa only)"

    def test_weighting_without_h_is_unweighted(self, capsys, tmp_path):
        # K_h = 0: no kappa stage to weight, and no kappa SEs
        path = tmp_path / "no_h.csv"
        write_csv(random_panel(4, n=15, T=5, K_h=0), path)
        out_path = tmp_path / "est.json"
        code, out, err = run(capsys, "estimate", "--input", str(path),
                             "--estimator", "cite", "--weight-mode", "inv_se",
                             "--output", str(out_path))
        assert (code, out, err) == (0, "", "")
        got = json.loads(out_path.read_text())["estimators"]["cite"]
        back = load_csv(str(path))
        dr = build_regressors(back).cite
        want = cite_theta_se(dr)
        assert got["weight_mode"] == "none"
        assert got["labels"] == theta_tilde_labels(back.columns)
        assert got["se"] == want.se.tolist() and len(got["se"]) == back.dims.n_psi


class TestSignCheck:
    """Under --add-intercept-h the sign check compares kappa[h1], the
    first interaction coefficient, not kappa[h_const]."""

    def estimate(self, capsys, tmp_path, H):
        # y = delta_i x exactly, so CITE fits delta_i on H unweighted and
        # ITE weights unit i by sum_t x_it^2 (large for units 0, 3, 4, 7)
        delta = np.array([2.0, 3.0, 4.0, 1.8] * 2)
        scale = np.array([10.0, 1.0, 1.0, 10.0, 9.0, 1.5, 1.0, 11.0])
        X = (scale[:, None] * [1.0, 2.0, -1.0, 0.5]
             + np.arange(8)[:, None] * [0.0, 0.1, 0.0, -0.2])[:, :, None]
        path, out = tmp_path / "panel.csv", tmp_path / "est.json"
        write_csv(make_dataset(delta[:, None] * X[:, :, 0], X, H=H), path)
        code, _, err = run(capsys, "estimate", "--input", str(path),
                           "--add-intercept-h", "--output", str(out))
        assert code == 0
        return json.loads(out.read_text()), err

    def test_compares_the_first_column_after_h_const(self, capsys, tmp_path):
        h1 = np.array([[0.0], [1.0], [2.0], [3.0]] * 2)
        doc, err = self.estimate(capsys, tmp_path, h1)
        cite, ite_ = (doc["estimators"][e]["estimates"][:2]
                      for e in ("cite", "ite"))
        assert doc["estimators"]["cite"]["labels"][:2] == ["kappa[h_const]",
                                                           "kappa[h1]"]
        assert cite[0] > 0 and ite_[0] > 0   # the constants agree
        assert cite[1] > 0 > ite_[1]         # the interactions do not
        assert doc["sign_disagreement"] is True
        assert "first interaction coefficient, kappa[h1] (cite" in err

    def test_h_const_alone_writes_no_sign_check(self, capsys, tmp_path):
        doc, err = self.estimate(capsys, tmp_path, None)
        assert "sign_disagreement" not in doc
        assert "kappa[h_const]" in err  # the side-by-side table stays
        assert "warning" not in err


class TestBuildsOnce:
    @pytest.fixture
    def builds(self, monkeypatch):
        # count block builds (data._blocks, which validate and
        # build_regressors both call) under every interpanel alias
        from interpanel import data
        original = data._blocks
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

    @pytest.mark.parametrize("K_x", [1, 2])
    @pytest.mark.parametrize("command", ["estimate", "validate"])
    def test_each_unit_design_is_factored_once(self, tmp_path, capsys,
                                               factored, command, K_x):
        # unit 5 fails and is dropped: the kept units' blocks read rows of
        # the one QR of X and of X_{i,-1} (none at K_x = 1), and no Gram
        # determinant is formed
        ds = random_panel(3, n=12, K_x=K_x)
        X = ds.X.copy()
        X[4] = 0.0
        path = tmp_path / "panel.csv"
        write_csv(make_dataset(ds.Y, X, ds.G, ds.Z, ds.H), path)
        code, _, _ = run(capsys, command, "--input", str(path),
                         "--output", str(tmp_path / "out.json"))
        assert code == (0 if command == "estimate" else 1)
        designs = [(12, 6, K_x)] + ([(12, 6, K_x - 1)] if K_x > 1 else [])
        assert factored == {"qr": designs, "det": []}


class TestDropsUnits:
    @staticmethod
    def estimate(tmp_path, capsys, X, *extra):
        rng = np.random.default_rng(15)
        ds = make_dataset(rng.normal(size=X.shape[:2]), X)
        path = tmp_path / "panel.csv"
        write_csv(ds, path)
        code, out, err = run(capsys, "estimate", "--input", str(path), *extra)
        return code, json.loads(out), err

    def test_constant_x_unit_is_dropped_with_one_warning(self, tmp_path,
                                                         capsys):
        # x2 is an intercept, and unit 3's x1 is constant: X_i has rank 1
        X = np.random.default_rng(16).normal(size=(7, 5, 2))
        X[:, :, 1] = 1.0
        X[2, :, 0] = 4.0
        code, doc, err = self.estimate(tmp_path, capsys, X)
        assert code == 0
        assert err == ("warning: dropped 1 units failing the per-unit "
                       "variation check: [3]\n")
        assert doc["dropped_units"] == [3]
        assert doc["n_units"] == 6

    def test_unit_the_solver_cannot_factor_is_dropped_at_any_h_min(
            self, tmp_path, capsys):
        # the fifth unit (label 5) has collinear x columns; --h-min -1
        # passes it through the trim, and the rank rule drops it
        X = np.random.default_rng(15).normal(size=(6, 5, 2))
        X[4, :, 1] = 2.0 * X[4, :, 0]
        code, doc, err = self.estimate(tmp_path, capsys, X, "--h-min", "-1")
        assert code == 0
        assert err == ("warning: dropped 1 units failing the per-unit "
                       "variation check: [5]\n")
        assert doc["dropped_units"] == [5]
        assert doc["n_units"] == 5
        assert doc["validation"]["failing_units_x"] == [5]


class TestValidate:
    def test_too_few_units_left_names_failing_units(self, tmp_path, capsys):
        # every unit but one fails; the error calls them failing units, as
        # the drop warning does, not rank deficient
        X = np.random.default_rng(17).normal(size=(4, 5, 2))
        X[1:] = [2.0, 1.0]  # two constant columns
        ds = make_dataset(np.zeros((4, 5)), X)
        path = tmp_path / "panel.csv"
        write_csv(ds, path)
        code, out, err = run(capsys, "estimate", "--input", str(path))
        assert code == 1 and out == ""
        assert err == ("error: fewer than 2 units remain after dropping 3 "
                       "failing units\n")

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

    def test_too_few_rows_for_psi_fail_a_check(self, tmp_path, capsys):
        # nT = 6 rows against the 6 columns of Psi: the panel loads,
        # validate reports the failing check, and the fit names its stage
        rng = np.random.default_rng(18)
        ds = make_dataset(rng.normal(size=(3, 2)), rng.normal(size=(3, 2, 1)),
                          Z=rng.normal(size=(3, 2, 6)))
        path = tmp_path / "panel.csv"
        write_csv(ds, path)
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["checks"]["pooled_psi_rank"] is False
        assert doc["pooled_margins"]["psi_m_psi"] < 1e-20
        code, out, err = run(capsys, "estimate", "--input", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: CITE pooled stage: design is "
                              "numerically rank deficient (gram condition ~ ")

    @pytest.mark.parametrize("block", ["x", "g", "z", "h"])
    def test_outcome_as_a_regressor_is_an_error(self, sim_csv, capsys, block):
        path, _ = sim_csv
        code, out, err = run(capsys, "validate", "--input", path,
                             "--schema", f"{block}=y")
        assert (code, out) == (1, "")
        assert err == f"error: column 'y' is both y and one of the " \
                      f"{block} columns\n"


PINNED_COMMANDS = {
    "cluster": ("estimate", "--se", "cluster"),
    "ite_cluster": ("estimate", "--estimator", "ite", "--se", "cluster"),
    "cite_bootstrap_inv_se": ("estimate", "--estimator", "cite", "--se",
                              "bootstrap", "--weight-mode", "inv_se",
                              "--bootstrap-reps", "60", "--seed", "4"),
    "inv_var_intercept": ("estimate", "--se", "cluster", "--weight-mode",
                          "inv_var", "--add-intercept-h"),
    "validate": ("validate",),
}

# sha256 over the sha256 of the exit code, stdout, stderr and --output file
# of each command, on the panel that `simulate --n 60 --seed 3` writes from
# a packaged config. The pins hold for this build (numpy 2.4, OpenBLAS), as
# the simulate pins do: another BLAS may move the last bits of a float.
PINNED_SHA = {
    ("baseline", "cluster"):
        "109db85955964744a34c4259f4c8c0aacac9d6435d22ecb26ecd5965cc2d6654",
    ("baseline", "ite_cluster"):
        "d0f17b25b3473033ee054862522a2ee70526363ac433a37ca794dd6da295da54",
    ("baseline", "cite_bootstrap_inv_se"):
        "ac36d62ff545c0f65dd7a6c8e12f440bb9674a699ad2393d31eff1a92b8a0412",
    ("baseline", "inv_var_intercept"):
        "0d8153b644d9840150726620156592cecd73385e7e1a269b0772352c01365ccd",
    ("baseline", "validate"):
        "26eddbda60cb415d7bdda2826332de5694e06fbb5a6d6f79185f7692b59826b8",
    ("ite_gap", "cluster"):
        "9d1f04a6fc4a9dec1b3f4b980214f07ebcaa61f8a8421a5475ccf16cf50b3347",
    ("ite_gap", "ite_cluster"):
        "2c007a2a675858b48bd109b26e72b5a1adb9e5548ce04b6293eb6905ff5238ee",
    ("ite_gap", "cite_bootstrap_inv_se"):
        "a5d6760770e801fc358774b1705eeac0e5a38867408d6c0db0b15a5658515472",
    ("ite_gap", "inv_var_intercept"):
        "74951cab4002e0304bbbbcfbe0a5b24699d81b7292cf7b0207162d2f9e040a74",
    ("ite_gap", "validate"):
        "84ba71ddb71a67a97c5c9200dae243f4cad06a18aea2553c7257fc8bbda98ebf",
}


def small_dgp(name, **dims):
    cfg = packaged_config(name)
    return replace(cfg, dims=replace(cfg.dims, **dims)).to_dict()


# `mini_mc_config` fields of each pinned `mc --config exp.json --output
# mc.json` run: both omitted_variable contracts; the cite one alone, as two
# non-constant x columns leave the one-step limit undefined; the
# correlated_random_effects contracts; K_h = 0, so no simulated target; and
# a weighted cite-only run whose contract fails (exit 1)
MC_PINNED = {
    "omitted_variable": dict(dgp=small_dgp("ite_gap", n=50),
                             sample_sizes=[40, 80],
                             estimators=["cite", "ite"]),
    "omitted_variable_two_x": dict(dgp={
        "dims": {"n": 50, "T": 4, "K_x": 2, "K_g": 0, "K_z": 0, "K_h": 1},
        "kappa": [-0.75], "scenario": "omitted_variable",
        "hidden": {"kappa": 1.0, "corr": 0.6}}, estimators=["cite", "ite"]),
    "correlated_random_effects": dict(dgp=small_dgp("correlated_re", n=50),
                                      estimators=["cite", "ite"]),
    "no_h": dict(dgp={
        "dims": {"n": 50, "T": 4, "K_x": 2, "K_g": 1, "K_z": 1, "K_h": 0},
        "kappa": [], "phi": [[0.8], [0.3]], "gamma": [1.0],
        "x": {"constant_cols": [2]}}, estimators=["cite", "ite"]),
    "cite_inv_se_fails": dict(dgp=small_dgp("ite_gap", n=50),
                              sample_sizes=[400], weight_mode="inv_se"),
}

# sha256 over the sha256 of the exit code, stdout, stderr and --output file
# of each MC_PINNED run, on the same terms as PINNED_SHA
MC_PINNED_SHA = {
    "omitted_variable":
        "a6f339fb26c35f7a88ec2cda43c05c1f2e6fa7f96ef16a9452194903c94b7db3",
    "omitted_variable_two_x":
        "563a0f355d1c1632b1512ad15102590c78095151e229cfb281ed1a119828b581",
    "correlated_random_effects":
        "445919454d334aeafc2bec7d0a4ec15165155842c5f067bb96ce99129afa17c2",
    "no_h":
        "11a2975b2feef26c42cd882ce37c918280727229d9559e98a40e8146db738b37",
    "cite_inv_se_fails":
        "eb3d8d98d8a29511e457499ef8114ea4d32a32c38e92531b21eb1bb41d51d3b7",
}


class TestCommandBytes:
    @pytest.mark.parametrize("config, command", PINNED_SHA)
    def test_output_bytes_are_pinned(self, config, command, tmp_path,
                                     capsys):
        panel = tmp_path / "panel.csv"
        assert run(capsys, "simulate", "--config",
                   packaged_config_path(config), "--n", "60", "--seed", "3",
                   "--output", str(panel))[0] == 0
        out_json = tmp_path / "out.json"
        code, out, err = run(capsys, *PINNED_COMMANDS[command], "--input",
                             str(panel), "--output", str(out_json))
        digest = hashlib.sha256()
        for part in (str(code).encode(), out.encode(), err.encode(),
                     out_json.read_bytes()):
            digest.update(hashlib.sha256(part).digest())
        assert digest.hexdigest() == PINNED_SHA[config, command]

    @pytest.mark.parametrize("name", MC_PINNED_SHA)
    def test_mc_bytes_are_pinned(self, name, tmp_path, capsys):
        out_json = tmp_path / "mc.json"
        code, out, err = run(capsys, "mc", "--config", str(mini_mc_config(
            tmp_path, **MC_PINNED[name])), "--output", str(out_json))
        digest = hashlib.sha256()
        for part in (str(code).encode(), out.encode(), err.encode(),
                     out_json.read_bytes()):
            digest.update(hashlib.sha256(part).digest())
        assert digest.hexdigest() == MC_PINNED_SHA[name]


# (argv, option, the option it clashes with): the last path of argv names
# a file that the command also reads or writes, spelled by `spell`
SAME_FILE = {
    "simulate-truth-is-output": (lambda spell: [
        "simulate", "--config", "dgp.json", "--output", "P",
        "--truth", spell("P")], "truth", "output"),
    "simulate-output-is-config": (lambda spell: [
        "simulate", "--config", "dgp.json", "--output", spell("dgp.json")],
        "output", "config"),
    "simulate-truth-is-config": (lambda spell: [
        "simulate", "--config", "dgp.json", "--output", "sim.csv",
        "--truth", spell("dgp.json")], "truth", "config"),
    # the default sidecar, OUTPUT.truth.json
    "simulate-default-truth-is-config": (lambda spell: [
        "simulate", "--config", "sim.csv.truth.json",
        "--output", spell("sim.csv")], "truth", "config"),
    "mc-output-is-table": (lambda spell: [
        "mc", "--config", "exp.json", "--table", "P", "--output", spell("P")],
        "output", "table"),
    "mc-output-is-config": (lambda spell: [
        "mc", "--config", "exp.json", "--output", spell("exp.json")],
        "output", "config"),
    "mc-table-is-config": (lambda spell: [
        "mc", "--config", "exp.json", "--table", spell("exp.json")],
        "table", "config"),
    "estimate-output-is-input": (lambda spell: [
        "estimate", "--input", "panel.csv", "--output", spell("panel.csv")],
        "output", "input"),
    "validate-output-is-input": (lambda spell: [
        "validate", "--input", "panel.csv", "--output", spell("panel.csv")],
        "output", "input"),
}


class TestSameFile:
    @pytest.mark.parametrize("spell", [str, "./{}".format], ids=["P", "./P"])
    @pytest.mark.parametrize("argv, option, other", SAME_FILE.values(),
                             ids=SAME_FILE)
    def test_is_a_usage_error_that_touches_no_file(self, argv, option, other,
                                                   spell, sim_csv, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        mini_mc_config(tmp_path)
        config = Path(packaged_config_path("baseline")).read_text()
        for name in ("dgp.json", "sim.csv.truth.json"):
            (tmp_path / name).write_text(config)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        argv = argv(spell)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: argument --{option}: names the same file as " \
               f"--{other}: {argv[-1]}" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestSchema:
    NAMES = {"unit": "state", "time": "year", "y": "rate", "x1": "tax",
             "x2": "one", "g1": "unemp", "z1": "ctrl", "h1": "mormon",
             "h2": "south"}
    SCHEMA = ["--schema", "unit=state", "--schema", "time=year",
              "--schema", "y=rate", "--schema", "x=tax|one",
              "--schema", "g=unemp", "--schema", "z=ctrl",
              "--schema", "h=mormon|south"]

    def test_schema_reads_renamed_columns(self, sim_csv, capsys, tmp_path):
        path, _ = sim_csv
        header, body = open(path, encoding="utf-8").read().split("\n", 1)
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(",".join(self.NAMES[c] for c in header.split(","))
                           + "\n" + body)
        docs = []
        for sub in ("validate", "estimate"):
            outs = []
            for argv in (["--input", path],
                         ["--input", str(renamed), *self.SCHEMA]):
                out = tmp_path / f"{sub}{len(outs)}.json"
                assert run(capsys, sub, *argv, "--output", str(out))[0] == 0
                outs.append(out.read_text())
            docs.append(outs)
        assert docs[0][0] == docs[0][1]  # validate names no column
        want, got = (json.loads(text)["estimators"] for text in docs[1])
        for name in ("cite", "ite"):
            assert got[name]["estimates"] == want[name]["estimates"]
            assert got[name]["se"] == want[name]["se"]
            assert got[name]["labels"] == [
                re.sub(r"\w+", lambda m: self.NAMES.get(m.group(), m.group()),
                       label) for label in want[name]["labels"]]


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

    # sha256 of the CSV and of its truth sidecar at --seed 5, as written
    # when write_csv still formatted one cell per call.
    @pytest.mark.parametrize("name, n, csv_sha, truth_sha", [
        ("baseline", 50,
         "07c450bd581866b9d1ac89308b09d7f89e71865b26e44492bb64c80781837975",
         "899c3db1919cf578e15abfcfc4c6a09c97522d3eb8b0c16b9f52f4d75cfc9663"),
        ("ite_gap", 30,
         "23b6c95f1e9bdd710b0687c2c9a0f9810fc34e16358d4b7f131f1846cb7a21c0",
         "5708c44ba193578067cedb0778a2b3f9b21307c928910b28905ba46be01c1194"),
    ], ids=["baseline", "ite_gap"])
    def test_output_bytes_are_pinned(self, name, n, csv_sha, truth_sha,
                                     tmp_path, capsys):
        out_csv = tmp_path / "sim.csv"
        code, _, _ = run(capsys, "simulate", "--config",
                         packaged_config_path(name), "--n", str(n),
                         "--seed", "5", "--output", str(out_csv))
        assert code == 0
        sha = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (out_csv, tmp_path / "sim.csv.truth.json")]
        assert sha == [csv_sha, truth_sha]

    def test_sidecar_of_non_finite_truth_is_json_dumps(self, tmp_path, capsys,
                                                       monkeypatch):
        # NaN and +-inf take json.dumps (NaN/Infinity, not repr's nan/inf)
        def odd_truth(cfg):
            truth = simulate(cfg)
            delta = truth.delta.copy()
            delta[:2, 0] = [np.nan, -0.0]
            delta[2, :] = [np.inf, -np.inf]
            return replace(truth, delta=delta,
                           h_full=np.zeros((cfg.dims.n, 0)))

        monkeypatch.setattr(cli, "simulate", odd_truth)
        out_csv = tmp_path / "sim.csv"
        code, _, _ = run(capsys, "simulate", "--config",
                         packaged_config_path("baseline"), "--n", "6",
                         "--seed", "5", "--output", str(out_csv))
        assert code == 0
        cfg = packaged_config("baseline")
        cfg = replace(cfg, dims=replace(cfg.dims, n=6), seed=5)
        truth = odd_truth(cfg)
        want = json.dumps({
            "config": cfg.to_dict(),
            "delta": truth.delta.tolist(),
            "eps": truth.eps.tolist(),
            "h_full": truth.h_full.tolist(),
            "kappa_full": truth.kappa_full.tolist(),
        }, sort_keys=True, indent=2) + "\n"
        got = (tmp_path / "sim.csv.truth.json").read_text(encoding="utf-8")
        assert "NaN" in got and "-Infinity" in got and "-0.0" in got
        assert got == want

    def test_truth_in_a_missing_directory_leaves_no_csv(self, tmp_path,
                                                        capsys):
        out_csv = tmp_path / "sim.csv"
        sidecar = tmp_path / "missing" / "truth.json"
        code, out, err = run(capsys, "simulate", "--config",
                             packaged_config_path("baseline"), "--n", "30",
                             "--output", str(out_csv), "--truth", str(sidecar))
        assert code == 1
        assert out == ""
        assert err == (f"error: [Errno 2] No such file or directory: "
                       f"{str(sidecar)!r}\n")
        assert not out_csv.exists()

    def test_csv_in_a_missing_directory_leaves_no_sidecar(self, tmp_path,
                                                          capsys):
        out_csv = tmp_path / "missing" / "sim.csv"
        sidecar = tmp_path / "truth.json"
        code, out, err = run(capsys, "simulate", "--config",
                             packaged_config_path("baseline"), "--n", "30",
                             "--output", str(out_csv), "--truth", str(sidecar))
        assert code == 1
        assert out == ""
        assert err == (f"error: [Errno 2] No such file or directory: "
                       f"{str(out_csv)!r}\n")
        assert not sidecar.exists()

    def test_fewer_units_than_K_h_writes_nothing(self, tmp_path, capsys):
        cfg_path = tmp_path / "dgp.json"
        cfg_path.write_text(json.dumps(THREE_H_DGP))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path),
                             "--n", "2", "--output", str(tmp_path / "sim.csv"))
        assert (code, out, err) == (1, "", f"error: {K_H_ABOVE_2}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["dgp.json"]

    @pytest.mark.parametrize("flags", [False, True], ids=["as-is", "n-seed"])
    @pytest.mark.parametrize("name", DGP_CONFIGS)
    def test_sidecar_config_loads_back(self, name, flags, tmp_path, capsys):
        cfg = packaged_config(name)
        if flags:
            cfg = replace(cfg, dims=replace(cfg.dims, n=max(2, cfg.dims.K_h)),
                          seed=9)
        argv = ["--n", str(cfg.dims.n), "--seed", "9"] if flags else []
        out_csv = tmp_path / "sim.csv"
        code, _, _ = run(capsys, "simulate", "--config",
                         packaged_config_path(name), *argv,
                         "--output", str(out_csv))
        assert code == 0
        sidecar = json.loads((tmp_path / "sim.csv.truth.json").read_text())
        assert DgpConfig.from_dict(sidecar["config"]) == cfg

    @pytest.mark.parametrize("name, path, value", BAD_DGP_FIELDS)
    def test_bad_field_is_exit_1_naming_its_path(self, name, path, value,
                                                 tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dgp_json_with(name, path, value)))
        out_csv = tmp_path / "sim.csv"
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path),
                             "--output", str(out_csv))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: ")
        assert err.count("\n") == 1
        assert not out_csv.exists()

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 16.0 PiB for an array with shape "
         "(1125899906842624, 6, 2) and data type float64", None),
        ("", "out of memory")])
    def test_out_of_memory_is_exit_1(self, message, shown, tmp_path, capsys,
                                     monkeypatch):
        # a dims size under the cell bound can still exceed the machine
        def no_memory(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "simulate", no_memory)
        code, out, err = run(capsys, "simulate", "--config",
                             packaged_config_path("baseline"),
                             "--output", str(tmp_path / "sim.csv"))
        assert (code, out, err) == (1, "", f"error: {shown or message}\n")

    def test_top_level_not_an_object_is_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("[1]")
        out_csv = tmp_path / "sim.csv"
        code, out, err = run(capsys, "simulate", "--config", str(cfg_path),
                             "--output", str(out_csv))
        assert code == 1
        assert out == ""
        assert err == "error: top level: must be an object, got [1]\n"
        assert not out_csv.exists()


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

    @pytest.mark.parametrize("sub", ["estimate", "validate"])
    def test_long_row_is_exit_1_naming_row_and_counts(self, sub, tmp_path,
                                                      capsys):
        path = tmp_path / "long.csv"
        path.write_text("unit,time,y,x1\n1,1,1.0,2.0,99\n1,2,1.5,2.5\n"
                        "2,1,2.0,3.0\n2,2,3.0,4.5\n")
        code, out, err = run(capsys, sub, "--input", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: row 2 has 5 fields, more than the header's 4\n"


def without(key):
    return lambda raw: {k: v for k, v in raw.items() if k != key}


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

    def test_nothing_to_estimate_runs_with_no_contract(self, tmp_path,
                                                        capsys):
        # K_g = K_z = K_h = 0: no parameter, so no cite cell and no contract
        cfg_path = mini_mc_config(
            tmp_path, estimators=["cite", "ite"],
            dgp={"dims": {"n": 50, "T": 4, "K_x": 2, "K_g": 0, "K_z": 0,
                          "K_h": 0},
                 "kappa": [], "scenario": "baseline"})
        out_json = tmp_path / "mc.json"
        code, _, err = run(capsys, "mc", "--config", str(cfg_path),
                           "--output", str(out_json))
        assert (code, err) == (0, "")
        doc = json.loads(out_json.read_text())
        assert (doc["cells"], doc["contracts"]) == ([], [])

    def test_sample_size_below_K_h_fails_before_simulating(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        # each size is checked against the whole DGP, K_h <= n included
        from interpanel import harness

        def no_simulation(cfg):
            raise AssertionError("simulated before the sizes were checked")

        monkeypatch.setattr(harness, "simulate", no_simulation)
        cfg_path = mini_mc_config(tmp_path, dgp=THREE_H_DGP,
                                  sample_sizes=[2, 50])
        code, out, err = run(capsys, "mc", "--config", str(cfg_path),
                             "--output", str(tmp_path / "mc.json"),
                             "--table", str(tmp_path / "mc.txt"))
        assert (code, out, err) == (
            1, "", f"error: sample_sizes: {K_H_ABOVE_2}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.json"]

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
        assert err == ("error: weight_mode: unknown weight mode 'bogus'; "
                       "choose from ('none', 'inv_se', 'inv_var')\n")

    @pytest.mark.parametrize("edit, message", [
        (without("dgp"), "dgp: missing required field"),
        (without("sample_sizes"),
         "sample_sizes: missing required field"),
        (without("replications"),
         "replications: missing required field"),
        (lambda c: json_with(c, "replication", 5),
         "replication: unknown field"),
        (lambda c: json_with(c, "oracle.block", 4),
         "oracle.block: unknown field"),
        (lambda c: json_with(c, "oracle.blocks", 1),
         "oracle.blocks: need at least 2 oracle blocks"),
        (lambda c: json_with(c, "oracle", [2000, 2]),
         "oracle: must be an object, got [2000, 2]"),
    ] + [(lambda c, path=path, value=value: json_with(c, path, value), message)
         for path, value, message in BAD_MC_FIELDS],
        ids=["no-dgp", "no-sample-sizes", "no-replications", "unknown-key",
             "unknown-oracle-key", "one-oracle-block", "oracle-not-object"]
        + [f"{path or 'top'}={json.dumps(value, separators=(',', ':'))}"
           for path, value, _ in BAD_MC_FIELDS])
    def test_bad_keys_fail_before_simulating(self, edit, message, tmp_path,
                                             capsys, monkeypatch):
        from interpanel import harness

        def no_simulation(cfg):
            raise AssertionError("simulated before the config was checked")

        monkeypatch.setattr(harness, "simulate", no_simulation)
        cfg_path = mini_mc_config(tmp_path)
        cfg = edit(json.loads(cfg_path.read_text()))
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "mc", "--config", str(cfg_path))
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


def degenerate_bootstrap(tmp_path):
    # the panel of test_degenerate_resample_cap: K_h == n, so only a
    # permutation of the units fits and the redraw cap is passed
    rng = np.random.default_rng(14)
    Y, X, H = (rng.normal(size=shape) for shape in ((5, 5), (5, 5, 1), (5, 5)))
    write_csv(make_dataset(Y, X, H=H), tmp_path / "panel.csv")
    return ["estimate", "--input", str(tmp_path / "panel.csv"),
            "--estimator", "cite", "--se", "bootstrap",
            "--bootstrap-reps", "50", "--seed", "3"]


def failing_replications(tmp_path):
    # both x columns constant: every replication is rank deficient
    cfg = {"dgp": {"dims": {"n": 50, "T": 4, "K_x": 2, "K_h": 1},
                   "kappa": [0.5], "x": {"constant_cols": [1, 2]}},
           "sample_sizes": [50], "replications": 5,
           "oracle": {"draws": 1000, "blocks": 2}}
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    return ["mc", "--config", str(tmp_path / "exp.json")]


def underdetermined_replications(tmp_path):
    # 2 rows against the 3 columns of PsiTilde: each fit is RankDeficient,
    # counted against the failure-rate limit like any other
    cfg = {"dgp": {"dims": {"n": 2, "T": 1, "K_x": 1, "K_z": 1, "K_h": 2},
                   "kappa": [0.5, 0.2]},
           "sample_sizes": [2], "replications": 3, "estimators": ["ite"],
           "oracle": {"draws": 1000, "blocks": 2}}
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    return ["mc", "--config", str(tmp_path / "exp.json")]


def exactly_identified(tmp_path):
    # ite_se stacks N = 2 rows on k = 2 columns: (N-1)/(N-k) is 1/0
    (tmp_path / "panel.csv").write_text(
        "unit,time,y,x1,h1,h2\n1,1,0.5,1.0,1.0,2.0\n2,1,0.7,2.0,3.0,1.0\n")
    return ["estimate", "--input", str(tmp_path / "panel.csv")]


def missing_input(tmp_path):
    return ["estimate", "--input", str(tmp_path / "missing.csv")]


def too_few_units_for_kappa(tmp_path):
    # 2 units for K_h = 3 kappas: the kappa stage names itself
    write_csv(random_panel(25, n=2, T=3, K_x=1, K_g=0, K_z=0, K_h=3),
              tmp_path / "panel.csv")
    return ["estimate", "--input", str(tmp_path / "panel.csv"),
            "--estimator", "cite"]


def oracle_blocks_below_K_h(tmp_path):
    # oracle blocks of 4 // 2 = 2 units for K_h = 3 kappas: the block's
    # config fails the dims checks before anything of it is drawn
    cfg = {"dgp": THREE_H_DGP, "sample_sizes": [50], "replications": 2,
           "estimators": ["cite"], "oracle": {"draws": 4, "blocks": 2}}
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    return ["mc", "--config", str(tmp_path / "exp.json")]


def negative_seed(tmp_path):
    write_csv(random_panel(26, n=20, K_h=1), tmp_path / "panel.csv")
    return ["estimate", "--input", str(tmp_path / "panel.csv"),
            "--estimator", "cite", "--se", "bootstrap", "--seed", "-1"]


class TestUsage:
    @pytest.mark.parametrize("argv, message", [
        (degenerate_bootstrap, "exceeded 500 redraws"),
        (failing_replications, "estimator 'cite' failed 5/5 replications"),
        (underdetermined_replications,
         "estimator 'ite' failed 3/3 replications at n=2 (limit 1%)"),
        (exactly_identified, "the small-sample factor (N-1)/(N-k) needs more "
                             "rows than columns, got N = 2, k = 2"),
        (missing_input, "[Errno 2] No such file or directory"),
        (too_few_units_for_kappa, "CITE kappa stage: underdetermined "
                                  "system: 2 rows < 3 columns"),
        (oracle_blocks_below_K_h, K_H_ABOVE_2),
        (negative_seed, "seed must be >= 0, got -1"),
    ], ids=["degenerate-bootstrap", "mc-failure-rate", "mc-underdetermined",
            "cluster-N-equals-k", "missing-input", "n-below-K_h",
            "mc-oracle-below-K_h", "negative-seed"])
    def test_failure_is_one_error_line(self, argv, message, tmp_path,
                                       capsys):
        code, out, err = run(capsys, *argv(tmp_path))
        assert code == 1
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith(f"error: {message}")
        assert "Traceback" not in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--nope"])
        assert err.value.code == 2

    @pytest.mark.parametrize("sub", ["estimate", "validate"])
    @pytest.mark.parametrize("value", ["nan", "-NaN"])
    def test_nan_h_min_is_a_usage_error(self, sub, value, sim_csv, capsys):
        # NaN fails every unit and is no JSON value: argparse refuses it
        path, _ = sim_csv
        with pytest.raises(SystemExit) as err:
            main([sub, "--input", path, f"--h-min={value}"])
        assert err.value.code == 2
        assert f"argument --h-min: '{value}' is not a number" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["estimate", "validate"])
    @pytest.mark.parametrize("value, want", [
        ("-1e-3", -1e-3), ("-1E-3", -1e-3), ("-.5", -0.5),
        ("-inf", -np.inf), ("-Infinity", -np.inf)])
    def test_negative_h_min_is_a_value(self, sub, value, want):
        # exponents and -inf are values too, not option names
        args = cli.build_parser().parse_args(
            [sub, "--input", "p.csv", "--h-min", value])
        assert args.h_min == want

    @pytest.mark.parametrize("value", ["-nan", "-NaN"])
    def test_negative_nan_h_min_is_still_a_usage_error(self, value, sim_csv,
                                                       capsys):
        path, _ = sim_csv
        with pytest.raises(SystemExit) as err:
            main(["validate", "--input", path, "--h-min", value])
        assert err.value.code == 2
        assert "argument --h-min: expected one argument" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("rows, line", [
        (["unit,time,y,x1," + "h" * 200_000, "1,1,0.5,1,2"], 1),
        (["unit,time,y,x1", "1,1,0.5,1", "1,2,0.7,2",
          "u" * 200_000 + ",1,0.1,3", "u" * 200_000 + ",2,0.2"], 4),
    ], ids=["header", "label-and-short-row"])
    def test_field_past_the_csv_limit_is_one_error_line(self, rows, line,
                                                        tmp_path, capsys):
        # a field over csv.field_size_limit() (131072) in the header, or
        # in a record when csv.reader reads the file again (here because
        # the short row fails the loadtxt pass)
        path = tmp_path / "big.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", "--input", str(path))
        assert code == 1 and out == ""
        assert err == (f"error: line {line}: field larger than field limit "
                       "(131072)\n")

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

    @pytest.mark.parametrize("sub", ["estimate", "validate"])
    def test_panel_flags_are_described(self, sub, capsys):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--add-intercept-h put a constant column h_const" in out
        assert "a unit fails unless the solver can factor X" in out

    def test_readme_examples_parse(self):
        # every `interpanel ...` line of README's "Command line" block, with
        # its `\` continuations joined, parses with today's flags
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        block = readme.split("## Command line", 1)[1]
        block = block.split("```bash\n", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("interpanel ")]
        assert len(commands) == 6
        for line in commands:
            args = cli.build_parser().parse_args(shlex.split(line)[1:])
            assert args.command == shlex.split(line)[1]

    def test_missing_input_file_exits_1(self, capsys):
        code, _, err = run(capsys, "estimate", "--input", "/nope/missing.csv")
        assert code == 1
        assert "error" in err
