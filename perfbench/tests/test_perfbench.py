"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from interpanel import cli  # noqa: E402
from interpanel.dgp import load_dgp_config, simulate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--smoke", "--seed", "5",
           "--seconds", "0.3", *extra]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return out


def last_json(out):
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric(trace, key):
    out = run_bench("--workload", "all", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    res = last_json(out)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    for w in (x["name"] for x in BENCH["workloads"]):
        got = {k[len(w) + 1:]: m["unit"] for k, m in res["metrics"].items()
               if k.startswith(w + ".")}
        assert got == want, w
        assert f"{w:<20} error_rate" in out.stdout
    if trace == 0:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = run_bench("--workload", "estimate_csv", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_alias_check_finds_cross_module_aliases():
    originals = [getattr(sys.modules[f"interpanel.{f.split('.')[0]}"], f.split(".")[1])
                 for f in tracer.FUNCTIONS]
    found = tracer.unwrapped_aliases(originals)
    for alias in ("interpanel.data.residual_makers", "interpanel.estimators.solve_ols",
                  "interpanel.harness._fit_ite", "interpanel.linalg.residual_makers"):
        assert alias in found


@pytest.fixture
def panel_csv(tmp_path):
    panel = inputs.baseline_panel(7, 30, 6)
    path = tmp_path / "panel.csv"
    inputs.write_panel_csv(panel, path)
    return panel, path


def _perturb(value):
    return value * (1 + 1e-8) + 1e-9


def test_estimate_check_rejects_perturbed(panel_csv, tmp_path):
    panel, path = panel_csv
    out = tmp_path / "o.json"
    assert cli.main(["estimate", "--input", str(path), "--add-intercept-h",
                     "--output", str(out)]) == 0
    doc, st = json.loads(out.read_text()), reference.unit_stats(panel)
    assert reference.check_estimate(doc, st) == []
    for block, field in (("cite", "estimates"), ("ite", "estimates")):
        bad = json.loads(out.read_text())
        bad["estimators"][block][field][1] = _perturb(bad["estimators"][block][field][1])
        assert reference.check_estimate(bad, st)
    bad = json.loads(out.read_text())
    bad["estimators"]["cite"]["delta_hat"][3][0] += 1e-8
    assert reference.check_estimate(bad, st)
    bad = json.loads(out.read_text())
    bad["estimators"]["ite"]["se"][0] = float("nan")
    assert reference.check_estimate(bad, st)


def test_bootstrap_check_rejects_perturbed(panel_csv, tmp_path):
    panel, path = panel_csv
    out = tmp_path / "o.json"
    assert cli.main(["estimate", "--input", str(path), "--add-intercept-h",
                     "--estimator", "cite", "--se", "bootstrap",
                     "--bootstrap-reps", "50", "--weight-mode", "inv_se",
                     "--seed", "9", "--output", str(out)]) == 0
    doc, st = json.loads(out.read_text()), reference.unit_stats(panel)
    se = reference.bootstrap_kappa_se(st, 9, 50, "inv_se")
    assert reference.check_bootstrap(doc, st, se, "inv_se") == []
    other_seed = reference.bootstrap_kappa_se(st, 10, 50, "inv_se")
    assert reference.check_bootstrap(doc, st, other_seed, "inv_se")
    doc["estimators"]["cite"]["se"][0] = _perturb(doc["estimators"]["cite"]["se"][0])
    assert reference.check_bootstrap(doc, st, se, "inv_se")


def test_simulate_check_rejects_perturbed(tmp_path):
    cfg_path = inputs.frozen_config("baseline.json", 4, tmp_path)
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--output", str(out)]) == 0
    sim = simulate(load_dgp_config(cfg_path))
    truth = json.loads((tmp_path / "sim.csv.truth.json").read_text())
    assert reference.check_simulate(out, truth, sim) == []
    lines = out.read_text().splitlines()
    fields = lines[5].split(",")

    fields[2] = "%.17g" % np.nextafter(float(fields[2]), np.inf)  # one ulp off
    out.write_text("\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n")
    assert reference.check_simulate(out, truth, sim)

    fields = lines[5].split(",")
    fields[3] = fields[3] + "0" if "e" not in fields[3] else fields[3]  # same value, other text
    out.write_text("\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n")
    errs = reference.check_simulate(out, truth, sim)
    assert errs and all("round-trip" in e for e in errs)

    out.write_text("\n".join(lines) + "\n")
    truth["eps"][0] = _perturb(truth["eps"][0])
    assert reference.check_simulate(out, truth, sim)


def test_mc_check_rejects_perturbed():
    raw = {"estimators": ["cite", "ite"], "sample_sizes": [10, 20]}
    cell = {"mean": 0.1, "sd": 0.2, "rmse": 0.3, "mc_se": 0.01}
    good = {
        "parameters": ["kappa[h1]"],
        "contracts": [{"name": "c", "passed": True, "detail": ""}],
        "failures": {"cite:10": 0, "ite:10": 0, "cite:20": 0, "ite:20": 0},
        "cells": [dict(cell, estimator=e, n=n, parameter="kappa[h1]")
                  for e in raw["estimators"] for n in raw["sample_sizes"]],
    }
    assert reference.check_mc(good, raw) == []
    for mutate in (lambda d: d["contracts"][0].update(passed=False),
                   lambda d: d["failures"].update({"ite:20": 1}),
                   lambda d: d["cells"].pop(),
                   lambda d: d["cells"][0].update(sd=float("nan")),
                   lambda d: d.update(contracts=[])):
        bad = json.loads(json.dumps(good))
        mutate(bad)
        assert reference.check_mc(bad, raw)


def _metrics(workload, trace, sleep=None):
    """Reported metrics, plus the raw median wall time as `raw_wall_s`."""
    extra = ["--inject-sleep", f"data.load_csv={sleep}"] if sleep else []
    out = run_bench("--workload", workload, "--trace", str(trace), *extra)
    assert out.returncode == 0, out.stderr
    metrics = {k: m["value"] for k, m in last_json(out)["metrics"].items()}
    record = json.loads((BENCH_DIR / ".work" / workload / "run.json").read_text())
    metrics["raw_wall_s"] = statistics.median(w for w, _ in record["wall_samples"])
    return metrics


def test_sleep_in_load_csv_moves_only_the_csv_workload():
    sleep = 0.4
    base = _metrics("estimate_csv", 0)
    slow = _metrics("estimate_csv", 0, sleep)
    assert slow["raw_wall_s"] - base["raw_wall_s"] == pytest.approx(sleep, abs=0.15)
    assert slow["wall_s"] - base["wall_s"] > sleep / 4
    traced = _metrics("estimate_csv", 1, sleep)
    assert traced["data.load_csv.self_s"] >= sleep
    mc_base = _metrics("mc_ite_gap", 0)
    mc_slow = _metrics("mc_ite_gap", 0, sleep)
    assert abs(mc_slow["raw_wall_s"] - mc_base["raw_wall_s"]) < sleep / 2
    assert abs(mc_slow["wall_s"] - mc_base["wall_s"]) < sleep / 2
    assert _metrics("mc_ite_gap", 1, sleep)["data.load_csv.calls"] == 0
