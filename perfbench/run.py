"""Benchmark of the interpanel CLI: four workloads, each in fresh processes.

    python3 perfbench/run.py --workload estimate_csv --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # every workload

Run from the repository root. Inputs are made from --seed. Each run
calls `cli.main(argv)` in a new child process, closed loop, for
--seconds seconds, checking every output. With each invocation it times
one set-up (fresh interpreter to `import interpanel.cli` plus
`build_parser()`) and, before and after, a fixed calibration kernel, all
pinned to one CPU. Times are reported in
reference seconds: each raw time is scaled by CAL_REF_S over the kernel
time measured next to it, so that the host's speed drift cancels. --trace
1 adds one traced invocation and reports the per-layer metrics instead.
The last stdout line is the result JSON; the exit code is non-zero when
an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WORKLOADS = ("estimate_csv", "simulate_csv", "estimate_bootstrap", "mc_ite_gap")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

SIZES = {
    "full": {
        "estimate_csv": {"n": 1000, "T": 50},
        "simulate_csv": {"n": 6000},
        "estimate_bootstrap": {"n": 300, "T": 6, "reps": 200},
        "mc_ite_gap": {},
    },
    "smoke": {
        "estimate_csv": {"n": 40, "T": 8},
        "simulate_csv": {"n": 60},
        "estimate_bootstrap": {"n": 40, "T": 6, "reps": 50},
        "mc_ite_gap": {"replications": 30, "sample_sizes": [200, 400],
                       "oracle": {"draws": 20000, "blocks": 10}},
    },
}
SETUP_STARTS = 15
# The calibration kernel takes this long on the reference machine.
CAL_REF_S = 0.012
CAL_MATRIX = np.eye(6) * 6.0 + np.arange(36.0).reshape(6, 6) / 36.0
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 60


@dataclass
class Job:
    """One workload ready to run: CLI argv, the files it writes, its check.

    check(rc) returns (failure messages, extra attempted, extra failed);
    the extras count operations inside one invocation, such as Monte
    Carlo replication fits.
    """

    argv: list
    outputs: list
    json_outputs: list
    check: Callable
    state: dict = field(default_factory=dict)


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rc_errors(rc):
    return [] if rc == 0 else [f"exit code {rc}"]


def job_estimate_csv(work, seed, size):
    panel = inputs.baseline_panel(seed, size["n"], size["T"])
    csv_path, out = work / "panel.csv", work / "estimate.json"
    inputs.write_panel_csv(panel, csv_path)
    st = reference.unit_stats(panel)

    def check(rc):
        return _rc_errors(rc) or reference.check_estimate(_load(out), st), 0, 0

    argv = ["estimate", "--input", str(csv_path), "--add-intercept-h",
            "--output", str(out)]
    return Job(argv, [out], [out], check)


def job_estimate_bootstrap(work, seed, size):
    panel = inputs.baseline_panel(seed, size["n"], size["T"])
    csv_path, out = work / "panel.csv", work / "bootstrap.json"
    inputs.write_panel_csv(panel, csv_path)
    st = reference.unit_stats(panel)
    se = reference.bootstrap_kappa_se(st, seed, size["reps"], "inv_se")

    def check(rc):
        if rc != 0:
            return _rc_errors(rc), 0, 0
        return reference.check_bootstrap(_load(out), st, se, "inv_se"), 0, 0

    argv = ["estimate", "--input", str(csv_path), "--add-intercept-h",
            "--estimator", "cite", "--se", "bootstrap",
            "--bootstrap-reps", str(size["reps"]), "--weight-mode", "inv_se",
            "--seed", str(seed), "--output", str(out)]
    return Job(argv, [out], [out], check)


def job_simulate_csv(work, seed, size):
    cfg_path = inputs.frozen_config("baseline.json", seed, work)
    out = work / "sim.csv"
    truth = work / "sim.csv.truth.json"
    job = Job(["simulate", "--config", str(cfg_path), "--n", str(size["n"]),
               "--seed", str(seed), "--output", str(out)],
              [out, truth], [truth], None)

    def check(rc):
        if rc != 0:
            return _rc_errors(rc), 0, 0
        digest = reference.file_digest(out, truth)
        if digest == job.state.get("verified"):
            return [], 0, 0
        # dgp.simulate is the specification of this output; computed only
        # here, after the timed call, in this process.
        sys.path.insert(0, str(SRC))
        from interpanel.dgp import load_dgp_config, simulate
        cfg = load_dgp_config(cfg_path)
        cfg = replace(cfg, dims=replace(cfg.dims, n=size["n"]), seed=seed)
        errs = reference.check_simulate(out, _load(truth), simulate(cfg))
        if not errs:
            job.state["verified"] = digest
        return errs, 0, 0

    job.check = check
    return job


def job_mc_ite_gap(work, seed, size):
    cfg_path = inputs.frozen_config("mc_ite_gap.json", seed, work)
    raw = _load(cfg_path)
    if size:
        raw.update(size)
        cfg_path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    out, table = work / "mc.json", work / "mc.txt"
    fits = raw["replications"] * len(raw["sample_sizes"]) * len(raw["estimators"])

    def check(rc):
        if not out.exists():
            return _rc_errors(rc) + ["no report written"], fits, fits
        doc = _load(out)
        errs = reference.check_mc(doc, raw)
        if rc != 0 and not errs:
            errs = _rc_errors(rc)
        return errs, fits, sum(doc["failures"].values())

    argv = ["mc", "--config", str(cfg_path), "--output", str(out),
            "--table", str(table)]
    return Job(argv, [out, table], [out], check)


JOBS = {"estimate_csv": job_estimate_csv, "simulate_csv": job_simulate_csv,
        "estimate_bootstrap": job_estimate_bootstrap, "mc_ite_gap": job_mc_ite_gap}


def calibrate():
    """Seconds a fixed kernel takes now, best of three: a pure-Python loop
    and small numpy solves, the interpreter and call-overhead work that
    dominates the workloads."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i
        for _ in range(400):
            np.linalg.solve(CAL_MATRIX, CAL_MATRIX[0])
        best = min(best, time.perf_counter() - t0)
    return best


def setup_once():
    """Seconds from spawning a fresh interpreter to a built parser."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, str(CHILD), "--setup", str(SRC)],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout) - t0


def invoke(job, work, trace, sleep):
    """Run cli.main(job.argv) in a child process; returns its result dict."""
    for p in job.outputs:
        Path(p).unlink(missing_ok=True)
    tag = "traced" if trace else "timed"
    result_path = work / f"{tag}.result.json"
    result_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "argv": job.argv, "trace": trace, "sleep": sleep,
            "json_outputs": [str(p) for p in job.json_outputs],
            "result": str(result_path), "spans": str(work / "spans.json")}
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / f"{tag}.stdout", "wb") as so, \
            open(work / f"{tag}.stderr", "wb") as se:
        try:
            proc = subprocess.run([sys.executable, str(CHILD), "--spec", str(spec_path)],
                                  stdout=so, stderr=se, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"rc": None, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        err = (work / f"{tag}.stderr").read_text(errors="replace")[-2000:]
        return {"rc": None, "error": f"child exited {proc.returncode}: {err}"}
    return _load(result_path)


def check_invocation(job, res):
    """Failure messages for one invocation, plus inner attempted/failed counts."""
    if res.get("error"):
        return [res["error"]], 0, 0
    try:
        return job.check(res["rc"])
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], 0, 0


def run_workload(name, seed, seconds, trace, smoke=False, sleep=None):
    """Set up, measure and check one workload; returns the result dict."""
    sleep = sleep or {}
    work = HERE / ".work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = JOBS[name](work, seed, SIZES["smoke" if smoke else "full"][name])

    setup_once()  # warms the file cache
    # setup_times and samples pair each measurement with its kernel time
    setup_times, samples, errors = [], [], []
    attempted = failed = 0

    def attempt(traced):
        nonlocal attempted, failed
        res = invoke(job, work, traced, sleep)
        errs, inner_attempted, inner_failed = check_invocation(job, res)
        attempted += 1 + inner_attempted
        failed += int(bool(errs)) + inner_failed
        errors.extend(f"traced: {e}" if traced else e for e in errs)
        return None if errs else res

    t_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_start
        if elapsed >= seconds and (len(samples) >= MIN_INVOCATIONS
                                   or elapsed >= 4 * seconds):
            break
        # the kernel runs before and after each invocation, and one set-up
        # start per invocation spreads the set-up samples over the run
        before = calibrate()
        res = attempt(False)
        after = calibrate()
        if res is not None:
            samples.append((res, (before + after) / 2))
        setup_times.append((setup_once(), after))
    while len(setup_times) < SETUP_STARTS:
        setup_times.append((setup_once(), calibrate()))
    setup_s = reference_seconds(setup_times)
    walls = [(r["wall_s"], cal) for r, cal in samples]

    metrics = {}
    if samples and not trace:
        metrics = {
            "wall_s": reference_seconds(walls),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r, _ in samples),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    elif samples:
        res = attempt(True)
        if res is not None:
            layers = dict(res["layers"])
            layers["process.cpu_s"] = (res["cpu_s"], "s")
            untraced = statistics.median(w for w, _ in walls)
            layers["trace.overhead_s"] = (res["wall_s"] - untraced, "s")
            layers["untraced.wall_s"] = (untraced, "s")
            layers["untraced.setup_s"] = (statistics.median(t for t, _ in setup_times), "s")
            layers["machine.calib_s"] = (statistics.median(c for _, c in setup_times), "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}

    for p in work.glob("*.csv"):
        p.unlink()
    result = {"correct": not errors and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "setup_samples": setup_times,
              "wall_samples": walls,
              "errors": errors[:20], "env": environment(seed), **result}
    (work / "run.json").write_text(json.dumps(record, indent=2) + "\n",
                                   encoding="utf-8")
    return result, record


def reference_seconds(pairs):
    """Median over (raw seconds, kernel seconds) pairs of the raw time
    scaled to a machine on which the kernel takes CAL_REF_S."""
    return statistics.median(t * CAL_REF_S / cal for t, cal in pairs)


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _total_memory_mb():
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def environment(seed):
    """Machine and software record stored with each result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {
        "git_sha": _git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": threads or "library default",
        "nproc": os.cpu_count(), "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "memory_mb": _total_memory_mb(), "seed": seed,
    }


def _print_summary(name, result):
    rate = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    for key, m in result["metrics"].items():
        print(f"{name:<20} {key:<48} {m['value']:.6g} {m['unit']}")
    print(f"{name:<20} {'error_rate':<48} {rate:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--inject-sleep", action="append", default=[],
                    metavar="MODULE.FUNCTION=SECONDS",
                    help="sleep before every call of a package function "
                         "(sensitivity tests)")
    args = ap.parse_args(argv)
    if not (SRC / "interpanel" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sleep = {k: float(v) for k, v in (s.split("=") for s in args.inject_sleep)}
    # The host's CPUs speed up and slow down independently. On one CPU, the
    # kernel and the child it calibrates see the same speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), args.smoke, sleep)
        results[name] = result
        _print_summary(name, result)
        for err in record["errors"]:
            print(f"{name}: FAILED {err}", file=sys.stderr)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
