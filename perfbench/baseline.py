"""Measure run-to-run spread in two rounds and record the baseline.

    python3 perfbench/baseline.py

Runs `run.py` once per seed (1000 to 1009) for every workload in
BENCHMARK.json, with its run length, and then does the same again as a
second round. For each end-to-end metric and round it prints the median,
the quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, next to the metric's bound. WIDE marks a spread of a
third of the bound or more; DRIFT marks a second-round median worse than
the first by more than the bound. Then it makes one traced run per
workload and writes everything to perfbench/baseline.json. It takes
about forty minutes and exits non-zero if any run reports a wrong output.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1000, 1010))
ROUNDS = 2


def run_once(workload, seed, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]),
                              "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    return json.loads(lines[-1]), env


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main():
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    workloads = [w["name"] for w in BENCH["workloads"]]
    baseline = {"run_seconds": BENCH["run_seconds"], "seeds": SEEDS,
                "workloads": {w: {"rounds": []} for w in workloads}}
    ok = True
    for rnd in range(1, ROUNDS + 1):
        for w in workloads:
            values = {m: [] for m in bounds}
            samples = []
            for seed in SEEDS:
                res, _ = run_once(w, seed, 0)
                ok &= res["correct"]
                for m in bounds:
                    values[m].append(res["metrics"][m]["value"])
                run = json.loads((HERE / ".work" / w / "run.json").read_text())
                samples.append(run["wall_samples"])
            rounds = baseline["workloads"][w]["rounds"]
            entry = {"end_to_end": {}, "wall_samples": samples}
            for m, vals in values.items():
                s = spread(vals)
                s["bound"] = bounds[m]
                flags = "  WIDE" if s["spread"] >= bounds[m] / 3 else ""
                if rounds:
                    s["drift"] = s["median"] / rounds[0]["end_to_end"][m]["median"] - 1
                    flags += "  DRIFT" if s["drift"] > bounds[m] else ""
                entry["end_to_end"][m] = s
                drift = f"  drift {s['drift']:+.4f}" if rounds else ""
                print(f"round {rnd} {w:<20} {m:<12} median {s['median']:.5g}  "
                      f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.4f}"
                      f"{drift}  bound {bounds[m]}{flags}", flush=True)
            rounds.append(entry)
    for w in workloads:
        res, env = run_once(w, SEEDS[0], 1)
        ok &= res["correct"]
        baseline["workloads"][w]["per_layer"] = {k: m["value"]
                                                 for k, m in res["metrics"].items()}
        baseline["env"] = env
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
