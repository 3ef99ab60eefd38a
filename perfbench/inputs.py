"""Benchmark inputs made from the workload seed alone.

The panels are drawn here with numpy and written by this module's own
writer, so a change to the package's simulator or CSV writer can change
neither the inputs nor what it costs to make them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HEADER = ("unit", "time", "y", "x1", "x2", "g1", "z1", "h1", "h2")

# Shape and parameters of src/interpanel/configs/baseline.json: x2 is the
# constant column, H has two columns with means (1, 0).
KAPPA = np.array([0.6, -0.4])
PHI = np.array([0.8, 0.3])
GAMMA = 1.0


def baseline_panel(seed, n, T):
    """Draw a baseline-shape panel; returns a dict of Y, X, G, Z, H arrays."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))
    H = np.array([1.0, 0.0]) + rng.standard_normal((n, 2))
    delta = np.empty((n, 2))
    delta[:, 1] = 1.0 + 0.5 * rng.standard_normal(n)
    delta[:, 0] = H @ KAPPA + 0.3 * rng.standard_normal(n)
    X = rng.standard_normal((n, T, 2)) + 0.5 * delta[:, None, 1:2]
    X[:, :, 1] = 1.0
    G = rng.standard_normal((n, T, 1))
    Z = rng.standard_normal((n, T, 1))
    beta = delta[:, None, :] + G * PHI + 0.2 * rng.standard_normal((n, T, 2))
    Y = np.einsum("ntk,ntk->nt", X, beta) + GAMMA * Z[:, :, 0] \
        + 0.5 * rng.standard_normal((n, T))
    return {"Y": Y, "X": X, "G": G, "Z": Z, "H": H}


def write_panel_csv(panel, path):
    """Write a panel in the package's long CSV format, 17 significant digits."""
    n, T = panel["Y"].shape
    cols = np.concatenate([
        panel["Y"][:, :, None], panel["X"], panel["G"], panel["Z"],
        np.broadcast_to(panel["H"][:, None, :], (n, T, 2)),
    ], axis=2).reshape(n * T, -1)
    fmt = "%d,%d," + ",".join(["%.17g"] * cols.shape[1])
    units = np.repeat(np.arange(1, n + 1), T)
    times = np.tile(np.arange(1, T + 1), n)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(HEADER) + "\n")
        fh.write("\n".join(fmt % (u, t, *row) for u, t, row
                           in zip(units.tolist(), times.tolist(), cols.tolist())))
        fh.write("\n")


def read_panel_csv(path):
    """Parse a long CSV written in unit-major, time-minor order.

    Returns (header, unit labels, time labels, float block, raw float text);
    the float block is (rows, columns after `time`).
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        lines = fh.read().splitlines()
    fields = [line.split(",") for line in lines]
    units = [int(f[0]) for f in fields]
    times = [int(f[1]) for f in fields]
    text = [f[2:] for f in fields]
    values = np.array([[float(v) for v in row] for row in text])
    return header, units, times, values, text


def frozen_config(name, seed, out_dir):
    """Write the frozen copy of a package config with its seed set to `seed`."""
    raw = json.loads((Path(__file__).parent / "configs" / name).read_text())
    raw["seed"] = int(seed)
    if "dgp" in raw:
        raw["dgp"]["seed"] = int(seed)
    path = Path(out_dir) / name
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return path
