"""Shared helpers: random panel builders and brute-force oracles.

The oracles here are deliberately independent of the library internals:
explicit loops, explicit inverses, pooled dummy-variable designs.
"""

import contextlib
import json
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from interpanel import data
from interpanel.data import PanelDataError, load_csv, make_dataset
from interpanel.dgp import (ConfigInvalid, ScenarioUnsupported,
                           packaged_config_path)
from interpanel.estimators import (LengthMismatch, MissingWeights,
                                   ZeroDegreesOfFreedom)
from interpanel.harness import FailureRateExceeded
from interpanel.inference import DegenerateResample, TooFewClusters
from interpanel.linalg import RankDeficient

# The package's named errors: a fit, an SE or a command on any panel may
# fail only by one of these (`test_properties.py`'s fuzz test), and every
# exception class under src/ is one of them or a subclass
# (`test_package.py`).
NAMED_ERRORS = (PanelDataError, ConfigInvalid, ScenarioUnsupported,
                LengthMismatch, MissingWeights, ZeroDegreesOfFreedom,
                FailureRateExceeded, TooFewClusters, DegenerateResample,
                RankDeficient)

# The packaged baseline's dims with n = 2**62: index-sized, but the panel's
# n * T * (1 + K) values fit no float64 array.
BIG_DIMS = {"n": 2 ** 62, "T": 6, "K_x": 2, "K_g": 1, "K_z": 1, "K_h": 2}


def too_many_cells(n, T, K_x, K_g, K_z, K_h, path="dims"):
    cells = n * T * (1 + K_x + K_g + K_z + K_h)
    return (f"{path}: n * T * (1 + K_x + K_g + K_z + K_h) = {cells} values, "
            f"more than the {sys.maxsize // 8} that one float64 array can hold")


# Simulator configs with one bad field each: (packaged config, JSON path of
# the field, value). Loading any of them must raise ConfigInvalid at that
# path; each once crashed, named no path, or was accepted. The packaged
# config may be a (name, {path: value}) pair with other fields set first.
BAD_DGP_FIELDS = [
    ("baseline", "kappa", None),
    ("baseline", "x.fe_loading", "abc"),
    ("correlated_x", "x.eps_loading", None),
    ("baseline", "h", [1]),
    ("baseline", "noise.u_scale", "high"),
    ("ite_gap", "kappa", ["a"]),
    ("baseline", "seed", "abc"),
    ("baseline", "x.constant_cols", ["a"]),
    ("baseline", "delta.mean", [1.0, 2.0]),
    ("ite_gap", "kappa", [float("nan")]),
    ("ite_gap", "kappa", [float("inf")]),
    ("baseline", "x.mean", None),
    ("baseline", "noise.u_scale", float("nan")),
    ("baseline", "seed", 1.7),
    ("baseline", "dims.n", 50.9),
    ("baseline", "delta.scale", -1),
    ("baseline", "dims.m", 1),
    ("baseline", "dims.K_h", 1e300),
    ("baseline", "dims.n", 1e300),
    pytest.param(("baseline", {"dims.K_h": 1e300}), "dims.n", 1e300,
                 id="baseline+dims.K_h=1e+300-dims.n-1e+300"),
    pytest.param("baseline", "dims", BIG_DIMS, id="baseline-dims-n-2**62"),
    pytest.param("baseline", "dims", dict(BIG_DIMS, K_h=2 ** 62),
                 id="baseline-dims-n-K_h-2**62"),
]

TOO_BIG = f"must be at most {sys.maxsize} (an index-sized integer)"

# Monte Carlo configs with one bad field each: (JSON path of the field in
# the config, "" for the whole config; value; the error it must give). The
# paths inside "dgp" are the simulator's own. Each once crashed with a
# traceback, named no path, or was accepted.
BAD_MC_FIELDS = [
    ("sample_sizes", 500, "sample_sizes: must be a list, got 500"),
    ("dgp", 5, "dgp: must be an object, got 5"),
    ("oracle.draws", None, "oracle.draws: must be an integer, got None"),
    ("replications", 2.5, "replications: must be an integer, got 2.5"),
    ("sample_sizes", ["50", "100"],
     "sample_sizes: must be an integer, got '50'"),
    ("estimators", "cite", "estimators: must be a list, got 'cite'"),
    ("seed", -1, "seed: must be >= 0"),
    ("", [1], "top level: must be an object, got [1]"),
    ("estimators", ["cite", "CITE"],
     "estimators: each estimator at most once, got ['cite', 'CITE']"),
    ("dgp.dims.m", 1, "dims.m: unknown field"),
    ("dgp.dims", {"n": 50, "K_x": 2}, "dims.T: missing required field"),
    ("dgp.dims.K_h", 1e300,
     "dims.K_h: must be at most n = 50 (kappa is fitted on n unit slopes)"),
    ("dgp.dims.n", 1e300, f"dims.n: {TOO_BIG}"),
    ("dgp.dims", {"n": 1e300, "T": 6, "K_x": 2, "K_g": 1, "K_z": 1,
                  "K_h": 1e300}, f"dims.n: {TOO_BIG}"),
    ("dgp.dims.n", 2 ** 62, too_many_cells(**BIG_DIMS)),
    ("dgp.dims", dict(BIG_DIMS, K_h=2 ** 62),
     too_many_cells(**dict(BIG_DIMS, K_h=2 ** 62))),
    ("sample_sizes", [2 ** 62], too_many_cells(**BIG_DIMS, path="sample_sizes")),
]


def json_with(raw, path, value):
    """raw with the field at `path` set to value; value itself for ""."""
    if not path:
        return value
    *groups, key = path.split(".")
    section = raw
    for group in groups:
        section = section.setdefault(group, {})
    section[key] = value
    return raw


def dgp_json_with(name, path, value):
    """The JSON of a packaged simulator config with `path` set to value;
    name may be (config name, {path: value}) to set other fields first."""
    name, edits = (name, {}) if isinstance(name, str) else name
    with open(packaged_config_path(name), encoding="utf-8") as fh:
        raw = json.load(fh)
    for edit_path, edit_value in edits.items():
        json_with(raw, edit_path, edit_value)
    return json_with(raw, path, value)


def random_panel(seed, n=12, T=6, K_x=2, K_g=1, K_z=1, K_h=2,
                 constant_col=None):
    """A panel with arbitrary (model-free) Y; enough for projection
    identities like the dummy-variable equivalence, which hold for any Y."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, T, K_x))
    if constant_col is not None:
        X[:, :, constant_col] = 1.0
    G = rng.normal(size=(n, T, K_g))
    Z = rng.normal(size=(n, T, K_z))
    H = rng.normal(size=(n, K_h))
    Y = rng.normal(size=(n, T))
    return make_dataset(Y, X, G, Z, H)


def load_outcome(path, schema=None, fallback=False):
    """What load_csv(path, schema) gives, and whether the record reader
    (`_csv_columns`) read the file. The outcome is the panel's arrays (as
    bytes), labels and columns, or the error's type, message and `row`.
    With `fallback` the loadtxt pass is switched off. No warning may be
    issued."""
    off = (mock.patch.object(data, "_loadtxt_columns", return_value=None)
           if fallback else contextlib.nullcontext())
    spy = mock.patch.object(data, "_csv_columns", wraps=data._csv_columns)
    with warnings.catch_warnings(record=True) as issued, off, spy as by_records:
        warnings.simplefilter("always")
        try:
            ds = load_csv(path, schema)
        except Exception as exc:
            outcome = (type(exc), str(exc), getattr(exc, "row", None))
        else:
            outcome = (tuple(getattr(ds, name).tobytes()
                             for name in ("Y", "X", "G", "Z", "H")),
                       ds.dims, ds.unit_labels, ds.time_labels, ds.columns)
    assert [str(w.message) for w in issued] == []
    return outcome, by_records.called


def assert_same_bits(a, b):
    """a and b are the same array to the bit: dtype, shape and raw bytes.
    Unlike np.array_equal this tells -0.0 from 0.0 and one NaN payload
    from another."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, f"dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape, f"shape {a.shape} != {b.shape}"
    bytes_a = np.ascontiguousarray(a).view(np.uint8).reshape(a.size, a.itemsize)
    bytes_b = np.ascontiguousarray(b).view(np.uint8).reshape(b.size, b.itemsize)
    differ = np.flatnonzero((bytes_a != bytes_b).any(axis=1))
    assert differ.size == 0, (
        f"{differ.size} of {a.size} entries differ in their bits, first at "
        f"{tuple(int(i) for i in np.unravel_index(differ[0], a.shape))}: "
        f"{a.flat[differ[0]]!r} != {b.flat[differ[0]]!r}")


def kron_block_loops(X, G):
    """Element-by-element double loop over (k, g) pairs."""
    n, T, K_x = X.shape
    K_g = G.shape[2]
    out = np.zeros((n, T, K_x * K_g))
    for i in range(n):
        for t in range(T):
            col = 0
            for k in range(K_x):
                for g in range(K_g):
                    out[i, t, col] = X[i, t, k] * G[i, t, g]
                    col += 1
    return out


def dummy_variable_oracle(ds):
    """Pooled OLS of Y on {unit dummies x X columns} and the shared
    interaction/control columns; returns (theta, delta)."""
    n, T, K_x = ds.X.shape
    Psi = np.concatenate([kron_block_loops(ds.X, ds.G), ds.Z], axis=2)
    P = Psi.shape[2]
    D = np.zeros((n * T, n * K_x + P))
    for i in range(n):
        D[i * T:(i + 1) * T, i * K_x:(i + 1) * K_x] = ds.X[i]
    D[:, n * K_x:] = Psi.reshape(n * T, P)
    coef, _, _, _ = np.linalg.lstsq(D, ds.Y.reshape(-1), rcond=None)
    delta = coef[:n * K_x].reshape(n, K_x)
    theta = coef[n * K_x:]
    return theta, delta


def within_ols_oracle(ds):
    """Remark-style oracle for K_x=2 with a constant column, scalar H,
    no G/Z: OLS of demeaned Y on H * demeaned x1, computed with loops."""
    n, T, _ = ds.X.shape
    num = 0.0
    den = 0.0
    for i in range(n):
        x = ds.X[i, :, 0]
        y = ds.Y[i]
        xd = x - x.mean()
        yd = y - y.mean()
        h = ds.H[i, 0]
        num += float(np.sum(h * xd * yd))
        den += float(np.sum((h * xd) ** 2))
    return num / den


def exact_limits(cfg):
    """(kappa_tilde, ite_kappa1): the exact large-n limits that
    `plim_targets` simulates, CITE's kappa (a K_h-tuple) and ITE's first
    kappa,
    for a simulator config whose one non-constant x column is the first,
    with K_g = K_z = 0, under `baseline`, `correlated_random_effects` or
    `omitted_variable` (H of mean 0 there).

    The slopes are delta_i1 = H_i'kappa + c h_i + eps_i, with c =
    hidden.kappa and h_i the hidden column under omitted_variable (c = 0
    otherwise), and eps_i of mean 0, independent of H_i, h_i and x_i.

    CITE's limit is the projection of delta_i1 on H,
        kappa_tilde = E[HH']^{-1} E[H delta1] = kappa + c E[HH']^{-1} E[Hh].
    Under omitted_variable H_1 = s_1 z and h = rho z + sqrt(1 - rho^2) b,
    with z, b and the other H columns independent, mean 0, and z, b
    standard normal (s_j = h.scale of column j, rho = hidden.corr). So
    E[HH'] = diag(s_j^2) and E[Hh] = rho s_1 e_1, and
        kappa_tilde = kappa + (c rho / s_1) e_1.

    ITE regresses M_{i,-1} Y_i on x~_i H_i', where x~_i = M_{i,-1} x_i1 is
    x_i1 demeaned within the unit when a constant column is present, and
    x_i1 itself when not. Given the unit, x_it = mean + sd_i xi_it (plus
    x.fe_loading times the constant column's unit effect, which only a
    panel with a constant column gets, and the demeaning removes), with
    xi_it standard normal and sd_i^2 = x.scale^2 + a^2 h_i^2, where a =
    x.hidden_scale_slope under omitted_variable and 0 otherwise. So
        E[x~'x~ | unit] = (T - 1) sd_i^2   with a constant column,
                          T (mean^2 + sd_i^2)   without.
    With K_g = K_z = 0, x~_i'M_{i,-1} Y_i is x~_i'x~_i delta_i1 plus terms
    in V, U and the constant column's slope shocks, each of mean 0 given
    the unit, so ITE's limit is E[w HH']^{-1} E[w H delta1], where w is
    E[x~'x~ | unit] up to its factor T or T - 1: w = s^2 + a^2 h^2, s^2 =
    x.scale^2 (+ mean^2 without a constant column). Both limits are kappa
    when c = 0, whatever w. Otherwise Isserlis' theorem gives E[zh] = rho,
    E[z h^3] = 3 rho and E[z^2 h^2] = 1 + 2 rho^2; every odd moment is 0,
    so E[w HH'] is diagonal and E[w Hh] is along e_1:
        E[w H_1^2] = s_1^2 (s^2 + a^2 (1 + 2 rho^2)),
        E[w H_1 h] = s_1 rho (s^2 + 3 a^2),
        ite_kappa1 = kappa_1 + c rho (s^2 + 3 a^2)
                               / (s_1 (s^2 + a^2 (1 + 2 rho^2))).
    """
    d = cfg.dims
    constant = bool(cfg.x_constant_cols)
    assert d.K_g == d.K_z == 0 and 1 not in cfg.x_constant_cols
    assert d.K_x - len(cfg.x_constant_cols) == 1
    if cfg.scenario in ("baseline", "correlated_random_effects"):
        return cfg.kappa, cfg.kappa[0]
    assert cfg.scenario == "omitted_variable"
    assert np.all(np.asarray(cfg.h_mean) == 0.0)
    c, rho, a = cfg.hidden_kappa, cfg.hidden_corr, cfg.x_hidden_scale_slope
    s_1, mean, scale = (float(np.broadcast_to(v, (k,))[0]) for v, k in (
        (cfg.h_scale, d.K_h), (cfg.x_mean, d.K_x), (cfg.x_scale, d.K_x)))
    s2 = scale ** 2 + (0.0 if constant else mean ** 2)
    k_1, *rest = cfg.kappa
    ite_kappa1 = k_1 + c * rho * (s2 + 3 * a ** 2) / (
        s_1 * (s2 + a ** 2 * (1 + 2 * rho ** 2)))
    return (k_1 + c * rho / s_1, *rest), ite_kappa1


def inv3_cofactor(A):
    """Explicit 3x3 inverse via the adjugate."""
    a, b, c = A[0]
    d, e, f = A[1]
    g, h, i = A[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = np.array([
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ])
    return adj / det


@pytest.fixture(scope="session")
def baseline_config():
    from interpanel.dgp import packaged_config
    return packaged_config("baseline")


@pytest.fixture
def factored(monkeypatch):
    """Shapes of the inputs of every np.linalg.qr and np.linalg.det call."""
    calls = {"qr": [], "det": []}
    for name, seen in calls.items():
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, _fn=fn, _seen=seen, **kw:
                            _seen.append(np.shape(a)) or _fn(a, *args, **kw))
    return calls
