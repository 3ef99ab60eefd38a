"""Simulator for the correlated-random-coefficient panel model.

Data are generated from three equations:

    Y_it     = X_it beta_it + Z_it gamma + U_it
    beta_itk = delta_ik + G_it phi_k + V_itk          (k = 1..K_x)
    delta_i1 = H_i* kappa* + eps_i

All primitive shocks are Gaussian with configurable means and scales;
correlation is induced through shared-factor constructions. Scenarios
control what the emitted dataset reveals and which exogeneity conditions
hold:

baseline
    Every error term is independent of the regressors and all H columns
    are observed. Optionally X loads on the additive unit effect (the
    delta of a constant x column), which estimators that treat the unit
    slopes as parameters tolerate by construction.
omitted_variable
    One extra H column (correlated with h1, and entering the scale of X
    when `x_hidden_scale_slope` is set) drives delta_i1 but is hidden
    from the emitted dataset.
functional_form
    The hidden column is h1 squared.
measurement_error
    The emitted h1 is the true h1 plus noise.
correlated_random_effects
    Like baseline with eps_i independent of everything; the stronger
    condition under which the one-step estimator is also consistent.
correlated_x_delta
    X loads on eps_i (so the unit slopes are correlated with the
    within-unit level of X) while eps stays independent of H.

A new field of DgpConfig (or of harness.ExperimentConfig) is declared
once, in the class, by `_json(group, key, check, default)`; the reader,
the checks and `to_dict` go by the field table derived from those
declarations (`_FIELDS`). Name it in the class docstring and the README.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .data import Dims, build_ite_blocks, make_dataset
from .estimators import cite_kappa, ite

SCENARIOS = (
    "baseline",
    "omitted_variable",
    "functional_form",
    "measurement_error",
    "correlated_random_effects",
    "correlated_x_delta",
)

_HIDDEN_SCENARIOS = ("omitted_variable", "functional_form")


class ConfigInvalid(ValueError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class ScenarioUnsupported(ValueError):
    pass


_REAL = (int, float, np.integer, np.floating)
_SEQUENCE = (list, tuple, np.ndarray)


def _number(v, integer=False, low=-math.inf, high=math.inf, reason=None):
    """v as a float in [low, high]; as an int if integer (v == int(v))."""
    ok = isinstance(v, _REAL) and not isinstance(v, bool) and math.isfinite(v)
    if not ok or integer and v != int(v):
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"must be {what}, got {v!r}")
    if not low <= v <= high:
        raise ValueError(reason)
    return int(v) if integer else float(v)


def _columns(v, k, low=-math.inf):
    """A number >= low, or a flat list of k of them: one per column."""
    if not isinstance(v, _SEQUENCE):
        return _number(v, low=low, reason="scales must be nonnegative")
    if len(v) != k or any(isinstance(x, _SEQUENCE) for x in v):
        raise ValueError(f"scalar or length-{k} sequence required")
    return tuple(_columns(x, k, low) for x in v)


# The default of kappa, phi and gamma: zeros of the shape the dims give them,
# built by their checks once the dims have passed, so K_h <= n bounds kappa's.
# A sentinel, not None, so that JSON null stays an error.
_ZEROS = object()


def _coefficients(v, k, dim):
    if v is _ZEROS:
        return (0.0,) * k
    n = len(v) if isinstance(v, _SEQUENCE) else f"of {v!r}"
    if n != k:
        raise ValueError(f"length {n} != {dim}={k}")
    return tuple(map(_number, v))


def _phi(v, d):
    if v is _ZEROS:
        return ((0.0,) * d.K_g,) * d.K_x
    if not isinstance(v, _SEQUENCE) or len(v) != d.K_x or any(
            not isinstance(row, _SEQUENCE) or len(row) != d.K_g for row in v):
        raise ValueError(f"need shape ({d.K_x}, {d.K_g})")
    return tuple(tuple(map(_number, row)) for row in v)


def _constant_cols(v, d):
    cols = isinstance(v, _SEQUENCE) and [_number(c, integer=True) for c in v]
    if cols is False or len(cols) != len(set(cols) & {*range(1, d.K_x + 1)}):
        raise ValueError(f"need distinct 1-based indices <= {d.K_x}")
    return tuple(cols)


def _scenario(v, d):
    if v not in SCENARIOS:
        raise ValueError(f"unknown scenario {v!r}")
    return v


def _real(v, d):
    return _number(v)


def _scale(v, d):
    return _number(v, low=0.0, reason="scale must be nonnegative")


def _size(v, d):
    return _number(v, True, high=sys.maxsize, reason=(
        f"must be at most {sys.maxsize} (an index-sized integer)"))


def _K_h(v, d):
    return _number(v, True, high=d["n"], reason=(
        f"must be at most n = {d['n']} (kappa is fitted on n unit slopes)"))


# Dims' fields as _FIELDS rows, with check(value, sizes checked so far).
# Here each size must be an index-sized integer, and K_h, the length of the
# kappa default, at most n. Dims then bounds K_x by T, and n * T * (1 + K_x
# + K_g + K_z + K_h) by the cells one float64 array can address. That bounds
# no memory: the phi and gamma defaults (K_x * K_g and K_z entries) are
# built up to it. DgpConfig runs these checks on its dims however it is
# built (`from_dict`, the constructor, `replace`).
_DIMS = (*(("dims", k, _size, k) for k in ("n", "T", "K_x", "K_g", "K_z")),
         ("dims", "K_h", _K_h, "K_h"))


def _json(group, key, check, default=MISSING):
    """A config field, read from JSON at raw[group][key] (raw[key] for group
    None). check(value, context) returns the value to store or raises
    ValueError with the reason; the class says what its context is."""
    return field(default=default, metadata={"json": (group, key, check)})


def _path(group, key):
    return key if group is None else f"{group}.{key}"


def _section(value, path):
    if not isinstance(value, dict):
        raise ConfigInvalid(path, f"must be an object, got {value!r}")
    return dict(value)


def _read(raw, fields, required):
    """The keywords that JSON object raw sets: raw[group][key] (raw[key]
    for group None) of each (group, key, _, name) in fields, under name.
    Groups and paths in required must be present; no other key may be."""
    top = _section(raw, "top level")
    groups = {}
    for group in dict.fromkeys(g for g, *_ in fields if g):
        if group in required and group not in top:
            raise ConfigInvalid(group, "missing required section")
        groups[group] = _section(top.pop(group, {}), group)
    groups[None] = top
    kwargs = {}
    for group, key, _, name in fields:
        if key in groups[group]:
            kwargs[name] = groups[group].pop(key)
        elif _path(group, key) in required:
            raise ConfigInvalid(_path(group, key), "missing required field")
    unknown = [f"{g}.{k}" for g, rest in groups.items() if g for k in rest]
    if unknown or top:
        raise ConfigInvalid((unknown or sorted(top))[0], "unknown field")
    return kwargs


def _check(values, fields, context):
    """Set values[name] = check(values[name], context) for each (group, key,
    check, name) in fields with name in values (a frozen instance's
    __dict__ too); a check's ValueError becomes a ConfigInvalid at its path."""
    for group, key, check, name in fields:
        if name in values:
            try:
                values[name] = check(values[name], context)
            except ConfigInvalid:
                raise
            except (ValueError, OverflowError) as exc:
                raise ConfigInvalid(_path(group, key), exc) from None


@dataclass(frozen=True)
class DgpConfig:
    """True parameters and shock distributions for the simulator.

    JSON fields (README's "Config fields" gives each one's meaning and
    default): dims (n, T, K_x, K_g, K_z, K_h), kappa, phi, gamma, scenario,
    seed, x.mean, x.scale, x.constant_cols, x.fe_loading, x.eps_loading,
    x.hidden_scale_slope, g.mean, g.scale, z.mean, z.scale, h.mean,
    h.scale, h.noise_scale, delta.mean, delta.scale, noise.u_scale,
    noise.v_scale, noise.eps_scale, hidden.kappa and hidden.corr.
    """

    dims: Dims
    # check(value, dims) for the rest, declared in JSON order
    kappa: tuple = _json(None, "kappa",
                         lambda v, d: _coefficients(v, d.K_h, "K_h"), _ZEROS)
    phi: tuple = _json(None, "phi", _phi, _ZEROS)
    gamma: tuple = _json(None, "gamma",
                         lambda v, d: _coefficients(v, d.K_z, "K_z"), _ZEROS)
    scenario: str = _json(None, "scenario", _scenario, "baseline")
    seed: int = _json(None, "seed", lambda v, d: _number(
        v, True, 0, reason="must be >= 0"), 0)
    x_mean: object = _json("x", "mean", lambda v, d: _columns(v, d.K_x), 0.0)
    x_scale: object = _json("x", "scale",
                            lambda v, d: _columns(v, d.K_x, 0.0), 1.0)
    x_constant_cols: tuple = _json("x", "constant_cols", _constant_cols, ())
    x_fe_loading: float = _json("x", "fe_loading", _real, 0.0)
    x_eps_loading: float = _json("x", "eps_loading", _real, 0.0)
    x_hidden_scale_slope: float = _json("x", "hidden_scale_slope", _scale, 0.0)
    g_mean: object = _json("g", "mean", lambda v, d: _columns(v, d.K_g), 0.0)
    g_scale: object = _json("g", "scale",
                            lambda v, d: _columns(v, d.K_g, 0.0), 1.0)
    z_mean: object = _json("z", "mean", lambda v, d: _columns(v, d.K_z), 0.0)
    z_scale: object = _json("z", "scale",
                            lambda v, d: _columns(v, d.K_z, 0.0), 1.0)
    h_mean: object = _json("h", "mean", lambda v, d: _columns(v, d.K_h), 0.0)
    h_scale: object = _json("h", "scale",
                            lambda v, d: _columns(v, d.K_h, 0.0), 1.0)
    h_noise_scale: float = _json("h", "noise_scale", _scale, 0.0)
    delta_mean: object = _json("delta", "mean",
                               lambda v, d: _columns(v, d.K_x - 1), 0.0)
    delta_scale: object = _json("delta", "scale",
                                lambda v, d: _columns(v, d.K_x - 1, 0.0), 1.0)
    u_scale: float = _json("noise", "u_scale", _scale, 1.0)
    v_scale: float = _json("noise", "v_scale", _scale, 0.0)
    eps_scale: float = _json("noise", "eps_scale", _scale, 1.0)
    hidden_kappa: float = _json("hidden", "kappa", _real, 0.0)
    hidden_corr: float = _json("hidden", "corr", lambda v, d: _number(
        v, low=-1.0, high=1.0, reason="correlation must be in [-1, 1]"), 0.6)

    def __post_init__(self):
        sizes = dict(vars(self.dims))
        _check(sizes, _DIMS, sizes)
        _check(self.__dict__, _FIELDS, self.dims)
        if self.scenario in _HIDDEN_SCENARIOS and self.dims.K_h < 1:
            raise ConfigInvalid("dims.K_h",
                                "hidden-column scenarios need K_h >= 1")

    def to_dict(self):
        out = {"dims": asdict(self.dims)}
        for group, key, _, name in _FIELDS:
            value = getattr(self, name)
            if isinstance(value, tuple):  # JSON lists, phi's rows too
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            (out if group is None else out.setdefault(group, {}))[key] = value
        return out

    @classmethod
    def from_dict(cls, raw):
        kwargs = _read(raw, _DIMS + _FIELDS,
                       ("dims", "dims.n", "dims.T", "dims.K_x"))
        sizes = {k: kwargs.pop(k) for *_, k in _DIMS if k in kwargs}
        _check(sizes, _DIMS, sizes)
        try:
            dims = Dims(**sizes)
        except ValueError as exc:
            raise ConfigInvalid("dims", exc) from None
        return cls(dims=dims, **kwargs)


# (group, key, check, name) of each field declared with _json, in
# declaration order: the JSON order to_dict writes
_FIELDS = tuple((*f.metadata["json"], f.name)
                for f in fields(DgpConfig) if f.metadata)


def load_dgp_config(path):
    """Read a DgpConfig from a JSON file."""
    with open(path, encoding="utf-8") as fh:
        return DgpConfig.from_dict(json.load(fh))


def packaged_config_path(name):
    """Path of a calibration config shipped with the package."""
    from importlib.resources import files

    path = files("interpanel").joinpath("configs", f"{name}.json")
    if not path.is_file():
        raise FileNotFoundError(f"no packaged config named {name!r}")
    return str(path)


def packaged_config(name):
    """Load a shipped DgpConfig by name (e.g. "baseline", "ite_gap")."""
    return load_dgp_config(packaged_config_path(name))


@dataclass(frozen=True)
class SimulatedTruth:
    """A simulated panel plus the truth the `simulate` sidecar writes.

    `dataset` holds the observed sample (hidden H columns stripped,
    measurement error applied). h_full always contains the true,
    complete H including hidden columns.
    """

    dataset: object
    delta: np.ndarray
    eps: np.ndarray
    h_full: np.ndarray
    kappa_full: np.ndarray


def _broadcast(value, shape):
    return np.full(shape, value, dtype=float)


def simulate(cfg):
    """Draw one panel from the configured model and scenario.

    Deterministic in cfg (including cfg.seed): draws happen in a fixed
    documented order from a single generator.
    """
    d = cfg.dims
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(cfg.seed)))

    # 1. Observed-side H, then the scenario's hidden column if any.
    h_mean = _broadcast(cfg.h_mean, (d.K_h,))
    h_scale = _broadcast(cfg.h_scale, (d.K_h,))
    H = h_mean + h_scale * rng.standard_normal((d.n, d.K_h))
    hidden = None
    if cfg.scenario == "omitted_variable":
        rho = float(cfg.hidden_corr)
        base = rng.standard_normal(d.n)
        if h_scale[0] > 0:
            std1 = (H[:, 0] - h_mean[0]) / h_scale[0]
        else:
            std1 = np.zeros(d.n)
        hidden = rho * std1 + np.sqrt(max(1.0 - rho * rho, 0.0)) * base
    elif cfg.scenario == "functional_form":
        hidden = H[:, 0] ** 2

    # 2. Unobserved slope heterogeneity.
    eps = float(cfg.eps_scale) * rng.standard_normal(d.n)
    delta = np.empty((d.n, d.K_x))
    dm = _broadcast(cfg.delta_mean, (d.K_x - 1,))
    dsc = _broadcast(cfg.delta_scale, (d.K_x - 1,))
    delta[:, 1:] = dm + dsc * rng.standard_normal((d.n, d.K_x - 1))
    if hidden is None:
        h_used = H
        kappa_full = np.asarray(cfg.kappa, dtype=float)
    else:
        h_used = np.column_stack([H, hidden])
        kappa_full = np.array(cfg.kappa + (cfg.hidden_kappa,))
    delta[:, 0] = h_used @ kappa_full + eps

    # 3. Regressors, with the scenario's scale/loading structure on X.
    const = np.array([c - 1 for c in cfg.x_constant_cols], dtype=int)
    x_mean = _broadcast(cfg.x_mean, (d.K_x,))
    x_scale = _broadcast(cfg.x_scale, (d.K_x,))
    xi = rng.standard_normal((d.n, d.T, d.K_x))
    sd = x_scale  # broadcast against xi, never copied out
    if cfg.scenario == "omitted_variable" and cfg.x_hidden_scale_slope != 0.0:
        unit_sd = np.sqrt(x_scale[None, :] ** 2
                          + (cfg.x_hidden_scale_slope * hidden[:, None]) ** 2)
        sd = unit_sd[:, None, :]
    X = x_mean + sd * xi
    if cfg.x_fe_loading != 0.0 and const.size > 0:
        X = X + cfg.x_fe_loading * delta[:, const[0]][:, None, None]
    if cfg.scenario == "correlated_x_delta" and cfg.x_eps_loading != 0.0:
        X = X + cfg.x_eps_loading * eps[:, None, None]
    X[:, :, const] = 1.0

    # 4. Remaining observables and shocks, in fixed order.
    G = (_broadcast(cfg.g_mean, (d.K_g,))
         + _broadcast(cfg.g_scale, (d.K_g,))
         * rng.standard_normal((d.n, d.T, d.K_g)))
    Z = (_broadcast(cfg.z_mean, (d.K_z,))
         + _broadcast(cfg.z_scale, (d.K_z,))
         * rng.standard_normal((d.n, d.T, d.K_z)))
    V = float(cfg.v_scale) * rng.standard_normal((d.n, d.T, d.K_x))
    U = float(cfg.u_scale) * rng.standard_normal((d.n, d.T))

    phi = np.asarray(cfg.phi, dtype=float).reshape(d.K_x, d.K_g)
    if d.K_g:
        beta = delta[:, None, :] + np.einsum("ntg,kg->ntk", G, phi) + V
    else:  # the einsum is all +0.0 here: adding 0.0 keeps its one effect
        beta = (delta + 0.0)[:, None, :] + V
    gamma = np.asarray(cfg.gamma, dtype=float)
    # with no Z, Z @ gamma is all +0.0: adding 0.0 keeps its one effect
    Y = np.einsum("ntk,ntk->nt", X, beta) + (Z @ gamma if d.K_z else 0.0) + U

    H_obs = H.copy()
    if cfg.scenario == "measurement_error" and d.K_h > 0:
        H_obs[:, 0] = H[:, 0] + float(cfg.h_noise_scale) * rng.standard_normal(d.n)

    return SimulatedTruth(dataset=make_dataset(Y, X, G, Z, H_obs),
                          delta=delta, eps=eps, h_full=h_used,
                          kappa_full=kappa_full)


@dataclass(frozen=True)
class PlimTargets:
    """Large-n targets estimated by fresh-draw moment simulation.

    kappa_tilde is the population projection coefficient of delta_i1 on
    the *observed* H, CITE's kappa stage on the true slopes (it equals
    the true kappa whenever eps is mean independent of H).
    ite_plim_kappa1 is the limit of the one-step estimator's first kappa
    component, available for scalar-X shapes (exactly one non-constant x
    column). Values are block means over independent draws; simulation
    SEs are SD across blocks / sqrt(blocks).
    """

    kappa_tilde: np.ndarray
    kappa_tilde_se: np.ndarray
    ite_plim_kappa1: float | None
    ite_plim_kappa1_se: float | None
    oracle_draws: int
    n_blocks: int

    def to_dict(self):
        return {
            "kappa_tilde": self.kappa_tilde.tolist(),
            "kappa_tilde_se": self.kappa_tilde_se.tolist(),
            "ite_plim_kappa1": self.ite_plim_kappa1,
            "ite_plim_kappa1_se": self.ite_plim_kappa1_se,
            "oracle_draws": self.oracle_draws,
            "n_blocks": self.n_blocks,
        }


def oracle_block_size(oracle_draws, n_blocks):
    """Units per block of `plim_targets`: at least 2."""
    return max(oracle_draws // n_blocks, 2)


def plim_targets(cfg, oracle_draws, seed, n_blocks):
    """Estimate the projection target and the one-step limit by simulation.

    Fresh draws only (never the estimation sample): `oracle_draws` units
    are simulated, from `seed`, in `n_blocks` independent blocks; each
    block yields one estimate of each target, and the block spread gives
    the simulation SE. A block's kappa_tilde is CITE's own kappa stage,
    `cite_kappa`, on the true slopes delta_i1 and the observed H.

    The one-step limit is computed only when the model has exactly one
    non-constant x column, the first; otherwise ite_plim_kappa1 and its
    SE are None. Each block builds only the one-step fit's blocks: no X_i
    is factored.
    """
    if cfg.dims.K_h < 1:
        raise ScenarioUnsupported("plim targets need at least one H column")
    if n_blocks < 2:
        raise ValueError("need at least 2 oracle blocks")
    block_n = oracle_block_size(oracle_draws, n_blocks)
    want_ite = (cfg.dims.K_x - len(cfg.x_constant_cols) == 1
                and 1 not in cfg.x_constant_cols)

    root = np.random.SeedSequence(entropy=int(seed), spawn_key=(0x0A11CE,))
    children = root.spawn(n_blocks)

    kt_blocks = np.empty((n_blocks, cfg.dims.K_h))
    ite_blocks = np.empty(n_blocks) if want_ite else None
    for b in range(n_blocks):
        child_seed = int(children[b].generate_state(1, np.uint64)[0])
        cfg_b = replace(cfg, dims=replace(cfg.dims, n=block_n), seed=child_seed)
        truth = simulate(cfg_b)
        ds = truth.dataset
        kt_blocks[b] = cite_kappa(truth.delta[:, 0], ds.H)
        if want_ite:
            ite_blocks[b] = ite(build_ite_blocks(ds))[0]

    ite_val, ite_se = (None, None) if not want_ite else (
        float(ite_blocks.mean()),
        float(ite_blocks.std(ddof=1) / np.sqrt(n_blocks)))
    return PlimTargets(
        kappa_tilde=kt_blocks.mean(axis=0),
        kappa_tilde_se=kt_blocks.std(axis=0, ddof=1) / np.sqrt(n_blocks),
        ite_plim_kappa1=ite_val,
        ite_plim_kappa1_se=ite_se,
        oracle_draws=block_n * n_blocks,
        n_blocks=n_blocks,
    )
