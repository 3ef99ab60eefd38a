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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dims, build_regressors, default_columns, make_dataset
from .estimators import ite
from .linalg import solve_ols

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


@dataclass(frozen=True)
class DgpConfig:
    """True parameters and shock distributions for the simulator.

    JSON layout (see src/interpanel/configs/ for examples); defaults in
    brackets, means/scales may be scalars or per-column lists:

    dims            n, T, K_x, K_g, K_z, K_h (required)
    kappa           coefficients on the *observed* H columns (length K_h)
    phi             K_x rows of K_g coefficients [zeros]
    gamma           coefficients on Z (length K_z) [empty]
    scenario        one of SCENARIOS ["baseline"]
    seed            integer [0]
    x.mean, x.scale           regressor location/scale [0, 1]
    x.constant_cols           1-based x columns pinned to 1.0 (additive
                              fixed effects enter this way) [none]
    x.fe_loading              loading of non-constant x columns on the
                              first constant column's unit effect [0]
    x.eps_loading             loading of x on eps, applied only under
                              correlated_x_delta [0]
    x.hidden_scale_slope      makes sd(x) = sqrt(scale^2 + (slope*hidden)^2)
                              under omitted_variable [0]
    g.mean, g.scale           [0, 1]
    z.mean, z.scale           [0, 1]
    h.mean, h.scale           [0, 1]
    h.noise_scale             measurement noise added to the emitted h1
                              under measurement_error [0]
    delta.mean, delta.scale   unit effects for x columns 2..K_x [0, 1]
    noise.u_scale             outcome shock sd [1]
    noise.v_scale             idiosyncratic slope shock sd [0]
    noise.eps_scale           unobserved slope heterogeneity sd [1]
    hidden.kappa              coefficient on the hidden H column [0]
    hidden.corr               corr(h1, hidden) under omitted_variable [0.6]
    """

    dims: Dims
    kappa: tuple
    phi: tuple = ()
    gamma: tuple = ()
    scenario: str = "baseline"
    seed: int = 0
    x_mean: object = 0.0
    x_scale: object = 1.0
    x_constant_cols: tuple = ()
    x_fe_loading: float = 0.0
    x_eps_loading: float = 0.0
    x_hidden_scale_slope: float = 0.0
    g_mean: object = 0.0
    g_scale: object = 1.0
    z_mean: object = 0.0
    z_scale: object = 1.0
    h_mean: object = 0.0
    h_scale: object = 1.0
    h_noise_scale: float = 0.0
    delta_mean: object = 0.0
    delta_scale: object = 1.0
    u_scale: float = 1.0
    v_scale: float = 0.0
    eps_scale: float = 1.0
    hidden_kappa: float = 0.0
    hidden_corr: float = 0.6

    def __post_init__(self):
        d = self.dims
        if self.scenario not in SCENARIOS:
            raise ConfigInvalid("scenario",
                                f"unknown scenario {self.scenario!r}")
        kappa = tuple(float(v) for v in self.kappa)
        if len(kappa) != d.K_h:
            raise ConfigInvalid("kappa", f"length {len(kappa)} != K_h={d.K_h}")
        phi = tuple(tuple(float(v) for v in row) for row in self.phi)
        if len(phi) != d.K_x or any(len(row) != d.K_g for row in phi):
            raise ConfigInvalid("phi", f"need shape ({d.K_x}, {d.K_g})")
        gamma = tuple(float(v) for v in self.gamma)
        if len(gamma) != d.K_z:
            raise ConfigInvalid("gamma", f"length {len(gamma)} != K_z={d.K_z}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "gamma", gamma)
        const = tuple(int(c) for c in self.x_constant_cols)
        if len(set(const)) != len(const) or any(
                not (1 <= c <= d.K_x) for c in const):
            raise ConfigInvalid("x.constant_cols",
                                f"need distinct 1-based indices <= {d.K_x}")
        object.__setattr__(self, "x_constant_cols", const)
        scale_paths = {
            "u_scale": "noise.u_scale",
            "v_scale": "noise.v_scale",
            "eps_scale": "noise.eps_scale",
            "h_noise_scale": "h.noise_scale",
            "x_hidden_scale_slope": "x.hidden_scale_slope",
        }
        for name, path in scale_paths.items():
            if float(getattr(self, name)) < 0:
                raise ConfigInvalid(path, "scale must be nonnegative")
        if not (-1.0 <= float(self.hidden_corr) <= 1.0):
            raise ConfigInvalid("hidden.corr", "correlation must be in [-1, 1]")
        for block, K in (("x", d.K_x), ("g", d.K_g), ("z", d.K_z),
                         ("h", d.K_h)):
            for part in ("mean", "scale"):
                v = np.asarray(getattr(self, f"{block}_{part}"), dtype=float)
                if v.ndim > 1 or (v.ndim == 1 and v.shape[0] != K):
                    raise ConfigInvalid(f"{block}.{part}",
                                        f"scalar or length-{K} sequence required")
                if part == "scale" and np.any(v < 0):
                    raise ConfigInvalid(f"{block}.scale",
                                        "scales must be nonnegative")
        if self.scenario in _HIDDEN_SCENARIOS and d.K_h < 1:
            raise ConfigInvalid("dims.K_h",
                                "hidden-column scenarios need K_h >= 1")

    def to_dict(self):
        d = self.dims
        out = {
            "dims": {"n": d.n, "T": d.T, "K_x": d.K_x, "K_g": d.K_g,
                     "K_z": d.K_z, "K_h": d.K_h},
            "kappa": list(self.kappa),
            "phi": [list(r) for r in self.phi],
            "gamma": list(self.gamma),
            "scenario": self.scenario,
            "seed": self.seed,
            "x": {"mean": _plain(self.x_mean), "scale": _plain(self.x_scale),
                  "constant_cols": list(self.x_constant_cols),
                  "fe_loading": self.x_fe_loading,
                  "eps_loading": self.x_eps_loading,
                  "hidden_scale_slope": self.x_hidden_scale_slope},
            "g": {"mean": _plain(self.g_mean), "scale": _plain(self.g_scale)},
            "z": {"mean": _plain(self.z_mean), "scale": _plain(self.z_scale)},
            "h": {"mean": _plain(self.h_mean), "scale": _plain(self.h_scale),
                  "noise_scale": self.h_noise_scale},
            "delta": {"mean": _plain(self.delta_mean),
                      "scale": _plain(self.delta_scale)},
            "noise": {"u_scale": self.u_scale, "v_scale": self.v_scale,
                      "eps_scale": self.eps_scale},
            "hidden": {"kappa": self.hidden_kappa, "corr": self.hidden_corr},
        }
        return out

    @classmethod
    def from_dict(cls, raw):
        raw = dict(raw)
        try:
            dims = Dims(**{k: int(v) for k, v in dict(raw.pop("dims")).items()})
        except KeyError:
            raise ConfigInvalid("dims", "missing required section") from None
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid("dims", str(exc)) from None
        kwargs = {
            "dims": dims,
            "kappa": raw.pop("kappa", [0.0] * dims.K_h),
            "phi": raw.pop("phi",
                           [[0.0] * dims.K_g for _ in range(dims.K_x)]),
            "gamma": raw.pop("gamma", [0.0] * dims.K_z),
            "scenario": raw.pop("scenario", "baseline"),
            "seed": int(raw.pop("seed", 0)),
        }
        groups = {
            "x": ("mean", "scale", "constant_cols", "fe_loading",
                  "eps_loading", "hidden_scale_slope"),
            "g": ("mean", "scale"),
            "z": ("mean", "scale"),
            "h": ("mean", "scale", "noise_scale"),
            "delta": ("mean", "scale"),
            "noise": ("u_scale", "v_scale", "eps_scale"),
            "hidden": ("kappa", "corr"),
        }
        for group, keys in groups.items():
            sub = dict(raw.pop(group, {}))
            for key, value in sub.items():
                if key not in keys:
                    raise ConfigInvalid(f"{group}.{key}", "unknown field")
                if group == "noise":
                    kwargs[key] = float(value)
                elif group == "hidden":
                    kwargs[f"hidden_{key}"] = float(value)
                elif key == "constant_cols":
                    kwargs["x_constant_cols"] = tuple(value)
                else:
                    kwargs[f"{group}_{key}"] = value
        if raw:
            raise ConfigInvalid(sorted(raw)[0], "unknown field")
        return cls(**kwargs)


def _plain(v):
    # JSON ints in a config still print as floats
    return np.asarray(v, dtype=float).tolist()


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
    """A simulated panel plus everything the estimators never see.

    `dataset` holds the observed sample (hidden H columns stripped,
    measurement error applied). h_full always contains the true,
    complete H including hidden columns.
    """

    dataset: object
    delta: np.ndarray
    beta: np.ndarray
    eps: np.ndarray
    V: np.ndarray
    U: np.ndarray
    h_full: np.ndarray
    kappa_full: np.ndarray
    config: DgpConfig

    def reconstruction_error(self):
        """Max abs difference between emitted Y and the outcome equation
        recomputed from the stored components."""
        ds = self.dataset
        gamma = np.asarray(self.config.gamma, dtype=float)
        y = np.einsum("ntk,ntk->nt", ds.X, self.beta) + ds.Z @ gamma + self.U
        return float(np.max(np.abs(ds.Y - y))) if ds.Y.size else 0.0


def _broadcast(value, shape):
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


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
    if d.K_x > 1:
        dm = _broadcast(cfg.delta_mean, (d.K_x - 1,))
        dsc = _broadcast(cfg.delta_scale, (d.K_x - 1,))
        delta[:, 1:] = dm + dsc * rng.standard_normal((d.n, d.K_x - 1))
    if hidden is None:
        h_used = H
        kappa_full = np.asarray(cfg.kappa, dtype=float)
    else:
        h_used = np.column_stack([H, hidden])
        kappa_full = np.append(np.asarray(cfg.kappa, dtype=float),
                               float(cfg.hidden_kappa))
    delta[:, 0] = h_used @ kappa_full + eps

    # 3. Regressors, with the scenario's scale/loading structure on X.
    const = np.array([c - 1 for c in cfg.x_constant_cols], dtype=int)
    x_mean = _broadcast(cfg.x_mean, (d.K_x,))
    x_scale = _broadcast(cfg.x_scale, (d.K_x,))
    xi = rng.standard_normal((d.n, d.T, d.K_x))
    sd = np.broadcast_to(x_scale, (d.n, d.T, d.K_x)).copy()
    if cfg.scenario == "omitted_variable" and cfg.x_hidden_scale_slope != 0.0:
        unit_sd = np.sqrt(x_scale[None, :] ** 2
                          + (cfg.x_hidden_scale_slope * hidden[:, None]) ** 2)
        sd = np.broadcast_to(unit_sd[:, None, :], sd.shape).copy()
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
    beta = delta[:, None, :] + np.einsum("ntg,kg->ntk", G, phi) + V
    gamma = np.asarray(cfg.gamma, dtype=float)
    Y = np.einsum("ntk,ntk->nt", X, beta) + Z @ gamma + U

    H_obs = H.copy()
    if cfg.scenario == "measurement_error" and d.K_h > 0:
        H_obs[:, 0] = H[:, 0] + float(cfg.h_noise_scale) * rng.standard_normal(d.n)

    ds = make_dataset(Y, X, G, Z, H_obs, columns=default_columns(d))
    h_full = h_used if hidden is not None else H
    return SimulatedTruth(dataset=ds, delta=delta, beta=beta, eps=eps, V=V,
                          U=U, h_full=h_full, kappa_full=kappa_full, config=cfg)


@dataclass(frozen=True)
class PlimTargets:
    """Large-n targets estimated by fresh-draw moment simulation.

    kappa_tilde is the population projection coefficient of delta_i1 on
    the *observed* H (which equals the true kappa whenever eps is mean
    independent of H). ite_plim_kappa1 is the limit of the one-step
    estimator's first kappa component, available for scalar-X shapes
    (exactly one non-constant x column). Values are block means over
    independent draws; simulation SEs are SD across blocks / sqrt(blocks).
    """

    kappa_tilde: np.ndarray
    kappa_tilde_se: np.ndarray
    ite_plim_kappa1: float | None
    ite_plim_kappa1_se: float | None
    oracle_draws: int
    n_blocks: int
    kappa_tilde_blocks: np.ndarray = field(repr=False, default=None)
    ite_blocks: np.ndarray = field(repr=False, default=None)

    def to_dict(self):
        return {
            "kappa_tilde": self.kappa_tilde.tolist(),
            "kappa_tilde_se": self.kappa_tilde_se.tolist(),
            "ite_plim_kappa1": self.ite_plim_kappa1,
            "ite_plim_kappa1_se": self.ite_plim_kappa1_se,
            "oracle_draws": self.oracle_draws,
            "n_blocks": self.n_blocks,
        }


def _ite_plim_shape_ok(cfg):
    return (cfg.dims.K_x - len(cfg.x_constant_cols) == 1
            and 1 not in cfg.x_constant_cols
            and cfg.dims.K_h >= 1)


def plim_targets(cfg, oracle_draws=200_000, seed=None, n_blocks=20):
    """Estimate the projection target and the one-step limit by simulation.

    Fresh draws only (never the estimation sample): `oracle_draws` units
    are simulated in `n_blocks` independent blocks; each block yields one
    estimate of each target, and the block spread gives the simulation SE.

    The one-step limit is computed only when the model has exactly one
    non-constant x column; otherwise ite_plim_kappa1 and its SE are None.
    Each block builds its own regressors for the one-step fit.
    """
    if cfg.dims.K_h < 1:
        raise ScenarioUnsupported("plim targets need at least one H column")
    if n_blocks < 2:
        raise ValueError("need at least 2 oracle blocks")
    block_n = max(oracle_draws // n_blocks, 2)
    want_ite = _ite_plim_shape_ok(cfg)

    if seed is None:
        seed = int(cfg.seed)
    root = np.random.SeedSequence(entropy=int(seed), spawn_key=(0x0A11CE,))
    children = root.spawn(n_blocks)

    kt_blocks = np.empty((n_blocks, cfg.dims.K_h))
    ite_blocks = np.empty(n_blocks) if want_ite else None
    for b in range(n_blocks):
        child_seed = int(children[b].generate_state(1, np.uint64)[0])
        cfg_b = replace(cfg, dims=replace(cfg.dims, n=block_n), seed=child_seed)
        truth = simulate(cfg_b)
        ds = truth.dataset
        kt_blocks[b] = solve_ols(ds.H, truth.delta[:, 0]).coefficients
        if want_ite:
            ite_blocks[b] = ite(ds, build_regressors(ds)).kappa_hat[0]

    kt = kt_blocks.mean(axis=0)
    kt_se = kt_blocks.std(axis=0, ddof=1) / np.sqrt(n_blocks)
    if want_ite:
        ite_val = float(ite_blocks.mean())
        ite_se_val = float(ite_blocks.std(ddof=1) / np.sqrt(n_blocks))
    else:
        ite_val = None
        ite_se_val = None
    return PlimTargets(
        kappa_tilde=kt,
        kappa_tilde_se=kt_se,
        ite_plim_kappa1=ite_val,
        ite_plim_kappa1_se=ite_se_val,
        oracle_draws=block_n * n_blocks,
        n_blocks=n_blocks,
        kappa_tilde_blocks=kt_blocks,
        ite_blocks=ite_blocks,
    )
