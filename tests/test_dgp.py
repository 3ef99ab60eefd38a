import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from interpanel.data import Dims
from interpanel.dgp import (_FIELDS, ConfigInvalid, DgpConfig,
                            load_dgp_config, packaged_config, plim_targets,
                            simulate)
from interpanel.harness import _FIELDS as MC_FIELDS, ExperimentConfig

from conftest import BAD_DGP_FIELDS, dgp_json_with, exact_limits


def scalar_config(**overrides):
    base = dict(
        dims=Dims(n=200, T=4, K_x=1, K_g=1, K_z=1, K_h=1),
        kappa=(0.8,), phi=((0.5,),), gamma=(1.2,),
        seed=1, u_scale=0.3, v_scale=0.1, eps_scale=0.2,
    )
    base.update(overrides)
    return DgpConfig(**base)


class TestConfig:
    def test_round_trip_via_dict(self):
        cfg = packaged_config("baseline")
        again = DgpConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_kappa_length_checked(self):
        with pytest.raises(ConfigInvalid) as err:
            scalar_config(kappa=(0.8, 0.1))
        assert "kappa" in str(err.value)

    def test_phi_shape_checked(self):
        with pytest.raises(ConfigInvalid) as err:
            scalar_config(phi=((0.5, 0.2),))
        assert "phi" in str(err.value)

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigInvalid):
            scalar_config(u_scale=-1.0)
        with pytest.raises(ConfigInvalid):
            scalar_config(h_scale=[-0.5])

    def test_correlation_bounds(self):
        with pytest.raises(ConfigInvalid) as err:
            scalar_config(hidden_corr=1.5)
        assert "hidden.corr" in str(err.value)

    def test_unknown_fields_have_paths(self, tmp_path):
        import json
        raw = packaged_config("baseline").to_dict()
        raw["x"]["typo"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigInvalid) as err:
            load_dgp_config(path)
        assert "x.typo" in str(err.value)

    def test_built_directly_takes_zero_defaults(self):
        # kappa, phi and gamma default to zeros of the dims' shape, as in JSON
        cfg = DgpConfig(dims=Dims(n=10, T=3, K_x=1, K_h=1), kappa=(0.5,))
        assert (cfg.kappa, cfg.phi, cfg.gamma) == ((0.5,), ((),), ())
        cfg = DgpConfig(dims=Dims(n=10, T=3, K_x=2, K_g=2, K_z=1, K_h=2))
        assert (cfg.kappa, cfg.phi, cfg.gamma) == (
            (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)), (0.0,))
        for name in ("kappa", "phi", "gamma"):  # as JSON null, None is no default
            with pytest.raises(ConfigInvalid) as err:
                replace(cfg, **{name: None})
            assert err.value.path == name

    def test_replace_checks_K_h_against_n(self):
        # the dims checks run however the config is built, not only on JSON
        cfg = DgpConfig(dims=Dims(n=10, T=3, K_x=1, K_h=3))
        with pytest.raises(ConfigInvalid) as err:
            replace(cfg, dims=replace(cfg.dims, n=2))
        assert err.value.path == "dims.K_h"
        assert str(err.value) == ("dims.K_h: must be at most n = 2 (kappa is "
                                  "fitted on n unit slopes)")

    def test_bad_constant_cols(self):
        with pytest.raises(ConfigInvalid):
            scalar_config(x_constant_cols=(2,))

    @pytest.mark.parametrize("name, path, value", BAD_DGP_FIELDS)
    def test_bad_field_fails_at_its_path(self, name, path, value):
        with pytest.raises(ConfigInvalid) as err:
            DgpConfig.from_dict(dgp_json_with(name, path, value))
        assert err.value.path == path
        assert str(err.value).startswith(f"{path}: ")

    def test_values_are_stored_as_floats_and_tuples(self):
        cfg = scalar_config(x_mean=np.array([2]), h_scale=[1], u_scale=1,
                            x_fe_loading=np.float32(0.5), seed=np.int64(3),
                            x_constant_cols=[1.0], kappa=np.array([0.8]))
        assert cfg.x_mean == (2.0,) and type(cfg.x_mean[0]) is float
        assert cfg.h_scale == (1.0,) and type(cfg.u_scale) is float
        assert type(cfg.x_fe_loading) is float and cfg.x_fe_loading == 0.5
        assert cfg.seed == 3 and type(cfg.seed) is int
        assert cfg.x_constant_cols == (1,) and type(cfg.kappa) is tuple
        assert replace(cfg, seed=4).x_mean == (2.0,)

    def test_json_integers_print_as_floats(self):
        raw = dgp_json_with("baseline", "x.fe_loading", 1)
        raw["seed"] = 7.0  # an integral number is an integer
        out = json.loads(json.dumps(DgpConfig.from_dict(raw).to_dict()))
        assert out["x"]["fe_loading"] == 1.0
        assert isinstance(out["x"]["fe_loading"], float)
        assert out["seed"] == 7 and isinstance(out["seed"], int)

    def test_to_dict_keeps_the_json_layout(self):
        cfg = packaged_config("baseline")
        out = cfg.to_dict()
        assert list(out) == ["dims", "kappa", "phi", "gamma", "scenario",
                             "seed", "x", "g", "z", "h", "delta", "noise",
                             "hidden"]
        assert out["h"] == {"mean": [1.0, 0.0], "scale": [1.0, 1.0],
                            "noise_scale": 0.0}
        assert out["noise"] == {"u_scale": 0.5, "v_scale": 0.2,
                                "eps_scale": 0.3}
        assert out["phi"] == [[0.8], [0.3]] and out["x"]["constant_cols"] == [2]

    def test_every_field_is_documented(self):
        # each JSON path of a field table is named in its class docstring
        # and, in backticks, in its README paragraph: "Config fields" for
        # the simulator, "Config rules" for the Monte Carlo config
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        for cls, fields, title in ((DgpConfig, _FIELDS, "Config fields"),
                                   (ExperimentConfig, MC_FIELDS,
                                    "Config rules")):
            para = re.search(rf"^{title}.*?\n\n", readme, re.M | re.S)
            assert para, f"README has no {title!r} paragraph"
            for group, key, *_ in fields:
                path = key if group is None else f"{group}.{key}"
                assert re.search(rf"(?<![\w.]){re.escape(path)}(?!\w)",
                                 cls.__doc__), path
                assert f"`{path}`" in para.group(), path


class TestSimulate:
    def test_zero_noise_reduced_form(self):
        # with no shocks and scalar blocks, Y = X(H kappa + G phi) + Z gamma
        cfg = scalar_config(u_scale=0.0, v_scale=0.0, eps_scale=0.0)
        t = simulate(cfg)
        ds = t.dataset
        want = ds.X[:, :, 0] * (ds.H[:, 0][:, None] * 0.8
                                + ds.G[:, :, 0] * 0.5) + ds.Z[:, :, 0] * 1.2
        assert np.max(np.abs(ds.Y - want)) < 1e-12

    def test_seed_determinism(self):
        cfg = scalar_config()
        a, b = simulate(cfg), simulate(cfg)
        assert np.array_equal(a.dataset.Y, b.dataset.Y)
        assert np.array_equal(a.h_full, b.h_full)
        c = simulate(replace(cfg, seed=2))
        assert not np.array_equal(a.dataset.Y, c.dataset.Y)

    def test_baseline_eps_uncorrelated_with_h(self):
        cfg = packaged_config("baseline")
        cfg = replace(cfg, dims=replace(cfg.dims, n=10_000), seed=123)
        t = simulate(cfg)
        for j in range(t.dataset.dims.K_h):
            r = np.corrcoef(t.eps, t.dataset.H[:, j])[0, 1]
            assert abs(r) < 0.05

    def test_omitted_variable_correlation_calibrated(self):
        cfg = packaged_config("ite_gap")
        cfg = replace(cfg, dims=replace(cfg.dims, n=10_000), seed=42)
        t = simulate(cfg)
        assert t.h_full.shape == (10_000, 2)
        assert t.dataset.H.shape == (10_000, 1)
        r = np.corrcoef(t.dataset.H[:, 0], t.h_full[:, 1])[0, 1]
        assert abs(r - 0.6) < 0.03

    def test_functional_form_hidden_is_square(self):
        cfg = scalar_config(scenario="functional_form", hidden_kappa=0.5)
        t = simulate(cfg)
        assert_allclose(t.h_full[:, 1], t.dataset.H[:, 0] ** 2)

    def test_measurement_error_noisy_h(self):
        cfg = scalar_config(scenario="measurement_error", h_noise_scale=0.5,
                            dims=Dims(n=5000, T=4, K_x=1, K_g=1, K_z=1, K_h=1))
        t = simulate(cfg)
        diff = t.dataset.H[:, 0] - t.h_full[:, 0]
        assert abs(diff.std() - 0.5) < 0.03
        # delta is driven by the true h, not the emitted one
        resid = t.delta[:, 0] - t.h_full[:, 0] * 0.8 - t.eps
        assert np.max(np.abs(resid)) < 1e-12

    def test_correlated_x_delta_coupling(self):
        cfg = packaged_config("correlated_x")
        cfg = replace(cfg, dims=replace(cfg.dims, n=10_000), seed=9)
        t = simulate(cfg)
        xbar = t.dataset.X[:, :, 0].mean(axis=1)
        assert np.corrcoef(xbar, t.eps)[0, 1] > 0.3


class TestPlimTargets:
    def test_baseline_projection_equals_truth(self):
        cfg = packaged_config("baseline")
        t = plim_targets(cfg, oracle_draws=40_000, seed=7, n_blocks=10)
        for j, k in enumerate(cfg.kappa):
            assert abs(t.kappa_tilde[j] - k) < 3 * t.kappa_tilde_se[j]

    def test_zero_hidden_coefficient_removes_both_gaps(self):
        cfg = replace(packaged_config("ite_gap"), hidden_kappa=0.0)
        t = plim_targets(cfg, oracle_draws=40_000, seed=8, n_blocks=10)
        assert abs(t.kappa_tilde[0] - cfg.kappa[0]) < 3 * t.kappa_tilde_se[0]
        assert abs(t.ite_plim_kappa1 - cfg.kappa[0]) < 3 * t.ite_plim_kappa1_se

    def test_independence_factorization(self):
        # with the hidden column kept out of the X scale, X and H are
        # independent and both limits share the same gap kappa2 * corr
        cfg = replace(packaged_config("ite_gap"), x_hidden_scale_slope=0.0)
        t = plim_targets(cfg, oracle_draws=60_000, seed=9, n_blocks=12)
        gap_tilde = t.kappa_tilde[0] - cfg.kappa[0]
        gap_ite = t.ite_plim_kappa1 - cfg.kappa[0]
        se = np.hypot(t.kappa_tilde_se[0], t.ite_plim_kappa1_se)
        assert abs(gap_tilde - gap_ite) < 3 * se
        assert abs(gap_tilde - 0.6 * cfg.hidden_kappa) < 3 * t.kappa_tilde_se[0]

    def test_separated_targets_for_checked_in_calibration(self):
        # analytic values for the shipped omitted-variable calibration
        cfg = packaged_config("ite_gap")
        t = plim_targets(cfg, oracle_draws=100_000, seed=10, n_blocks=20)
        assert abs(t.kappa_tilde[0] - (-0.15)) < 4 * t.kappa_tilde_se[0]
        rho, a2, b2 = 0.6, 1.0, 1.0
        analytic = -0.75 + rho * (a2 + 3 * b2) / (a2 + b2 * (1 + 2 * rho**2))
        assert abs(t.ite_plim_kappa1 - analytic) < 4 * t.ite_plim_kappa1_se
        assert np.sign(t.kappa_tilde[0]) != np.sign(t.ite_plim_kappa1)

    def assert_on_exact_limits(self, cfg, **oracle):
        """plim_targets' two targets within 4 SE of `exact_limits`; returns
        the targets."""
        kappa_tilde, ite_kappa1 = exact_limits(cfg)
        t = plim_targets(cfg, **oracle)
        assert np.all(np.abs(t.kappa_tilde - kappa_tilde)
                      < 4 * t.kappa_tilde_se)
        assert abs(t.ite_plim_kappa1 - ite_kappa1) < 4 * t.ite_plim_kappa1_se
        return t

    def test_ite_gap_targets_match_their_exact_limits(self):
        # ite_gap: H and the hidden h standard normal with corr 0.6, and
        # sd(x) = sqrt(1 + h^2), so kappa_tilde = -0.75 + 0.6 and ITE's limit
        # is -0.75 + E[(1 + h^2) H h] / E[(1 + h^2) H^2] = -0.75 + 2.4 / 2.72
        cfg = packaged_config("ite_gap")
        kappa_tilde, ite_kappa1 = exact_limits(cfg)
        assert kappa_tilde == pytest.approx([-0.75 + 0.6])
        assert ite_kappa1 == pytest.approx(-0.75 + 2.4 / 2.72)
        self.assert_on_exact_limits(cfg, oracle_draws=2_000_000, n_blocks=40,
                                    seed=0)

    def test_correlated_random_effects_targets_are_kappa(self):
        # K_x = 1, K_g = K_z = 0 and eps independent of everything: both
        # limits are kappa exactly
        cfg = scalar_config(dims=Dims(n=200, T=4, K_x=1, K_g=0, K_z=0, K_h=1),
                            kappa=(-0.75,), phi=((),), gamma=(),
                            scenario="correlated_random_effects")
        assert exact_limits(cfg) == ((-0.75,), -0.75)
        self.assert_on_exact_limits(cfg, oracle_draws=400_000, seed=38,
                                    n_blocks=40)

    def test_baseline_with_a_constant_column_targets_are_kappa(self):
        # x2 constant and x1 loading on its unit effect: the demeaning of
        # ITE's x~ removes the loading, so both limits are kappa
        cfg = DgpConfig(dims=Dims(n=200, T=6, K_x=2, K_h=1), kappa=(0.5,),
                        x_constant_cols=(2,), x_fe_loading=0.5,
                        delta_mean=1.0, delta_scale=0.5, u_scale=0.5,
                        v_scale=0.2, eps_scale=0.2)
        assert exact_limits(cfg) == ((0.5,), 0.5)
        t = self.assert_on_exact_limits(cfg, oracle_draws=400_000, seed=39,
                                        n_blocks=40)
        assert t.kappa_tilde_se[0] < 1e-3 and t.ite_plim_kappa1_se < 1e-3

    def test_measurement_error_attenuation(self):
        # projection on the noisy h shrinks by var(h)/(var(h)+noise^2)
        cfg = scalar_config(scenario="measurement_error", h_noise_scale=0.5,
                            h_mean=0.0, h_scale=1.0)
        t = plim_targets(cfg, oracle_draws=60_000, seed=11, n_blocks=12)
        assert abs(t.kappa_tilde[0] - 0.8 / 1.25) < 4 * t.kappa_tilde_se[0]

    def test_shape_gate(self):
        cfg = packaged_config("baseline")  # two non-constant x columns? no:
        # baseline has x2 constant, so exactly one varying column and the
        # one-step limit is available
        t = plim_targets(cfg, oracle_draws=4_000, seed=12, n_blocks=4)
        assert t.ite_plim_kappa1 is not None
        wide = scalar_config(dims=Dims(n=100, T=4, K_x=2, K_g=1, K_z=1, K_h=1),
                             phi=((0.5,), (0.0,)))
        t2 = plim_targets(wide, oracle_draws=4_000, seed=13, n_blocks=4)
        assert t2.ite_plim_kappa1 is None

    def test_simulation_se_shrinks_with_draws(self):
        cfg = packaged_config("ite_gap")
        small = plim_targets(cfg, oracle_draws=5_000, seed=14, n_blocks=10)
        big = plim_targets(cfg, oracle_draws=80_000, seed=14, n_blocks=10)
        assert big.kappa_tilde_se[0] < small.kappa_tilde_se[0]
        assert big.ite_plim_kappa1_se < small.ite_plim_kappa1_se

    def test_deterministic_given_seed(self):
        cfg = packaged_config("ite_gap")
        a = plim_targets(cfg, oracle_draws=5_000, seed=15, n_blocks=5)
        b = plim_targets(cfg, oracle_draws=5_000, seed=15, n_blocks=5)
        assert np.array_equal(a.kappa_tilde, b.kappa_tilde)
        assert a.ite_plim_kappa1 == b.ite_plim_kappa1

    def test_oracle_factors_no_x(self, monkeypatch):
        # K_x = 1: the one-step fit reads PsiTilde and Y only (M_{i,-1} = I),
        # so the oracle blocks factor no X_i, and its values are those of
        # ite on the blocks of a full build
        from interpanel.data import build_regressors

        cfg = packaged_config("ite_gap")
        assert cfg.dims.K_x == 1
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr",
                            lambda *a, **k: calls.append(a[0].shape) or qr(*a, **k))
        t = plim_targets(cfg, oracle_draws=4_000, seed=16, n_blocks=4)
        assert calls == []
        monkeypatch.setattr(np.linalg, "qr", qr)
        monkeypatch.setattr("interpanel.dgp.build_ite_blocks",
                            lambda ds: build_regressors(ds).ite)
        full = plim_targets(cfg, oracle_draws=4_000, seed=16, n_blocks=4)
        assert t.to_dict() == full.to_dict()

    def test_large_sample_ite_tracks_its_own_limit(self):
        # one n=20000 draw from the omitted-variable calibration: the
        # one-step estimate sits on its own limit, far from kappa_tilde
        from interpanel.data import build_regressors
        from interpanel.estimators import ite
        from interpanel.inference import ite_se

        cfg = packaged_config("ite_gap")
        cfg = replace(cfg, dims=replace(cfg.dims, n=20_000), seed=77)
        ds = simulate(cfg).dataset
        dr = build_regressors(ds)
        kappa1 = ite(dr.ite)[0]
        est_se = float(ite_se(dr.ite).se[0])
        t = plim_targets(cfg, oracle_draws=200_000, seed=78, n_blocks=20)
        # both the estimate and the oracle carry simulation noise
        se = np.hypot(est_se, t.ite_plim_kappa1_se)
        assert abs(kappa1 - t.ite_plim_kappa1) < 3 * se
        assert abs(kappa1 - t.kappa_tilde[0]) \
            > 3 * np.hypot(est_se, t.kappa_tilde_se[0])
