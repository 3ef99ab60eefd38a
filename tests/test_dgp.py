from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from interpanel.data import Dims
from interpanel.dgp import (ConfigInvalid, DgpConfig, load_dgp_config,
                            packaged_config, plim_targets, simulate)


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

    def test_bad_constant_cols(self):
        with pytest.raises(ConfigInvalid):
            scalar_config(x_constant_cols=(2,))


class TestSimulate:
    def test_zero_noise_reduced_form(self):
        # with no shocks and scalar blocks, Y = X(H kappa + G phi) + Z gamma
        cfg = scalar_config(u_scale=0.0, v_scale=0.0, eps_scale=0.0)
        t = simulate(cfg)
        ds = t.dataset
        want = ds.X[:, :, 0] * (ds.H[:, 0][:, None] * 0.8
                                + ds.G[:, :, 0] * 0.5) + ds.Z[:, :, 0] * 1.2
        assert np.max(np.abs(ds.Y - want)) < 1e-12

    def test_reconstruction_identity(self):
        for name in ("baseline", "ite_gap", "correlated_x"):
            cfg = packaged_config(name)
            cfg = replace(cfg, dims=replace(cfg.dims, n=50))
            assert simulate(cfg).reconstruction_error() < 1e-12

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
        res = ite(ds, dr)
        est_se = float(ite_se(dr, res).se[0])
        t = plim_targets(cfg, oracle_draws=200_000, seed=78, n_blocks=20)
        # both the estimate and the oracle carry simulation noise
        se = np.hypot(est_se, t.ite_plim_kappa1_se)
        assert abs(res.kappa_hat[0] - t.ite_plim_kappa1) < 3 * se
        assert abs(res.kappa_hat[0] - t.kappa_tilde[0]) \
            > 3 * np.hypot(est_se, t.kappa_tilde_se[0])
