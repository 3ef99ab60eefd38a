from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from interpanel.data import (Dims, MissingColumn, MissingField, NonConstantH,
                             NonFiniteValue, UnbalancedPanel, add_intercept_h,
                             build_regressors, drop_failing_units, load_csv,
                             make_dataset, subset_units, validate, write_csv)
from interpanel.dgp import packaged_config, simulate
from interpanel.linalg import RankDeficient, residual_makers

from conftest import kron_block_loops, random_panel


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


class TestDims:
    def test_valid(self):
        d = Dims(n=4, T=3, K_x=2, K_g=1, K_z=1, K_h=1)
        assert d.n_psi == 3
        assert d.n_psi_tilde == 4

    @pytest.mark.parametrize("kwargs", [
        dict(n=1, T=3, K_x=1),
        dict(n=4, T=0, K_x=1),
        dict(n=4, T=2, K_x=3),
        dict(n=4, T=3, K_x=1, K_g=-1),
        dict(n=2, T=1, K_x=1, K_g=5, K_z=0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Dims(**kwargs)


class TestLoadCsv:
    def test_minimal_shape(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[u, t, 0.5 * u + t, u * t] for u in (1, 2) for t in (1, 2, 3)]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        ds = load_csv(path)
        d = ds.dims
        assert (d.n, d.T, d.K_x, d.K_g, d.K_z, d.K_h) == (2, 3, 1, 0, 0, 0)
        assert ds.unit_labels == (1, 2)

    def test_row_order_is_irrelevant(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[2, 3, 23, 1], [1, 1, 11, 1], [2, 1, 21, 1],
                [1, 3, 13, 1], [1, 2, 12, 1], [2, 2, 22, 1]]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        ds = load_csv(path)
        assert_allclose(ds.Y, [[11, 12, 13], [21, 22, 23]])

    def test_non_constant_h(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[7, 1, 1.0, 1.0, 0.2], [7, 2, 1.0, 1.0, 0.3],
                [8, 1, 1.0, 1.0, 0.5], [8, 2, 1.0, 1.0, 0.5]]
        write_rows(path, ["unit", "time", "y", "x1", "h1"], rows)
        with pytest.raises(NonConstantH) as err:
            load_csv(path)
        assert err.value.unit == 7
        assert err.value.column == "h1"

    def test_missing_column(self, tmp_path):
        path = tmp_path / "p.csv"
        write_rows(path, ["unit", "time", "x1"], [[1, 1, 1], [2, 1, 1]])
        with pytest.raises(MissingColumn):
            load_csv(path)

    def test_unbalanced(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[1, 1, 0, 1], [1, 2, 0, 1], [2, 1, 0, 1]]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        with pytest.raises(UnbalancedPanel) as err:
            load_csv(path)
        assert err.value.unit == 2

    def test_non_finite(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[1, 1, "nan", 1], [1, 2, 0, 1], [2, 1, 0, 1], [2, 2, 0, 1]]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        with pytest.raises(NonFiniteValue):
            load_csv(path)

    def test_short_row_names_row_and_column(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[1.0, 2.0, 1, 1], [1.5, 2.5, 2, 1], [2.0, 3.0, 1, 2],
                [3.0, 4.0, 2]]
        write_rows(path, ["y", "x1", "time", "unit"], rows)
        with pytest.raises(MissingField) as err:
            load_csv(path)
        assert (err.value.row, err.value.column) == (5, "unit")

    def test_schema_mapping(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = [[s, yr, 0.1, 0.2, 0.3, 0.4]
                for s in ("CA", "TX") for yr in (2001, 2002)]
        write_rows(path, ["state", "year", "rate", "tax", "unemp", "mormon"],
                   rows)
        ds = load_csv(path, schema={"unit": "state", "time": "year",
                                    "y": "rate", "x": ["tax"],
                                    "g": ["unemp"], "h": ["mormon"]})
        assert ds.dims.K_g == 1 and ds.dims.K_h == 1
        assert ds.columns["x"] == ["tax"]

    @pytest.mark.parametrize("units, want", [
        ((10, 2), (2, 10)),                # all numeric: numeric order
        (("u10", "u2"), ("u10", "u2")),    # all text: text order
        ((10, "a", 2), (10, 2, "a")),      # mixed: text order, no TypeError
    ])
    def test_label_order(self, tmp_path, units, want):
        path = tmp_path / "p.csv"
        rows = [[u, t, 1.0, 2.0] for u in units for t in ("b", 1)]
        write_rows(path, ["unit", "time", "y", "x1"], rows)
        ds = load_csv(path)
        assert ds.unit_labels == want
        assert ds.time_labels == (1, "b")

    def test_round_trip_bit_identical(self, tmp_path):
        cfg = packaged_config("baseline")
        from dataclasses import replace
        cfg = replace(cfg, dims=replace(cfg.dims, n=17), seed=5)
        ds = simulate(cfg).dataset
        path = tmp_path / "sim.csv"
        write_csv(ds, path)
        back = load_csv(path)
        for name in ("Y", "X", "G", "Z", "H"):
            a, b = getattr(ds, name), getattr(back, name)
            assert np.array_equal(a, b), name
        assert back.unit_labels == ds.unit_labels
        assert back.time_labels == ds.time_labels


class TestBuildRegressors:
    def test_no_g_means_psi_is_z(self):
        ds = random_panel(0, K_g=0, K_z=1)
        dr = build_regressors(ds)
        assert_allclose(dr.Psi, ds.Z)

    def test_scalar_case_column_layout(self):
        ds = random_panel(1, K_x=1, K_g=1, K_z=1, K_h=1)
        dr = build_regressors(ds)
        assert_allclose(dr.Psi[:, :, 0], ds.X[:, :, 0] * ds.G[:, :, 0])
        assert_allclose(dr.Psi[:, :, 1], ds.Z[:, :, 0])
        assert_allclose(dr.PsiTilde[:, :, 0],
                        ds.X[:, :, 0] * ds.H[:, 0][:, None])

    def test_kron_block_double_loop_oracle(self):
        ds = random_panel(2, K_x=3, K_g=2, K_z=0)
        dr = build_regressors(ds)
        assert_allclose(dr.Psi, kron_block_loops(ds.X, ds.G), atol=1e-14)

    def test_column_counts(self):
        ds = random_panel(3, K_x=2, K_g=2, K_z=1, K_h=3)
        dr = build_regressors(ds)
        assert dr.Psi.shape[2] == 2 * 2 + 1
        assert dr.PsiTilde.shape[2] == 3 + 2 * 2 + 1

    def test_annihilation_invariants(self):
        # each stored projection is orthogonal to the X block it removes
        ds = random_panel(4, n=20, K_x=2)
        dr = build_regressors(ds)
        X, X1 = ds.X, ds.X[:, :, 1:]
        for A, B in ((X, dr.MPsi), (X, dr.MY[:, :, None]),
                     (X1, dr.M1PsiTilde), (X1, dr.M1Y[:, :, None])):
            assert np.max(np.abs(np.einsum("ntk,ntp->nkp", A, B))) < 1e-9

    def test_take_matches_rebuild_on_subset(self):
        ds = random_panel(6, n=10, K_x=2)
        idx = np.array([3, 0, 3, 9, 9, 1])
        taken = build_regressors(ds).take(idx)
        rebuilt = build_regressors(subset_units(ds, idx))
        for f in fields(taken):
            assert_allclose(getattr(taken, f.name), getattr(rebuilt, f.name),
                            atol=1e-12, err_msg=f.name)

    def test_empty_design_is_not_factored(self, monkeypatch):
        # K_x = 1: X_{i,-1} has no columns, so M_i = I and only X_i is factored
        shapes = []

        def counting(X):
            shapes.append(X.shape)
            return residual_makers(X)

        monkeypatch.setattr("interpanel.data.residual_makers", counting)
        ds = random_panel(7, K_x=1)
        dr = build_regressors(ds)
        assert shapes == [ds.X.shape]
        assert np.array_equal(dr.M1PsiTilde, dr.PsiTilde)
        assert np.array_equal(dr.M1Y, dr.Y)

    def test_rank_deficient_unit_is_named(self):
        ds = random_panel(5, n=6)
        X = ds.X.copy()
        X[4, :, 1] = 3.0 * X[4, :, 0]
        bad = make_dataset(ds.Y, X, ds.G, ds.Z, ds.H,
                           unit_labels=list("abcdef"))
        with pytest.raises(RankDeficient) as err:
            build_regressors(bad)
        assert err.value.unit == "e"
        assert "unit e" in str(err.value)


class TestValidate:
    def test_constant_x_unit_flagged(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 2, 2))
        X[:, :, 1] = 1.0
        X[3, :, 0] = 2.0  # both columns constant for unit 3
        ds = make_dataset(rng.normal(size=(5, 2)), X)
        report = validate(ds)
        assert not report.checks["unit_x_variation"]
        assert 4 in report.failing_units_x

    def test_duplicated_h_column_flagged(self):
        ds = random_panel(9, K_h=2)
        H = ds.H.copy()
        H[:, 1] = H[:, 0]
        dup = make_dataset(ds.Y, ds.X, ds.G, ds.Z, H)
        report = validate(dup)
        assert not report.checks["h_rank"]
        assert not report.passed

    def test_baseline_simulation_passes(self, baseline_config):
        from dataclasses import replace
        cfg = replace(baseline_config,
                      dims=replace(baseline_config.dims, n=100), seed=77)
        report = validate(simulate(cfg).dataset)
        assert report.passed
        assert all(m > 0 for m in report.pooled_margins.values())
        assert report.to_dict()["passed"] is True

    def test_drop_failing_units(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(6, 3, 2))
        X[:, :, 1] = 1.0
        X[2, :, 0] = 5.0
        ds = make_dataset(rng.normal(size=(6, 3)), X)
        report = validate(ds)
        kept, dropped = drop_failing_units(ds, report)
        assert dropped == (3,)
        assert kept.dims.n == 5
        assert kept is report.panel
        assert kept.unit_labels == (1, 2, 4, 5, 6)

    def test_regressors_built_on_the_input_when_nothing_fails(self):
        ds = random_panel(13, n=10)
        report = validate(ds)
        assert report.panel is ds
        assert drop_failing_units(ds, report) == (ds, ())
        rebuilt = build_regressors(ds)
        for f in fields(rebuilt):
            assert np.array_equal(getattr(report.regressors, f.name),
                                  getattr(rebuilt, f.name)), f.name
        assert not {"panel", "regressors"} & set(report.to_dict())

    def test_no_regressors_when_kept_units_fail_the_rank_rule(self):
        # h_min < 0 keeps every unit, but unit 5 is exactly collinear
        ds = random_panel(14, n=6)
        X = ds.X.copy()
        X[4, :, 1] = 3.0 * X[4, :, 0]
        bad = make_dataset(ds.Y, X, ds.G, ds.Z, ds.H)
        report = validate(bad, h_min=-1.0)
        assert report.panel is bad
        assert report.regressors is None
        assert report.pooled_margins["psi_m_psi"] == 0.0

    @pytest.mark.parametrize("factor", [1e3, 1e-3])
    def test_rescaling_one_unit_moves_no_verdict(self, baseline_config, factor):
        from dataclasses import replace
        cfg = replace(baseline_config,
                      dims=replace(baseline_config.dims, n=300, T=6), seed=3)
        ds = simulate(cfg).dataset
        X = ds.X.copy()
        X[7] *= factor
        scaled = make_dataset(ds.Y, X, ds.G, ds.Z, ds.H)
        before, after = validate(ds), validate(scaled)
        assert after.failing_units_x == before.failing_units_x == ()
        assert after.failing_units_x_minus1 == before.failing_units_x_minus1
        assert_allclose(after.unit_margin_x, before.unit_margin_x, rtol=1e-9)


class TestHelpers:
    def test_subset_units(self):
        ds = random_panel(11, n=8)
        sub = subset_units(ds, [0, 3, 3])
        assert sub.dims.n == 3
        assert sub.unit_labels == (1, 4, 4)
        assert_allclose(sub.Y[1], ds.Y[3])

    def test_add_intercept_h(self):
        ds = random_panel(12, K_h=1)
        out = add_intercept_h(ds)
        assert out.dims.K_h == 2
        assert_allclose(out.H[:, 0], 1.0)
        assert out.columns["h"][0] == "h_const"
