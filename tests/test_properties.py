"""Invariances of the two estimators, checked on random panels, and of
the CSV and simulator-config round trips, and of the config checks.

Each estimator property holds exactly in exact arithmetic; the tolerances
only absorb rounding in the per-unit projections and the pooled solve.
"""

import contextlib
import csv
import io
import json
import os
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose

from interpanel import cli
from interpanel.cli import _float_array_json
from interpanel.data import (BLOCKS, FLOAT_FORMAT, Dims, _parse_label,
                             _sorted_labels, build_regressors, factor_units,
                             load_csv, make_dataset, subset_units, validate,
                             write_csv)
from interpanel.dgp import _FIELDS, SCENARIOS, ConfigInvalid, DgpConfig
from interpanel.estimators import (WEIGHT_MODES, cite_delta, cite_kappa,
                                   cite_theta, fit_cite, inv11, ite)
from interpanel.harness import _FIELDS as MC_FIELDS, ExperimentConfig
from interpanel.inference import (bootstrap_cite, cite_kappa_se,
                                  cite_theta_se, draw_kappas, ite_se,
                                  unit_summaries)
from interpanel.linalg import RankDeficient, solve_ols, unit_rank_deficient

from conftest import (NAMED_ERRORS, assert_same_bits, load_outcome,
                      random_panel)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
COEF = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def panels(draw, max_K_g=2, min_K_h=0):
    K_x = draw(st.integers(1, 3))
    return random_panel(draw(st.integers(0, 2**32 - 1)),
                        n=draw(st.integers(5, 9)),
                        T=K_x + draw(st.integers(2, 4)), K_x=K_x,
                        K_g=draw(st.integers(0, max_K_g)),
                        K_z=draw(st.integers(0, 2)),
                        K_h=draw(st.integers(min_K_h, 2)))


@st.composite
def invertible(draw, n, k):
    """n matrices L D U: unit-triangular L, U and a diagonal D, |D| in [1/2, 2]."""
    off = draw(arrays(float, (2, n, k, k), elements=st.floats(-1, 1)))
    d = draw(arrays(float, (n, k), elements=st.floats(0.5, 2)))
    sign = draw(arrays(bool, (n, k)))
    L = np.tril(off[0], -1) + np.eye(k)
    U = np.triu(off[1], 1) + np.eye(k)
    return L @ (np.where(sign, -d, d)[:, :, None] * U)


def with_y(ds, Y):
    return make_dataset(Y, ds.X, ds.G, ds.Z, ds.H)


def with_x(ds, X):
    return make_dataset(ds.Y, X, ds.G, ds.Z, ds.H)


def theta_of(ds):
    return cite_theta(build_regressors(ds).cite)


def ite_of(ds):
    return ite(build_regressors(ds).ite)


def assert_same_estimates(a, b):
    assert_allclose(theta_of(a), theta_of(b), rtol=0, atol=1e-8)
    assert_allclose(ite_of(a), ite_of(b),
                    rtol=0, atol=1e-8)


@PROPERTY
@given(data=st.data(), ds=panels())
def test_cite_theta_ignores_own_x_shift(data, ds):
    c = data.draw(arrays(float, (ds.dims.n, ds.dims.K_x), elements=COEF))
    shifted = with_y(ds, ds.Y + np.einsum("ntk,nk->nt", ds.X, c))
    assert_allclose(theta_of(shifted), theta_of(ds), rtol=0, atol=1e-8)


@PROPERTY
@given(data=st.data(), ds=panels())
def test_ite_ignores_shift_along_x_minus1(data, ds):
    X1 = ds.X[:, :, 1:]
    c = data.draw(arrays(float, (ds.dims.n, X1.shape[2]), elements=COEF))
    shifted = with_y(ds, ds.Y + np.einsum("ntk,nk->nt", X1, c))
    assert_allclose(ite_of(shifted), ite_of(ds),
                    rtol=0, atol=1e-8)


@PROPERTY
@given(data=st.data(), ds=panels())
def test_cite_theta_shifts_by_psi_coefficients(data, ds):
    b = data.draw(arrays(float, (ds.dims.n_psi,), elements=COEF))
    Psi = build_regressors(ds).cite.Psi
    shifted = with_y(ds, ds.Y + Psi @ b)
    assert_allclose(theta_of(shifted), theta_of(ds) + b, rtol=0, atol=1e-8)


@PROPERTY
@given(data=st.data(), ds=panels())
def test_estimates_ignore_unit_order(data, ds):
    perm = data.draw(st.permutations(range(ds.dims.n)))
    assert_same_estimates(subset_units(ds, perm), ds)


@PROPERTY
@given(data=st.data(), ds=panels())
def test_estimates_ignore_period_order_within_units(data, ds):
    T = ds.dims.T
    order = np.array([data.draw(st.permutations(range(T)))
                      for _ in range(ds.dims.n)])
    rows = np.arange(ds.dims.n)[:, None]
    shuffled = make_dataset(ds.Y[rows, order], ds.X[rows, order],
                            ds.G[rows, order], ds.Z[rows, order], ds.H)
    assert_same_estimates(shuffled, ds)


@PROPERTY
@given(data=st.data(), ds=panels(max_K_g=0))
def test_cite_theta_ignores_own_x_basis(data, ds):
    # with K_g = 0, Psi holds no X column, so only span(X_i) matters
    A = data.draw(invertible(ds.dims.n, ds.dims.K_x))
    moved = with_x(ds, np.einsum("ntk,nkj->ntj", ds.X, A))
    assert_allclose(theta_of(moved), theta_of(ds), rtol=0, atol=1e-8)


@PROPERTY
@given(data=st.data(), ds=panels(max_K_g=0))
def test_ite_ignores_x_minus1_basis(data, ds):
    A = data.draw(invertible(ds.dims.n, ds.dims.K_x - 1))
    X = ds.X.copy()
    X[:, :, 1:] = np.einsum("ntk,nkj->ntj", ds.X[:, :, 1:], A)
    assert_allclose(ite_of(with_x(ds, X)),
                    ite_of(ds), rtol=0, atol=1e-8)


# Panel shapes for the bootstrap draw kernel, (K_x, T - K_x, K_g, K_z, K_h),
# with the tolerance of its kappa against the refit, relative to max|kappa|.
# At T = K_x + 1 every unit residual has one degree of freedom, so some
# first-stage SEs are near 0 and their weights ill-determined: on 300
# pure-noise panels per mode the two paths differed by up to 3.6e-12
# there, each within 1.1e-11 of a 60-digit reference; elsewhere by at most
# 1e-12.
DRAW_SHAPES = {"psi": ((2, 3, 1, 1, 2), 1e-12),
               "psi_empty": ((2, 3, 0, 0, 2), 1e-12),
               "no_h": ((2, 3, 1, 1, 0), 1e-12),
               "one_x": ((1, 1, 0, 1, 1), 1e-12),
               "t_is_k_x_plus_1": ((2, 1, 1, 1, 2), 1e-11)}


@PROPERTY
@pytest.mark.parametrize("mode", WEIGHT_MODES)
@pytest.mark.parametrize("shape, rtol", DRAW_SHAPES.values(), ids=DRAW_SHAPES)
@given(data=st.data())
def test_draw_kernel_is_a_refit_of_the_resample(data, shape, rtol, mode):
    # each row of a batch of draws, fitted from the per-unit summaries and
    # the count matrix, is the kappa of fit_cite on the reindexed blocks,
    # or is flagged where that refit raises RankDeficient
    K_x, extra_T, K_g, K_z, K_h = shape
    n = data.draw(st.integers(max(K_h, 2) + 1, 12))
    ds = random_panel(data.draw(st.integers(0, 2**32 - 1)), n=n,
                      T=K_x + extra_T, K_x=K_x, K_g=K_g, K_z=K_z, K_h=K_h)
    idx = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n,
                                      max_size=n), min_size=1, max_size=3))
    # a draw whose pooled stage fits exactly has first-stage residuals of
    # rounding size only, and weights 1/se from that noise on either path
    idx = [np.array(i) for i in idx
           if mode == "none" or np.unique(i).size * extra_T > ds.dims.n_psi]
    assume(idx)
    dr = build_regressors(ds).cite
    got, failed = draw_kappas(unit_summaries(dr),
                              np.stack([np.bincount(i, minlength=n) for i in idx]),
                              mode)
    for j, i in enumerate(idx):
        sub_cite = build_regressors(subset_units(ds, i)).cite
        try:
            want = fit_cite(sub_cite, mode).kappa_hat
        except RankDeficient:
            assert failed[j]
            continue
        assert not failed[j]
        # relative to the size of kappa: an entry near 0 has no relative digits
        assert_allclose(got[j], want, rtol=rtol,
                        atol=rtol * np.max(np.abs(want), initial=0.0))


@PROPERTY
@given(data=st.data(), ds=panels(),
       h_min=st.sampled_from([-1.0, 0.0, 1e-300, 1e-8]))
def test_validate_keeps_only_units_the_solver_factors(data, ds, h_min):
    # plant units whose X column c becomes a times the next column plus
    # eps times itself (a = 0 at K_x = 1; eps = 0: exactly collinear, or a
    # zero column); whatever h_min lets through the trim, validate fails
    # every unit whose own QR fails the solver's rank rule, and the blocks
    # build on the rest
    n, _, K_x = ds.X.shape
    X = ds.X.copy()
    planted = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=n - 2, unique=True))
    for i in planted:
        c = data.draw(st.integers(0, K_x - 1))
        a = data.draw(COEF) if K_x > 1 else 0.0
        eps = data.draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]))
        X[i, :, c] = a * X[i, :, (c + 1) % K_x] + eps * X[i, :, c]
    ds = with_x(ds, X)
    report = validate(ds, h_min=h_min)
    failing = set(report.failing_units_x) | set(report.failing_units_x_minus1)
    for i, label in enumerate(ds.unit_labels):
        for design in (X[i:i + 1], X[i:i + 1, :, 1:]):
            if unit_rank_deficient(factor_units(design)[1])[0][0]:
                assert label in failing
    kept = [i for i, u in enumerate(ds.unit_labels) if u not in failing]
    if len(kept) >= 2:
        assert report.regressors is not None
        build_regressors(subset_units(ds, kept))


def fits(fit, *args):
    """Whether `fit(*args)` returns rather than raise RankDeficient."""
    return not isinstance(outcome(fit, *args), str)


def outcome(fit, *args):
    """What `fit(*args)` returns, or the text of the RankDeficient it
    raises."""
    try:
        return fit(*args)
    except RankDeficient as exc:
        return str(exc)


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), log_eps=st.floats(-12, -2),
       log_eps_h=st.floats(-12, -2))
def test_each_pooled_verdict_is_the_solvers(seed, log_eps, log_eps_h):
    # z1 = x1 g1 + 10^log_eps noise makes both pooled designs nearly
    # collinear, h2 = h1 + 10^log_eps_h noise the second stage's; each
    # pooled check passes exactly when its fit returns on blocks built
    # afresh from the report's panel (the report's own blocks hold the
    # fit their check read), the fits on the report's blocks are those
    # fits bit for bit, and no margin is negative
    ds = random_panel(seed, n=4, T=3, K_x=2, K_g=1, K_z=1, K_h=2)
    rng = np.random.default_rng([seed, 1])
    Z = ds.X[:, :, :1] * ds.G + 10.0 ** log_eps * rng.normal(size=ds.Z.shape)
    H = ds.H.copy()
    H[:, 1] = H[:, 0] + 10.0 ** log_eps_h * rng.normal(size=4)
    report = validate(make_dataset(ds.Y, ds.X, ds.G, Z, H), h_min=-1.0)
    assume(report.regressors is not None)
    panel, dr = report.panel, report.regressors
    fresh = build_regressors(panel)
    delta1 = rng.normal(size=panel.dims.n)
    checks = report.checks
    assert checks["pooled_psi_rank"] == fits(cite_theta, fresh.cite)
    assert checks["pooled_psi_tilde_rank"] == fits(ite, fresh.ite)
    assert checks["h_rank"] == fits(cite_kappa, delta1, panel.H)
    assert (checks["pooled_psi_rank"] and checks["h_rank"]) == \
        fits(fit_cite, build_regressors(panel).cite)
    assert all(m >= 0.0 for m in report.pooled_margins.values())
    for fit in (lambda blocks: cite_theta(blocks.cite),
                lambda blocks: ite(blocks.ite)):
        got, want = outcome(fit, dr), outcome(fit, fresh)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_bits(got, want)


@PROPERTY
@given(ds=panels(min_K_h=1))
def test_ite_is_a_weighted_cite(ds):
    # the one-step fit partials Psi_i theta out of Y_i at its own theta;
    # what remains of unit i is M_{i,-1} x_i1 (h_i'kappa), so its kappa is
    # the CITE kappa stage on the slopes delta_i1 at that theta, unit i
    # weighted by x_i1'M_{i,-1} x_i1 = 1 / [(X_i'X_i)^{-1}]_11
    dr = build_regressors(ds)
    K_h = ds.dims.K_h
    res = ite(dr.ite)
    delta1 = cite_delta(dr.cite, res[K_h:])[:, 0]
    want = cite_kappa(delta1, ds.H, 1 / inv11(dr.cite.r_x))
    assert_allclose(res[:K_h], want, rtol=0, atol=1e-8)


# Entries of a kappa-stage solve: signed zeros, subnormals, magnitudes
# near 1e-150 and 1e150, and plain numbers
SOLVE_VALUES = (st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-308])
                | st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10),
                            st.sampled_from([-155, -150, -145, 145, 150, 155]))
                | st.floats(-1e3, 1e3))


def solve_outcome(solve):
    """The coefficients `solve()` returns, or the condition and the reason
    (without its stage) of the RankDeficient it raises."""
    try:
        return solve()
    except RankDeficient as exc:
        return exc.condition, str(exc).removeprefix("CITE kappa stage: ")


@PROPERTY
@given(data=st.data(), n=st.integers(1, 6), K_h=st.integers(0, 3))
def test_unweighted_kappa_stage_is_unit_weights(data, n, K_h):
    # no weights means w_i = 1: the rows sqrt(1) [H_i | delta1_i] are
    # [H_i | delta1_i] themselves, so the solve is that of (H, delta1)
    H = data.draw(arrays(float, (n, K_h), elements=SOLVE_VALUES))
    d = data.draw(arrays(float, n, elements=SOLVE_VALUES))
    want = solve_outcome(lambda: solve_ols(H, d).coefficients)
    for weights in (None, np.ones(n)):
        got = solve_outcome(lambda: cite_kappa(d, H, weights))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_bits(got, want)


@st.composite
def tiny_panels(draw):
    """Panels down to the smallest dims: n <= 5, T <= 3, each K <= 5 and
    K_x <= T. They are drawn directly, not through a DgpConfig, so that
    fewer units than K_h, fewer rows than columns and T = K_x all occur."""
    T = draw(st.integers(1, 3))
    return random_panel(draw(st.integers(0, 2**32 - 1)),
                        n=draw(st.integers(2, 5)), T=T,
                        K_x=draw(st.integers(1, T)),
                        K_g=draw(st.integers(0, 5)),
                        K_z=draw(st.integers(0, 5)),
                        K_h=draw(st.integers(0, 5)))


def named_outcome(fit, *args):
    """What `fit(*args)` returns, or the named error it raises; any other
    error propagates."""
    try:
        return fit(*args)
    except NAMED_ERRORS as exc:
        return exc


ESTIMATE_ARGS = [None, ["--se", "cluster"],
                 ["--estimator", "cite", "--se", "bootstrap", "--weight-mode",
                  "inv_se", "--bootstrap-reps", "50"]]


@settings(PROPERTY, max_examples=100)
@given(ds=tiny_panels(), estimate=st.sampled_from(ESTIMATE_ARGS))
def test_fits_and_ses_fail_only_by_named_errors(ds, estimate):
    # every fit and SE on any panel returns or raises one of the package's
    # named errors, the bootstrap of every fit that passes included; and
    # `estimate` on the panel's CSV exits 0, or 1 with one error line
    named_outcome(validate, ds)
    dr = named_outcome(build_regressors, ds)
    if not isinstance(dr, Exception):
        named_outcome(ite, dr.ite)
        named_outcome(ite_se, dr.ite)
        named_outcome(cite_theta_se, dr.cite)
        for mode in ("none", "inv_se"):
            res = named_outcome(fit_cite, dr.cite, mode)
            if not isinstance(res, Exception):
                named_outcome(cite_kappa_se, dr.cite, res)
                named_outcome(bootstrap_cite, dr.cite, res, 50, 0)
    if estimate is None:
        return
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        write_csv(ds, path)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["estimate", "--input", path] + estimate)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert "Traceback" not in err.getvalue()
    assert (code, len(errors)) in ((0, 0), (1, 1))
    if code:
        assert errors[0].startswith("error: ") and out.getvalue() == ""


# Text labels that stay text: quoting, commas and line breaks included.
TEXT_LABEL = st.text(alphabet='ab ,"\n1', min_size=1, max_size=4).filter(
    lambda s: _parse_label(s) == s)


@st.composite
def unit_labels(draw, n):
    kind = draw(st.sampled_from(["int", "text", "mixed"]))
    ints = st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n,
                    unique=True)
    if kind == "int":
        return draw(ints)
    texts = draw(st.lists(TEXT_LABEL, min_size=n, max_size=n, unique=True))
    if kind == "text":
        return texts
    return draw(ints)[: n // 2] + texts[n // 2:]


def per_cell_write_csv(ds, path):
    """write_csv as it was when it formatted one cell per call through
    csv.writer: the oracle for the bytes of the row-format writer."""
    cols = ds.columns
    header = (["unit", "time", "y"] + list(cols["x"]) + list(cols["g"])
              + list(cols["z"]) + list(cols["h"]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, u in enumerate(ds.unit_labels):
            for j, t in enumerate(ds.time_labels):
                row = [u, t, FLOAT_FORMAT % ds.Y[i, j]]
                row += [FLOAT_FORMAT % v for v in ds.X[i, j]]
                row += [FLOAT_FORMAT % v for v in ds.G[i, j]]
                row += [FLOAT_FORMAT % v for v in ds.Z[i, j]]
                row += [FLOAT_FORMAT % v for v in ds.H[i]]
                writer.writerow(row)


# Any finite float, with signed zero, subnormals and the extremes drawn often.
CSV_VALUE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308])


@st.composite
def labelled_panels(draw):
    K_x = draw(st.integers(1, 2))
    n, T = draw(st.integers(3, 5)), K_x + draw(st.integers(1, 2))
    K_g, K_z, K_h = draw(st.just((0, 0, 0))
                         | st.tuples(*[st.integers(0, 2)] * 3))
    Y, X, G, Z = (draw(arrays(np.float64, (n, T, *k), elements=CSV_VALUE))
                  for k in ((), (K_x,), (K_g,), (K_z,)))
    H = draw(arrays(np.float64, (n, K_h), elements=CSV_VALUE))
    labels = [draw(unit_labels(size) | st.lists(TEXT_LABEL | st.just(""),
                                                min_size=size, max_size=size))
              for size in (n, T)]
    return make_dataset(Y, X, G, Z, H, *labels)


@PROPERTY
@given(ds=labelled_panels())
def test_write_csv_bytes_match_the_per_cell_writer(ds):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = (Path(tmp, name) for name in ("row.csv", "cell.csv"))
        write_csv(ds, got)
        per_cell_write_csv(ds, want)
        assert got.read_bytes() == want.read_bytes()


@PROPERTY
@given(data=st.data(), base=panels())
def test_csv_round_trip_is_bit_exact(data, base):
    # the rows and the columns shuffled, and every column renamed to
    # another one's name plus a quote (y may become "x1'"): the schema
    # alone says which column is which
    labels = _sorted_labels(data.draw(unit_labels(base.dims.n)))
    ds = make_dataset(base.Y, base.X, base.G, base.Z, base.H, labels)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        write_csv(ds, path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *records = csv.reader(fh)
        rename = dict(zip(header, (f"{c}'" for c in data.draw(
            st.permutations(header)))))
        cols = data.draw(st.permutations(range(len(header))))
        order = data.draw(st.permutations(range(len(records))))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(
                [[rename[header[c]] for c in cols]]
                + [[records[r][c] for c in cols] for r in order])
        columns = {b: [rename[c] for c in ds.columns[b]] for b in BLOCKS}
        back = load_csv(path, schema={
            **{role: rename[role] for role in ("unit", "time", "y")},
            **columns})
    for name in ("Y", "X", "G", "Z", "H"):
        assert np.array_equal(getattr(back, name), getattr(ds, name)), name
    assert back.unit_labels == ds.unit_labels
    assert back.time_labels == ds.time_labels
    assert back.columns == columns
    assert all(type(label) in (int, str)
               for label in back.unit_labels + back.time_labels)


@PROPERTY
@given(data=st.data(), ds=labelled_panels())
def test_loadtxt_pass_reads_a_written_panel_as_the_chunked_reader(data, ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "panel.csv")
        write_csv(ds, path)
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
        lines = []  # each record as csv.writer quotes it, without its "\r\n"
        csv.writer(SimpleNamespace(write=lines.append)).writerows(records)
        end = data.draw(st.sampled_from(["\r\n", "\n", "\r"]))
        blank = data.draw(st.lists(st.integers(0, 2), min_size=len(lines),
                                   max_size=len(lines)))
        path.write_text("".join(line[:-2] + end * (1 + b)
                                for line, b in zip(lines, blank)),
                        encoding="utf-8", newline="")
        got, by_records = load_outcome(path)
        assert got == load_outcome(path, fallback=True)[0]
    assert not by_records


@st.composite
def truth_arrays(draw):
    """1-d and 2-d float arrays, empty ones included; about half of them
    hold NaN or +-inf, which take the json.dumps fallback."""
    shape = draw(st.sampled_from([(0,), (0, 3), (4, 0)])
                 | array_shapes(min_dims=1, max_dims=2, max_side=6))
    values = CSV_VALUE
    if draw(st.booleans()):
        values |= st.sampled_from([np.nan, np.inf, -np.inf])
    return draw(arrays(np.float64, shape, elements=values))


def nested(doc, level):
    """`doc` as the value of `level` nested one-key objects."""
    for _ in range(level):
        doc = {"k": doc}
    return doc


def in_nested_text(text, level):
    """The text of nested(a, level) around `text`, the text of a."""
    for depth in reversed(range(level)):
        pad = "  " * depth
        text = "{\n" + pad + '  "k": ' + text + "\n" + pad + "}"
    return text


@settings(PROPERTY, max_examples=200)
@given(a=truth_arrays(), level=st.integers(0, 2))
def test_float_array_json_is_json_dumps(a, level):
    want = json.dumps(nested(a.tolist(), level), indent=2)
    assert in_nested_text(_float_array_json(a, level), level) == want


REAL = st.floats(-1e6, 1e6) | st.integers(-10**6, 10**6)
SCALE = st.floats(0, 1e6) | st.integers(0, 10**6)
# A value that no field of DgpConfig takes: no list has 4 entries. Of the
# Monte Carlo fields, only dgp takes one of them: {}.
BAD = st.sampled_from([None, "abc", float("nan"), float("inf"), True, {},
                       [0.0] * 4])


@st.composite
def dgp_json(draw):
    """JSON of a valid DgpConfig: each optional field drawn or left out."""
    K = {"K_x": draw(st.integers(1, 3)), "K_g": draw(st.integers(0, 2)),
         "K_z": draw(st.integers(0, 2)), "K_h": draw(st.integers(0, 2))}
    dims = {"n": draw(st.integers(10, 50)),
            "T": K["K_x"] + draw(st.integers(0, 3)), **K}
    scenarios = SCENARIOS if K["K_h"] else (
        "baseline", "measurement_error", "correlated_random_effects",
        "correlated_x_delta")

    def reals(k, elements=REAL):
        return st.lists(elements, min_size=k, max_size=k)

    def columns(k, elements=REAL):
        return elements | reals(k, elements)

    valid = {"kappa": reals(K["K_h"]),
             "phi": reals(K["K_x"], reals(K["K_g"])),
             "gamma": reals(K["K_z"]),
             "scenario": st.sampled_from(scenarios),
             "seed": st.integers(0, 2**64 - 1),
             "x.constant_cols": st.lists(st.integers(1, K["K_x"]), unique=True),
             "x.fe_loading": REAL, "x.eps_loading": REAL,
             "x.hidden_scale_slope": SCALE, "h.noise_scale": SCALE,
             "noise.u_scale": SCALE, "noise.v_scale": SCALE,
             "noise.eps_scale": SCALE, "hidden.kappa": REAL,
             "hidden.corr": st.floats(-1, 1)}
    for group, k in (("x", K["K_x"]), ("g", K["K_g"]), ("z", K["K_z"]),
                     ("h", K["K_h"]), ("delta", K["K_x"] - 1)):
        valid[f"{group}.mean"] = columns(k)
        valid[f"{group}.scale"] = columns(k, SCALE)
    assert set(valid) == {key if group is None else f"{group}.{key}"
                          for group, key, *_ in _FIELDS}
    raw = {"dims": dims}
    for path, values in valid.items():
        if draw(st.booleans()):
            set_field(raw, path, draw(values))
    return raw


def set_field(raw, path, value):
    *groups, key = path.split(".")
    for group in groups:
        raw = raw.setdefault(group, {})
    raw[key] = value


@PROPERTY
@given(raw=dgp_json())
def test_dgp_config_json_round_trip(raw):
    cfg = DgpConfig.from_dict(raw)
    assert DgpConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@PROPERTY
@given(raw=dgp_json(), field=st.sampled_from(_FIELDS), bad=BAD)
def test_dgp_config_invalid_field_names_its_path(raw, field, bad):
    group, key, *_ = field
    path = key if group is None else f"{group}.{key}"
    set_field(raw, path, bad)
    with pytest.raises(ConfigInvalid) as err:
        DgpConfig.from_dict(raw)
    assert err.value.path == path


@PROPERTY
@given(raw=dgp_json())
def test_dgp_config_built_directly_takes_the_json_defaults(raw):
    # kappa, phi and gamma default to zeros of the dims' shape, however
    # the config is built
    d = Dims(**raw["dims"])
    zeros = {"kappa": [0.0] * d.K_h, "phi": [[0.0] * d.K_g] * d.K_x,
             "gamma": [0.0] * d.K_z}
    assert DgpConfig(dims=d) == DgpConfig.from_dict({"dims": asdict(d)}) \
        == DgpConfig.from_dict({"dims": asdict(d), **zeros})


def assert_each_field_checked(cfg, fields, bad):
    """replace(cfg, name=bad) raises ConfigInvalid at the path of each
    (group, key, _, name) in fields."""
    for group, key, _, name in fields:
        with pytest.raises(ConfigInvalid) as err:
            replace(cfg, **{name: bad})
        assert err.value.path == (key if group is None else f"{group}.{key}")


@PROPERTY
@given(raw=dgp_json(), bad=BAD)
def test_dgp_config_built_directly_checks_every_field(raw, bad):
    assert_each_field_checked(DgpConfig.from_dict(raw), _FIELDS, bad)


@st.composite
def mc_json(draw):
    """JSON of a valid ExperimentConfig: each optional field drawn or left
    out."""
    dgp = draw(dgp_json())
    d = dgp["dims"]
    # each size must be a valid dims.n: n * T above the pooled columns
    low = max(2, (d["K_x"] * d["K_g"] + d["K_z"]) // d["T"] + 1)
    sizes = draw(st.lists(st.integers(low, 10**6), min_size=1, max_size=3,
                          unique=True))
    raw = {"dgp": dgp, "sample_sizes": sorted(sizes),
           "replications": draw(st.integers(2, 10**6))}
    valid = {"estimators": st.sampled_from(
                 [[], ["cite"], ["ITE"], ["cite", "ite"], ["Ite", "cite"]]),
             "seed": st.integers(0, 2**64 - 1),
             "weight_mode": st.sampled_from(WEIGHT_MODES),
             "oracle.draws": st.integers(0, 10**7),
             "oracle.blocks": st.integers(2, 100)}
    assert set(valid) | set(raw) == {key if group is None
                                     else f"{group}.{key}"
                                     for group, key, *_ in MC_FIELDS}
    for path, values in valid.items():
        if draw(st.booleans()):
            set_field(raw, path, draw(values))
    return raw


@PROPERTY
@given(raw=mc_json(), field=st.sampled_from(MC_FIELDS), bad=BAD)
def test_mc_config_invalid_field_names_its_path(raw, field, bad):
    group, key, *_ = field
    path = key if group is None else f"{group}.{key}"
    assume(not (path == "dgp" and bad == {}))  # an object: dgp's own errors
    ExperimentConfig.from_dict(raw)
    set_field(raw, path, bad)
    with pytest.raises(ConfigInvalid) as err:
        ExperimentConfig.from_dict(raw)
    assert err.value.path == path


@PROPERTY
@given(raw=mc_json(), bad=BAD)
def test_mc_config_built_directly_checks_every_field(raw, bad):
    # {} is an object, so as dgp it gives dgp's own errors
    fields = [f for f in MC_FIELDS if not (f[3] == "dgp" and bad == {})]
    assert_each_field_checked(ExperimentConfig.from_dict(raw), fields, bad)
