"""Invariances of the two estimators, checked on random panels.

Each property holds exactly in exact arithmetic; the tolerances only
absorb rounding in the per-unit projections and the pooled solve.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from interpanel.data import build_regressors, make_dataset, subset_units
from interpanel.estimators import cite_theta, ite

from conftest import random_panel

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
COEF = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def panels(draw, max_K_g=2):
    K_x = draw(st.integers(1, 3))
    return random_panel(draw(st.integers(0, 2**32 - 1)),
                        n=draw(st.integers(5, 9)),
                        T=K_x + draw(st.integers(2, 4)), K_x=K_x,
                        K_g=draw(st.integers(0, max_K_g)),
                        K_z=draw(st.integers(0, 2)), K_h=draw(st.integers(0, 2)))


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
    return cite_theta(build_regressors(ds))


def ite_of(ds):
    return ite(ds, build_regressors(ds)).theta_tilde_hat


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
    Psi = build_regressors(ds).Psi
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
