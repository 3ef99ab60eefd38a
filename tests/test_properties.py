"""Invariances of the two estimators, checked on random panels.

Each property holds exactly in exact arithmetic; the tolerances only
absorb rounding in the per-unit projections and the pooled solve.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from interpanel.data import build_regressors, make_dataset
from interpanel.estimators import cite_theta, ite

from conftest import random_panel

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
COEF = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def panels(draw):
    K_x = draw(st.integers(1, 3))
    return random_panel(draw(st.integers(0, 2**32 - 1)),
                        n=draw(st.integers(5, 9)),
                        T=K_x + draw(st.integers(2, 4)), K_x=K_x,
                        K_g=draw(st.integers(0, 2)), K_z=draw(st.integers(0, 2)),
                        K_h=draw(st.integers(0, 2)))


def with_y(ds, Y):
    return make_dataset(Y, ds.X, ds.G, ds.Z, ds.H)


@PROPERTY
@given(data=st.data(), ds=panels())
def test_cite_theta_ignores_own_x_shift(data, ds):
    c = data.draw(arrays(float, (ds.dims.n, ds.dims.K_x), elements=COEF))
    shifted = with_y(ds, ds.Y + np.einsum("ntk,nk->nt", ds.X, c))
    assert_allclose(cite_theta(shifted), cite_theta(ds), rtol=0, atol=1e-8)


@PROPERTY
@given(data=st.data(), ds=panels())
def test_ite_ignores_shift_along_x_minus1(data, ds):
    X1 = ds.X[:, :, 1:]
    c = data.draw(arrays(float, (ds.dims.n, X1.shape[2]), elements=COEF))
    shifted = with_y(ds, ds.Y + np.einsum("ntk,nk->nt", X1, c))
    assert_allclose(ite(shifted).theta_tilde_hat, ite(ds).theta_tilde_hat,
                    rtol=0, atol=1e-8)


@PROPERTY
@given(data=st.data(), ds=panels())
def test_cite_theta_shifts_by_psi_coefficients(data, ds):
    b = data.draw(arrays(float, (ds.dims.n_psi,), elements=COEF))
    Psi = build_regressors(ds).Psi
    shifted = with_y(ds, ds.Y + Psi @ b)
    assert_allclose(cite_theta(shifted), cite_theta(ds) + b, rtol=0, atol=1e-8)
