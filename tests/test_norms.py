"""Norm layer: quadrature L^p and weak L^q.

The discrete identities are exercised on a tiny grid with hand-picked
weights, where every layer-cake quantity is a two-term closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zonalab as zl
from zonalab.norms import weighted_lp, weighted_row_lp

VOL3 = 19.739208802178716


@pytest.fixture(scope="module")
def toy_grid():
    # three nodes with masses 0.3 / 0.5 / 1.2
    return zl.ZonalGrid(zl.SphereSpec(3), np.array([0.5, 1.0, 1.5]),
                        np.array([0.3, 0.5, 1.2]), "custom", 0)


def _fn(grid, values):
    return zl.ZonalFunction(grid, np.asarray(values, dtype=np.float64))


class TestLp:
    def test_constant(self, grid80):
        one = _fn(grid80, np.ones(grid80.points))
        assert zl.lp_norm(one, 2) == pytest.approx(math.sqrt(VOL3), rel=1e-12)
        assert zl.lp_norm(one, np.inf) == 1.0

    def test_projector_row(self, grid144):
        # ||Z_4||_2^2 = Z_4(1) = 25/vol
        z4 = _fn(grid144, zl.zonal_value(3, 4, grid144.cosines))
        assert zl.lp_norm(z4, 2) == pytest.approx(1.1253953951963827, rel=1e-12)

    def test_indicator(self, grid80):
        f = zl.cap(grid80, 0.9)
        m = grid80.weights[grid80.nodes <= 0.9].sum()
        assert zl.lp_norm(f, 3) == pytest.approx(m ** (1 / 3), rel=1e-12)

    def test_rejects_small_exponent(self, toy_grid):
        with pytest.raises(ValueError):
            zl.lp_norm(_fn(toy_grid, [1, 1, 1]), 0.5)


_EXPONENTS = (1.0, 2.5, 1e300, np.inf)


def _matrix(complex_):
    rng = np.random.default_rng(11)
    A = rng.standard_normal((33, 33))
    if complex_:
        A = A + 1j * rng.standard_normal(A.shape)
    A[4] = 0.0          # a zero row has norm 0, not 0/0
    return A, rng.random(33)


class TestWeightedLp:
    """One L^p kernel: vectors, column blocks and matrix rows."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("p", _EXPONENTS)
    def test_input_unchanged(self, complex_, p):
        # |v| is scaled and powered in place, on its own copy
        A, w = _matrix(complex_)
        for v in (A, A[:, 7], A.T):
            before = v.copy()
            weighted_lp(w, v, p)
            assert np.array_equal(v, before)
        before = A.copy()
        weighted_row_lp(w, A, p)
        assert np.array_equal(A, before)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("p", _EXPONENTS)
    def test_rows_are_weighted_lp(self, complex_, p):
        A, w = _matrix(complex_)
        rows = weighted_row_lp(w, A, p)
        each = np.array([weighted_lp(w, row, p) for row in A])
        # a whole matrix and a single row sum their terms in different BLAS
        # orders, so only the sum's last bits may differ
        if math.isinf(p):
            assert np.array_equal(rows, each)
        else:
            np.testing.assert_allclose(rows, each, rtol=1e-14, atol=0)
        assert rows[4] == 0.0


class TestWeak:
    def test_two_level(self, toy_grid):
        f = _fn(toy_grid, [2.0, 1.0, 0.0])
        # sup of {2 * 0.3^(1/2), 1 * 0.8^(1/2)}
        assert zl.weak_lq(f, 2) == pytest.approx(2 * math.sqrt(0.3), rel=1e-14)

    def test_indicator_is_measure_root(self, toy_grid):
        f = _fn(toy_grid, [1.0, 1.0, 0.0])
        assert zl.weak_lq(f, 2) == pytest.approx(math.sqrt(0.8), rel=1e-14)
        assert zl.weak_lq(f, 4) == pytest.approx(0.8 ** 0.25, rel=1e-14)

    def test_cap_on_real_grid(self, grid80):
        f = zl.cap(grid80, 1.1)
        m = grid80.weights[grid80.nodes <= 1.1].sum()
        assert zl.weak_lq(f, 2) == pytest.approx(math.sqrt(m), rel=1e-12)

    def test_constant(self, grid80):
        c = 2.5
        f = _fn(grid80, np.full(grid80.points, c))
        assert zl.weak_lq(f, 3) == pytest.approx(c * VOL3 ** (1 / 3), rel=1e-12)

    def test_zero(self, toy_grid):
        assert zl.weak_lq(_fn(toy_grid, [0.0, 0.0, 0.0]), 2) == 0.0

    def test_bounded_by_lp(self, grid144):
        z8 = _fn(grid144, zl.zonal_value(3, 8, grid144.cosines))
        assert zl.weak_lq(z8, 2) <= zl.lp_norm(z8, 2) * (1 + 1e-12)


@given(vals=st.lists(st.floats(-5, 5, allow_nan=False, width=32),
                     min_size=3, max_size=3),
       p=st.floats(1.0, 6.0))
@settings(max_examples=300, deadline=None)
def test_norm_chain(toy_grid, vals, p):
    """weak L^p <= L^p at matching exponents."""
    f = _fn(toy_grid, vals)
    assert zl.weak_lq(f, p) <= zl.lp_norm(f, p) * (1 + 1e-9)
