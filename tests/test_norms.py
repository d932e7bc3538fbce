"""Norm layer: quadrature L^p, weak L^q and the sup over node sets.

The discrete identities are exercised on a tiny grid with hand-picked
weights, where every layer-cake quantity is a two-term closed form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zonalab as zl
from zonalab.norms import set_sweep, weighted_lp, weighted_lp_dual

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
        f = _fn(grid80, (grid80.nodes <= 0.9).astype(float))
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

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("p", _EXPONENTS)
    def test_rows_are_weighted_lp(self, complex_, p):
        A, w = _matrix(complex_)
        rows = weighted_lp(w, A.T, p)
        each = np.array([weighted_lp(w, row, p) for row in A])
        # a whole matrix and a single row sum their terms in different BLAS
        # orders, so only the sum's last bits may differ
        if math.isinf(p):
            assert np.array_equal(rows, each)
        else:
            np.testing.assert_allclose(rows, each, rtol=1e-14, atol=0)
        assert rows[4] == 0.0


def _old_duality_map(v, p):
    """|v|^{p-1} sgn(conj v) over each column's max|v|^{p-1}, as two powers
    took it before the one-power helper: the reference."""
    a = np.abs(v)
    peak = a.max(axis=0)
    sgn = np.divide(np.conj(v), a, out=np.zeros_like(v), where=a > 0)
    return (a / np.where(peak > 0, peak, 1.0)) ** (p - 1.0) * sgn


# p next to 1, where the map's exponent p - 1 is tiny, up to where it is large
_DUAL_EXPONENTS = (1.0 + 2.0 ** -20, 1.5, 2.0, 6.0, 30.0)


class TestWeightedLpDual:
    """The norm, duality map and power sum of `weighted_lp_dual`, from one
    power, against `weighted_lp` and the two-power duality map."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("p", _DUAL_EXPONENTS)
    def test_matches_two_powers(self, complex_, p):
        A, w = _matrix(complex_)
        # columns spread over the float range, and a zero column (row 4 of
        # _matrix, transposed)
        A = A.T * np.logspace(-300, 300, A.shape[0])[None, :]
        before = A.copy()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for v in (A, A[:, 7], A[:, 4]):
                norm, dual, total = weighted_lp_dual(w, v, p)
                want = weighted_lp(w, v, p)
                np.testing.assert_allclose(norm, want, rtol=1e-14, atol=0)
                old = _old_duality_map(v, p)
                assert np.all(np.abs(dual - old) <= 1e-14 * np.abs(old))
                # the map's L^{p'} norm is T^{1/p'}
                q = p / (p - 1.0)
                np.testing.assert_allclose(total ** (1.0 / q),
                                           weighted_lp(w, dual, q),
                                           rtol=1e-14, atol=0)
        assert np.array_equal(A, before)
        norm, dual, total = weighted_lp_dual(w, A, p)
        assert norm[4] == 0.0 and total[4] == 0.0 and not dual[:, 4].any()

    @pytest.mark.parametrize("complex_", [False, True])
    def test_columns_are_vectors(self, complex_):
        A, w = _matrix(complex_)
        for p in _DUAL_EXPONENTS:
            norms, duals, totals = weighted_lp_dual(w, A, p)
            for j in range(A.shape[1]):
                norm, dual, total = weighted_lp_dual(w, A[:, j], p)
                assert np.array_equal(duals[:, j], dual)
                # only the BLAS order of the weighted sum may differ
                assert totals[j] == pytest.approx(total, rel=1e-14, abs=0)
                assert norms[j] == pytest.approx(norm, rel=1e-14, abs=0)

    def test_at_one(self):
        # p = 1: the map is sgn(conj v), the sum the weighted mean of |v|
        # over its max
        A, w = _matrix(True)
        norm, dual, total = weighted_lp_dual(w, A, 1.0)
        np.testing.assert_allclose(norm, weighted_lp(w, A, 1.0), rtol=1e-14)
        assert np.array_equal(dual, _old_duality_map(A, 1.0))


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
        f = _fn(grid80, (grid80.nodes <= 1.1).astype(float))
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


class TestSetSweep:
    """sup_E |sum_E w v| / mu(E)^x against every non-empty node set."""

    @given(data=st.data(), size=st.integers(1, 12), x=st.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, data, size, x):
        w = np.array(data.draw(st.lists(st.floats(0.01, 10.0),
                                        min_size=size, max_size=size)))
        # a few distinct values make ties; the sign can be forced negative
        pool = data.draw(st.lists(st.floats(-5.0, 5.0).filter(bool),
                                  min_size=1, max_size=size))
        v = np.array([data.draw(st.sampled_from(pool)) for _ in range(size)])
        if data.draw(st.booleans()):
            v = -np.abs(v)
        masks = (np.arange(1, 2 ** size)[:, None] >> np.arange(size)) & 1
        want = np.max(np.abs(masks @ (w * v)) / (masks @ w) ** x)
        value, level, mu, count, sign = set_sweep(w, v, x)
        assert value == pytest.approx(want, rel=1e-12)
        # the reported set attains the sup, and is {sign v >= level}
        chosen = np.argsort(-sign * v, kind="stable")[:count]
        inset = np.zeros(size, bool)
        inset[chosen] = True
        np.testing.assert_array_equal(inset, sign * v >= level)
        assert mu == pytest.approx(w[inset].sum(), rel=1e-12)
        assert (abs(np.sum(w[inset] * v[inset])) / mu ** x
                == pytest.approx(want, rel=1e-12))

    def test_superlevel_set_on_toy_grid(self, toy_grid):
        # masses 0.3 / 0.5 / 1.2 with values 2 / -1 / 1, at x = 1/2: the
        # set {v >= 1} scores 1.8 / sqrt(1.5) = 1.470, ahead of either
        # positive node alone (1.095), of all three (0.919) and of {v < 0}
        value, level, mu, count, sign = set_sweep(
            toy_grid.weights, np.array([2.0, -1.0, 1.0]), 0.5)
        assert (count, sign, level) == (2, 1, 1.0)
        assert mu == pytest.approx(1.5, rel=1e-15)
        assert value == pytest.approx(1.8 / math.sqrt(1.5), rel=1e-15)
