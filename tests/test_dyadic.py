import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_gegenbauer

import zonalab as zl
from zonalab import operators
from zonalab.dyadic import fit_pieces
from zonalab.errors import NumericalError


def test_piece_count():
    # lam = 17: ceil(log2(17 pi))
    assert zl.piece_count(3, 16) == 6
    assert zl.piece_count(3, 32) == 7
    assert zl.piece_count(3, 8) == 5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_piece_meets_the_sphere(n):
    # each annulus starts below theta = pi, and only the top one reaches it
    sphere = zl.SphereSpec(n)
    for k in (0, 1, 8, 16, 33, 128):
        grid = zl.make_grid(sphere, 2 * k + 1)
        pieces = zl.dyadic_decompose(sphere, k, grid)
        assert all(p.support[0] < np.pi for p in pieces), k
        assert pieces[-1].clipped, k
        assert not any(p.clipped for p in pieces[:-1]), k


@pytest.fixture(scope="module")
def pieces16(sphere3, grid144):
    return zl.dyadic_decompose(sphere3, 16, grid144)


class TestDecompose:
    def test_piece_roster(self, pieces16):
        assert len(pieces16) == 7
        assert [p.j for p in pieces16] == list(range(7))

    def test_supports(self, pieces16):
        assert pieces16[0].support == (0.0, 1 / 17)
        lo, hi = pieces16[3].support
        assert lo == pytest.approx(4 / 17, rel=1e-15)
        assert hi == pytest.approx(8 / 17, rel=1e-15)

    def test_clipping_flags(self, pieces16):
        assert not pieces16[0].clipped
        # the top annulus necessarily crosses theta = pi
        assert pieces16[-1].clipped

    def test_operators_sum_to_projector(self, pieces16, grid144, sphere3):
        summed = np.sum([p.operator().matrix for p in pieces16], axis=0)
        spectral = zl.operator_from_kernel(
            zl.projector_kernel(sphere3, 16), grid144).matrix
        scale = np.abs(spectral).max()
        np.testing.assert_allclose(summed, spectral, atol=1e-12 * scale)

    def test_degree_budget(self, sphere3, grid80):
        with pytest.raises(ValueError):
            zl.dyadic_decompose(sphere3, 40, grid80)


@pytest.fixture(scope="module")
def built():
    """(grid, pieces, piece matrices) of Z_k on S^n, on a grid exact
    through degree k, built once per (n, k)."""
    cache = {}

    def get(n, k):
        if (n, k) not in cache:
            sphere = zl.SphereSpec(n)
            grid = zl.make_grid(sphere, 2 * k + 1)
            pieces = zl.dyadic_decompose(sphere, k, grid)
            cache[n, k] = grid, pieces, [p.operator().matrix for p in pieces]
        return cache[n, k]

    return get


def _quad_entry(n, k, ti, tj, window, tol):
    """Entry (i, j) of the window's reduced matrix by adaptive quadrature in
    the azimuth phi to absolute error tol, with the window edges mapped to
    phi in 40 digits."""
    lo, hi = window
    mp = mpmath.mp.clone()
    mp.dps = 40
    C = mp.cos(ti) * mp.cos(tj)
    S = mp.sin(ti) * mp.sin(tj)

    def edge(gamma):
        c = (mp.cos(gamma) - C) / S
        return float(mp.acos(max(min(c, 1), -1)))

    alpha = (n - 1) / 2
    z = (2 * k + n - 1) / ((n - 1) * zl.sphere_volume(n))
    Cf, Sf = float(C), float(S)

    def integrand(phi):
        return (z * eval_gegenbauer(k, alpha, Cf + Sf * math.cos(phi))
                * math.sin(phi) ** (n - 2))

    a, b = edge(min(lo, math.pi)), edge(min(hi, math.pi))
    if not a < b:
        return 0.0
    total = quad(lambda phi: math.sin(phi) ** (n - 2), 0.0, math.pi,
                 epsabs=1e-15)[0]
    return quad(integrand, a, b, epsabs=tol, epsrel=0.0, limit=400)[0] / total


@pytest.mark.parametrize("k", [8, 32, 64])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
class TestPieceExactness:
    def test_pieces_sum_to_projector(self, built, n, k):
        grid, _, matrices = built(n, k)
        e = grid.basis(k)[k]
        spectral = np.outer(e, e)
        scale = np.abs(spectral).max()
        np.testing.assert_allclose(np.sum(matrices, axis=0), spectral,
                                   rtol=0, atol=1e-12 * scale)

    def test_pieces_match_quadrature(self, built, n, k):
        grid, pieces, matrices = built(n, k)
        e = grid.basis(k)[k]
        scale = np.abs(e).max() ** 2
        th = grid.nodes
        P = grid.points
        rng = np.random.default_rng(100 * n + k)
        # a random pair, a near-antipodal pair and a diagonal pair per piece
        for piece, A in zip(pieces, matrices):
            i = int(rng.integers(P))
            for a, b in ((i, int(rng.integers(P))), (i, P - 1 - i), (i, i)):
                ref = _quad_entry(n, k, th[a], th[b], piece.support,
                                  1e-13 * scale)
                assert abs(A[a, b] - ref) <= 1e-12 * scale, (piece.j, a, b)


class TestFitWindow:
    def test_middle_range_for_k32(self, sphere3, grid144):
        pieces = zl.dyadic_decompose(sphere3, 32, grid144)
        assert [p.j for p in fit_pieces(pieces)] == [3, 4, 5, 6]

    def test_middle_range_for_k16(self, sphere3, grid144):
        pieces = zl.dyadic_decompose(sphere3, 16, grid144)
        assert [p.j for p in fit_pieces(pieces)] == [3, 4, 5]

    def test_low_degree_fails(self, sphere3, grid80):
        pieces = zl.dyadic_decompose(sphere3, 4, grid80)
        with pytest.raises(NumericalError):
            fit_pieces(pieces)


def test_piece_norm_slopes_smoke(sphere3, grid80):
    fit, op = zl.piece_norm_slopes(sphere3, 16, 0.6, grid80, restarts=4)
    np.testing.assert_array_equal(fit.js, [3, 4, 5])
    # the summed pieces j = 0..6 reassemble the projector e_k e_k^T
    e = grid80.basis(16)[16]
    spectral = np.outer(e, e)
    assert np.abs(op.matrix - spectral).max() <= 1e-12 * np.abs(
        spectral).max()
    assert fit.slope_growth > 0
    assert fit.slope_decay < 0
    assert np.all(fit.norms_growth > 0) and np.all(fit.norms_decay > 0)
    # fitted lines should track the measured norms closely
    assert fit.residual_growth < 0.5 and fit.residual_decay < 0.5


def test_one_spectrum_per_degree(monkeypatch):
    # every piece of one degree reads one azimuthal spectrum, whose Z_k is
    # separated by the addition theorem once (one factor table), however
    # many pieces there are;
    # built in order, as piece_norm_slopes builds them, each distinct
    # window edge is summed once, only over the pairs whose range it cuts,
    # so never at phi = 0 or pi; and each piece matrix is exactly symmetric
    tables, summed = [], []
    factors = operators.addition_factors
    antiderivative = zl.AzimuthalSpectrum.antiderivative

    def counting_factors(n, k, theta):
        tables.append((n, k))
        return factors(n, k, theta)

    def counting_rows(spectrum, rows, phi):
        assert np.all((phi > 0.0) & (phi < np.pi))
        summed.append(len(rows))
        return antiderivative(spectrum, rows, phi)

    monkeypatch.setattr(operators, "addition_factors", counting_factors)
    monkeypatch.setattr(zl.AzimuthalSpectrum, "antiderivative",
                        counting_rows)
    k = 16
    for n in (2, 3, 4, 5):
        sphere = zl.SphereSpec(n)
        grid = zl.make_grid(sphere, 40, kexact=k)
        tables.clear()
        summed.clear()
        pieces = zl.dyadic_decompose(sphere, k, grid)
        for piece in pieces:
            A = piece.operator().matrix
            assert np.array_equal(A, A.T)
        assert all(p.spectrum is pieces[0].spectrum for p in pieces)
        assert tables == [(n, k)]
        # the pairs' ranges [d, s] of relative angles, as the azimuth turns
        th = grid.nodes
        i, j = np.triu_indices(grid.points)
        d = np.abs(th[i] - th[j])
        s = np.minimum(th[i] + th[j], 2.0 * np.pi - (th[i] + th[j]))
        cut = [np.count_nonzero((d < e) & (e < s))
               for e in {e for p in pieces for e in p.support}]
        assert sorted(summed) == sorted(c for c in cut if c)


def test_pieces_memory():
    # the spectrum keeps one factor table and the values of G at each
    # edge, and sums an edge over blocks of the pairs it cuts, so the
    # piece matrices are most of the peak; a table of per-pair coefficients
    # alone would be 19 MiB here
    sphere = zl.SphereSpec(3)
    grid = zl.make_grid(sphere, 272)
    tracemalloc.start()
    try:
        pieces = zl.dyadic_decompose(sphere, 64, grid)
        matrices = [p.operator().matrix for p in pieces]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(matrices) == 9
    assert peak <= 16 * 2 ** 20


def test_piece_norm_slopes_memory():
    # one pass over the pieces holds the running sum and one piece matrix
    # (0.6 MiB each here), not all nine, and the spectrum G at two window
    # edges, not at all ten, through the fit and the restricted weak-type
    # image, as dyadic-certify runs them
    sphere = zl.SphereSpec(3)
    grid = zl.make_grid(sphere, 272)
    p_pt, q_pt = zl.stein_point(3, 0.6)
    tracemalloc.start()
    try:
        fit, op = zl.piece_norm_slopes(sphere, 64, 0.6, grid)
        data = zl.interp_from_fit((p_pt, q_pt), fit)
        lam = zl.eigenvalue(3, 64)
        caps = [zl.cap(grid, th) for th in (1.0 / lam, 1.0 / 8.0, 0.5)]
        zl.certify_restricted_weak(op, data, caps, piece_fit=fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 2 ** 20


def test_piece_norm_slopes_rejects_low_degree(sphere3, grid80):
    # degree 2 decomposes, but leaves no middle range to fit
    with pytest.raises(NumericalError):
        zl.piece_norm_slopes(sphere3, 2, 0.6, grid80)
    # on S^2 the lowest degrees do not even fill four pieces
    grid2 = zl.make_grid(zl.SphereSpec(2), 20)
    with pytest.raises(ValueError):
        zl.piece_norm_slopes(zl.SphereSpec(2), 0, 0.6, grid2)


class TestEnvelope:
    def test_antipodal_mirrors_oscillatory(self, sphere3):
        for k in (8, 13, 32):
            env = zl.envelope_check(sphere3, k)
            assert env.c_antipodal == pytest.approx(env.c_osc, rel=1e-9)

    def test_constants_positive_and_ordered(self, sphere3):
        env = zl.envelope_check(sphere3, 16)
        assert 0 < env.c_flat < 1
        assert 0 < env.c_osc < 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 64, 1024])
    def test_one_recurrence_keeps_bits(self, n, k):
        # one recurrence over the three windows against one per window
        env = zl.envelope_check(zl.SphereSpec(n), k)
        lam, half, samples = zl.eigenvalue(n, k), (n - 1) / 2, 4096

        def zk(theta):
            return zl.zonal_value(n, k, np.cos(theta))

        th_flat = np.linspace(1e-9, 1.0 / lam, samples // 4)
        th_osc = np.linspace(1.0 / lam, 0.75 * np.pi, samples)
        th_anti = np.linspace(0.25 * np.pi, np.pi - 1.0 / lam, samples)
        want = [np.abs(zk(th_flat)).max() / k ** (n - 1),
                np.abs(zk(th_osc) * th_osc ** half).max() / lam ** half,
                np.abs(zk(th_anti) * (np.pi - th_anti) ** half).max()
                / lam ** half]
        assert np.array_equal([env.c_flat, env.c_osc, env.c_antipodal], want)

    def test_rejects_degree_zero(self, sphere3):
        with pytest.raises(ValueError):
            zl.envelope_check(sphere3, 0)
