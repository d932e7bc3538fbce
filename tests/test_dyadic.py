import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_gegenbauer

import zonalab as zl
from zonalab import operators
from zonalab.cli import Config, build_parser
from zonalab.dyadic import fit_range, least_fit_degree
from zonalab.exponents import stein_point


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
        pieces = zl.dyadic_decompose(k, grid)
        assert all(p.support[0] < np.pi for p in pieces), k
        assert pieces[-1].support[1] > np.pi, k
        assert all(p.support[1] <= np.pi for p in pieces[:-1]), k


@pytest.fixture(scope="module")
def pieces16(grid144):
    return zl.dyadic_decompose(16, grid144)


class TestDecompose:
    def test_piece_roster(self, pieces16):
        assert len(pieces16) == 7
        assert [p.j for p in pieces16] == list(range(7))

    def test_supports(self, pieces16):
        assert pieces16[0].support == (0.0, 1 / 17)
        lo, hi = pieces16[3].support
        assert lo == pytest.approx(4 / 17, rel=1e-15)
        assert hi == pytest.approx(8 / 17, rel=1e-15)

    def test_operators_sum_to_projector(self, grid144, grid80, sphere3):
        # the pieces j = 0..J reassemble the projector e_k e_k^T
        for grid in (grid144, grid80):
            pieces = zl.dyadic_decompose(16, grid)
            summed = np.sum([p.operator().matrix for p in pieces], axis=0)
            spectral = zl.operator_from_kernel(
                zl.projector_kernel(sphere3, 16), grid).matrix
            scale = np.abs(spectral).max()
            np.testing.assert_allclose(summed, spectral, rtol=0,
                                       atol=1e-12 * scale)

    def test_degree_budget(self, grid80):
        with pytest.raises(ValueError):
            zl.dyadic_decompose(40, grid80)


@pytest.fixture(scope="module")
def built():
    """(grid, pieces, piece matrices) of Z_k on S^n, on a grid exact
    through degree k, built once per (n, k)."""
    cache = {}

    def get(n, k):
        if (n, k) not in cache:
            sphere = zl.SphereSpec(n)
            grid = zl.make_grid(sphere, 2 * k + 1)
            pieces = zl.dyadic_decompose(k, grid)
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
        e = grid.basis([k])[0]
        spectral = np.outer(e, e)
        scale = np.abs(spectral).max()
        np.testing.assert_allclose(np.sum(matrices, axis=0), spectral,
                                   rtol=0, atol=1e-12 * scale)

    def test_pieces_match_quadrature(self, built, n, k):
        grid, pieces, matrices = built(n, k)
        e = grid.basis([k])[0]
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
    def test_middle_range_for_k32(self):
        assert list(fit_range(3, 32)) == [3, 4, 5, 6]

    def test_middle_range_for_k16(self):
        assert list(fit_range(3, 16)) == [3, 4, 5]

    def test_low_degree_fails(self, grid80):
        # degree 4 decomposes, but leaves one piece to fit
        assert list(fit_range(3, 4)) == [3]
        with pytest.raises(ValueError, match="needs k >= 5"):
            zl.piece_norm_slopes(4, 0.6, grid80)


def test_piece_norm_slopes_smoke(grid80):
    fit = zl.piece_norm_slopes(16, 0.6, grid80, restarts=4)
    np.testing.assert_array_equal(fit.js, [3, 4, 5])
    assert fit.slope_growth > 0
    assert fit.slope_decay < 0
    assert np.all(fit.norms_growth > 0) and np.all(fit.norms_decay > 0)
    # fitted lines should track the measured norms closely
    assert fit.residual_growth < 0.5 and fit.residual_decay < 0.5


def test_row_witness_reaches_the_decay_norms(grid80):
    # n = 3, sigma = 3/5, k = 16 on the CLI's 80-node grid: the row witness,
    # the first start of every ascent, reaches the P-side norms of the
    # fitted pieces by itself, where the kernel's harmonic and the cap at
    # 1/lambda stopped at 0.366, 0.315 and 0.488
    p_pt, _ = stein_point(3, 0.6)
    for piece in zl.dyadic_decompose(16, grid80):
        if piece.j in (3, 4, 5):
            op = piece.operator()
            one, eight = (zl.norm_lower(op, p_pt.r, p_pt.s,
                                        restarts=restarts).value
                          for restarts in (1, 8))
            assert one == pytest.approx(eight, rel=1e-9, abs=0), piece.j


def test_one_spectrum_per_degree(monkeypatch):
    # every piece of one degree reads one azimuthal spectrum, whose Z_k is
    # separated by the addition theorem once (one factor table), however
    # many pieces there are;
    # built in order, as piece_norm_slopes builds them, each distinct
    # window edge is summed once, only over the pairs whose range it cuts,
    # one pair of each mirror image, so never at phi = 0 or pi; and each
    # piece matrix is exactly symmetric and centrosymmetric
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
        pieces = zl.dyadic_decompose(k, grid)
        for piece in pieces:
            A = piece.operator().matrix
            assert np.array_equal(A, A.T)
            assert np.array_equal(A, A[::-1, ::-1])
        assert all(p.spectrum is pieces[0].spectrum for p in pieces)
        assert tables == [(n, k)]
        # the pairs' ranges [d, s] of relative angles, as the azimuth turns,
        # of the pairs i <= j with i + j <= P - 1: (i, j) and its mirror
        # image (P-1-j, P-1-i) sweep one range
        th = grid.nodes
        i, j = np.triu_indices(grid.points)
        one = i + j <= grid.points - 1
        i, j = i[one], j[one]
        d = np.abs(th[i] - th[j])
        s = np.minimum(th[i] + th[j], 2.0 * np.pi - (th[i] + th[j]))
        cut = [np.count_nonzero((d < e) & (e < s))
               for e in {e for p in pieces for e in p.support}]
        assert sorted(summed) == sorted(c for c in cut if c)


def _window_matrices(grid, k):
    """The spectrum of Z_k on the grid and the matrices of its dyadic
    windows, built in order."""
    spectrum = zl.AzimuthalSpectrum(grid, k)
    return spectrum, [zl.azimuthal_matrix(spectrum, piece.support)
                      for piece in zl.dyadic_decompose(k, grid)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
class TestMirror:
    """A Gauss-Jacobi grid is symmetric under theta -> pi - theta, so the
    spectrum keeps one pair of each mirror image and writes it to both."""

    def test_every_grid_is_mirrored(self, n):
        # within 1 ulp(pi) for every make_grid grid of 12..2064 points, and
        # with exactly mirrored weights; the grid accepts up to _MIRROR_ULPS
        for points in (12, 13, 80, 144, 513, 2064):
            grid = zl.make_grid(zl.SphereSpec(n), points)
            th = grid.nodes
            assert np.abs(th + th[::-1] - np.pi).max() <= np.spacing(np.pi)
            assert np.array_equal(grid.weights, grid.weights[::-1])
            assert grid.mirrored
            assert zl.AzimuthalSpectrum(grid, 2).mirrored

    def test_pieces_are_centrosymmetric(self, n):
        for points, k in ((12, 5), (41, 16), (144, 32)):
            grid = zl.make_grid(zl.SphereSpec(n), points)
            spectrum, matrices = _window_matrices(grid, k)
            assert spectrum.mirrored
            # i <= j and i + j <= P - 1
            P = grid.points
            assert spectrum.pairs[0].size == (P // 2 + 1) * ((P + 1) // 2)
            for A in matrices:
                assert np.array_equal(A, A.T)
                assert np.array_equal(A, A[::-1, ::-1])

    @pytest.mark.parametrize("k", [8, 16])
    def test_matches_all_pairs(self, n, k):
        # the south half moved by 6 ulp(pi) either way is no longer
        # mirrored, so those builds keep every pair; the move's first-order
        # effect cancels in their mean, which stands in for an all-pairs
        # build on the grid's own nodes
        grid = zl.make_grid(zl.SphereSpec(n), 4 * k + 16, kexact=k)
        spectrum, mirrored = _window_matrices(grid, k)
        assert spectrum.mirrored
        builds = []
        for sign in (1, -1):
            nodes = grid.nodes.copy()
            nodes[grid.points // 2:] += sign * 6 * np.spacing(np.pi)
            moved = zl.ZonalGrid(grid.sphere, nodes, grid.weights, "moved", k)
            spectrum, matrices = _window_matrices(moved, k)
            assert not spectrum.mirrored
            assert spectrum.pairs[0].size == moved.points * (
                moved.points + 1) // 2
            builds.append(matrices)
        for j, (A, B, C) in enumerate(zip(mirrored, *builds)):
            scale = np.abs(A).max()
            assert np.abs(A - 0.5 * (B + C)).max() <= 1e-13 * scale, j


def test_pieces_memory():
    # the spectrum keeps one factor table and the values of G at each
    # edge, and sums an edge over blocks of the pairs it cuts, so the
    # piece matrices are most of the peak; a table of per-pair coefficients
    # alone would be 19 MiB here
    sphere = zl.SphereSpec(3)
    grid = zl.make_grid(sphere, 272)
    tracemalloc.start()
    try:
        pieces = zl.dyadic_decompose(64, grid)
        matrices = [p.operator().matrix for p in pieces]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(matrices) == 9
    assert peak <= 16 * 2 ** 20


def test_piece_norm_slopes_memory():
    # one pass over the pieces holds one piece matrix (0.6 MiB here), not
    # all nine, and the spectrum G at two window edges, not at all ten,
    # through the fit and the restricted weak-type image of the rank-one
    # H_k, as dyadic-certify runs them
    sphere = zl.SphereSpec(3)
    grid = zl.make_grid(sphere, 272)
    tracemalloc.start()
    try:
        fit = zl.piece_norm_slopes(64, 0.6, grid)
        data = zl.interp_from_fit(fit)
        h_k = zl.operator_from_kernel(zl.projector_kernel(sphere, 64), grid)
        zl.certify_restricted_weak(h_k, data)
        fit.violations()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.2 * 2 ** 20


def test_piece_norm_slopes_rejects_low_degree(grid80, monkeypatch):
    # degree 2 decomposes, but leaves no middle range to fit; the degree is
    # refused before any piece is built
    monkeypatch.setattr(zl.DyadicPiece, "operator", None)
    with pytest.raises(ValueError, match="fewer than two dyadic pieces"):
        zl.piece_norm_slopes(2, 0.6, grid80)
    # on S^2 degree 0 leaves not even one
    grid2 = zl.make_grid(zl.SphereSpec(2), 20)
    with pytest.raises(ValueError, match="fewer than two dyadic pieces"):
        zl.piece_norm_slopes(0, 0.6, grid2)


@pytest.mark.parametrize("n,text,sigma", [(3, "3/5", 0.6), (4, "9/20", 0.45),
                                          (5, "2/5", 0.4)])
def test_one_degree_rule(n, text, sigma, tmp_path):
    # the least degree that Config admits for dyadic-certify is the least
    # that piece_norm_slopes accepts; below it both refuse with ValueError
    def admitted(k):
        args = build_parser().parse_args(
            ["dyadic-certify", "--n", str(n), "--sigma", text, "--k",
             str(k), "--out", str(tmp_path / "x.csv")])
        try:
            Config(args)
        except ValueError:
            return False
        return True

    least = least_fit_degree(n)
    assert least > 1
    assert [admitted(k) for k in (least - 1, least)] == [False, True]
    grid = zl.make_grid(zl.SphereSpec(n), 4 * least + 16)
    for k in range(least):
        with pytest.raises(ValueError, match=f"needs k >= {least}"):
            zl.piece_norm_slopes(k, sigma, grid)
    fit = zl.piece_norm_slopes(least, sigma, grid, restarts=2)
    assert fit.js.size == 2


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
        # one recurrence over the window and t = 1 against one per window;
        # the antipodal window mirrors the oscillatory one, and
        # Z_k(-t) = (-1)^k Z_k(t), so c_antipodal is c_osc exactly
        env = zl.envelope_check(zl.SphereSpec(n), k)
        lam, half, samples = zl.eigenvalue(n, k), (n - 1) / 2, 4096

        def zk(theta):
            return zl.zonal_value(n, k, np.cos(theta))

        th_flat = np.linspace(1e-9, 1.0 / lam, samples // 4)
        th_osc = np.linspace(1.0 / lam, 0.75 * np.pi, samples)
        want = [np.abs(zk(th_flat)).max() / k ** (n - 1),
                np.abs(zk(th_osc) * th_osc ** half).max() / lam ** half]
        assert np.array_equal([env.c_flat, env.c_osc], want)
        assert env.c_antipodal == env.c_osc
        # sampled near the far pole, it agrees to rounding
        th_anti = np.linspace(0.25 * np.pi, np.pi - 1.0 / lam, samples)
        anti = np.abs(zk(th_anti) * (np.pi - th_anti) ** half).max()
        assert anti / lam ** half == pytest.approx(env.c_osc, rel=1e-13)

    def test_rejects_degree_zero(self, sphere3):
        with pytest.raises(ValueError):
            zl.envelope_check(sphere3, 0)
