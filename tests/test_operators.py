import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zonalab as zl
from zonalab import operators
from zonalab.cli import default_r
from zonalab.errors import CertificateError
from zonalab.exponents import ExponentPoint, stein_point
from zonalab.norms import weighted_lp, weighted_lp_dual
from zonalab.operators import ZonalOperator, operator_from_kernel
from zonalab.specfun import addition_factors

VOL3 = 19.739208802178716

# the corners (1, inf), (1, 1) and (2, 2), and one interior point on each
# side of the line 1/r + 1/s = 1
_UPPER_POINTS = (ExponentPoint(1.0, 0.0), ExponentPoint(1.0, 1.0),
                 ExponentPoint(0.5, 0.5), ExponentPoint(0.8, 0.1),
                 ExponentPoint(0.9, 0.3))


@pytest.fixture(scope="module")
def h8(grid144, sphere3):
    return operator_from_kernel(zl.projector_kernel(sphere3, 8), grid144)


@pytest.fixture(scope="module")
def h3(grid80, sphere3):
    return operator_from_kernel(zl.projector_kernel(sphere3, 3), grid80)


@pytest.fixture(scope="module")
def lam64():
    """The 1040-point grid and the lambda = 64 resolvent kernel of
    `resolvent-scaling --lambda 8,16,32,64`; each test builds its own
    operator, which keeps its own row norms."""
    sphere = zl.SphereSpec(3)
    kern = zl.resolvent_kernel(sphere, zl.ResolventParams(64, 1),
                               kmax=256).kernel
    return zl.make_grid(sphere, 1040, kexact=256), kern


class TestOperatorConstruction:
    def test_projector_idempotent(self, h3, grid80):
        HW = h3.matrix * grid80.weights[None, :]
        assert np.abs(HW @ h3.matrix - h3.matrix).max() < 1e-8

    def test_projectors_orthogonal(self, grid80, sphere3):
        a = operator_from_kernel(zl.projector_kernel(sphere3, 3), grid80)
        b = operator_from_kernel(zl.projector_kernel(sphere3, 5), grid80)
        prod = a.matrix @ (grid80.weights[:, None] * b.matrix)
        assert np.abs(prod).max() < 1e-8

    def test_sup_anchor_is_matrix_max(self, h8):
        # the (1, inf) corner of the upper bound is max |A_ij|
        n1inf = zl.norm_upper(h8, ExponentPoint(1.0, 0.0))
        assert n1inf == pytest.approx(np.abs(h8.matrix).max(), rel=1e-12)
        # the azimuthal average never exceeds the kernel's sup Z_8(1)
        assert n1inf <= 81 / VOL3

    def test_one_representation(self, h3, grid80):
        # `matrix` of a factored operator reads its columns, so an operator
        # needs exactly one of the two
        for kwargs in ({}, {"matrix": h3.matrix, "factors": h3.factors}):
            with pytest.raises(ValueError, match="either the matrix or"):
                ZonalOperator(grid80, **kwargs)

    def test_degree_budget_enforced(self, grid80, sphere3):
        with pytest.raises(ValueError):
            operator_from_kernel(zl.projector_kernel(sphere3, 40), grid80)

    @pytest.mark.parametrize("kind", ["projector", "resolvent"])
    def test_rejects_kernel_of_another_dimension(self, grid144, kind):
        # the n = 4 kernel's degrees fit the n = 3 grid, but its Z_k do not
        with pytest.raises(ValueError, match="S\\^4 against a grid on S\\^3"):
            operator_from_kernel(_kernel(4, kind), grid144)

    def test_profile_route_matches_spectral(self):
        # the azimuthal average of Z_8 over the full support must reproduce
        # the spectral reduced matrix, and its upper bounds, on every sphere
        for n in (2, 3, 4, 5):
            sphere = zl.SphereSpec(n)
            grid = zl.make_grid(sphere, 80, kexact=16)
            kern = zl.projector_kernel(sphere, 8)
            spectral = operator_from_kernel(kern, grid)
            averaged = ZonalOperator(grid, zl.azimuthal_matrix(
                zl.AzimuthalSpectrum(grid, 8)))
            scale = np.abs(spectral.matrix).max()
            np.testing.assert_allclose(averaged.matrix, spectral.matrix,
                                       atol=1e-12 * scale)
            for point in _UPPER_POINTS:
                assert zl.norm_upper(averaged, point) == pytest.approx(
                    zl.norm_upper(spectral, point), rel=1e-12), (n, point)

    def test_adjoint_identity_complex(self, grid144, sphere3):
        kern = zl.resolvent_kernel(sphere3, zl.ResolventParams(3, 1),
                                   kmax=32).kernel
        op = operator_from_kernel(kern, grid144)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid144.points) + 1j * rng.standard_normal(
            grid144.points)
        g = rng.standard_normal(grid144.points) + 1j * rng.standard_normal(
            grid144.points)
        w = grid144.weights
        lhs = np.sum(w * op.apply(f) * np.conj(g))
        rhs = np.sum(w * f * np.conj(op.apply_adjoint(g)))
        assert lhs == pytest.approx(rhs, rel=1e-10)
        # on a dense operator, conjugating the product instead of the matrix
        # changes no bit; the dense product is (w g)^T A
        dense = ZonalOperator(grid144, op.matrix)
        assert np.array_equal(dense.apply_adjoint(g),
                              (w * g) @ np.conj(op.matrix))


def _kernel(n, kind):
    sphere = zl.SphereSpec(n)
    if kind == "projector":
        return zl.projector_kernel(sphere, 7)
    return zl.resolvent_kernel(sphere, zl.ResolventParams(3, 1),
                               kmax=24).kernel


class TestFactoredRoute:
    """Multiplier operators apply through their spectral factors; the dense
    matrix built from the same factors is the reference."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["projector", "resolvent"])
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_matches_dense(self, n, kind, complex_input):
        grid = zl.make_grid(zl.SphereSpec(n), 64, kexact=24)
        op = operator_from_kernel(_kernel(n, kind), grid)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(grid.points)
        if complex_input:
            x = x + 1j * rng.standard_normal(grid.points)
        wx = grid.weights * x
        for got, want in ((op.apply(x), op.matrix @ wx),
                          (op.apply_adjoint(x), np.conj(op.matrix) @ wx)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [0, 1, 9, 24])
    def test_rank_one_n11_matches_dense(self, n, k):
        grid = zl.make_grid(zl.SphereSpec(n), 64, kexact=24)
        op = operator_from_kernel(zl.projector_kernel(zl.SphereSpec(n), k),
                                  grid)
        dense = float(np.max(np.sum(grid.weights[:, None]
                                    * np.abs(op.matrix), axis=0)))
        # at (1, 1) the upper bound is the largest weighted column sum
        n11 = zl.norm_upper(op, ExponentPoint(1.0, 1.0))
        assert n11 == pytest.approx(dense, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["projector", "resolvent"])
    def test_dense_anchors_match_factored(self, n, kind):
        grid = zl.make_grid(zl.SphereSpec(n), 64, kexact=24)
        op = operator_from_kernel(_kernel(n, kind), grid)
        dense = ZonalOperator(grid, op.matrix)
        for point in _UPPER_POINTS:
            assert zl.norm_upper(dense, point) == pytest.approx(
                zl.norm_upper(op, point), rel=1e-12), point

    def test_projector_never_builds_matrix(self, grid144, sphere3):
        op = operator_from_kernel(zl.projector_kernel(sphere3, 8), grid144)
        zl.norm_certificate(op, ExponentPoint(0.8, 0.2))
        assert "matrix" not in vars(op)

    def test_resolvent_never_builds_matrix(self, grid144, sphere3):
        # a complex full-rank operator, through the ascent and through the
        # exact route at r = 1 and at s = inf
        kern = zl.resolvent_kernel(sphere3, zl.ResolventParams(3, 1),
                                   kmax=32).kernel
        op = operator_from_kernel(kern, grid144)
        for point in (ExponentPoint(0.8, 0.2), ExponentPoint(1.0, 0.2),
                      ExponentPoint(0.8, 0.0)):
            cert = zl.norm_certificate(op, point, restarts=2)
            assert "matrix" not in op.__dict__, point
            if point.x == 1.0 or point.y == 0.0:
                assert cert["iterations"] == 0
                assert cert["lower"] == pytest.approx(cert["upper"],
                                                      rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("degrees", [[0], [1], [17], [24], [3, 11, 20]])
    def test_kept_rows_match_grid_table(self, n, degrees, zonal_s3_mp):
        # the factors are the rows of the degrees with m_k != 0, off S^3 bit
        # for bit those of a zonal table on the grid's cosines, and on S^3
        # the closed form to 1e-13 of each row's max; [24] is the grid's
        # kexact, and [0] keeps every degree of its kernel
        grid = zl.make_grid(zl.SphereSpec(n), 64, kexact=24)
        coeffs = np.zeros(degrees[-1] + 1)
        coeffs[degrees] = np.arange(1.0, len(degrees) + 1.0)
        op = operator_from_kernel(zl.ZonalKernel(grid.sphere, coeffs), grid)
        # the even degrees, then the odd, on the first 32 nodes, and
        # unfolded to all 64 the rows of grid.basis
        parity = np.asarray(degrees) % 2
        order = np.concatenate([np.flatnonzero(parity == b) for b in (0, 1)])
        assert [rows.shape for rows, _ in op.factors] == [
            (np.count_nonzero(parity == b), 32) for b in (0, 1)]
        rows, kept = op.unfolded()
        np.testing.assert_array_equal(kept, coeffs[degrees][order])
        assert np.array_equal(rows, grid.basis(degrees)[order])
        if n == 3:
            for k, row in zip(np.asarray(degrees)[order], rows[:, :32]):
                exact = zonal_s3_mp(k, grid.nodes[:32]) * (
                    math.sqrt(2.0) * math.pi / (k + 1))
                assert np.abs(row - exact).max() <= 1e-13 * np.abs(
                    exact).max()
            return
        tab = zl.zonal_table(n, degrees[-1], grid.cosines)[degrees]
        z1 = zl.zonal_table(n, degrees[-1], np.ones(1))[degrees, 0]
        want = (tab / np.sqrt(z1)[:, None])[order]
        assert np.array_equal(rows[:, :32], want[:, :32])

    def test_zero_kernel_keeps_no_row(self, grid80, sphere3):
        op = operator_from_kernel(zl.ZonalKernel(sphere3, np.zeros(5)), grid80)
        assert [rows.shape for rows, _ in op.factors] == [(0, 40)] * 2
        assert not op.apply(np.ones(grid80.points)).any()

    def test_sparse_kernel_never_builds_grid_table(self, sphere3):
        # H_512 on the 2064-node grid of `proj-scaling --k ...,512`: no
        # 513 x 2064 table (8.5 MB) is built, and the build holds a few rows
        # at most
        grid = zl.make_grid(sphere3, 4 * 512 + 16, kexact=512)
        tracemalloc.start()
        try:
            op = operator_from_kernel(zl.projector_kernel(sphere3, 512), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the even block holds the one row, on half the nodes
        assert [rows.shape for rows, _ in op.factors] == [(1, 1032),
                                                         (0, 1032)]
        assert peak < 16 * grid.points * 8

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["real", "complex", "rank_one", "dense"])
    @pytest.mark.parametrize("p", [1.01, 2.0, 5.0, 1e300, np.inf])
    def test_row_norms_match_dense(self, n, kind, p, monkeypatch):
        # every representation: factored real and complex, rank one (its
        # closed form, here -2.5 times the degree-7 projector, so that |m|
        # counts) and dense.  64 rows in blocks of 5: twelve full
        # blocks and a partial one; this test and the two below build their
        # own operators, since an operator keeps the row norms it has built,
        # whatever the block size
        monkeypatch.setattr(operators, "_ROW_BLOCK", 5 * 64 + 7)
        grid = zl.make_grid(zl.SphereSpec(n), 64, kexact=24)
        if kind == "complex":
            op = operator_from_kernel(_kernel(n, "resolvent"), grid)
        elif kind == "rank_one":
            rows, _ = operator_from_kernel(_kernel(n, "projector"),
                                           grid).unfolded()
            op = ZonalOperator(grid, factors=[(rows, np.array([-2.5]))])
        else:
            kept = np.random.default_rng(n).standard_normal(25)
            op = ZonalOperator(grid, factors=[(grid.basis(range(25)), kept)])
            if kind == "dense":
                op = ZonalOperator(grid, op.matrix)
        got = operators._row_lp(op, p)
        assert kind == "dense" or "matrix" not in op.__dict__
        want = weighted_lp(grid.weights, op.matrix.T, p)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("p", [2.0, 5.0])
    def test_row_norms_far_below_scale(self, p, monkeypatch):
        # two groups of 32 nodes, each with its own orthonormal factors: the
        # multipliers of the first are near 1, of the second near 1e-200, so
        # the rows of the second sit far below C and their sums underflow
        monkeypatch.setattr(operators, "_ROW_BLOCK", 5 * 64 + 7)
        grid = zl.make_grid(zl.SphereSpec(3), 64, kexact=24)
        rng = np.random.default_rng(3)
        q = np.zeros((64, 64))
        for g in (slice(0, 32), slice(32, 64)):
            q[g, g] = np.linalg.qr(rng.standard_normal((32, 32)))[0]
        rows = q.T / np.sqrt(grid.weights)
        kept = np.concatenate([np.logspace(0, -1, 32),
                               np.logspace(-199, -200, 32)])
        op = ZonalOperator(grid, factors=[(rows, kept)])
        got = operators._row_lp(op, p)
        scale = operators._entry_bound(op)
        assert ((got[32:] / scale) ** p < operators._ROW_SUM_MIN).all()
        want = weighted_lp(grid.weights, op.matrix.T, p)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_row_norms_at_huge_p_with_diagonal_at_scale(self, monkeypatch):
        # positive multipliers: C is the largest diagonal entry, so at
        # p = 1e300 only that row can be summed from the tiles (to its own
        # weight); every other row's sum underflows and is rebuilt whole
        monkeypatch.setattr(operators, "_ROW_BLOCK", 5 * 64 + 7)
        grid = zl.make_grid(zl.SphereSpec(3), 64, kexact=24)
        kept = np.random.default_rng(5).uniform(0.5, 2.0, 25)
        rows = grid.basis(range(25))
        op = ZonalOperator(grid, factors=[(rows, kept)])
        got = operators._row_lp(op, 1e300)
        want = weighted_lp(grid.weights, op.matrix.T, 1e300)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert got.max() == pytest.approx(operators._entry_bound(op),
                                          rel=1e-15)

    @given(seed=st.integers(0, 2 ** 32 - 1), complex_=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_entry_bound_covers_matrix(self, seed, complex_):
        # Cauchy-Schwarz: |A_ij| <= sum_k |m_k| |e_k(t_i)| |e_k(t_j)|
        # <= C, up to the rounding of both sides
        grid = zl.make_grid(zl.SphereSpec(3), 9)
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, grid.points + 1))
        rows = rng.standard_normal((rank, grid.points))
        kept = rng.standard_normal(rank) * 10.0 ** rng.uniform(-5, 5, rank)
        if complex_:
            kept = kept + 1j * rng.standard_normal(rank)
        op = ZonalOperator(grid, factors=[(rows, kept)])
        bound = operators._entry_bound(op)
        assert np.abs(op.matrix).max() <= bound * (1.0 + 1e-14)

    def test_upper_memory_stays_below_dense_matrix(self, lam64):
        # the complex lambda = 64 resolvent operator on the 1040-point grid
        # of `resolvent-scaling --lambda 8,16,32,64`: the real P x P matrix
        # |A| alone takes P^2 * 8 bytes, and no certificate may allocate
        # that much
        grid, kern = lam64
        op = operator_from_kernel(kern, grid)
        r = default_r(3, 0.6)
        point = ExponentPoint(1 / r, 1 / r - 0.6)
        tracemalloc.start()
        try:
            zl.norm_certificate(op, point, restarts=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.points ** 2 * 8

    def test_dense_row_norms_copy_no_matrix(self, lam64):
        # a dense operator's rows are read a bounded block at a time, so
        # its row norms never copy |A|, which alone takes P^2 * 8 bytes
        grid, _ = lam64
        a = np.random.default_rng(2).standard_normal((grid.points,) * 2)
        op = ZonalOperator(grid, a + a.T)
        del a
        tracemalloc.start()
        try:
            operators._row_lp(op, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.points ** 2 * 8

    def test_first_start_allocates_no_factor_product(self, lam64):
        # the row witness that starts the ascent is A's column i, one product
        # of rows.T with the K-vector kept * rows[:, i]: the complex K x P
        # product kept * rows (4.1 MiB here) is never formed, and the row
        # norms' tiles stay below it
        grid, kern = lam64
        op = operator_from_kernel(kern, grid)
        rows, _ = op.unfolded()
        r = default_r(3, 0.6)
        tracemalloc.start()
        try:
            zl.norm_lower(op, r, 1 / (1 / r - 0.6), restarts=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.size * 16

    @pytest.mark.parametrize("sigma", [0.6, 2 / 3])
    def test_certificate_builds_row_norms_once(self, grid144, sphere3,
                                               sigma, monkeypatch):
        # at the CLI's default pair, 1/r + 1/s = 1, the ascent's row witness
        # and the upper bound read the same L^{r'} row norms: one pass
        kern = zl.resolvent_kernel(sphere3, zl.ResolventParams(3, 1),
                                   kmax=32).kernel
        op = operator_from_kernel(kern, grid144)
        r = default_r(3, sigma)
        point = ExponentPoint(1 / r, 1 / r - sigma)
        passes = []
        build = operators._build_row_lp

        def counted(op, p):
            passes.append(p)
            return build(op, p)

        monkeypatch.setattr(operators, "_build_row_lp", counted)
        zl.norm_certificate(op, point, restarts=2)
        assert passes == [point.r / (point.r - 1.0)]

    @given(k=st.integers(0, 16), r=st.floats(1.05, 20.0),
           s=st.floats(1.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_rank_one_closed_form(self, grid80, sphere3, k, r, s):
        # H_k f = <f, e_k> e_k, so ||H_k||_{r->s} = ||e_k||_{r'} ||e_k||_s
        op = operator_from_kernel(zl.projector_kernel(sphere3, k), grid80)
        w = grid80.weights
        e = grid80.basis([k])[0]
        exact = weighted_lp(w, e, r / (r - 1.0)) * weighted_lp(w, e, s)
        assert zl.norm_lower(op, r, s).value == pytest.approx(exact,
                                                              rel=1e-12)


def _parity_kernel(n, complex_):
    """Degrees 0..24 on S^n: the resolvent at lambda = 3 (complex), or
    seeded real multipliers of both signs."""
    if complex_:
        return _kernel(n, "resolvent")
    rng = np.random.default_rng(n)
    return zl.ZonalKernel(zl.SphereSpec(n), rng.standard_normal(25))


def _unfolded_reference(op):
    """The full-node operator of the same rows: one block on every node."""
    return ZonalOperator(op.grid, factors=[op.unfolded()])


def _moved_grid(n, points):
    """A make_grid grid whose south half is moved by 6 ulp(pi), so that it
    is no longer mirrored."""
    grid = zl.make_grid(zl.SphereSpec(n), points, kexact=24)
    nodes = grid.nodes.copy()
    nodes[points // 2:] += 6 * np.spacing(np.pi)
    return zl.ZonalGrid(grid.sphere, nodes, grid.weights, "moved", 24)


def _row_lp_as_before(op, p):
    """The row norms of a one-block operator as the full-node route takes
    them: at finite p tiles of side isqrt(_ROW_BLOCK) over all nodes, then
    the rows whose sums left [_ROW_SUM_MIN, inf), and at p = inf every row,
    read whole, _ROW_BLOCK // P at a time."""
    (rows, kept), = op.factors
    w, points = op.grid.weights, op.grid.points
    out, redo = np.empty(points), np.arange(points)
    if not math.isinf(p):
        scale = float(np.einsum("k,ki,ki->i", np.abs(kept), rows, rows).max())
        side = math.isqrt(operators._ROW_BLOCK)
        small = kept / scale
        sums = np.zeros(points)
        for b0 in range(0, points, side):
            b = slice(b0, b0 + side)
            part = operators._scale_rows(small, rows[:, b])
            for c0 in range(b0, points, side):
                c = slice(c0, c0 + side)
                a = np.abs(operators._real_matmul(rows[:, c].T, part))
                with np.errstate(over="ignore"):
                    np.power(a, p, out=a)
                sums[b] += w[c] @ a
                if c0 > b0:
                    sums[c] += a @ w[b]
        out = scale * sums ** (1.0 / p)
        redo = np.flatnonzero(~((sums >= operators._ROW_SUM_MIN)
                                & (sums < np.inf)))
    step = max(1, operators._ROW_BLOCK // points)
    for i in range(0, redo.size, step):
        sel = redo[i:i + step]
        out[sel] = weighted_lp(w, operators._columns(op, sel), p)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("points", [64, 65])
class TestMirrorParity:
    """On a mirrored grid a factored operator keeps each row on the first
    ceil(P/2) nodes, an even and an odd block; the full-node operator of the
    same rows, unfolded, is the reference."""

    def test_basis_rows_are_mirrored(self, n, points):
        grid = zl.make_grid(zl.SphereSpec(n), points, kexact=24)
        h = (points + 1) // 2
        assert grid.mirrored and grid.half == h
        degrees = np.arange(25)
        B = grid.basis(degrees)
        sign = (-1.0) ** degrees[:, None]
        assert np.array_equal(B[:, ::-1], sign * B)
        if points % 2:
            # every odd row is exactly 0 at the middle node, t = 0
            assert not B[1::2, h - 1].any()
        blocks = grid.basis(degrees, folded=True)
        assert [d.tolist() for d, _ in blocks] == [
            degrees[::2].tolist(), degrees[1::2].tolist()]
        for d, rows in blocks:
            assert np.array_equal(rows, B[d, :h])

    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_full_node_reference(self, n, points, complex_,
                                         monkeypatch):
        # 5 * P + 7 entries per block: several tiles on each side
        monkeypatch.setattr(operators, "_ROW_BLOCK", 5 * points + 7)
        grid = zl.make_grid(zl.SphereSpec(n), points, kexact=24)
        op = operator_from_kernel(_parity_kernel(n, complex_), grid)
        ref = _unfolded_reference(op)
        h = (points + 1) // 2
        assert [rows.shape[1] for rows, _ in op.factors] == [h, h]
        rng = np.random.default_rng(points)
        X = rng.standard_normal((points, 3)) + 1j * rng.standard_normal(
            (points, 3))
        for x in (X, X.real.copy(), np.ascontiguousarray(X[:, 0]),
                  X[:, 1].real.copy()):
            want = ref.apply(x)
            assert np.abs(op.apply(x) - want).max() <= (
                1e-13 * np.abs(want).max())
        A = ref.matrix
        scale = np.abs(A).max()
        for sel in (0, h - 1, points - 1, [1, points - 2, h, 3],
                    slice(None)):
            got = operators._columns(op, sel)
            assert got.shape == A[:, sel].shape
            assert np.abs(got - A[:, sel]).max() <= 1e-13 * scale
        # exactly centrosymmetric: A(P-1-i, P-1-j) = A(i, j)
        assert np.array_equal(op.matrix, op.matrix[::-1, ::-1])
        assert operators._entry_bound(op) == pytest.approx(
            operators._entry_bound(ref), rel=1e-14)
        for p in (1.01, 2.0, 5.0, 1e300, np.inf):
            got = operators._row_lp(op, p)
            np.testing.assert_allclose(got, operators._row_lp(ref, p),
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(
                got, weighted_lp(grid.weights, A.T, p), rtol=1e-13, atol=0)
            assert np.array_equal(got, got[::-1])

    @pytest.mark.parametrize("complex_", [False, True])
    def test_fallback_rows(self, n, points, complex_, monkeypatch):
        # at p = 1e300 every entry below C underflows, so all rows but the
        # largest are read whole through `_columns`, and on the first half
        # only
        monkeypatch.setattr(operators, "_ROW_BLOCK", 5 * points + 7)
        grid = zl.make_grid(zl.SphereSpec(n), points, kexact=24)
        op = operator_from_kernel(_parity_kernel(n, complex_), grid)
        read = []
        columns = operators._columns

        def counted(op, sel):
            read.append(np.atleast_1d(np.arange(points)[sel]))
            return columns(op, sel)

        monkeypatch.setattr(operators, "_columns", counted)
        got = operators._row_lp(op, 1e300)
        read = np.concatenate(read)
        assert read.size >= (points + 1) // 2 - 1
        assert read.max() < (points + 1) // 2
        monkeypatch.setattr(operators, "_columns", columns)
        want = weighted_lp(grid.weights, _unfolded_reference(op).matrix.T,
                           1e300)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_not_mirrored_is_the_full_node_route(self, n, points, complex_,
                                                 monkeypatch, zonal_s3_mp):
        # a node set that is not mirrored is one block on every node: its
        # rows, products and row norms are the full-node route's, bit for
        # bit; its rows are, off S^3, a zonal table's bit for bit, and on
        # S^3 the closed form to 1e-13 of each row's max
        monkeypatch.setattr(operators, "_ROW_BLOCK", 5 * points + 7)
        grid = _moved_grid(n, points)
        assert not grid.mirrored and grid.half == points
        kern = _parity_kernel(n, complex_)
        op = operator_from_kernel(kern, grid)
        (rows, kept), = op.factors
        if n == 3:
            for k, row in enumerate(rows):
                exact = zonal_s3_mp(k, grid.nodes) * (
                    math.sqrt(2.0) * math.pi / (k + 1))
                assert np.abs(row - exact).max() <= 1e-13 * np.abs(
                    exact).max()
        else:
            tab = zl.zonal_table(n, 24, grid.cosines)
            z1 = zl.zonal_table(n, 24, np.ones(1))[:, 0]
            assert np.array_equal(rows, tab / np.sqrt(z1)[:, None])
        w = grid.weights
        rng = np.random.default_rng(points)
        X = rng.standard_normal((points, 3)) + 1j * rng.standard_normal(
            (points, 3))
        for x in (X, X.real.copy(), np.ascontiguousarray(X[:, 0]),
                  X[:, 1].real.copy()):
            want = operators._real_matmul(rows.T, operators._scale_rows(
                kept, operators._real_matmul(rows, operators._scale_rows(
                    w, x))))
            assert np.array_equal(op.apply(x), want)
        for p in (2.0, 5.0, 1e300, np.inf):
            assert np.array_equal(operators._row_lp(op, p),
                                  _row_lp_as_before(op, p))


def test_certificate_holds_no_full_node_rows():
    # the lambda = 64 resolvent operator of `resolvent-scaling --lambda
    # 8,16,32,64`, K = 257 rows on P = 1040 nodes: the build holds half of
    # a K x P rows array, and the certificate's temporaries stay below one
    sphere = zl.SphereSpec(3)
    kern = zl.resolvent_kernel(sphere, zl.ResolventParams(64, 1)).kernel
    grid = zl.make_grid(sphere, 1040, kexact=256)
    full = kern.coeffs.size * grid.points * 8
    assert kern.coeffs.size == 257
    r = default_r(3, 0.6)
    tracemalloc.start()
    try:
        op = operator_from_kernel(kern, grid)
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        zl.norm_certificate(op, ExponentPoint(1 / r, 1 / r - 0.6))
        certify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(rows.nbytes for rows, _ in op.factors) == full // 2
    assert build_peak < 0.6 * full
    assert certify_peak - held < full


# the endpoints (1, inf), (1, 2.5) and (5/3, inf), the diagonal (2, 2), and
# interior pairs on both sides of the line 1/r + 1/s = 1
_RANK_ONE_PAIRS = ((1.0, np.inf), (1.0, 2.5), (5 / 3, np.inf), (2.0, 2.0),
                   (1.2, 6.0), (1.25, 5.0), (3.0, 4.0))


@pytest.fixture(scope="module")
def grids32():
    return {n: zl.make_grid(zl.SphereSpec(n), 80, kexact=32)
            for n in (2, 3, 4, 5)}


class TestRankOneLower:
    """A single-multiplier operator m e_k e_k^T gets its lower bound from
    the duality map of e_k: exact, with no ascent step and no matrix."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [0, 1, 8, 32])
    @pytest.mark.parametrize("m", [1.0, -2.5, 0.3 - 1.7j])
    def test_closed_form_meets_upper(self, grids32, n, k, m):
        grid = grids32[n]
        coeffs = np.zeros(k + 1, dtype=np.result_type(m))
        coeffs[k] = m
        op = operator_from_kernel(zl.ZonalKernel(zl.SphereSpec(n), coeffs),
                                  grid)
        w = grid.weights
        for r, s in _RANK_ONE_PAIRS:
            low = zl.norm_lower(op, r, s)
            assert low.exact and low.iterations == 0
            upper = zl.norm_upper(op, ExponentPoint(1 / r, 1 / s))
            assert low.value == pytest.approx(upper, rel=1e-14,
                                              abs=0), (r, s)
            f = low.witness.values
            ratio = (weighted_lp(w, op.apply(f), s)
                     / weighted_lp(w, f, r))
            assert ratio == pytest.approx(low.value, rel=1e-12,
                                          abs=0), (r, s)
        assert "matrix" not in op.__dict__


class TestApplyKernel:
    def test_reproduces_own_harmonic(self, grid80, sphere3):
        z3 = zl.ZonalFunction(grid80, zl.zonal_value(3, 3, grid80.cosines))
        out = zl.apply_kernel(zl.projector_kernel(sphere3, 3), z3)
        np.testing.assert_allclose(out.values, z3.values, atol=1e-9)

    def test_annihilates_other_degree(self, grid80, sphere3):
        z5 = zl.ZonalFunction(grid80, zl.zonal_value(3, 5, grid80.cosines))
        out = zl.apply_kernel(zl.projector_kernel(sphere3, 3), z5)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-10)

    def test_mean_projector(self, grid80, sphere3, rng):
        f = zl.ZonalFunction(grid80, rng.standard_normal(grid80.points))
        out = zl.apply_kernel(zl.projector_kernel(sphere3, 0), f)
        mean = grid80.integrate(f.values) / VOL3
        np.testing.assert_allclose(out.values, mean, rtol=1e-10)

    def test_degree_budget_enforced(self, grid80, sphere3):
        f = zl.ZonalFunction(grid80, np.ones(grid80.points))
        with pytest.raises(ValueError):
            zl.apply_kernel(zl.projector_kernel(sphere3, 40), f)


@pytest.fixture(scope="module")
def witness_ops(h8, grid144, sphere3):
    """A rank-one projector, a dense complex symmetric matrix and a factored
    resolvent of full rank on the grid."""
    kern = zl.resolvent_kernel(sphere3, zl.ResolventParams(3, 1),
                               kmax=32).kernel
    return {"rank one": h8, "dense": _random_symmetric(2, True),
            "factored": operator_from_kernel(kern, grid144)}


class TestNormLower:
    def test_projector_l2_is_one(self, h8):
        low = zl.norm_lower(h8, 2.0, 2.0, restarts=2)
        assert low.value == pytest.approx(1.0, abs=1e-9)

    def test_mean_projector_closed_form(self, grid80, sphere3):
        op = operator_from_kernel(zl.projector_kernel(sphere3, 0), grid80)
        low = zl.norm_lower(op, 1.25, 5.0, restarts=2)
        # rank one onto constants: vol^{1/s} vol^{1/r'} / vol = vol^{-sigma}
        assert low.value == pytest.approx(VOL3 ** (-0.6), rel=1e-9)

    def test_projector_interior_pair(self, h8):
        # quadrature oracle: ||Z_8||_5 ||Z_8||_{5} / Z_8(1), adaptive
        # integration of the sine-quotient form
        low = zl.norm_lower(h8, 1.25, 5.0)
        assert low.value == pytest.approx(0.8229548994300724, rel=1e-6)

    def test_projector_interior_pair_asymmetric(self, h8):
        low = zl.norm_lower(h8, 1.2, 6.0)
        assert low.value == pytest.approx(0.9820244361976119, rel=1e-6)

    def test_sup_endpoint_exact(self, h8):
        low = zl.norm_lower(h8, 5 / 3, np.inf)
        assert low.exact and low.iterations == 0
        # continuum row formula sup|Z_8| ||Z_8||_{5/2} / Z_8(1); the grid
        # peak sits one node off the pole, hence the loose tolerance
        assert low.value == pytest.approx(1.6947160510449641, rel=1e-2)

    def test_row_column_symmetry(self, h8):
        row = zl.norm_lower(h8, 5 / 3, np.inf)
        col = zl.norm_lower(h8, 1.0, 2.5)
        assert col.exact
        assert col.value == pytest.approx(row.value, rel=1e-12)

    def test_corner_is_matrix_sup(self, h8):
        low = zl.norm_lower(h8, 1.0, np.inf)
        assert low.value == pytest.approx(np.abs(h8.matrix).max(), rel=1e-14)

    def test_witness_consistency(self, h8):
        low = zl.norm_lower(h8, 1.25, 5.0, restarts=4)
        w = h8.grid.weights
        ratio = (weighted_lp(w, h8.apply(low.witness.values), 5.0)
                 / weighted_lp(w, low.witness.values, 1.25))
        assert ratio == pytest.approx(low.value, rel=1e-12)

    @pytest.mark.parametrize("kind", ["rank one", "dense", "factored"])
    @pytest.mark.parametrize("r,s", [(1.25, 5.0), (1.0, 2.5), (5 / 3, np.inf),
                                     (1.0, np.inf)])
    def test_witness_consistency_every_route(self, witness_ops, kind, r, s):
        # the reported value is the ratio its witness attains, on the ascent
        # and on the exact route; at r = 1 the witness is a point mass
        op = witness_ops[kind]
        low = zl.norm_lower(op, r, s, restarts=4)
        w, f = op.grid.weights, low.witness.values
        ratio = weighted_lp(w, op.apply(f), s) / weighted_lp(w, f, r)
        assert ratio == pytest.approx(low.value, rel=1e-12)
        assert low.exact == (kind == "rank one" or r == 1.0 or np.isinf(s))
        if r == 1.0:
            assert np.count_nonzero(f) == 1

    @pytest.mark.parametrize("points", [208, 1040])
    def test_best_restart_wins(self, sphere3, points):
        # the resolvent at lambda = 8 and (r, s) = (1.2, 6), on the line
        # 1/r - 1/s = 2/3, as resolvent-scaling builds it: two restarts end
        # within 1e-9 of each other, and the lower bound is the larger
        kern = zl.resolvent_kernel(sphere3, zl.ResolventParams(8.0, 1.0),
                                   zl.default_degree_cutoff(8.0)).kernel
        grid = zl.make_grid(sphere3, points, (points - 16) // 4)
        op = operator_from_kernel(kern, grid)
        values = operators._ascent(op, 1.2, 6.0,
                                   operators._start_values(op, 1.2, 6.0, 8,
                                                           seed=7))[0]
        low = zl.norm_lower(op, 1.2, 6.0, restarts=8, seed=7)
        assert low.value >= max(values) * (1.0 - 1e-12)

    def test_more_restarts_never_worse(self, h8):
        a = zl.norm_lower(h8, 1.25, 5.0, restarts=1).value
        b = zl.norm_lower(h8, 1.25, 5.0, restarts=8).value
        assert b >= a * (1 - 1e-12)

    def test_ascent_ratios_monotone(self, h8, rng):
        """Each dual-power step may only improve the attained ratio."""
        w = h8.grid.weights
        r, s = 1.25, 5.0
        f = rng.standard_normal(h8.grid.points)
        f = f / weighted_lp(w, f, r)
        prev = 0.0
        for _ in range(20):
            g = h8.apply(f)
            ratio = weighted_lp(w, g, s)
            assert ratio >= prev * (1 - 1e-12)
            prev = ratio
            h = weighted_lp_dual(w, g, s)[1]
            u = h8.apply_adjoint(h / np.abs(h).max())
            f = weighted_lp_dual(w, u, r / (r - 1.0))[1]
            f = f / weighted_lp(w, f, r)

    def test_rejects_bad_exponents(self, h8):
        with pytest.raises(ValueError):
            zl.norm_lower(h8, 0.5, 2.0)
        with pytest.raises(ValueError):
            zl.norm_lower(h8, np.inf, 2.0)
        with pytest.raises(ValueError):
            zl.norm_lower(h8, np.inf, np.inf)
        with pytest.raises(ValueError):
            zl.norm_lower(h8, 2.0, 2.0, restarts=0)


# exponent pairs 1 <= r <= s <= inf: the exact endpoints r = 1 and s = inf,
# their nearest neighbours r = 1 + 2^-52 (r' = 2^52) and s = 1e300, and
# finite r, r' and s up to about 20, as in the ascent's closed-form oracle
_PAIRS = st.tuples(
    st.one_of(st.just(1.0), st.just(1.0 + 2.0 ** -52), st.floats(1.05, 20.0)),
    st.one_of(st.just(np.inf), st.just(1e300),
              st.floats(1.0, 20.0))).map(sorted)


def _random_symmetric(seed, complex_):
    """A dense operator with a random symmetric matrix on a 9-point grid."""
    grid = zl.make_grid(zl.SphereSpec(3), 9)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((grid.points, grid.points))
    if complex_:
        A = A + 1j * rng.standard_normal(A.shape)
    return ZonalOperator(grid, A + A.T)


class TestNormUpper:
    def test_l2_anchor_for_projector(self, h8):
        up = zl.norm_upper(h8, ExponentPoint(0.5, 0.5))
        assert up == pytest.approx(1.0, abs=1e-12)

    def test_l2_anchor_for_dense_projector(self, h8, grid144):
        # at (2, 2) the bound is the Hilbert-Schmidt norm of W^{1/2} A W^{1/2},
        # an orthogonal projection of rank one
        dense = ZonalOperator(grid144, h8.matrix)
        up = zl.norm_upper(dense, ExponentPoint(0.5, 0.5))
        assert up == pytest.approx(1.0, abs=1e-12)

    @given(k=st.integers(0, 16), pair=_PAIRS)
    @settings(max_examples=60, deadline=None)
    def test_rank_one_upper_covers_closed_form(self, grid80, sphere3, k,
                                               pair):
        # ||H_k||_{r->s} = ||e_k||_{r'} ||e_k||_s
        op = operator_from_kernel(zl.projector_kernel(sphere3, k), grid80)
        r, s = pair
        w, e = grid80.weights, grid80.basis([k])[0]
        rp = r / (r - 1.0) if r > 1 else np.inf
        exact = weighted_lp(w, e, rp) * weighted_lp(w, e, s)
        upper = zl.norm_upper(op, ExponentPoint(1 / r, 1 / s))
        assert upper == pytest.approx(exact, rel=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1), complex_=st.booleans(),
           factored=st.booleans(), pair=_PAIRS)
    @settings(max_examples=80, deadline=None)
    def test_dense_upper_is_rigorous(self, seed, complex_, factored, pair):
        # any attained ratio ||Tf||_s / ||f||_r, from the ascent or from a
        # batch of random and point-mass inputs, sits below the upper bound;
        # factored: 2..P random rows orthonormal in L^2(w), with complex
        # multipliers when complex_
        grid = zl.make_grid(zl.SphereSpec(3), 9)
        P, w = grid.points, grid.weights
        rng = np.random.default_rng(seed)
        if factored:
            rank = int(rng.integers(2, P + 1))
            q, _ = np.linalg.qr(rng.standard_normal((P, rank)))
            kept = rng.standard_normal(rank)
            if complex_:
                kept = kept + 1j * rng.standard_normal(rank)
            op = ZonalOperator(grid, factors=[(q.T / np.sqrt(w), kept)])
        else:
            A = rng.standard_normal((P, P))
            if complex_:
                A = A + 1j * rng.standard_normal((P, P))
            op = ZonalOperator(grid, A + A.T)
        inputs = list(rng.standard_normal((32, P)))
        if complex_:
            inputs = [f + 1j * g for f, g in
                      zip(inputs, rng.standard_normal((32, P)))]
        r, s = pair
        bound = zl.norm_upper(op, ExponentPoint(1 / r, 1 / s)) * (
            1.0 + 1e-12)
        assert zl.norm_lower(op, r, s, restarts=2).value <= bound
        inputs += list(np.diag(1.0 / w))
        best = max(weighted_lp(w, op.apply(f), s) / weighted_lp(w, f, r)
                   for f in inputs)
        assert best <= bound

    @given(seed=st.integers(0, 2 ** 32 - 1), complex_=st.booleans(),
           pair=_PAIRS)
    @settings(max_examples=80, deadline=None)
    def test_chosen_orientation_is_smaller(self, seed, complex_, pair):
        # Minkowski: where s >= r', the L^s norm of the L^{r'} row norms is
        # at most the L^{r'} norm of the L^s row norms (|A| is symmetric);
        # norm_upper evaluates the first at the point or its dual
        op = _random_symmetric(seed, complex_)
        w, A = op.grid.weights, op.matrix
        r, s = pair
        point = ExponentPoint(1 / r, 1 / s)
        rp = point.dual().s
        direct = weighted_lp(w, weighted_lp(w, A.T, rp), s)
        dual = weighted_lp(w, weighted_lp(w, A.T, s), rp)
        chosen, other = ((direct, dual) if point.x + point.y <= 1.0
                         else (dual, direct))
        assert zl.norm_upper(op, point) == pytest.approx(chosen, rel=1e-12)
        assert chosen <= other * (1.0 + 1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_overflow_near_endpoints(self):
        # r' = 2^52 and s = 1e300 used to overflow |v|^p to inf
        op = _random_symmetric(0, False)
        for r, s in ((1.0000000000000002, np.inf), (1.05, 1e300)):
            low = zl.norm_lower(op, r, s).value
            up = zl.norm_upper(op, ExponentPoint(1 / r, 1 / s))
            assert np.isfinite(low)
            assert low <= up * (1.0 + 1e-12)

    def test_mean_projector_sup_anchor(self, grid80, sphere3):
        op = operator_from_kernel(zl.projector_kernel(sphere3, 0), grid80)
        up = zl.norm_upper(op, ExponentPoint(1.0, 0.0))
        assert up == pytest.approx(1 / VOL3, rel=1e-12)

    def test_critical_point_through_dual(self, h8, grid144):
        """The bound at the critical pair is the rank-one closed form
        ||e_8||_{r'} ||e_8||_s, and so is the bound at its dual."""
        w, e = grid144.weights, grid144.basis([8])[0]
        exact = weighted_lp(w, e, 3.0) * weighted_lp(w, e, 15.0)
        point = ExponentPoint(2 / 3, 1 / 15)
        for p in (point, point.dual()):
            assert zl.norm_upper(h8, p) == pytest.approx(exact, rel=1e-12)

    def test_interior_point_direct(self, h8, grid144):
        # on the line 1/r + 1/s = 1 both orientations coincide; r' = s = 10
        w, e = grid144.weights, grid144.basis([8])[0]
        up = zl.norm_upper(h8, ExponentPoint(0.9, 0.1))
        assert up == pytest.approx(weighted_lp(w, e, 10.0) ** 2, rel=1e-12)

    def test_anchor_values(self, h8):
        # the bound at the corners (2, 2), (1, inf) and (1, 1)
        assert zl.norm_upper(h8, ExponentPoint(0.5, 0.5)) == pytest.approx(
            1.0, abs=1e-12)
        assert zl.norm_upper(h8, ExponentPoint(1.0, 0.0)) == pytest.approx(
            np.abs(h8.matrix).max(), rel=1e-12)
        # ||Z_8||_{L^1} sup|Z_8| / Z_8(1) = ||Z_8||_{L^1} on the grid
        assert zl.norm_upper(h8, ExponentPoint(1.0, 1.0)) == pytest.approx(
            7.311161535600787, rel=1e-2)

    @given(x=st.floats(0.01, 1.0), frac=st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_every_point_covered(self, h8, x, frac):
        up = zl.norm_upper(h8, ExponentPoint(x, x * frac))
        assert np.isfinite(up) and up > 0


class TestCertificates:
    def test_two_sided(self, h8):
        cert = zl.norm_certificate(h8, ExponentPoint(1 / 1.2, 1 / 6),
                                   label="H_8")
        assert cert["lower"] <= cert["upper"] * (1 + 1e-12)
        assert cert["label"] == "H_8"
        assert cert["n"] == 3

    def test_record_fields(self, h8):
        rec = zl.norm_certificate(h8, ExponentPoint(1 / 1.2, 1 / 6))
        # the key order is the order of the JSON row's bytes
        assert list(rec) == ["n", "label", "r", "s", "lower", "upper",
                             "witness_grid", "seed", "iterations", "stops",
                             "gap"]
        # the label is the caller's alone
        assert rec["label"] == ""
        assert rec["r"] == pytest.approx(1.2)
        assert rec["s"] == pytest.approx(6.0)
        assert rec["witness_grid"] == "gauss-jacobi-144/kexact=32"
        assert rec["gap"] == rec["upper"] / rec["lower"]

    def test_ordering_enforced(self, h8, monkeypatch):
        # an upper bound below the attained lower bound is refused, one
        # within rounding of it is not
        point = ExponentPoint(1 / 1.2, 1 / 6)
        lower = zl.norm_lower(h8, point.r, point.s).value
        monkeypatch.setattr(operators, "norm_upper",
                            lambda op, pt: lower / (1 + 1e-13))
        assert zl.norm_certificate(h8, point)["lower"] == lower
        monkeypatch.setattr(operators, "norm_upper",
                            lambda op, pt: lower / (1 + 1e-9))
        with pytest.raises(CertificateError,
                           match="exceeds upper bound .* for H_8 at"):
            zl.norm_certificate(h8, point, label="H_8")


def _kernel_values(kernel, t):
    """sum_k c_k Z_k(t) by the Gegenbauer recurrence, in the precision of t."""
    n = kernel.sphere.n
    alpha = (n - 1) / 2
    total, prev, cur = np.zeros_like(t), np.zeros_like(t), np.ones_like(t)
    for k, c in enumerate(kernel.coeffs):
        if k:
            prev, cur = cur, (2 * (k + alpha - 1) * t * cur
                              - (k + 2 * alpha - 2) * prev) / k
        total += c * (2 * k + n - 1) / ((n - 1) * zl.sphere_volume(n)) * cur
    return total


def _sampled_coeffs(spectrum):
    """The trigonometric coefficients of the normalised antiderivative G of
    every node pair, from the kernel sampled at the N azimuthal midpoints
    through the DCT-II (even n) or DST-II (odd n): the reference for the
    closed form.  Returns (c, odd): G(phi) = c_0 phi + sum_{m>=1} c_m trig(m
    phi) + const, with trig = sin for even n and cos for odd n.

    It runs in extended precision (np.longdouble): in doubles, Z_k at a
    rounded cos(gamma) near 1 is off by about k^2 ulp of Z_k(1), which at
    k = 128 is several 1e-13 of the coefficients' sum."""
    grid = spectrum.grid
    n = grid.sphere.n
    kernel = zl.projector_kernel(grid.sphere, spectrum.k)
    odd = n % 2 == 1
    size = kernel.max_degree + n - 1
    phi = np.arccos(np.longdouble(-1.0)) * (
        np.arange(size, dtype=np.longdouble) + 0.5) / size
    m = np.arange(size)
    if odd:
        trans = -np.sin(np.outer(phi, m))
    else:
        trans = np.cos(np.outer(phi, m))
        trans[:, 0] = 0.5
    total = math.sqrt(math.pi) * math.gamma((n - 1) / 2) / math.gamma(n / 2)
    trans *= (np.sin(phi) ** (n - 2))[:, None] * (
        2.0 / (size * total * np.maximum(m, 1)))
    nodes = grid.nodes.astype(np.longdouble)
    ct, sn = np.cos(nodes), np.sin(nodes)
    i, j = spectrum.pairs
    cosg = (ct[i] * ct[j])[:, None] + (sn[i] * sn[j])[:, None] * np.cos(phi)
    return _kernel_values(kernel, cosg) @ trans, odd


def _direct_antiderivative(c, odd, phi):
    """G(phi) - G(0) summed term by term, trig(m phi) for every m, from the
    coefficients c of _sampled_coeffs in their precision; phi has shape
    (azimuths, pairs).  Returns doubles."""
    phi = np.asarray(phi, dtype=c.dtype)
    trig = np.cos if odd else np.sin
    m = np.arange(1, c.shape[1])
    series = (trig(phi[:, :, None] * m) * c[:, 1:]).sum(axis=-1)
    if odd:
        series -= c[:, 1:].sum(axis=1)
    return (c[:, 0] * phi + series).astype(np.float64)


_DEGREES = [0, 1, 8, 64, 128]


class TestAdditionTheorem:
    """The factors A_m of the Gegenbauer addition theorem, against
    zonal_value and the grid's quadrature."""

    @staticmethod
    def _identity_error(n, k, seed, points):
        rng = np.random.default_rng(seed)
        ti, tj, phi = rng.uniform(0.0, np.pi, (3, points))
        # half the ti next to sin(theta) = 1/e, where the columns m ~ k/e
        # turn from decay to oscillation: their start sin^m(theta) is
        # smallest there against their value, and underflows from k ~ 1900
        # on (tj stays spread, since zonal_value at a rounded cos(gamma)
        # near 1 is itself off by about k^2 ulp of Z_k(1))
        half = points // 2
        ti[:half] = math.asin(1.0 / math.e) + rng.uniform(-0.05, 0.05, half)
        a = addition_factors(n, k, np.concatenate([ti, tj]))
        # the zonal kernels Z^{S^{n-1}}_m(cos phi), m = 0..k, of the
        # subsphere; on the circle (2 - delta_{m0}) cos(m phi) / (2 pi)
        if n == 2:
            sub = np.cos(np.outer(np.arange(k + 1), phi)) / np.pi
            sub[0] *= 0.5
        else:
            sub = zl.zonal_table(n - 1, k, np.cos(phi))
        got = np.sum(a[:, :points] * a[:, points:] * sub, axis=0)
        want = zl.zonal_value(n, k, np.cos(ti) * np.cos(tj)
                              + np.sin(ti) * np.sin(tj) * np.cos(phi))
        return np.abs(got - want).max() / zl.zonal_value(n, k, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", _DEGREES)
    def test_pointwise_identity(self, n, k):
        assert self._identity_error(n, k, 10 * n + k, 64) <= 1e-13

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1024, 2048])
    def test_pointwise_identity_high_degree(self, n, k):
        # sin^m and C^{alpha+m}_{k-m} alone overflow and underflow here
        assert self._identity_error(n, k, n, 8) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", _DEGREES)
    def test_orthonormal_on_exact_grid(self, n, k):
        # A_m^2 is a polynomial of degree 2k in cos(theta)
        grid = zl.make_grid(zl.SphereSpec(n), 2 * k + 1)
        A = addition_factors(n, k, grid.nodes)
        vol = zl.sphere_volume(n - 1)
        assert np.abs(A ** 2 @ grid.weights / vol - 1.0).max() <= 1e-11


class TestClenshawAntiderivative:
    """The closed-form antiderivative G of `AzimuthalSpectrum` against the
    term-by-term sum of the sampled kernel's coefficients, at the ends of
    [0, pi], next to them and at random azimuths, and the dyadic windows
    against the projector.  The class keeps the name of the Clenshaw sum
    that the closed form replaced, so that its test ids stay."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", _DEGREES)
    def test_matches_direct_sum(self, n, k):
        grid = zl.make_grid(zl.SphereSpec(n), 24, kexact=8)
        rng = np.random.default_rng(10 * n + k)
        spectrum = zl.AzimuthalSpectrum(grid, k)
        rows = np.arange(spectrum.pairs[0].size)
        phis = np.concatenate([[0.0, np.pi, 1e-8, np.pi - 1e-8],
                               rng.uniform(0.0, np.pi, 8)])
        # every pair at every azimuth, plus one random azimuth per pair
        phi = np.vstack([np.repeat(phis[:, None], rows.size, axis=1),
                         rng.uniform(0.0, np.pi, (1, rows.size))])
        got = spectrum.antiderivative(rows, phi)
        c, odd = _sampled_coeffs(spectrum)
        want = _direct_antiderivative(c, odd, phi)
        scale = np.abs(c).sum(axis=1).astype(np.float64)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        # a window beyond every pair's range is exactly zero
        assert not zl.azimuthal_matrix(spectrum, (np.pi, 4.0)).any()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 8, 64, 128])
    def test_pieces_sum_to_projector(self, n, k):
        # the dyadic windows tile (0, pi]; by the addition theorem their sum
        # is e_k e_k^T on any nodes, so a few nodes next to both poles and
        # across the sphere (unit weights, no quadrature) stand in for a
        # grid exact to degree k
        sphere = zl.SphereSpec(n)
        lam = zl.eigenvalue(n, k)
        nodes = np.sort(np.concatenate([
            [1e-3, 0.3 / lam, 1.0 / lam, np.pi - 1.0 / lam, np.pi - 1e-3],
            np.linspace(0.05, np.pi - 0.05, 31)]))
        grid = zl.ZonalGrid(sphere, nodes, np.ones(nodes.size), "custom", 0)
        spectrum = zl.AzimuthalSpectrum(grid, k)
        edges = [0.0] + [2.0 ** j / lam for j in range(zl.piece_count(n, k)
                                                       + 1)]
        total = sum(zl.azimuthal_matrix(spectrum, window)
                    for window in zip(edges, edges[1:]))
        e = grid.basis([k])[0]
        spectral = np.outer(e, e)
        assert np.abs(total - spectral).max() <= 1e-12 * np.abs(
            spectral).max()


def _ascent_one(op, r, s, f0):
    """The single-start ascent, one vector at a time: the reference each
    column of the block ascent must follow."""
    w = op.grid.weights
    rp = r / (r - 1.0)
    nrm = weighted_lp(w, f0, r)
    if nrm == 0:
        return 0.0, f0, 0
    f = f0 / nrm
    best, bestf = 0.0, f
    prev = 0.0
    steps = 0
    for steps in range(1, operators._MAX_STEPS + 1):
        ratio, h, _ = weighted_lp_dual(w, op.apply(f), s)
        if ratio > best:
            best, bestf = ratio, f
        if ratio == 0.0 or ratio <= prev * (1.0 + operators._STAGNATION):
            break
        prev = ratio
        _, fnew, total = weighted_lp_dual(w, op.apply(h), rp)
        nrm = total ** (1.0 / r)
        if nrm == 0:
            break
        f = fnew / nrm
    return best, bestf, steps


def _block_cases():
    """(label, operator) pairs: dense random symmetric matrices, real and
    complex, and factored complex resolvent operators, on S^2..S^5."""
    for n in (2, 3, 4, 5):
        grid = zl.make_grid(zl.SphereSpec(n), 12)
        rng = np.random.default_rng(n)
        for complex_ in (False, True):
            A = rng.standard_normal((grid.points, grid.points))
            if complex_:
                A = A + 1j * rng.standard_normal(A.shape)
            yield f"dense n={n} complex={complex_}", ZonalOperator(grid,
                                                                   A + A.T)
        grid = zl.make_grid(zl.SphereSpec(n), 64, kexact=24)
        yield f"resolvent n={n}", operator_from_kernel(
            _kernel(n, "resolvent"), grid)


_BLOCK_CASES = list(_block_cases())


class TestBlockAscent:
    @pytest.mark.parametrize("case", _BLOCK_CASES,
                             ids=[label for label, _ in _BLOCK_CASES])
    @pytest.mark.parametrize("r,s", [(1.25, 5.0), (1.2, 6.0), (3.0, 4.0)])
    def test_columns_follow_single_starts(self, case, r, s):
        _, op = case
        starts = operators._start_values(op, r, s, 8, seed=5)
        starts.append(np.zeros(op.grid.points))     # leaves at once
        values, witnesses, steps, stops = operators._ascent(op, r, s, starts)
        for i, f0 in enumerate(starts):
            value, f, count = _ascent_one(op, r, s, f0)
            assert steps[i] == count, i
            assert values[i] == pytest.approx(value, rel=1e-13, abs=0), i
            scale = np.abs(f).max()
            assert np.abs(witnesses[i] - f).max() <= 1e-12 * scale, i
        assert stops[-1] == "zero" and steps[-1] == 0

    def test_stop_reasons(self, grid144, sphere3):
        kern = zl.resolvent_kernel(sphere3, zl.ResolventParams(3, 1),
                                   kmax=32).kernel
        op = operator_from_kernel(kern, grid144)
        low = zl.norm_lower(op, 1.25, 5.0, restarts=6)
        assert set(low.stops) == {"stagnation", "zero", "max_steps"}
        assert sum(low.stops.values()) == 6
        assert low.stops["stagnation"] == 6
        # the exact routes take no ascent step and record no stop
        assert zl.norm_lower(op, 1.0, 5.0).stops == {}
        assert zl.norm_lower(op, 1.25, np.inf).stops == {}

    def test_max_steps_is_reported(self, grid144, sphere3, monkeypatch):
        kern = zl.resolvent_kernel(sphere3, zl.ResolventParams(3, 1),
                                   kmax=32).kernel
        op = operator_from_kernel(kern, grid144)
        monkeypatch.setattr(operators, "_MAX_STEPS", 2)
        rec = zl.norm_certificate(op, ExponentPoint(0.8, 0.2))
        assert rec["stops"]["max_steps"] > 0
        # a run cut short is not reported as converged
        assert rec["stops"]["stagnation"] < 8
        assert rec["iterations"] <= 2 * 8


def _bookkeeping_cases():
    """(label, operator, r, s): a real dense dyadic piece on S^3 at the P-side
    Stein point of sigma = 3/5, and a factored complex resolvent operator."""
    grid = zl.make_grid(zl.SphereSpec(3), 80, kexact=16)
    piece = zl.dyadic_decompose(16, grid)[4].operator()
    p_pt = stein_point(3, 0.6)[0]
    yield "dense piece", piece, p_pt.r, p_pt.s
    sphere = zl.SphereSpec(3)
    kern = zl.resolvent_kernel(sphere, zl.ResolventParams(3, 1),
                               kmax=24).kernel
    yield "resolvent", operator_from_kernel(
        kern, zl.make_grid(sphere, 64, kexact=24)), 1.25, 5.0


_BOOKKEEPING = list(_bookkeeping_cases())


@pytest.mark.parametrize("case", _BOOKKEEPING,
                         ids=[label for label, *_ in _BOOKKEEPING])
@pytest.mark.parametrize("max_steps", [None, 3])
def test_ascent_bookkeeping(case, max_steps, monkeypatch):
    # the ascent records each start's best ratio and witness only when the
    # start stops; what it reports is still the largest ratio of every
    # iterate of every start, attained by the reported witness
    _, op, r, s = case
    if max_steps is not None:
        monkeypatch.setattr(operators, "_MAX_STEPS", max_steps)
    w = op.grid.weights
    blocks = []
    apply = op.apply

    def recorded(values):
        out = apply(values)
        if values.ndim == 2:
            blocks.append((values.copy(), out.copy()))
        return out

    monkeypatch.setattr(op, "apply", recorded)
    low = zl.norm_lower(op, r, s, restarts=6, seed=3)
    # the ascent's calls alternate, from the iterates f: T f, then T
    # applied to the duality map of T f; norm_lower's re-evaluation of the
    # witness is a vector
    iterates = blocks[::2]
    ratios = [weighted_lp(w, g, s) / weighted_lp(w, f, r)
              for f, g in iterates]
    top, call, col = max((x[c], i, c) for i, x in enumerate(ratios)
                         for c in range(x.size))
    assert low.value == pytest.approx(top, rel=1e-13, abs=0)
    f = low.witness.values
    assert np.abs(f - iterates[call][0][:, col]).max() <= 1e-15 * np.abs(
        f).max()
    assert low.value == pytest.approx(
        weighted_lp(w, apply(f), s) / weighted_lp(w, f, r), rel=1e-15, abs=0)
    # every start stops once, for a known reason, and the steps are the
    # iterates' columns
    assert set(low.stops) == set(operators._STOPS)
    assert sum(low.stops.values()) == 6
    assert low.iterations == sum(f.shape[1] for f, _ in iterates)
    if max_steps is not None:
        assert low.stops["max_steps"] > 0


@given(seed=st.integers(0, 2 ** 32 - 1), r=st.floats(1.05, 8.0),
       ds=st.floats(0.0, 12.0))
@settings(max_examples=100, deadline=None)
def test_ascent_never_descends(seed, r, ds):
    # Hoelder's inequality twice: on a complex symmetric operator no step
    # of the ascent lowers the ratio ||Tf||_s / ||f||_r
    s = r + ds
    op = _random_symmetric(seed, True)
    w = op.grid.weights
    calls = []
    apply = op.apply

    def recorded(values):
        out = apply(values)
        calls.append((values, out))
        return out

    op.apply = recorded
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(op.grid.points) + 1j * rng.standard_normal(
        op.grid.points)
    operators._ascent(op, r, s, [start])
    # the calls alternate: the image g = Tf of a step's input f, then T
    # applied to the duality map of g
    ratios = [float(weighted_lp(w, g, s)[0] / weighted_lp(w, f, r)[0])
              for f, g in calls[::2]]
    assert len(ratios) >= 2
    for before, after in zip(ratios, ratios[1:]):
        assert after >= before * (1.0 - 1e-12)


class TestBlockApply:
    """apply and apply_adjoint on a (points, m) block equal the column by
    column calls."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["projector", "resolvent"])
    @pytest.mark.parametrize("route", ["factored", "dense"])
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_columns(self, n, kind, route, complex_input):
        grid = zl.make_grid(zl.SphereSpec(n), 64, kexact=24)
        op = operator_from_kernel(_kernel(n, kind), grid)
        if route == "dense":
            op = ZonalOperator(grid, op.matrix)
        rng = np.random.default_rng(n)
        X = rng.standard_normal((grid.points, 5))
        if complex_input:
            X = X + 1j * rng.standard_normal(X.shape)
        # rounding is relative to the terms summed, bounded by
        # max|A_ij| sum_j w_j |x_j|, not to a result that may cancel
        scale = np.abs(op.matrix).max() * (grid.weights @ np.abs(X))
        for method in (op.apply, op.apply_adjoint):
            block = method(X)
            assert block.shape == X.shape
            for j in range(X.shape[1]):
                col = method(np.ascontiguousarray(X[:, j]))
                assert np.abs(block[:, j] - col).max() <= 1e-14 * scale[j]

    def test_weighted_lp_and_dual_power_by_column(self, grid80):
        rng = np.random.default_rng(7)
        w = grid80.weights
        X = rng.standard_normal((grid80.points, 4)) + 1j * rng.standard_normal(
            (grid80.points, 4))
        X[:, 2] = 0.0
        for p in (1.0, 2.5, 1e300, np.inf):
            norms = weighted_lp(w, X, p)
            for j in range(X.shape[1]):
                assert norms[j] == pytest.approx(weighted_lp(w, X[:, j], p),
                                                 rel=1e-14, abs=0)
        # the duality kernel takes the columns of X as the rows of X.T
        dual = weighted_lp_dual(w, X.T, 3.0)[1]
        for j in range(X.shape[1]):
            assert np.array_equal(dual[j],
                                  weighted_lp_dual(w, X[:, j], 3.0)[1])
