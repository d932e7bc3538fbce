"""Discrete zonal operators and two-sided operator norm estimation.

A zonal kernel K acts on zonal functions through the reduced matrix
A[i,j] = azimuthal average of K over the relative angle between nodes i and j:

    (T f)_i = sum_j w_j A[i,j] f_j.

For a multiplier kernel the reduced matrix has the closed form
A = sum_k m_k e_k e_k^T with e_k the orthonormal zonal rows.  The operator
keeps only the rows with m_k != 0 and their multipliers and applies them
spectrally, so the degree-k projector (rank one) costs O(points) per
application; no norm bound builds the dense matrix.  The kept rows come
from one recurrence (`ZonalGrid.basis`), in O(points x kept degrees) memory.
On a mirrored grid (`ZonalGrid.mirrored`: nodes symmetric under
theta -> pi - theta to rounding and weights exactly, as on every
Gauss-Jacobi grid) e_k(t_{P-1-i}) = (-1)^k e_k(t_i), so the rows are kept
on the first h = ceil(P/2) nodes only, in an even and an odd block: half
the memory.  `apply` folds its input onto those nodes with a reversed
slice and takes each block's two half-size products through the module's
one real product (`_real_matmul`), and the row norms below build a quarter
of the products.  Any other node set is one block on every node, the same
functions with h = P.
For the degree-k kernel Z_k restricted to a window of relative angles (a
dyadic piece) the average is integrated into a dense matrix in closed form
(AzimuthalSpectrum): the Gegenbauer addition theorem separates the
azimuthal integrand of each node pair into Gegenbauer polynomials in the
cosine of the azimuth, from one factor table, and the polynomials'
derivative identity integrates each of them.  The antiderivative is summed
by one Gegenbauer recurrence at the azimuths of the window's edges, once
per distinct edge and only over the pairs that the edge cuts.  On a
mirrored grid a pair and its mirror image (P-1-j, P-1-i) have one
antiderivative, so the spectrum keeps one pair of each image and writes its
entry to both places: half the pairs, and every window's matrix exactly
centrosymmetric.

A is symmetric, so the adjoint of T is T with its input and output
conjugated, and every representation has one application path, `apply`.

Norms:
  * norm_lower reports the ratio ||Tf||_s / ||f||_r that its witness f
    attains, re-evaluated from scratch, hence a valid lower bound for the
    discrete operator.  Where s = inf or r = 1, and for a rank-one operator
    m e e^T (e.g. the degree-k projector), one exact route attains the norm
    with the duality map of the row of largest Hoelder norm, a point mass
    when r = 1; for m e e^T that row is a multiple of e, so it costs
    O(points) and no dense matrix.  Everything else runs a nonlinear power
    ascent over zonal inputs.  Its first start is that same row witness,
    the others seeded random draws; they run as the columns of one block
    (apply and the norms act column by column) and leave it at their own
    stops, and the start that reached the largest ratio gives the witness.
    Each half-step takes its norm, its duality map and the next input's L^r
    norm from one power (`norms.weighted_lp_dual`).
  * norm_upper is Hoelder's inequality row by row (the Hille-Tamarkin
    bound) on |A|, taken in whichever of the point and its dual is the
    smaller by Minkowski's inequality; it is exact for rank one (the
    degree-k projector, in O(points)) and wherever r = 1 or s = inf.

Both read one set of row norms (`_row_lp`), which the operator keeps by
exponent, so where 1/r + 1/s = 1 one certificate builds them once.  A
rank-one row m e_i e has the closed-form norm |m| |e_i| ||e||_p.  Every
other row of A, dense or factored, is read through one accessor
(`_columns`), a bounded block of rows at a time, so A is never copied and
the temporaries stay bounded whatever the number of points.  At p = inf
every row is read whole, its norm being its max.  At finite p a factored
operator first sums tiles of A built from its factors: |A| is symmetric,
so only the tiles on and above the diagonal of its first h nodes are built,
each scaled by the a-priori bound C = max_i sum_k |m_k| e_k(t_i)^2 >=
max |A_ij|, and a tile's powered entries are summed into the rows on both
of its sides.  On a mirrored grid the even and odd tiles E and O give the
entries A(i, j) = E + O and A(i, P-1-j) = E - O of row i, and row P-1-i,
its image, has the same norm.  A row whose sum underflows against C, or
overflows at a huge exponent, is then read whole and scaled by its own max
(the fallback rows), so every exponent keeps its meaning.

norm_certificate pairs the two bounds at one exponent pair and returns the
certificate as its JSON row, a dict whose keys and their order are fixed;
its label is the caller's, as no kernel or operator carries one.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._core import _rows
from .errors import CertificateError
from .grids import ZonalFunction
from .norms import weighted_lp, weighted_lp_dual
from .specfun import addition_factors

_STAGNATION = 1e-9
_MAX_STEPS = 500
# node pairs per block of the spectrum's weights, so that the temporaries
# grow with the degree but not with the grid
_PAIR_BLOCK = 4096
# entries of A per tile (or per block of whole rows) of a factored
# operator's row norms, so that the temporaries stay bounded whatever the
# number of points
_ROW_BLOCK = 2 ** 16
# the smallest row sum of (|A_ij| / C)^p taken from the triangle; a smaller
# one may have lost digits to underflow
_ROW_SUM_MIN = 2.0 ** -900


class ZonalOperator:
    """A zonal kernel bound to a grid.

    Either the dense reduced matrix is given, for windows of Z_k (dyadic
    pieces), or the spectral factors of A = sum_k m_k e_k e_k^T, the rows
    e_k orthonormal in L^2(w) and m_k the nonzero multipliers (multiplier
    kernels).  The factors are blocks (rows, kept), whose rows all cover the
    first h nodes.  On a mirrored grid (`ZonalGrid.mirrored`) h = ceil(P/2)
    and there are two blocks, the even and the odd degrees: block b's row
    takes (-1)^b times its value at node i on node P-1-i, so no row is held
    on the other nodes.  Elsewhere h = P, and a block is any rows with their
    multipliers.  The factored form applies through the blocks, and no norm
    bound builds `matrix` from them (it is built on first read, for callers
    that read it).  Every norm bound reads only the matrix or the factors,
    so it is a bound for this discrete operator.  The row norms that
    `_row_lp` builds are kept by p, as `matrix` is kept, so the ascent's
    first start and the upper bound of one certificate share one pass.
    """

    def __init__(self, grid, matrix=None, factors=None):
        if (matrix is None) == (factors is None):
            raise ValueError("give either the matrix or the factors")
        self.grid = grid
        if matrix is not None:
            self.matrix = matrix
        else:
            factors = tuple(factors)
            h = {rows.shape[1] for rows, _ in factors}
            if h != {grid.points if len(factors) == 1 else grid.half} or (
                    len(factors) == 2 and not grid.mirrored):
                raise ValueError(
                    "factors are one block of rows on every node, or an "
                    "even and an odd block on the first half of a mirrored "
                    "grid")
        self.factors = factors
        self.row_norms = {}

    @functools.cached_property
    def matrix(self):
        return _columns(self, slice(None))

    @property
    def rank_one(self):
        """Whether the operator is factored as one row, A = m e e^T."""
        return self.factors is not None and sum(
            kept.size for _, kept in self.factors) == 1

    def unfolded(self):
        """The factors' rows on every node, block after block, and their
        multipliers, shapes (K, points) and (K,): a fresh array, for the
        callers that read a row whole."""
        points = self.grid.points
        rows = [_mirror(r.T, points, (-1.0) ** b).T
                for b, (r, _) in enumerate(self.factors)]
        return (np.concatenate(rows),
                np.concatenate([kept for _, kept in self.factors]))

    def apply(self, values):
        """T applied to a vector of node values, or to each column of a
        (points, m) block.

        On a mirrored grid the input is folded onto the first h nodes,
        w_i (x_i +- x_{P-1-i}) for the even and the odd block, with the
        middle node of an odd P at half weight (`_half_weights`); each block
        takes rows.T (kept * rows u) through `_real_matmul`, and `_unfold`
        spreads the blocks' sum and difference over the nodes."""
        w = self.grid.weights
        if self.factors is None:
            return self.matrix @ _scale_rows(w, values)
        if len(self.factors) == 1:
            inputs = [_scale_rows(w, values)]
        else:
            # the mirror half copied first: sums of a reversed and a forward
            # block take a slower loop than contiguous ones
            wh = self._half_weights
            x, image = values[:wh.size], values[::-1][:wh.size].copy()
            inputs = [_scale_rows(wh, x + image), _scale_rows(wh, x - image)]
        return _unfold([
            _real_matmul(rows.T, _scale_rows(kept, _real_matmul(rows, u)))
            for (rows, kept), u in zip(self.factors, inputs)],
            self.grid.points)

    @functools.cached_property
    def _half_weights(self):
        """The weights on the first h nodes of a mirrored grid, halved at the
        middle node of an odd P, which a sum over a node and its mirror
        counts twice."""
        h = self.grid.half
        wh = self.grid.weights[:h].copy()
        if self.grid.points % 2:
            wh[-1] *= 0.5
        return wh

    def apply_adjoint(self, values):
        """The adjoint of T, on a vector or on each column of a block: A is
        symmetric, so it is T with the input and the output conjugated.
        No library code calls it; it stays for the tracer's span alone."""
        return np.conj(self.apply(np.conj(values)))

    def __repr__(self):
        return f"ZonalOperator(points={self.grid.points})"


def _scale_rows(d, v):
    """d_i v_i for a vector v, or d_i v_ij for a (len(d), m) block."""
    return d.reshape(d.shape + (1,) * (v.ndim - 1)) * v


def _real_matmul(m, v):
    """m @ v for a real matrix m and a vector or block v; a complex v runs as
    a real view with its real and imaginary parts side by side, so m is never
    copied to complex."""
    if not np.iscomplexobj(v):
        return m @ v
    pairs = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
    out = (m @ pairs.reshape(v.shape[0], 2 * math.prod(v.shape[1:]))
           ).view(np.complex128)
    return out.reshape(m.shape[:1] + v.shape[1:])


def _unfold(parts, points):
    """Node values from the blocks' parts on their first h nodes: the sum of
    the parts there and, on the image P-1-i of node i < P-h, the even part
    minus the odd (written over the even part, a temporary of the caller)."""
    if len(parts) == 1:
        return parts[0]
    even, odd = parts
    h = even.shape[0]
    out = np.empty((points,) + even.shape[1:],
                   dtype=np.result_type(even, odd))
    np.add(even, odd, out=out[:h])
    np.subtract(even, odd, out=even)
    out[h:] = even[:points - h][::-1]
    return out


def _mirror(half, points, sign=1.0):
    """Node values (along the first axis) on all `points` nodes from their
    first h: node P-1-i takes sign times node i for i < P-h.  With h =
    points that is `half` itself."""
    h = half.shape[0]
    if h == points:
        return half
    out = np.empty((points,) + half.shape[1:], dtype=half.dtype)
    out[:h] = half
    np.multiply(half[:points - h][::-1], sign, out=out[h:])
    return out


def _columns(op, sel):
    """A[:, sel], which is A[sel].T as A is symmetric: a slice of a dense
    operator, and for a factored one a product of each block's rows.T with
    the small kept * rows[:, sel], so neither A nor a K x points temporary is
    built.  On a mirrored grid column P-1-j reads column j's factor rows,
    with the odd block's sign flipped."""
    if op.factors is None:
        return op.matrix[sel].T
    points = op.grid.points
    h = op.factors[0][0].shape[1]
    cols, sign = sel, 1.0
    if h < points:
        j = np.arange(points)[sel]
        cols, sign = np.minimum(j, points - 1 - j), np.where(j < h, 1.0, -1.0)
    parts = []
    for b, (rows, kept) in enumerate(op.factors):
        part = _scale_rows(kept, rows[:, cols])
        parts.append(_real_matmul(rows.T, part * sign if b else part))
    return _unfold(parts, points)


def _entry_bound(op):
    """C = max_i sum_k |m_k| e_k(t_i)^2 over a factored operator's blocks,
    which bounds every |A_ij| by Cauchy-Schwarz; O(K h), with no K x P
    temporary.  A row's square is the same at a node and at its image, so
    the first h nodes give the max."""
    return float(sum(np.einsum("k,ki,ki->i", np.abs(kept), rows, rows)
                     for rows, kept in op.factors).max())


def _row_lp(op, p):
    """The L^p(w) norm of every row of A, built once per operator and p
    (`_build_row_lp`) and kept in `op.row_norms`."""
    out = op.row_norms.get(p)
    if out is None:
        out = op.row_norms[p] = _build_row_lp(op, p)
    return out


def _abs_tiles(factors, parts, c):
    """|A[c, b]| / C from each block's rows[:, c] and part = (kept / C) *
    rows[:, b]: one tile, or on a mirrored grid |E + O| and |E - O| from the
    even tile E and the odd tile O, which hold A(i, j) and A(i, P-1-j).
    Each complex temporary is dropped as soon as it is read."""
    tiles = [_real_matmul(rows[:, c].T, part)
             for (rows, _), part in zip(factors, parts)]
    if len(tiles) == 1:
        return [np.abs(tiles[0])]
    even, odd = tiles
    del tiles
    image = even - odd
    even += odd
    del odd
    return [np.abs(even), np.abs(image)]


def _build_row_lp(op, p):
    """The L^p(w) norm of every row of A.

    A rank-one row is m e_i e, so its norm is |m| |e_i| ||e||_p in closed
    form.  Any other row is read through `_columns` in blocks of at most
    _ROW_BLOCK entries, each reduced as soon as it is built, so A is never
    copied.  At finite p a factored operator first builds only the tiles on
    and above the diagonal of its first h nodes, against the scale C of
    `_entry_bound` (a dense one, or p = inf, has scale 0 and skips them):
    per block, a tile of A[c, b] / C with column block c >= row block b is
    one real product of rows[:, c].T with the small (kept / C) * rows[:, b].
    On a mirrored grid the even tile E and the odd tile O give
    A(i, j) = E + O and A(i, P-1-j) = E - O, and the weights are mirrored
    too, so |E + O|^p + |E - O|^p is summed with the weights (the middle
    node of an odd P, where O = 0, at half weight) into the rows of b and,
    |A| being symmetric, into the rows of c; row P-1-i, the image of row i,
    has its norm.  A row whose sum falls outside [_ROW_SUM_MIN, inf) (its
    entries underflow against C, or one rounds above C at huge p) is then
    read whole and scaled by its own max, like every row of a dense
    operator.
    """
    w = op.grid.weights
    if op.rank_one:
        (row,), (m,) = op.unfolded()
        return abs(m) * np.abs(row) * weighted_lp(w, row, p)
    points = op.grid.points
    h = points if op.factors is None else op.factors[0][0].shape[1]
    out = np.empty(h)
    redo = np.arange(h)
    scale = 0.0 if op.factors is None or math.isinf(p) else _entry_bound(op)
    if scale > 0:
        # a tile's side; on a mirrored grid each tile leaves three complex
        # temporaries, and tiles of an eighth of the entries, which stay in
        # cache, took 0.75 of the time of full ones at P = 1040
        side = math.isqrt(_ROW_BLOCK // (8 if len(op.factors) == 2 else 1))
        wh = w if len(op.factors) == 1 else op._half_weights
        sums = np.zeros(h)
        for b0 in range(0, h, side):
            b = slice(b0, b0 + side)
            parts = [_scale_rows(kept / scale, rows[:, b])
                     for rows, kept in op.factors]
            for c0 in range(b0, h, side):
                c = slice(c0, c0 + side)
                a, *rest = _abs_tiles(op.factors, parts, c)
                with np.errstate(over="ignore"):
                    np.power(a, p, out=a)
                    for other in rest:
                        a += np.power(other, p, out=other)
                sums[b] += wh[c] @ a
                if c0 > b0:
                    sums[c] += a @ wh[b]
        out = scale * sums ** (1.0 / p)
        redo = np.flatnonzero(~((sums >= _ROW_SUM_MIN) & (sums < np.inf)))
    step = max(1, _ROW_BLOCK // points)
    for i in range(0, redo.size, step):
        sel = redo[i:i + step]
        out[sel] = weighted_lp(w, _columns(op, sel), p)
    return _mirror(out, points)


def operator_from_kernel(kernel, grid):
    """Spectral factors of a multiplier kernel, A = sum_k m_k e_k e_k^T over
    the degrees with m_k != 0; the kernel and grid share one sphere.

    The kept rows come from one recurrence (`ZonalGrid.basis`), on the
    first half of a mirrored grid's nodes, grouped by the parity of the
    degree, so the operator holds O(points x kept degrees) / 2 on such a
    grid: a projector one row, a resolvent a row per degree.
    """
    if kernel.sphere != grid.sphere:
        raise ValueError(f"kernel on S^{kernel.sphere.n} against a grid on "
                         f"S^{grid.sphere.n}")
    kmax = kernel.max_degree
    if kmax > grid.kexact:
        raise ValueError(
            f"kernel degree {kmax} exceeds grid exactness {grid.kexact}")
    nz = np.flatnonzero(kernel.coeffs)
    return ZonalOperator(grid, factors=[
        (rows, kernel.coeffs[degrees])
        for degrees, rows in grid.basis(nz, folded=True)])


class AzimuthalSpectrum:
    """The normalised azimuthal antiderivative of the degree-k zonal kernel
    Z_k for the node pairs i <= j of a grid, in closed form.

    On a mirrored grid (`ZonalGrid.mirrored`, as every Gauss-Jacobi grid
    is) only the pairs with i + j <= P - 1 are kept.  A pair and its image
    (P-1-j, P-1-i) sweep the same range [d, s] of relative angles and, as
    A_m(pi - theta) = (-1)^{k-m} A_m(theta), have the same weights w_m, so
    they have one G and every window's matrix is centrosymmetric; `places`
    lists where each value goes.  Any other node set keeps every pair.

    For nodes at polar angles (ti, tj) the relative angle gamma obeys
    cos gamma = cos ti cos tj + sin ti sin tj cos phi as the azimuth phi runs
    over [0, pi] with density sin^{n-2} phi.  The addition theorem separates
    Z_k into functions of ti, tj and phi,

        Z_k(cos gamma) = sum_{m<=k} A_m(ti) A_m(tj) Z^{S^{n-1}}_m(cos phi),

    and Z^{S^{n-1}}_m is a multiple of C^a_m with a = (n-2)/2, whose
    integral against the density is closed (DLMF 18.9, the Gegenbauer
    derivative identity): for m >= 1

        int_0^phi C^a_m(cos psi) sin^{n-2} psi dpsi
            = 2a / (m (m + 2a)) sin^{n-1} phi C^{a+1}_{m-1}(cos phi).

    With I(phi) = int_0^phi sin^{n-2}, the kernel's average over the
    azimuths up to phi is therefore

        G(phi) = w_0 I(phi) + sin^{n-1} phi sum_{m>=1} w_m C^{n/2}_{m-1}(cos phi),

    with the pair's weights w_m = kappa_m A_m(ti) A_m(tj), where
    kappa_0 = 1 / (vol(S^{n-1}) I(pi)) and
    kappa_m = 2 (m + a) / (m (m + 2a) vol(S^{n-1}) I(pi)).  The one formula
    holds for every n >= 2: on the circle (a = 0) the m-th term is
    w_m sin(m phi) with kappa_m = 1 / (pi^2 m).  G(0) = 0 and
    G(pi) = w_0 I(pi).  The spectrum keeps, for its whole life, the factor
    table A, the kept pairs (`pairs`) and their angle ranges (`ranges`), two
    integers and two floats per pair; `edge` computes the weights of just
    the pairs it cuts and keeps G at the latest edge, so an edge shared by
    two consecutive windows walked upwards is summed once.
    """

    def __init__(self, grid, k):
        self.grid = grid
        self.k = k
        i, j = np.triu_indices(grid.points)
        self.mirrored = grid.mirrored
        if self.mirrored:
            # the image (P-1-j, P-1-i) of (i, j) has index sum
            # 2 (P - 1) - (i + j), so i + j <= P - 1 keeps one pair of each
            # image (a pair on the antidiagonal is its own image)
            keep = i + j <= grid.points - 1
            i, j = i[keep], j[keep]
        self.pairs = i, j
        # (gamma, G) of the latest edge
        self._edge = None, None
        n = grid.sphere.n
        a = (n - 2) / 2
        # I(pi)
        self.total = math.sqrt(math.pi) * math.gamma(a + 0.5) / math.gamma(
            a + 1.0)
        # kappa_m, with m = 0 apart: its general form is 0/0 there when n = 2
        m = np.arange(1.0, k + 1)
        kappa = np.concatenate(([1.0], 2.0 * (m + a) / (m * (m + 2.0 * a))))
        self.kappa = kappa / (grid.sphere.subsphere_volume * self.total)

    @functools.cached_property
    def factors(self):
        """The addition theorem's factors A of Z_k, shape (k + 1, points)."""
        return addition_factors(self.grid.sphere.n, self.k, self.grid.nodes)

    @functools.cached_property
    def ranges(self):
        """(d, s) per pair: the relative angle sweeps [d, s] as the azimuth
        turns, d = |ti - tj| and s = min(ti + tj, 2 pi - ti - tj)."""
        th = self.grid.nodes
        i, j = self.pairs
        return np.abs(th[i] - th[j]), np.minimum(th[i] + th[j],
                                                 2.0 * np.pi - (th[i] + th[j]))

    def places(self):
        """The flat indices into a P x P matrix that the values of `edge`
        fill: (i, j) and (j, i) for the pairs, then on a mirrored grid their
        images (P-1-j, P-1-i) and (P-1-i, P-1-j)."""
        P = self.grid.points
        i, j = self.pairs
        yield i * P + j
        yield j * P + i
        if self.mirrored:
            # (P-1-a) P + (P-1-b) = P^2 - 1 - (a P + b)
            last = P * P - 1
            yield last - (j * P + i)
            yield last - (i * P + j)

    def weight(self, m, i, j):
        """w_m of the node pairs (i, j), given as index arrays."""
        row = self.factors[m]
        return self.kappa[m] * row.take(i) * row.take(j)

    def edge(self, gamma):
        """G, per pair, at the azimuth where the relative angle reaches
        gamma clipped to the pair's range [d, s]; kept for the latest gamma
        alone, so windows walked upwards sum each shared edge once.

        Clipped edges take the end values, G(0) = 0 wherever gamma <= d and
        G(pi) = w_0 I(pi) wherever gamma >= s.  Inside the range the edge maps
        to its azimuth through the half-angle form tan^2(phi/2) =
        (cos d - cos gamma) / (cos gamma - cos s), factored into sines so that
        no edge loses digits near d or s, and G is summed there by
        `antiderivative`.
        """
        gamma = float(gamma)
        kept, G = self._edge
        if kept != gamma:
            d, s = self.ranges
            G = np.zeros(d.size)
            top = np.flatnonzero(gamma >= s)
            i, j = self.pairs
            G[top] = self.total * self.weight(0, i[top], j[top])
            inside = np.flatnonzero((d < gamma) & (gamma < s))
            for start in range(0, inside.size, _PAIR_BLOCK):
                rows = inside[start:start + _PAIR_BLOCK]
                lo, hi = d[rows], s[rows]
                phi = 2.0 * np.arctan2(
                    np.sqrt(np.sin(0.5 * (gamma - lo))
                            * np.sin(0.5 * (gamma + lo))),
                    np.sqrt(np.sin(0.5 * (hi - gamma))
                            * np.sin(0.5 * (hi + gamma))))
                G[rows] = self.antiderivative(rows, phi)
            self._edge = gamma, G
        return G

    def antiderivative(self, rows, phi):
        """G(phi) for the pairs `rows`; phi has shape (..., len(rows)).  The
        series runs through the Gegenbauer recurrence in m at each azimuth;
        `edge` passes _PAIR_BLOCK pairs at a time."""
        n, k = self.grid.sphere.n, self.k
        i, j = self.pairs[0][rows], self.pairs[1][rows]
        series = np.zeros_like(phi)
        for m, row in zip(range(1, k + 1), _rows(k - 1, n / 2, np.cos(phi))):
            series += self.weight(m, i, j) * row
        return (self.weight(0, i, j) * _sine_integral(n - 2, phi)
                + np.sin(phi) ** (n - 1) * series)


def _sine_integral(p, phi):
    """int_0^phi sin^p by the reduction
    I_p = ((p - 1) I_{p-2} - sin^{p-1} phi cos phi) / p, from I_0 = phi and
    I_1 = 2 sin^2(phi / 2)."""
    out = 2.0 * np.sin(0.5 * phi) ** 2 if p % 2 else phi
    for q in range(p % 2 + 2, p + 1, 2):
        out = ((q - 1) * out - np.sin(phi) ** (q - 1) * np.cos(phi)) / q
    return out


def azimuthal_matrix(spectrum, support=(0.0, np.pi)):
    """Reduced matrix of the spectrum's Z_k restricted to the window
    support = (lo, hi] of relative angles: G(hi) - G(lo) per pair, each edge
    clipped to the pair's range (`AzimuthalSpectrum.edge`).  A window that
    misses a pair's range clips both edges to the same end, so the entry is
    exactly 0.  Each pair's entry is written to its `places`, so the matrix
    is exactly symmetric and, on a mirrored grid, exactly centrosymmetric.
    The lower edge is read first and held here: windows walked upwards then
    find it as the spectrum's kept edge, which the upper edge replaces.
    """
    lo = spectrum.edge(support[0])
    values = spectrum.edge(support[1]) - lo
    A = np.empty((spectrum.grid.points,) * 2)
    flat = A.reshape(-1)
    for place in spectrum.places():
        flat[place] = values
    return A


def apply_kernel(kernel, f):
    """Spectral application of a multiplier kernel to a zonal function."""
    return ZonalFunction(f.grid,
                         operator_from_kernel(kernel, f.grid).apply(f.values))


# ---------------------------------------------------------------------------
# lower bounds: nonlinear power ascent

def _conjugate(r):
    """The Hoelder conjugate r' = r / (r - 1), 1 at r = inf and inf at r = 1;
    the lower and the upper bound both take it from here, so the row norms
    they share are kept under one p."""
    if math.isinf(r):
        return 1.0
    return math.inf if r == 1.0 else r / (r - 1.0)


@dataclass
class LowerBound:
    value: float
    witness: ZonalFunction
    iterations: int
    exact: bool = False
    # restarts per ascent stop reason; empty on the exact routes
    stops: dict = field(default_factory=dict)


# why a restart left the ascent: no gain beyond _STAGNATION, a zero image
# or a zero input norm, or _MAX_STEPS reached
_STOPS = ("stagnation", "zero", "max_steps")


def _ascent(op, r, s, starts):
    """Boyd-style alternating dual ascent from every start at once.

    The starts run as the columns of one (points, restarts) block.  Each
    column follows the trajectory of an ascent from its start alone and
    leaves the block at its own stop (`_STOPS`).  Returns, per start, the
    best ratio, the input attaining it, the steps taken and the stop reason.
    """
    w = op.grid.weights
    rp = _conjugate(r)
    f = np.stack(starts, axis=1)
    nrm = weighted_lp(w, f, r)
    best = np.zeros(len(starts))
    witness = list(f.T)
    steps = [0] * len(starts)
    stops = ["zero"] * len(starts)
    live = np.flatnonzero(nrm > 0)
    f = f[:, live] / nrm[live]
    for j, col in enumerate(live):
        witness[col] = f[:, j]
    prev = np.zeros(live.size)

    def stop(cols, step, reason):
        for col in cols:
            steps[col], stops[col] = step, reason

    for step in range(1, _MAX_STEPS + 1):
        ratio, h, _ = weighted_lp_dual(w, op.apply(f), s)
        for j in np.flatnonzero(ratio > best[live]):
            best[live[j]], witness[live[j]] = ratio[j], f[:, j]
        # a zero image is stagnant too, since prev >= 0
        stagnant = ratio <= prev * (1.0 + _STAGNATION)
        if stagnant.any():
            zero = ratio == 0.0
            stop(live[zero], step, "zero")
            stop(live[stagnant & ~zero], step, "stagnation")
            go = ~stagnant
            live, ratio, h = live[go], ratio[go], h[:, go]
            if not live.size:
                break
        prev = ratio
        # the duality map of T*v = conj(T conj v), v = conj h the duality
        # map of the image; its L^r norm is T^{1/r}, as (r' - 1) r = r'
        _, f, total = weighted_lp_dual(w, op.apply(h), rp)
        nrm = total ** (1.0 / r)
        if not nrm.all():
            stop(live[nrm == 0], step, "zero")
            go = nrm > 0
            live, prev, f, nrm = live[go], prev[go], f[:, go], nrm[go]
            if not live.size:
                break
        f = f / nrm
    stop(live, _MAX_STEPS, "max_steps")
    return best, witness, steps, stops


def _exact_witness(op, r, s):
    """An input attaining the norm where s = inf or r = 1, or of a rank-one
    operator m e e^T, scaled to ||f||_r = 1 unless it is zero.

    By Hoelder, |(Tf)_i| <= ||A_i.||_{p} ||f||_r with p = r', with equality
    at the duality map of the row; when s = inf the norm is the largest such
    row norm.  When r = 1 the norm is the largest L^s column norm, attained
    by a point mass, and |A| is symmetric, so it is the largest L^s row
    norm.  A rank-one row is m e_i e, a multiple of e, so the duality map of
    the row of largest norm attains its norm at every (r, s).  The row is
    read through `_columns`, one column of A.
    """
    w = op.grid.weights
    p = s if r == 1.0 else _conjugate(r)
    i = int(np.argmax(_row_lp(op, p)))
    if r == 1.0:
        f = np.zeros(op.grid.points)
        f[i] = 1.0 / w[i]
        nrm = weighted_lp(w, f, r)
    else:
        # the duality map's L^r norm is T^{1/r}, as (r' - 1) r = r'
        _, f, total = weighted_lp_dual(w, _columns(op, i), p)
        nrm = total ** (1.0 / r)
    return f / nrm if nrm > 0 else f


def _start_values(op, r, s, restarts, seed):
    """The row witness of `_exact_witness` (the duality map of the row of
    largest L^{r'} norm, which attains the norm where s = inf) followed by
    seeded random draws, `restarts` starts in all."""
    rng = np.random.default_rng(seed)
    return [_exact_witness(op, r, s)] + [
        rng.standard_normal(op.grid.points) for _ in range(restarts - 1)]


def norm_lower(op, r, s, restarts=8, seed=1):
    """Best attained ratio ||Tf||_s / ||f||_r, re-evaluated at its witness.

    Exact, with no ascent step, for a rank-one operator and wherever s = inf
    or r = 1 (`_exact_witness`).  Otherwise the witness is the input of the
    largest ratio any restart of the ascent reached.
    """
    if r < 1 or s < 1:
        raise ValueError(f"exponents must be >= 1, got r={r}, s={s}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if np.isinf(r):
        raise ValueError("r = inf is not supported")
    exact = bool(op.rank_one or np.isinf(s) or r == 1.0)
    if exact:
        f, steps, stops = _exact_witness(op, r, s), 0, {}
    else:
        values, witnesses, counts, reasons = _ascent(
            op, r, s, _start_values(op, r, s, restarts, seed))
        f = np.ascontiguousarray(witnesses[int(np.argmax(values))])
        steps = sum(counts)
        stops = {reason: reasons.count(reason) for reason in _STOPS}
    w = op.grid.weights
    nrm = weighted_lp(w, f, r)
    value = weighted_lp(w, op.apply(f), s) / nrm if nrm > 0 else 0.0
    return LowerBound(float(value), ZonalFunction(op.grid, f), steps,
                      exact=exact, stops=stops)


# ---------------------------------------------------------------------------
# upper bounds: Hoelder row by row

def norm_upper(op, point):
    """Mixed-norm Hoelder (Hille-Tamarkin) bound for the discrete operator,

        HT(r, s) = || i -> ||A_i.||_{L^{r'}(w)} ||_{L^s(w)},

    at the point or its dual, whichever has 1/r + 1/s <= 1: there s >= r',
    and |A| is symmetric, so by Minkowski's integral inequality that
    orientation is the smaller.  It is the exact norm of a rank-one
    operator, |m| ||e||_{r'} ||e||_s, as its row norms |m| |e_i| ||e||_{r'}
    are a multiple of |e|, and of any operator when r = 1 or s = inf.
    """
    rp, s = _conjugate(point.r), point.s
    if point.x + point.y > 1.0:
        # the dual point (1/s', 1/r'): its r' is s and its s is r'
        rp, s = s, rp
    return weighted_lp(op.grid.weights, _row_lp(op, rp), s)


# ---------------------------------------------------------------------------
# certificates

def norm_certificate(op, point, restarts=8, seed=1, label=""):
    """The two-sided certificate of one operator at one exponent pair, as
    its JSON row: n, label, r, s, lower, upper, witness_grid, seed,
    iterations, stops (as in LowerBound) and gap = upper / lower (None at a
    zero lower bound), in that order.  The label is the caller's, e.g. the
    degree k or the resolvent zeta as text.  CertificateError if the lower
    bound exceeds the upper by more than rounding.
    """
    low = norm_lower(op, point.r, point.s, restarts=restarts, seed=seed)
    upper = norm_upper(op, point)
    # lower <= upper holds in exact arithmetic; allow rounding only
    if low.value > upper * (1.0 + 1e-12):
        raise CertificateError(
            f"lower bound {low.value} exceeds upper bound {upper} "
            f"for {label} at ({point.x}, {point.y})")
    return {
        "n": op.grid.sphere.n,
        "label": label,
        "r": point.r,
        "s": point.s,
        "lower": low.value,
        "upper": upper,
        "witness_grid": f"{op.grid.rule}/kexact={op.grid.kexact}",
        "seed": seed,
        "iterations": low.iterations,
        "stops": low.stops,
        "gap": upper / low.value if low.value > 0 else None,
    }
