"""Discrete zonal operators and two-sided operator norm estimation.

A zonal kernel K acts on zonal functions through the reduced matrix
A[i,j] = azimuthal average of K over the relative angle between nodes i and j:

    (T f)_i = sum_j w_j A[i,j] f_j.

For a multiplier kernel the reduced matrix has the closed form
A = sum_k m_k e_k e_k^T with e_k the orthonormal zonal rows.  The operator
keeps only the rows with m_k != 0 and their multipliers and applies them
spectrally, so the degree-k projector (rank one) costs O(points) per
application; no norm bound builds the dense matrix.  For the degree-k
kernel Z_k restricted to a window of relative angles (a dyadic piece) the
average is integrated into a dense matrix in closed form
(AzimuthalSpectrum): the Gegenbauer addition theorem separates the
azimuthal integrand of each node pair into Gegenbauer polynomials in the
cosine of the azimuth, from one factor table, and the polynomials'
derivative identity integrates each of them.  The antiderivative is summed
by one Gegenbauer recurrence at the azimuths of the window's edges, once
per distinct edge and only over the pairs that the edge cuts.

A is symmetric, so the adjoint of T is T with its input and output
conjugated, and every representation has one application path, `apply`.

Norms:
  * norm_lower reports the ratio ||Tf||_s / ||f||_r that its witness f
    attains, re-evaluated from scratch, hence a valid lower bound for the
    discrete operator.  Where s = inf or r = 1, and for a rank-one operator
    m e e^T (e.g. the degree-k projector), one exact route attains the norm
    with the duality map of the row of largest Hoelder norm, a point mass
    when r = 1; for m e e^T that row is e, so it costs O(points) and no
    dense matrix.  Everything else runs a nonlinear power ascent over zonal
    inputs, whose restarts run as the columns of one block (apply,
    apply_adjoint and the norms act column by column) and leave it at their
    own stops; the restart that reached the largest ratio gives the witness.
  * norm_upper is Hoelder's inequality row by row (the Hille-Tamarkin
    bound) on |A|, taken in whichever of the point and its dual is the
    smaller by Minkowski's inequality; it is exact for rank one (the
    degree-k projector, in O(points)) and wherever r = 1 or s = inf.

Both read the row norms of a factored operator from tiles of A, built from
the factors and reduced one at a time (`_row_lp`), so the temporaries stay
bounded whatever the number of points.  |A| is symmetric, so only the tiles
on and above the diagonal are built, each scaled by the a-priori bound
C = max_i sum_k |m_k| e_k(t_i)^2 >= max |A_ij|, and a tile's powered entries
are summed into the rows on both of its sides.  A row whose sum underflows
against C, or overflows at a huge exponent, is rebuilt whole and scaled by
its own max (the fallback rows), so every exponent keeps its meaning.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._core import _rows
from .errors import CertificateError
from .exponents import ExponentPoint
from .grids import ZonalFunction
from .norms import weighted_lp, weighted_row_lp
from .specfun import addition_factors, eigenvalue, zonal_value

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

    Either the dense reduced matrix is given (profile kernels), or the
    spectral factors (rows, kept) with A = rows.T @ diag(kept) @ rows, the
    rows orthonormal in L^2(w) and kept the nonzero multipliers (multiplier
    kernels); the latter apply through the factors, and no norm bound builds
    `matrix` from them (it is built on first read, for callers that read
    it).  Every norm bound reads only the matrix or the factors, so it is a
    bound for this discrete operator.
    """

    def __init__(self, grid, matrix=None, natural_degree=None, label="",
                 factors=None):
        self.grid = grid
        if matrix is not None:
            self.matrix = matrix
        self.factors = factors
        self.natural_degree = natural_degree
        self.label = label

    @functools.cached_property
    def matrix(self):
        rows, kept = self.factors
        return _real_matmul(rows.T, _scale_rows(kept, rows))

    def apply(self, values):
        """T applied to a vector of node values, or to each column of a
        (points, m) block."""
        x = _scale_rows(self.grid.weights, values)
        if self.factors is None:
            return self.matrix @ x
        rows, kept = self.factors
        return _real_matmul(rows.T, _scale_rows(kept, _real_matmul(rows, x)))

    def apply_adjoint(self, values):
        """The adjoint of T, on a vector or on each column of a block: A is
        symmetric, so it is T with the input and the output conjugated."""
        return np.conj(self.apply(np.conj(values)))

    def __repr__(self):
        return f"ZonalOperator({self.label!r}, points={self.grid.points})"


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
    out = (m @ pairs.reshape(v.shape[0], -1)).view(np.complex128)
    return out.reshape(m.shape[:1] + v.shape[1:])


def _entry_bound(rows, kept):
    """C = max_i sum_k |m_k| e_k(t_i)^2, which bounds every |A_ij| by
    Cauchy-Schwarz; O(K P), with no K x P temporary."""
    return float(np.einsum("k,ki,ki->i", np.abs(kept), rows, rows).max())


def _row_lp(op, p):
    """The L^p(w) norm of every row of A.

    A factored operator's entries are built from the factors in tiles of at
    most _ROW_BLOCK entries, each reduced as soon as it is built, so A is
    never held.  Only the tiles on and above the diagonal are built, against
    the scale C of `_entry_bound`: a tile |A[c, b]| / C with column block
    c >= row block b is one real product of rows[:, c].T with the small
    (kept / C) * rows[:, b].  Its entries raised to p are summed with the
    weights into the rows of b and, |A| being symmetric, into the rows of c
    (at p = inf, their maxima).  A row whose sum falls outside
    [_ROW_SUM_MIN, inf) (its entries underflow against C, or one rounds
    above C at huge p) is built whole and scaled by its own max,
    _ROW_BLOCK // points rows at a time.
    """
    w = op.grid.weights
    if op.factors is None:
        return weighted_row_lp(w, op.matrix, p)
    rows, kept = op.factors
    points = op.grid.points
    out = np.empty(points)
    redo = np.arange(points)
    scale = _entry_bound(rows, kept)
    if scale > 0:
        side = math.isqrt(_ROW_BLOCK)
        small = kept / scale
        sums = np.zeros(points)
        for b0 in range(0, points, side):
            b = slice(b0, b0 + side)
            part = _scale_rows(small, rows[:, b])
            for c0 in range(b0, points, side):
                c = slice(c0, c0 + side)
                a = np.abs(_real_matmul(rows[:, c].T, part))
                if math.isinf(p):
                    np.maximum(sums[b], a.max(axis=0), out=sums[b])
                    np.maximum(sums[c], a.max(axis=1), out=sums[c])
                    continue
                with np.errstate(over="ignore"):
                    np.power(a, p, out=a)
                sums[b] += w[c] @ a
                if c0 > b0:
                    sums[c] += a @ w[b]
        if math.isinf(p):
            return scale * sums
        out = scale * sums ** (1.0 / p)
        redo = np.flatnonzero(~((sums >= _ROW_SUM_MIN) & (sums < np.inf)))
    step = max(1, _ROW_BLOCK // points)
    for i in range(0, redo.size, step):
        sel = redo[i:i + step]
        out[sel] = weighted_lp(
            w, _real_matmul(rows.T, _scale_rows(kept, rows[:, sel])), p)
    return out


def operator_from_kernel(kernel, grid):
    """Spectral factors of a multiplier kernel, A = sum_k m_k e_k e_k^T over
    the degrees with m_k != 0."""
    kmax = kernel.max_degree
    if kmax > grid.kexact:
        raise ValueError(
            f"kernel degree {kmax} exceeds grid exactness {grid.kexact}")
    coeffs = kernel.coeffs
    nz = np.flatnonzero(coeffs)
    rows = grid.basis(kmax)
    # a view of the grid's table when every degree is kept
    if nz.size < rows.shape[0]:
        rows = rows[nz]
    factors = (rows, coeffs[nz])
    peak = int(np.argmax(np.abs(coeffs)))
    return ZonalOperator(grid, factors=factors, natural_degree=peak,
                         label=kernel.description or f"multiplier kmax={kmax}")


class AzimuthalSpectrum:
    """The normalised azimuthal antiderivative of the degree-k zonal kernel
    Z_k for every node pair i <= j of a grid, in closed form.

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
    G(pi) = w_0 I(pi).  The spectrum keeps only the factor table A; `edge`
    computes the weights of just the pairs it cuts and keeps G at the two
    latest edges, so an edge shared by two consecutive windows is summed
    once.
    """

    def __init__(self, grid, k):
        self.grid = grid
        self.k = k
        self.pairs = np.triu_indices(grid.points)
        self._edges = {}
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

    def weight(self, m, i, j):
        """w_m of the node pairs (i, j), given as index arrays."""
        a = self.factors
        return self.kappa[m] * a[m, i] * a[m, j]

    def edge(self, gamma):
        """G, per pair, at the azimuth where the relative angle reaches
        gamma clipped to the pair's range [d, s]; kept for the two latest
        gamma, the oldest dropped before a new one is summed.

        Clipped edges take the end values, G(0) = 0 wherever gamma <= d and
        G(pi) = w_0 I(pi) wherever gamma >= s.  Inside the range the edge maps
        to its azimuth through the half-angle form tan^2(phi/2) =
        (cos d - cos gamma) / (cos gamma - cos s), factored into sines so that
        no edge loses digits near d or s, and G is summed there by
        `antiderivative`.
        """
        gamma = float(gamma)
        G = self._edges.get(gamma)
        if G is None:
            if len(self._edges) == 2:
                del self._edges[next(iter(self._edges))]
            d, s = self.ranges
            G = np.zeros(d.size)
            top = np.flatnonzero(gamma >= s)
            i, j = self.pairs
            G[top] = self.total * self.weight(0, i[top], j[top])
            inside = np.flatnonzero((d < gamma) & (gamma < s))
            if inside.size:
                d, s = d[inside], s[inside]
                phi = 2.0 * np.arctan2(
                    np.sqrt(np.sin(0.5 * (gamma - d))
                            * np.sin(0.5 * (gamma + d))),
                    np.sqrt(np.sin(0.5 * (s - gamma))
                            * np.sin(0.5 * (s + gamma))))
                G[inside] = self.antiderivative(inside, phi)
            self._edges[gamma] = G
        return G

    def antiderivative(self, rows, phi):
        """G(phi) for the pairs `rows`; phi has shape (..., len(rows)).

        The weights are computed _PAIR_BLOCK pairs at a time, and the series
        runs through the Gegenbauer recurrence in m at each azimuth.
        """
        n, k = self.grid.sphere.n, self.k
        out = np.empty(np.shape(phi))
        for start in range(0, rows.size, _PAIR_BLOCK):
            b = slice(start, start + _PAIR_BLOCK)
            i, j = self.pairs[0][rows[b]], self.pairs[1][rows[b]]
            p = phi[..., b]
            series = np.zeros_like(p)
            for m, row in zip(range(1, k + 1), _rows(k - 1, n / 2, np.cos(p))):
                series += self.weight(m, i, j) * row
            out[..., b] = (self.weight(0, i, j) * _sine_integral(n - 2, p)
                           + np.sin(p) ** (n - 1) * series)
        return out


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
    exactly 0.  The matrix is filled from the pairs i <= j, so it is exactly
    symmetric.  The lower edge is read first: windows walked upwards then
    find it among the spectrum's two kept edges.
    """
    i, j = spectrum.pairs
    lo = spectrum.edge(support[0])
    A = np.empty((spectrum.grid.points,) * 2)
    A[i, j] = A[j, i] = spectrum.edge(support[1]) - lo
    return A


def apply_kernel(kernel, f):
    """Spectral application of a multiplier kernel to a zonal function."""
    return ZonalFunction(f.grid,
                         operator_from_kernel(kernel, f.grid).apply(f.values))


# ---------------------------------------------------------------------------
# lower bounds: nonlinear power ascent

def _dual_power(g, p):
    """|g|^{p-1} sgn(conj g), the duality map used by the ascent, of a vector
    or of each column of a block, divided by the column's max|g|^{p-1} so
    that no exponent overflows; only its direction is used."""
    a = np.abs(g)
    peak = a.max(axis=0)
    sgn = np.divide(np.conj(g), a, out=np.zeros_like(g), where=a > 0)
    return (a / np.where(peak > 0, peak, 1.0)) ** (p - 1.0) * sgn


@dataclass
class LowerBound:
    value: float
    witness: ZonalFunction
    iterations: int
    restarts: int
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
    rp = r / (r - 1.0)
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
        g = op.apply(f)
        ratio = weighted_lp(w, g, s)
        for j in np.flatnonzero(ratio > best[live]):
            best[live[j]], witness[live[j]] = ratio[j], f[:, j]
        # a zero image is stagnant too, since prev >= 0
        stagnant = ratio <= prev * (1.0 + _STAGNATION)
        if stagnant.any():
            zero = ratio == 0.0
            stop(live[zero], step, "zero")
            stop(live[stagnant & ~zero], step, "stagnation")
            go = ~stagnant
            live, ratio, g = live[go], ratio[go], g[:, go]
            if not live.size:
                break
        prev = ratio
        f = _dual_power(op.apply_adjoint(_dual_power(g, s)), rp)
        nrm = weighted_lp(w, f, r)
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
    norm.  A rank-one row is m e_i e, largest where |e_i| is, and its
    duality map is that of e, read from the factors.  Any other factored
    row is one 1 x points product of the factors, so A is never built.
    """
    w = op.grid.weights
    p = s if r == 1.0 else r / (r - 1.0)
    if op.factors is not None and op.factors[1].size == 1:
        (row,), _ = op.factors
        i = int(np.argmax(np.abs(row)))
    else:
        i = int(np.argmax(_row_lp(op, p)))
        if op.factors is None:
            row = op.matrix[i]
        else:
            rows, kept = op.factors
            row = _real_matmul(rows.T[i:i + 1], _scale_rows(kept, rows))[0]
    if r == 1.0:
        f = np.zeros(op.grid.points)
        f[i] = 1.0 / w[i]
    else:
        f = _dual_power(row, p)
    nrm = weighted_lp(w, f, r)
    return f / nrm if nrm > 0 else f


def _start_values(op, restarts, seed):
    """Deterministic starts (characteristic caps, the kernel's own harmonic)
    padded with seeded random draws."""
    grid = op.grid
    starts = []
    lam = 1.0
    if op.natural_degree is not None:
        starts.append(zonal_value(grid.sphere.n, op.natural_degree,
                                  grid.cosines))
        lam = eigenvalue(grid.sphere.n, op.natural_degree)
    for theta0 in (1.0 / lam, min(8.0 / lam, 0.5 * np.pi), np.pi / 3):
        ind = (grid.nodes <= theta0).astype(np.float64)
        if ind.any():
            starts.append(ind)
    starts = starts[:restarts]
    rng = np.random.default_rng(seed)
    while len(starts) < restarts:
        starts.append(rng.standard_normal(grid.points))
    return starts


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
    exact = bool((op.factors is not None and op.factors[1].size == 1)
                 or np.isinf(s) or r == 1.0)
    if exact:
        f, steps, restarts, stops = _exact_witness(op, r, s), 0, 1, {}
    else:
        values, witnesses, counts, reasons = _ascent(
            op, r, s, _start_values(op, restarts, seed))
        f = np.ascontiguousarray(witnesses[int(np.argmax(values))])
        steps = sum(counts)
        stops = {reason: reasons.count(reason) for reason in _STOPS}
    w = op.grid.weights
    nrm = weighted_lp(w, f, r)
    value = weighted_lp(w, op.apply(f), s) / nrm if nrm > 0 else 0.0
    return LowerBound(float(value), ZonalFunction(op.grid, f), steps,
                      restarts, exact=exact, stops=stops)


# ---------------------------------------------------------------------------
# upper bounds: Hoelder row by row

def norm_upper(op, point):
    """Mixed-norm Hoelder (Hille-Tamarkin) bound for the discrete operator,

        HT(r, s) = || i -> ||A_i.||_{L^{r'}(w)} ||_{L^s(w)},

    at the point or its dual, whichever has 1/r + 1/s <= 1: there s >= r',
    and |A| is symmetric, so by Minkowski's integral inequality that
    orientation is the smaller.  It is the exact norm of a rank-one
    operator, |m| ||e||_{r'} ||e||_s, and of any operator when r = 1 or
    s = inf.
    """
    if point.x + point.y > 1.0:
        point = point.dual()
    rp, s = point.dual().s, point.s
    w = op.grid.weights
    if op.factors is not None and op.factors[1].size == 1:
        (row,), (m,) = op.factors
        return float(abs(m) * weighted_lp(w, row, rp) * weighted_lp(w, row, s))
    return weighted_lp(w, _row_lp(op, rp), s)


# ---------------------------------------------------------------------------
# certificates

@dataclass
class NormCertificate:
    """Two-sided norm record for one operator at one exponent pair."""

    n: int
    label: str                 # degree k or resolvent zeta, as text
    point: ExponentPoint
    lower: float
    upper: float
    witness: ZonalFunction
    grid_ref: str
    seed: int
    iterations: int
    restarts: int
    stops: dict = field(default_factory=dict)   # as in LowerBound

    def __post_init__(self):
        # lower <= upper holds in exact arithmetic; allow rounding only
        if self.lower > self.upper * (1.0 + 1e-12):
            raise CertificateError(
                f"lower bound {self.lower} exceeds upper bound {self.upper} "
                f"for {self.label} at ({self.point.x}, {self.point.y})")

    def to_record(self):
        return {
            "n": self.n,
            "label": self.label,
            "r": self.point.r,
            # null at s = inf, which strict JSON cannot hold
            "s": None if math.isinf(self.point.s) else self.point.s,
            "lower": self.lower,
            "upper": self.upper,
            "witness_grid": self.grid_ref,
            "seed": self.seed,
            "iterations": self.iterations,
            "stops": self.stops,
            "gap": self.upper / self.lower if self.lower > 0 else None,
        }


def norm_certificate(op, point, restarts=8, seed=1, label=None):
    low = norm_lower(op, point.r, point.s, restarts=restarts, seed=seed)
    return NormCertificate(
        n=op.grid.sphere.n,
        label=label if label is not None else op.label,
        point=point,
        lower=low.value,
        upper=norm_upper(op, point),
        witness=low.witness,
        grid_ref=f"{op.grid.rule}/kexact={op.grid.kexact}",
        seed=seed,
        iterations=low.iterations,
        restarts=low.restarts,
        stops=low.stops,
    )
