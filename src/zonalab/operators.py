"""Discrete zonal operators and two-sided operator norm estimation.

A zonal kernel K acts on zonal functions through the reduced matrix
A[i,j] = azimuthal average of K over the relative angle between nodes i and j:

    (T f)_i = sum_j w_j A[i,j] f_j.

For a multiplier kernel the reduced matrix has the closed form
A = sum_k m_k e_k e_k^T with e_k the orthonormal zonal rows.  The operator
keeps only the rows with m_k != 0 and their multipliers and applies them
spectrally, so the degree-k projector (rank one) costs O(points) per
application; the dense matrix is built only when a caller reads it.  For a
band-limited kernel restricted to a window of relative angles (e.g. a dyadic
piece) the average is integrated into a dense matrix in closed form: the
azimuthal integrand of each node pair is a trigonometric polynomial whose
coefficients come from the Gegenbauer addition theorem, one factor table
per degree and one matrix product for all pairs (AzimuthalSpectrum); it is
integrated exactly between the azimuths of the window's edges, where
Clenshaw's recurrence sums its antiderivative once per distinct edge.

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
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError
from .exponents import ExponentPoint
from .grids import ZonalFunction
from .norms import weighted_lp, weighted_row_lp
from .specfun import (addition_factors, eigenvalue, subsphere_zonal_table,
                      zonal_value)

_STAGNATION = 1e-9
_MAX_STEPS = 500
# node pairs per block of the spectrum's product, so that the temporaries
# grow with the degree but not with the grid
_PAIR_BLOCK = 4096


class ZonalOperator:
    """A zonal kernel bound to a grid.

    Either the dense reduced matrix is given (profile kernels), or the
    spectral factors (rows, kept) with A = rows.T @ diag(kept) @ rows, the
    rows orthonormal in L^2(w) and kept the nonzero multipliers (multiplier
    kernels); the latter apply through the factors and build `matrix` from
    them on first read.  Every norm bound reads only the matrix or the
    factors, so it is a bound for this discrete operator.
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


def operator_from_kernel(kernel, grid):
    """Spectral factors of a multiplier kernel, A = sum_k m_k e_k e_k^T over
    the degrees with m_k != 0."""
    kmax = kernel.max_degree
    if kmax > grid.kexact:
        raise ValueError(
            f"kernel degree {kmax} exceeds grid exactness {grid.kexact}")
    coeffs = kernel.coeffs
    nz = np.flatnonzero(coeffs)
    factors = (grid.basis(kmax)[nz], coeffs[nz])
    peak = int(np.argmax(np.abs(coeffs)))
    return ZonalOperator(grid, factors=factors, natural_degree=peak,
                         label=kernel.description or f"multiplier kmax={kmax}")


class AzimuthalSpectrum:
    """Azimuthal Fourier coefficients of one real band-limited kernel for
    every node pair i <= j of a grid, computed on first use.

    For nodes at polar angles (ti, tj) the relative angle gamma obeys
    cos gamma = cos ti cos tj + sin ti sin tj cos phi as the azimuth phi runs
    over [0, pi] with density sin^{n-2} phi.  For a kernel of degree kmax,
    F(phi) = K(cos gamma) sin^{n-2} phi is a trigonometric polynomial of
    degree D = kmax + n - 2: cosines only for even n, sines only for odd n.
    The addition theorem separates each degree of the kernel into functions
    of ti, tj and phi,

        Z_k(cos gamma) = sum_{m<=k} A_m(ti) A_m(tj) Z^{S^{n-1}}_m(cos phi),

    so F is a combination of the fixed functions Z^{S^{n-1}}_m(cos phi)
    sin^{n-2} phi, m = 0..kmax, with the pair's weights
    sum_k c_k A^k_m(ti) A^k_m(tj) over the kernel's nonzero degrees.  A
    DCT-II (even n) or DST-II (odd n) of their samples at the N = D + 1
    midpoints phi_l = pi (l + 1/2) / N gives their coefficients exactly, once
    per spectrum, and one matrix product per block of pairs gives every
    pair's.  `coeffs` holds, per pair, the coefficients of the normalised
    antiderivative

        G(phi) = c_0 phi + sum_{m=1}^{N-1} c_m trig(m phi),

    with trig = sin for even n and cos for odd n (where c_0 = 0).  `edge`
    evaluates G at one window edge for every pair and keeps the result, so
    an edge shared by two windows is summed once.
    """

    def __init__(self, grid, kernel):
        self.grid = grid
        self.kernel = kernel
        self.odd = grid.sphere.n % 2 == 1
        self.pairs = np.triu_indices(grid.points)
        self._edges = {}

    @functools.cached_property
    def coeffs(self):
        n = self.grid.sphere.n
        kmax = self.kernel.max_degree
        size = kmax + n - 1
        phi = np.pi * (np.arange(size) + 0.5) / size
        m = np.arange(size)
        # samples -> c: the DCT-II / DST-II rows times the density
        # sin^{n-2} phi_l, divided by m (antiderivative) and by the total
        # density (average)
        if self.odd:
            trans = -np.sin(np.outer(phi, m))
        else:
            trans = np.cos(np.outer(phi, m))
            trans[:, 0] = 0.5
        total = math.sqrt(math.pi) * math.gamma((n - 1) / 2) / math.gamma(n / 2)
        trans *= (np.sin(phi) ** (n - 2))[:, None] * (
            2.0 / (size * total * np.maximum(m, 1)))
        # row m: the coefficients of Z^{S^{n-1}}_m(cos phi) sin^{n-2} phi
        basis = subsphere_zonal_table(n, kmax, phi) @ trans
        factors = [(self.kernel.coeffs[k],
                    addition_factors(n, int(k), self.grid.nodes).T)
                   for k in np.flatnonzero(self.kernel.coeffs)]
        i, j = self.pairs
        coeffs = np.empty((i.size, size))
        for start in range(0, i.size, _PAIR_BLOCK):
            b = slice(start, start + _PAIR_BLOCK)
            weights = np.zeros((i[b].size, kmax + 1))
            for c, a in factors:
                weights[:, :a.shape[1]] += c * a[i[b]] * a[j[b]]
            coeffs[b] = weights @ basis
        return coeffs

    @functools.cached_property
    def ranges(self):
        """(d, s) per pair: the relative angle sweeps [d, s] as the azimuth
        turns, d = |ti - tj| and s = min(ti + tj, 2 pi - ti - tj)."""
        th = self.grid.nodes
        i, j = self.pairs
        return np.abs(th[i] - th[j]), np.minimum(th[i] + th[j],
                                                 2.0 * np.pi - (th[i] + th[j]))

    @functools.cached_property
    def ends(self):
        """G at phi = 0 and at phi = pi, per pair, in closed form: 0 and
        c_0 pi for sines, sum c_m and sum (-1)^m c_m for cosines."""
        c = self.coeffs
        if not self.odd:
            return np.zeros(c.shape[0]), np.pi * c[:, 0]
        return c.sum(axis=1), c[:, ::2].sum(axis=1) - c[:, 1::2].sum(axis=1)

    def edge(self, gamma):
        """G, per pair, at the azimuth where the relative angle reaches
        gamma clipped to the pair's range [d, s]; kept per gamma.

        Clipped edges take the closed forms of `ends` (phi = pi wherever
        gamma >= s).  Inside the range the edge maps to its azimuth through
        the half-angle form tan^2(phi/2) = (cos d - cos gamma) /
        (cos gamma - cos s), factored into sines so that no edge loses
        digits near d or s, and G is summed there by `antiderivative`.
        """
        gamma = float(gamma)
        G = self._edges.get(gamma)
        if G is None:
            d, s = self.ranges
            at_zero, at_pi = self.ends
            G = np.where(gamma >= s, at_pi, at_zero)
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

        The series is summed by Clenshaw's recurrence
        b_m = c_m + 2 cos(phi) b_{m+1} - b_{m+2}, m = N-1..1, which gives
        sum c_m sin(m phi) = b_1 sin phi and
        sum c_m cos(m phi) = b_1 cos phi - b_2.  It runs in Reinsch's form,
        on b_m and u_m = b_m -+ b_{m+1} with d = 2 cos(phi) -+ 2 (upper
        signs for phi <= pi/2), taking d = -4 sin^2(phi/2) or
        4 cos^2(phi/2): the plain form loses digits where 2 cos(phi) is
        close to +-2, near phi = 0 and pi.  Two transcendentals per point.
        """
        c = self.coeffs[rows].T
        sh, ch = np.sin(0.5 * phi), np.cos(0.5 * phi)
        low = ch >= sh                      # phi <= pi/2
        sign = np.where(low, 1.0, -1.0)
        d = np.where(low, -4.0 * sh * sh, 4.0 * ch * ch)
        b, u = np.zeros_like(phi), np.zeros_like(phi)
        for cm in c[:0:-1]:
            u = cm + d * b + sign * u
            b = sign * b + u
        # b_1 cos phi - b_2 = +-u_1 + b_1 d / 2
        series = sign * u + 0.5 * d * b if self.odd else 2.0 * sh * ch * b
        return c[0] * phi + series


def azimuthal_matrix(spectrum, support=(0.0, np.pi)):
    """Reduced matrix of the spectrum's kernel restricted to the window
    support = (lo, hi] of relative angles: G(hi) - G(lo) per pair, each edge
    clipped to the pair's range (`AzimuthalSpectrum.edge`).  A window that
    misses a pair's range clips both edges to the same end, so the entry is
    exactly 0.  The matrix is filled from the pairs i <= j, so it is exactly
    symmetric.
    """
    i, j = spectrum.pairs
    A = np.empty((spectrum.grid.points,) * 2)
    A[i, j] = A[j, i] = spectrum.edge(support[1]) - spectrum.edge(support[0])
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
        # |g|, its column max and the scaled block, shared by the L^s ratio
        # and the duality map: the bits of weighted_lp and _dual_power
        a = np.abs(g)
        peak = a.max(axis=0)
        scaled = a / np.where(peak > 0, peak, 1.0)
        ratio = peak * (w @ scaled ** s) ** (1.0 / s)
        for j in np.flatnonzero(ratio > best[live]):
            best[live[j]], witness[live[j]] = ratio[j], f[:, j]
        # a zero image is stagnant too, since prev >= 0
        stagnant = ratio <= prev * (1.0 + _STAGNATION)
        if stagnant.any():
            zero = ratio == 0.0
            stop(live[zero], step, "zero")
            stop(live[stagnant & ~zero], step, "stagnation")
            go = ~stagnant
            live, ratio = live[go], ratio[go]
            g, a, scaled = g[:, go], a[:, go], scaled[:, go]
            if not live.size:
                break
        prev = ratio
        sgn = np.divide(np.conj(g), a, out=np.zeros_like(g), where=a > 0)
        f = _dual_power(op.apply_adjoint(scaled ** (s - 1.0) * sgn), rp)
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
    duality map is that of e, read from the factors without the matrix.
    """
    w = op.grid.weights
    p = s if r == 1.0 else r / (r - 1.0)
    if op.factors is not None and op.factors[1].size == 1:
        (row,), _ = op.factors
        i = int(np.argmax(np.abs(row)))
    else:
        i = int(np.argmax(weighted_row_lp(w, op.matrix, p)))
        row = op.matrix[i]
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
    return weighted_lp(w, weighted_row_lp(w, op.matrix, rp), s)


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
