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
azimuthal integrand of each node pair is a trigonometric polynomial, sampled
once per kernel (AzimuthalSpectrum) and integrated exactly between the
azimuths of the window's edges.

Norms:
  * norm_lower reports an attained ratio ||Tf||_s / ||f||_r, hence a valid
    lower bound for the discrete operator.  A rank-one operator m e e^T (one
    multiplier, e.g. the degree-k projector) is attained in closed form by
    the duality map of e, in O(points) and without the dense matrix; s = inf
    and r = 1 by exact max-row / max-column dual formulas; everything else
    by a nonlinear power ascent over zonal inputs.
  * norm_upper is Hoelder's inequality row by row (the Hille-Tamarkin
    bound) on |A|, taken in whichever of the point and its dual is the
    smaller by Minkowski's inequality; it is exact for rank one (the
    degree-k projector, in O(points)) and wherever r = 1 or s = inf.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError
from .exponents import ExponentPoint
from .grids import ZonalFunction
from .norms import weighted_lp, weighted_row_lp
from .specfun import zonal_value

_STAGNATION = 1e-9
_MAX_STEPS = 500
# node pairs per block of azimuthal samples or edge evaluations, so that
# the temporaries grow with the degree but not with the grid
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

    def __init__(self, grid, matrix=None, natural_degree=None, scale=None,
                 label="", factors=None):
        self.grid = grid
        if matrix is not None:
            self.matrix = matrix
        self.factors = factors
        self.natural_degree = natural_degree
        self.scale = scale
        self.label = label

    @functools.cached_property
    def matrix(self):
        rows, kept = self.factors
        return (rows.T * kept) @ rows

    def apply(self, values):
        x = self.grid.weights * values
        if self.factors is None:
            return self.matrix @ x
        rows, kept = self.factors
        return _real_matmul(rows.T, kept * _real_matmul(rows, x))

    def apply_adjoint(self, values):
        # A is symmetric, so the adjoint only conjugates
        x = self.grid.weights * values
        if self.factors is not None:
            rows, kept = self.factors
            return _real_matmul(rows.T, np.conj(kept) * _real_matmul(rows, x))
        # conjugating the input and the product gives the same bits as
        # conj(matrix) @ x without copying the matrix
        if np.iscomplexobj(self.matrix):
            return np.conj(self.matrix @ np.conj(x))
        return self.matrix @ x

    def __repr__(self):
        return f"ZonalOperator({self.label!r}, points={self.grid.points})"


def _real_matmul(m, v):
    """m @ v for a real matrix m; a complex v runs as a real (len, 2) view,
    so m is never copied to complex."""
    if not np.iscomplexobj(v):
        return m @ v
    pairs = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64)
    return (m @ pairs.reshape(-1, 2)).view(np.complex128).reshape(-1)


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
    lam = kernel.sphere.eigenvalue(peak)
    return ZonalOperator(grid, factors=factors, natural_degree=peak, scale=lam,
                         label=kernel.description or f"multiplier kmax={kmax}")


class AzimuthalSpectrum:
    """Azimuthal Fourier coefficients of one real band-limited kernel for
    every node pair i <= j of a grid, computed on first use.

    For nodes at polar angles (ti, tj) the relative angle gamma obeys
    cos gamma = cos ti cos tj + sin ti sin tj cos phi as the azimuth phi runs
    over [0, pi] with density sin^{n-2} phi.  For a kernel of degree kmax,
    F(phi) = K(cos gamma) sin^{n-2} phi is a trigonometric polynomial of
    degree D = kmax + n - 2: cosines only for even n, sines only for odd n.
    Its samples at the N = D + 1 midpoints phi_l = pi (l + 1/2) / N give its
    coefficients exactly through a DCT-II (even n) or DST-II (odd n), so every
    window of azimuths integrates in closed form.  One spectrum serves every
    window of its kernel; `coeffs` holds, per pair, the coefficients of the
    normalised antiderivative

        G(phi) = c_0 phi + sum_{m=1}^{N-1} c_m trig(m phi),

    with trig = sin for even n and cos for odd n (where c_0 = 0).
    """

    def __init__(self, grid, kernel):
        self.grid = grid
        self.kernel = kernel
        self.odd = grid.sphere.n % 2 == 1
        self.pairs = np.triu_indices(grid.points)

    @functools.cached_property
    def coeffs(self):
        n = self.grid.sphere.n
        size = self.kernel.max_degree + n - 1
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
        ct, st = np.cos(self.grid.nodes), np.sin(self.grid.nodes)
        i, j = self.pairs
        coeffs = np.empty((i.size, size))
        for start in range(0, i.size, _PAIR_BLOCK):
            b = slice(start, start + _PAIR_BLOCK)
            cosg = (ct[i[b]] * ct[j[b]])[:, None] + (
                st[i[b]] * st[j[b]])[:, None] * np.cos(phi)
            coeffs[b] = self.kernel.values(cosg.ravel()).reshape(
                cosg.shape) @ trans
        return coeffs

    def antiderivative(self, rows, phi):
        """G(phi) for the pairs `rows`; phi has shape (edges, len(rows))."""
        trig = np.cos if self.odd else np.sin
        m = np.arange(1, self.coeffs.shape[1])
        out = np.empty_like(phi)
        for start in range(0, rows.size, _PAIR_BLOCK):
            b = slice(start, start + _PAIR_BLOCK)
            c = self.coeffs[rows[b]]
            out[:, b] = c[:, 0] * phi[:, b] + np.einsum(
                "epm,pm->ep", trig(phi[:, b, None] * m), c[:, 1:])
        return out


def azimuthal_matrix(spectrum, support=(0.0, np.pi)):
    """Reduced matrix of the spectrum's kernel restricted to the window
    support = (lo, hi] of relative angles.

    The relative angle between nodes (ti, tj) sweeps [d, s] with
    d = |ti - tj| and s = min(ti + tj, 2 pi - ti - tj) as the azimuth turns;
    the window's edges inside that range map to azimuths through the
    half-angle form tan^2(phi/2) = (cos d - cos gamma) / (cos gamma - cos s),
    factored into sines so that no edge loses digits near d or s.  The
    matrix is filled from the pairs i <= j, so it is exactly symmetric.
    """
    grid = spectrum.grid
    i, j = spectrum.pairs
    th = grid.nodes
    d = np.abs(th[i] - th[j])
    s = np.minimum(th[i] + th[j], 2.0 * np.pi - (th[i] + th[j]))
    lo = np.maximum(d, support[0])
    hi = np.minimum(s, support[1])
    mask = lo < hi
    A = np.zeros((grid.points, grid.points))
    if not mask.any():
        return A
    d, s = d[mask], s[mask]
    gamma = np.stack([lo[mask], hi[mask]])
    phi = 2.0 * np.arctan2(
        np.sqrt(np.sin(0.5 * (gamma - d)) * np.sin(0.5 * (gamma + d))),
        np.sqrt(np.sin(0.5 * (s - gamma)) * np.sin(0.5 * (s + gamma))))
    G = spectrum.antiderivative(np.flatnonzero(mask), phi)
    A[i[mask], j[mask]] = A[j[mask], i[mask]] = G[1] - G[0]
    return A


def operator_from_profile(spectrum, support=(0.0, np.pi), natural_degree=None,
                          scale=None, label=""):
    """Dense operator of the spectrum's kernel restricted to the window
    support = (lo, hi] of relative angles."""
    return ZonalOperator(spectrum.grid, azimuthal_matrix(spectrum, support),
                         natural_degree=natural_degree, scale=scale,
                         label=label)


def apply_kernel(kernel, f):
    """Spectral application of a multiplier kernel to a zonal function."""
    kmax = kernel.max_degree
    if kmax > f.grid.kexact:
        raise ValueError(
            f"kernel degree {kmax} exceeds grid exactness {f.grid.kexact}")
    basis = f.grid.basis(kmax)
    c = basis @ (f.grid.weights * f.values)
    out = kernel.coeffs * c
    return ZonalFunction(f.grid, out @ basis, coeffs=out)


# ---------------------------------------------------------------------------
# lower bounds: nonlinear power ascent

def _dual_power(g, p):
    """|g|^{p-1} sgn(conj g), the duality map used by the ascent, divided by
    max|g|^{p-1} so that no exponent overflows; only its direction is used."""
    a = np.abs(g)
    out = np.zeros_like(g)
    nz = a > 0
    out[nz] = (a[nz] / a.max()) ** (p - 1.0) * (np.conj(g[nz]) / a[nz])
    return out


def _support_measure(w, v):
    a = np.abs(v)
    return float(np.sum(w[a > 1e-12 * a.max()])) if a.max() > 0 else 0.0


@dataclass
class LowerBound:
    value: float
    witness: ZonalFunction
    iterations: int
    restarts: int
    exact: bool = False


def _ascent(op, r, s, f0):
    """Boyd-style alternating dual ascent from one start; returns best ratio."""
    w = op.grid.weights
    rp = r / (r - 1.0)
    nrm = weighted_lp(w, f0, r)
    if nrm == 0:
        return 0.0, f0, 0
    f = f0 / nrm
    best, bestf = 0.0, f
    prev = 0.0
    steps = 0
    for steps in range(1, _MAX_STEPS + 1):
        g = op.apply(f)
        ratio = weighted_lp(w, g, s)
        if ratio > best:
            best, bestf = ratio, f
        if ratio == 0.0 or ratio <= prev * (1.0 + _STAGNATION):
            break
        prev = ratio
        u = op.apply_adjoint(_dual_power(g, s))
        fnew = _dual_power(u, rp)
        nrm = weighted_lp(w, fnew, r)
        if nrm == 0:
            break
        f = fnew / nrm
    return best, bestf, steps


def _exact_endpoint_lower(op, r, s):
    """Attained lower bounds when s = inf (the largest L^{r'} row norm) or
    r = 1 (the largest L^s column norm; |A| is symmetric, so that is a row
    norm too)."""
    w = op.grid.weights
    A = op.matrix
    p = s if r == 1.0 else r / (r - 1.0)
    rows = weighted_row_lp(w, A, p)
    i = int(np.argmax(rows))
    if r == 1.0:
        # a point mass at column j attains column j's norm; at the corner
        # (s = inf), j is where row i reaches max |A_ij|
        j = int(np.argmax(np.abs(A[i]))) if np.isinf(s) else i
        f = np.zeros(op.grid.points, dtype=A.dtype)
        f[j] = 1.0 / w[j]
        return float(rows[i]), f
    f = _dual_power(A[i, :].astype(np.result_type(A, np.float64)), p)
    nrm = weighted_lp(w, f, r)
    return (float(rows[i]), f / nrm) if nrm > 0 else (0.0, f)


def _rank_one_lower(op, r, s):
    """Exact norm of A = m e e^T, attained through its factors.

    T f = m <e, f>_w e, and by Hoelder |<e, f>_w| <= ||e||_{r'} ||f||_r with
    equality at the duality map f = |e|^{r'-1} sgn e (a point mass at
    argmax |e| when r = 1), so its ratio is |m| ||e||_{r'} ||e||_s.
    """
    w = op.grid.weights
    (row,), _ = op.factors
    if r == 1.0:
        j = int(np.argmax(np.abs(row)))
        f = np.zeros(op.grid.points)
        f[j] = 1.0 / w[j]
    else:
        f = _dual_power(row, r / (r - 1.0))
    f = f / weighted_lp(w, f, r)
    return weighted_lp(w, op.apply(f), s) / weighted_lp(w, f, r), f


def _start_values(op, restarts, seed):
    """Deterministic starts (characteristic caps, the kernel's own harmonic)
    padded with seeded random draws."""
    grid = op.grid
    starts = []
    if op.natural_degree is not None:
        starts.append(zonal_value(grid.sphere.n, op.natural_degree,
                                  grid.cosines))
    lam = op.scale if op.scale else 1.0
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
    """Best attained ratio ||Tf||_s / ||f||_r.

    Exact, with no ascent step, for a rank-one operator and wherever s = inf
    or r = 1.  Otherwise the best over the restart protocol: monotone within
    each restart; ties across restarts go to the witness with the smallest
    support measure.
    """
    if r < 1 or s < 1:
        raise ValueError(f"exponents must be >= 1, got r={r}, s={s}")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if np.isinf(r):
        raise ValueError("r = inf is not supported")
    if op.factors is not None and op.factors[1].size == 1:
        value, f = _rank_one_lower(op, r, s)
        return LowerBound(value, ZonalFunction(op.grid, f), 0, 1, exact=True)
    if np.isinf(s) or r == 1.0:
        value, f = _exact_endpoint_lower(op, r, s)
        return LowerBound(value, ZonalFunction(op.grid, f), 0, 1, exact=True)
    w = op.grid.weights
    best = None           # (value, support_measure, witness)
    total_steps = 0
    for f0 in _start_values(op, restarts, seed):
        value, f, steps = _ascent(op, r, s, f0)
        total_steps += steps
        supp = _support_measure(w, f)
        if best is None or value > best[0] * (1.0 + _STAGNATION) or (
                value >= best[0] * (1.0 - _STAGNATION) and supp < best[1]):
            best = (value, supp, f)
    value, _, f = best
    # re-evaluate the witness from scratch so the recorded pair is consistent
    value = weighted_lp(w, op.apply(f), s) / weighted_lp(w, f, r)
    return LowerBound(float(value), ZonalFunction(op.grid, f),
                      total_steps, restarts)


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

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-6):
            raise CertificateError(
                f"lower bound {self.lower} exceeds upper bound {self.upper} "
                f"for {self.label} at ({self.point.x}, {self.point.y})")

    def to_record(self):
        return {
            "n": self.n,
            "label": self.label,
            "r": self.point.r,
            "s": self.point.s,
            "lower": self.lower,
            "upper": self.upper,
            "witness_grid": self.grid_ref,
            "seed": self.seed,
            "iterations": self.iterations,
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
    )
