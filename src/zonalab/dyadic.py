"""Dyadic decomposition of projector kernels and piece-norm scaling.

The degree-k kernel Z_k is cut into angular annuli theta ~ 2^j / lambda_k.
The cutting profile is the half-open dyadic indicator 1_{(1/2, 1]}: its
dilates tile (0, inf) exactly, so the pieces reconstruct the kernel to the
bit and each piece j >= 1 is supported exactly on
(2^{j-1}/lambda_k, 2^j/lambda_k].  (A smooth profile supported inside one
dyadic block cannot sum to 1 over dilates; the indicator is the profile that
satisfies the support and partition requirements simultaneously.)  The flat
piece j = 0 keeps everything at theta <= 1/lambda_k.

Piece operators integrate the azimuthal average only over the annulus.  All
pieces of one degree share one azimuthal spectrum of Z_k, built on first use
from the addition theorem; each piece integrates it exactly between the
azimuths of its annulus edges, so the piece matrices sum to the spectral
e_k e_k^T up to rounding.  `piece_norm_slopes` builds each piece once, in
order of j, so an edge shared by two annuli is summed once, and at most
their running sum T = sum_j T_j, one piece matrix and two edges are held at
a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .exponents import stein_point
from .operators import (AzimuthalSpectrum, ZonalOperator, azimuthal_matrix,
                        norm_lower)
from .specfun import eigenvalue, zonal_value

# points per window of envelope_check, a quarter of it in the flat one
_SAMPLES = 4096


def piece_count(n, k):
    """Top dyadic index J = ceil(log2(pi lambda_k)); pieces run 0..J, the
    last one the first whose annulus reaches theta = pi."""
    lam = eigenvalue(n, k)
    return math.ceil(math.log2(math.pi * lam))


@dataclass(frozen=True, eq=False)
class DyadicPiece:
    """One annular piece T_j of a projector kernel."""

    base: int                 # degree k of the parent kernel
    j: int
    support: tuple            # (lo, hi]; the piece vanishes outside
    grid: object
    clipped: bool             # annulus truncated by theta = pi
    spectrum: AzimuthalSpectrum   # of Z_k on the grid, shared by all pieces

    def profile(self, gamma, cos_gamma):
        """The piece's kernel at relative angles gamma."""
        lo, hi = self.support
        zk = zonal_value(self.grid.sphere.n, self.base, cos_gamma)
        return zk * ((gamma > lo) & (gamma <= hi))

    def operator(self):
        return ZonalOperator(
            self.grid, azimuthal_matrix(self.spectrum, self.support),
            natural_degree=self.base,
            label=f"piece k={self.base} j={self.j}")


def dyadic_decompose(sphere, k, grid):
    """All pieces j = 0..J of the degree-k projector kernel on the grid."""
    if k > grid.kexact:
        raise ValueError(
            f"degree {k} exceeds grid exactness {grid.kexact}")
    lam = eigenvalue(sphere.n, k)
    J = piece_count(sphere.n, k)
    spectrum = AzimuthalSpectrum(grid, k)
    pieces = []
    for j in range(J + 1):
        if j == 0:
            lo, hi = 0.0, 1.0 / lam
        else:
            lo, hi = 2.0 ** (j - 1) / lam, 2.0 ** j / lam
        pieces.append(DyadicPiece(base=k, j=j, support=(lo, hi), grid=grid,
                                  clipped=hi > np.pi, spectrum=spectrum))
    return pieces


def fit_range(n, k):
    """The j over which the norm scaling in j is fitted at degree k.

    The fit is restricted to the middle dyadic range.  An annulus enters the
    fit only when it is wide enough to contain a full half oscillation of the
    kernel, lam * width = 2^(j-1) >= pi; narrower annuli near the pole sit in
    a pre-asymptotic regime and would bias the slope.  The top annulus J,
    clipped at the far pole, is dropped.
    """
    return range(math.ceil(math.log2(math.pi)) + 1, piece_count(n, k))


def fit_pieces(pieces):
    """The pieces of `fit_range`; NumericalError if fewer than two."""
    js = fit_range(pieces[0].grid.sphere.n, pieces[0].base)
    if len(js) < 2:
        raise NumericalError("not enough dyadic pieces to fit a slope")
    return [pieces[j] for j in js]


@dataclass
class PieceNormFit:
    js: np.ndarray
    norms_growth: np.ndarray   # at the size endpoint Q
    norms_decay: np.ndarray    # at the oscillation endpoint P
    slope_growth: float
    slope_decay: float
    intercept_growth: float    # log2 of the fitted prefactor
    intercept_decay: float
    residual_growth: float
    residual_decay: float


def fit_line(x, y):
    """Least-squares line y = slope x + intercept.

    Returns (slope, intercept, rms residual).
    """
    coeff, res = np.polyfit(x, y, 1, full=True)[:2]
    rms = math.sqrt(res[0] / len(x)) if len(res) else 0.0
    return float(coeff[0]), float(coeff[1]), rms


def piece_norm_slopes(sphere, k, sigma, grid, restarts=8, seed=1):
    """Measure ||T_j|| at the Stein points P and Q and fit log2-slopes in j.

    Needs at least four pieces so that a middle range remains after the
    pre-asymptotic annuli near the pole and the clipped ones at the far
    pole are dropped; in practice this means k of order 16 or larger.

    Each piece j = 0..J is built once, measured if it is fitted, added into
    a fresh running sum and dropped.  Returns (fit, T), T the operator of
    that sum, H_k reassembled for the restricted weak-type image.
    """
    pieces = dyadic_decompose(sphere, k, grid)
    if len(pieces) < 4:
        raise ValueError(f"degree {k} yields fewer than four dyadic pieces")
    js = [p.j for p in fit_pieces(pieces)]
    p_pt, q_pt = stein_point(sphere.n, sigma)
    norms = []
    total = np.zeros((grid.points,) * 2)
    for piece in pieces:
        op = piece.operator()
        if piece.j in js:
            norms.append([norm_lower(op, pt.r, pt.s, restarts=restarts,
                                     seed=seed).value for pt in (q_pt, p_pt)])
        total += op.matrix
        del op  # before the next piece is built
    js = np.asarray(js, dtype=np.float64)
    nq, npp = np.array(norms).T
    if np.any(nq <= 0) or np.any(npp <= 0):
        raise NumericalError("vanishing piece norm; cannot fit slopes")
    sg, ig, rg = fit_line(js, np.log2(nq))
    sd, idc, rd = fit_line(js, np.log2(npp))
    fit = PieceNormFit(js, nq, npp, sg, sd, ig, idc, rg, rd)
    return fit, ZonalOperator(grid, total, label=f"pieces k={k} summed")


# ---------------------------------------------------------------------------
# kernel envelope constants

@dataclass
class EnvelopeConstants:
    c_flat: float       # sup |Z_k| / k^{n-1} near the pole
    c_osc: float        # sup |Z_k| theta^{(n-1)/2} / lambda^{(n-1)/2} mid-range
    c_antipodal: float  # same with pi - theta near the far pole


def envelope_check(sphere, k):
    """Empirical constants of the pointwise kernel envelope at degree k."""
    if k < 1:
        raise ValueError("envelope constants need degree k >= 1")
    n = sphere.n
    lam = eigenvalue(n, k)
    half = (n - 1) / 2
    th_flat = np.linspace(1e-9, 1.0 / lam, _SAMPLES // 4)
    th_osc = np.linspace(1.0 / lam, 0.75 * np.pi, _SAMPLES)
    th_anti = np.linspace(0.25 * np.pi, np.pi - 1.0 / lam, _SAMPLES)
    # one recurrence over the three windows; it runs elementwise, so each
    # window gets the bits of a recurrence over that window alone
    th = np.concatenate((th_flat, th_osc, th_anti))
    z_flat, z_osc, z_anti = np.split(zonal_value(n, k, np.cos(th)),
                                     (th_flat.size, th_flat.size + _SAMPLES))
    c_flat = np.abs(z_flat).max() / k ** (n - 1)
    c_osc = np.abs(z_osc * th_osc ** half).max() / lam ** half
    c_anti = np.abs(z_anti * (np.pi - th_anti) ** half).max() / lam ** half
    return EnvelopeConstants(float(c_flat), float(c_osc), float(c_anti))
