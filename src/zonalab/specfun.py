"""Special-function layer: Gegenbauer polynomials, spherical harmonic counts,
and zonal kernels on the round n-sphere.

Conventions
-----------
The degree-k zonal kernel is

    Z_k(t) = c_{n,k} C_k^{(n-1)/2}(t),   c_{n,k} = (2k+n-1) / ((n-1) vol(S^n)),

so that Z_k(1) = N(n,k)/vol(S^n) and <Z_k, Z_m>_{L^2(S^n)} = delta_{km} Z_k(1).
A multiplier kernel is K(t) = sum_k m_k Z_k(t); the degree-k spectral projector
is the kernel with m = e_k.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._core import geg_eval, geg_table


def gegenbauer(k, alpha, t):
    """Gegenbauer polynomial C_k^alpha(t) on [-1, 1].

    t may be a scalar or an array; the return type matches.  Evaluated by the
    forward three-term recurrence, stable on [-1, 1] for the degrees used here.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {k!r}")
    if not alpha > 0:
        raise ValueError(f"index alpha must be positive, got {alpha!r}")
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("argument outside [-1, 1]")
    vals = geg_eval(int(k), float(alpha), np.clip(arr, -1.0, 1.0))
    return float(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


def harmonic_dim(n, k):
    """Dimension N(n,k) of degree-k spherical harmonics on S^n, exactly.

    N(n,k) = C(k+n, n) - C(k+n-2, n), the dimension of degree-k homogeneous
    polynomials in n+1 variables minus that of degree k-2.  Python integers
    are exact at any size so no overflow guard is needed.
    """
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    return math.comb(k + n, n) - math.comb(k + n - 2, n)


def eigenvalue(n, k):
    """Shifted frequency lambda_k = k + (n-1)/2 of the degree-k harmonics."""
    if n < 2 or k < 0:
        raise ValueError(f"need n >= 2 and k >= 0, got n={n}, k={k}")
    return k + (n - 1) / 2


def sphere_volume(n):
    """Surface volume of the unit n-sphere, 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def zonal_value(n, k, t):
    """Zonal kernel value Z_k(t) = c_{n,k} C_k^{(n-1)/2}(t)."""
    c = (2 * k + n - 1) / ((n - 1) * sphere_volume(n))
    return c * gegenbauer(k, (n - 1) / 2, t)


def zonal_table(n, kmax, t):
    """Rows Z_m(t) for m = 0..kmax over a point array t, shape (kmax+1, len(t))."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    tab = geg_table(int(kmax), (n - 1) / 2, t)
    ks = np.arange(kmax + 1)
    c = (2 * ks + n - 1) / ((n - 1) * sphere_volume(n))
    return c[:, None] * tab


@dataclass(frozen=True)
class SphereSpec:
    """The round sphere S^n with its derived constants."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"sphere dimension must be >= 2, got {self.n}")

    @property
    def volume(self):
        return sphere_volume(self.n)

    @property
    def subsphere_volume(self):
        # vol(S^{n-1}), the total weight of the polar quadrature rule
        return sphere_volume(self.n - 1)

    @property
    def alpha(self):
        return (self.n - 1) / 2

    def harmonic_dim(self, k):
        return harmonic_dim(self.n, k)

    def eigenvalue(self, k):
        return eigenvalue(self.n, k)

    def zonal_value(self, k, t):
        return zonal_value(self.n, k, t)

    def zonal_table(self, kmax, t):
        return zonal_table(self.n, kmax, t)


@dataclass(frozen=True, eq=False)
class ZonalKernel:
    """A zonal convolution kernel K(t) = sum_k coeffs[k] Z_k(t)."""

    sphere: SphereSpec
    coeffs: np.ndarray
    description: str = ""

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs))
        if coeffs.ndim != 1 or coeffs.shape[0] == 0:
            raise ValueError("coeffs must be a nonempty 1-D sequence")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def max_degree(self):
        return self.coeffs.shape[0] - 1

    def values(self, t):
        """Pointwise kernel values sum_k m_k Z_k(t) at cosines t.

        A kernel of one degree evaluates that degree alone; the recurrence
        runs row by row, so the values equal the table route's bit for bit.
        """
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        nz = np.flatnonzero(self.coeffs)
        if nz.size == 1:
            k = int(nz[0])
            return self.coeffs[k] * zonal_value(self.sphere.n, k, t)
        tab = zonal_table(self.sphere.n, self.max_degree, t)
        return self.coeffs @ tab


def projector_kernel(sphere, k):
    """Kernel of the projector onto degree-k spherical harmonics."""
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    return ZonalKernel(sphere, coeffs, description=f"harmonic projector k={k}")
