"""Polar quadrature grids and zonal (rotation-invariant) grid functions.

A zonal function on S^n depends only on the polar angle theta; integration
reduces to vol(S^{n-1}) * int_0^pi f(theta) sin^{n-1}(theta) dtheta, which a
Gauss-Jacobi rule in t = cos(theta) with weight (1-t^2)^{(n-2)/2} evaluates
exactly for polynomial integrands.
"""

import io
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .specfun import SphereSpec, zonal_table


class ZonalGrid:
    """Quadrature nodes theta_i with weights w_i summing to vol(S^n).

    kexact is the declared degree budget: kernels and functions handled on the
    grid should be band-limited to degrees <= kexact so that pairwise products
    are integrated exactly.
    """

    def __init__(self, sphere, nodes, weights, rule, kexact):
        self.sphere = sphere
        self.nodes = np.ascontiguousarray(nodes, dtype=np.float64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.rule = rule
        self.kexact = int(kexact)
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-D arrays")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        # shared by every caller, so read-only
        self.cosines = np.cos(self.nodes)
        self.cosines.flags.writeable = False
        self._basis = None

    @property
    def points(self):
        return self.nodes.shape[0]

    def basis(self, kmax):
        """Orthonormal zonal rows e_k = Z_k / sqrt(Z_k(1)), shape (kmax+1, points).

        Every call slices one table, computed through max(kmax, kexact) the
        first time; the recurrence runs row by row, so a slice has the same
        bits as a table computed through kmax.  The rows are read-only.
        """
        if self._basis is None or self._basis.shape[0] <= kmax:
            top = max(kmax, self.kexact)
            tab = zonal_table(self.sphere.n, top, self.cosines)
            z1 = zonal_table(self.sphere.n, top, np.ones(1))[:, 0]
            self._basis = tab / np.sqrt(z1)[:, None]
            self._basis.flags.writeable = False
        return self._basis[:kmax + 1]

    def integrate(self, values):
        return np.sum(self.weights * values)

    def __eq__(self, other):
        if not isinstance(other, ZonalGrid):
            return NotImplemented
        return (self.sphere.n == other.sphere.n
                and self.rule == other.rule
                and self.kexact == other.kexact
                and np.array_equal(self.nodes, other.nodes)
                and np.array_equal(self.weights, other.weights))

    def __repr__(self):
        return (f"ZonalGrid(n={self.sphere.n}, points={self.points}, "
                f"rule={self.rule!r}, kexact={self.kexact})")


def make_grid(sphere, points, kexact=None):
    """Gauss-Jacobi grid with `points` nodes; needs points >= 2*kexact + 1."""
    if points < 1:
        raise ValueError(f"need at least one node, got {points}")
    if kexact is None:
        kexact = (points - 1) // 2
    if points < 2 * kexact + 1:
        raise ValueError(
            f"{points} nodes cannot carry declared exactness {kexact}; "
            f"need points >= {2 * kexact + 1}")
    a = (sphere.n - 2) / 2
    t, v = roots_jacobi(points, a, a)
    # theta increasing from the pole
    nodes = np.arccos(t[::-1])
    weights = sphere.subsphere_volume * v[::-1]
    return ZonalGrid(sphere, nodes, weights, f"gauss-jacobi-{points}", kexact)


@dataclass(frozen=True, eq=False)
class ZonalFunction:
    """Node values of a zonal function."""

    grid: ZonalGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values))
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid nodes")
        object.__setattr__(self, "values", values)


def cap(grid, theta0):
    """Indicator of the polar cap {theta <= theta0} as node values; its
    measure is the grid measure, grid.integrate(cap(...).values)."""
    if not 0 < theta0 <= np.pi:
        raise ValueError(f"cap angle must lie in (0, pi], got {theta0}")
    return ZonalFunction(grid, (grid.nodes <= theta0).astype(np.float64))


def save_grid(grid, path):
    """Write the grid as a "theta,weight" table; full float precision."""
    with open(path, "w") as fh:
        fh.write(f"# n={grid.sphere.n} rule={grid.rule} kexact={grid.kexact}\n")
        fh.write("theta,weight\n")
        for th, w in zip(grid.nodes, grid.weights):
            fh.write(f"{float(th)!r},{float(w)!r}\n")


def load_grid(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"malformed grid file {path}: missing metadata line")
        meta = dict(item.split("=", 1) for item in header[1:].split())
        cols = fh.readline().strip()
        if cols != "theta,weight":
            raise ValueError(f"malformed grid file {path}: bad column header")
        data = np.loadtxt(io.StringIO(fh.read()), delimiter=",", ndmin=2)
    sphere = SphereSpec(int(meta["n"]))
    return ZonalGrid(sphere, data[:, 0], data[:, 1], meta["rule"],
                     int(meta["kexact"]))
