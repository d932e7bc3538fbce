"""Polar quadrature grids and zonal (rotation-invariant) grid functions.

A zonal function on S^n depends only on the polar angle theta; integration
reduces to vol(S^{n-1}) * int_0^pi f(theta) sin^{n-1}(theta) dtheta, which a
Gauss-Jacobi rule in t = cos(theta) with weight (1-t^2)^{(n-2)/2} evaluates
exactly for polynomial integrands.  SciPy computes that rule and is imported
only when make_grid runs, so a process that builds no grid never loads it.
"""

import functools
import io
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from ._core import _rows
from .specfun import SphereSpec, sphere_volume

# a grid is mirrored when every theta_i + theta_{P-1-i} is this many ulp(pi)
# or fewer from pi; every Gauss-Jacobi grid of make_grid is within 1
_MIRROR_ULPS = 4


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
        # comparisons are False at NaN, so these reject it too
        if not np.all((self.weights > 0) & (self.weights < np.inf)):
            raise ValueError("quadrature weights must be finite and positive")
        if not np.all((self.nodes >= 0) & (self.nodes <= np.pi)):
            raise ValueError("nodes must be polar angles in [0, pi]")
        # shared by every caller, so read-only
        self.cosines = np.cos(self.nodes)
        self.cosines.flags.writeable = False

    @property
    def points(self):
        return self.nodes.shape[0]

    @functools.cached_property
    def mirrored(self):
        """Whether the grid is symmetric under theta -> pi - theta: every
        theta_i + theta_{P-1-i} within _MIRROR_ULPS ulp of pi, and
        w_{P-1-i} = w_i exactly, as on every Gauss-Jacobi grid."""
        th, w = self.nodes, self.weights
        return bool(np.all(np.abs(th + th[::-1] - np.pi)
                           <= _MIRROR_ULPS * np.spacing(np.pi))
                    and np.array_equal(w, w[::-1]))

    @property
    def half(self):
        """The nodes a basis row is computed on: the first ceil(P/2) of a
        mirrored grid, whose others are their images, and all P of another."""
        return (self.points + 1) // 2 if self.mirrored else self.points

    def basis(self, degrees, folded=False):
        """Orthonormal zonal rows e_k = Z_k / sqrt(Z_k(1)) at the increasing
        `degrees`, shape (len(degrees), points).

        One recurrence runs over the first `half` cosines with t = 1
        appended; each kept row is scaled by c_{n,k} and divided by the root
        of its own value at t = 1, so there it has the bits of row k of
        `zonal_table` divided by the root of Z_k(1).  On a mirrored grid
        e_k(-t) = (-1)^k e_k(t) fills the rest: node P-1-i takes (-1)^k
        times node i, and an odd row is 0 at the middle node of an odd P,
        so every row is exactly even or odd under the mirror.  The rows are
        a fresh array; nothing is cached.

        folded=True returns, instead, the blocks of a factored operator,
        (degrees, rows on the first `half` nodes) for the even and then the
        odd degrees on a mirrored grid, and one block of every degree on
        another; no row is written on the other nodes.
        """
        degrees = np.asarray(degrees, dtype=np.intp)
        if np.any(np.diff(degrees, prepend=-1) <= 0):
            raise ValueError("degrees must be >= 0 and strictly increasing, "
                             f"got {degrees.tolist()}")
        P, h = self.points, self.half
        odd = degrees % 2 == 1
        if folded:
            groups = ([degrees[~odd], degrees[odd]] if self.mirrored
                      else [degrees])
            blocks = [(g, np.empty((g.size, h))) for g in groups]
            targets = [row for _, rows in blocks for row in rows]
            order = np.concatenate([g for g, _ in blocks])
        else:
            out = np.empty((degrees.size, P))
            targets, order = out[:, :h], degrees
        if degrees.size:
            n = self.sphere.n
            c = (2 * order + n - 1) / ((n - 1) * sphere_volume(n))
            slot = dict(zip(order.tolist(), zip(c, targets)))
            t = np.append(self.cosines[:h], 1.0)
            for m, row in enumerate(_rows(int(degrees[-1]), (n - 1) / 2, t)):
                if m in slot:
                    cm, dst = slot[m]
                    z = row * cm
                    np.divide(z[:-1], np.sqrt(z[-1]), out=dst)
        if folded:
            if self.mirrored and P % 2:
                # t = 0 at the middle node, where every odd row vanishes
                blocks[1][1][:, h - 1] = 0.0
            return blocks
        if self.mirrored:
            if P % 2:
                out[odd, h - 1] = 0.0
            out[:, h:] = out[:, :P - h][:, ::-1]
            out[odd, h:] *= -1.0
        return out

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
    # deferred: importing scipy.special costs more than most whole runs
    from scipy.special import roots_jacobi
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


def save_grid(grid, path):
    """Write the grid as a "theta,weight" table; full float precision.

    The table goes to a temporary file in the same directory, which then
    replaces path, so a reader sees the whole file or none.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(f"# n={grid.sphere.n} rule={grid.rule} "
                     f"kexact={grid.kexact}\n")
            fh.write("theta,weight\n")
            for th, w in zip(grid.nodes, grid.weights):
                fh.write(f"{float(th)!r},{float(w)!r}\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_grid(path):
    """The grid save_grid wrote to path; a malformed file raises ValueError
    naming it."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("#"):
                raise ValueError("missing metadata line")
            meta = dict(item.split("=", 1) for item in header[1:].split())
            if fh.readline().strip() != "theta,weight":
                raise ValueError("bad column header")
            body = fh.read()
        if not body.strip():
            raise ValueError("no nodes")
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        if data.shape[1] != 2:
            raise ValueError("rows must be theta,weight pairs")
        return ZonalGrid(SphereSpec(int(meta["n"])), data[:, 0], data[:, 1],
                         meta["rule"], int(meta["kexact"]))
    except KeyError as exc:
        raise ValueError(f"malformed grid file {path}: no {exc} in its "
                         f"metadata line") from None
    except ValueError as exc:
        raise ValueError(f"malformed grid file {path}: {exc}") from None
