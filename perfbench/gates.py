"""Correctness gates: each command's output checked against exact oracles.

The oracles come from closed forms evaluated here with SciPy, not through
zonalab: the Gauss-Jacobi grid the CLI documents, Gegenbauer polynomials from
scipy.special, and exact dimension counts.  A gate returns the list of
problems it found; an empty list is a pass.
"""

import csv
import io
import math

import numpy as np
from scipy.special import eval_gegenbauer, roots_jacobi

# float rounding allowed where an inequality is exact in real arithmetic
ROUND = 1e-12
# error floor of piece_sum_err, so that round-off does not register
PIECE_SUM_FLOOR = 1e-12


def sphere_volume(n):
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def harmonic_dim(n, k):
    """N(n, k) = C(k+n, n) - C(k+n-2, n), exact."""
    return math.comb(k + n, n) - math.comb(k + n - 2, n)


def harmonic_row(n, k, t):
    """Orthonormal zonal harmonic e_k(t) = Z_k(t) / sqrt(Z_k(1)) at cosines t."""
    alpha = (n - 1) / 2
    c = (2 * k + n - 1) / ((n - 1) * sphere_volume(n))
    return (math.sqrt(c / eval_gegenbauer(k, alpha, 1.0))
            * eval_gegenbauer(k, alpha, t))


def lp(w, v, p):
    return float(np.sum(w * np.abs(v) ** p) ** (1.0 / p))


class Oracle:
    """Grids and harmonic norms, computed once per run and reused by passes."""

    def __init__(self):
        self._grids = {}
        self._norms = {}

    def grid(self, n, points):
        """Cosines and weights of the CLI's Gauss-Jacobi grid."""
        if (n, points) not in self._grids:
            a = (n - 2) / 2
            t, v = roots_jacobi(points, a, a)
            self._grids[n, points] = (t, sphere_volume(n - 1) * v)
        return self._grids[n, points]

    def dual_norms(self, n, points, k, r, s):
        """||e_k||_{r'} ||e_k||_s on the grid: the exact r->s norm of the
        rank-one degree-k projector on zonal inputs."""
        key = (n, points, k, r, s)
        if key not in self._norms:
            t, w = self.grid(n, points)
            e = harmonic_row(n, k, t)
            self._norms[key] = lp(w, e, r / (r - 1.0)) * lp(w, e, s)
        return self._norms[key]


def read_rows(csv_bytes):
    return list(csv.DictReader(io.StringIO(csv_bytes.decode())))


def _exponents(row):
    return float(row["r"]), float(row["s"])


def _check_projector(spec, rows, summary, oracle):
    n = spec.get("n", 3)
    points = summary["config"]["grid_points"]
    problems = []
    if [int(row["k"]) for row in rows] != sorted(spec["k"]):
        problems.append("rows do not match the requested degrees")
    for row in rows:
        k = int(row["k"])
        lower, upper = float(row["lower"]), float(row["upper"])
        exact = oracle.dual_norms(n, points, k, *_exponents(row))
        if lower > exact * (1.0 + ROUND):
            problems.append(f"k={k}: lower {lower} exceeds exact {exact}")
        if exact > upper * (1.0 + ROUND):
            problems.append(f"k={k}: upper {upper} is below exact {exact}")
        if abs(lower - exact) > 1e-9 * exact:
            problems.append(f"k={k}: lower {lower} misses exact {exact} "
                            "by more than 1e-9")
    return problems


def _check_resolvent(spec, rows, summary, oracle):
    n = spec.get("n", 3)
    points = summary["config"]["grid_points"]
    mu = summary["config"]["mu"]
    kmax = {rec["lambda"]: rec["kmax"] for rec in summary["rows"]}
    problems = []
    if [float(row["lambda"]) for row in rows] != sorted(spec["lambda"]):
        problems.append("rows do not match the requested lambdas")
    for row in rows:
        lam = float(row["lambda"])
        lower, upper = float(row["lower"]), float(row["upper"])
        r, s = _exponents(row)
        zeta = complex(lam, mu) ** 2
        triangle = sum(
            oracle.dual_norms(n, points, k, r, s)
            / abs(zeta - (k + (n - 1) / 2) ** 2)
            for k in range(kmax[lam] + 1))
        if lower > triangle * (1.0 + ROUND):
            problems.append(f"lambda={lam}: lower {lower} exceeds the "
                            f"triangle bound {triangle}")
        if lower > upper * (1.0 + ROUND):
            problems.append(f"lambda={lam}: lower {lower} exceeds upper "
                            f"{upper}")
    return problems


def _check_multiplier(spec, rows, summary, oracle):
    problems = []
    if sorted({float(row["lambda"]) for row in rows}) != sorted(spec["lambda"]):
        problems.append("rows do not cover the requested lambdas")
    for row in rows:
        lam, mu, tau = (float(row[c]) for c in ("lambda", "mu", "tau"))
        closed = 1.0 / abs(complex(lam, mu) ** 2 - tau ** 2)
        if abs(float(row["abs_closed"]) - closed) > ROUND * closed:
            problems.append(f"lambda={lam} tau={tau}: closed form "
                            f"{row['abs_closed']} != {closed}")
        if abs(float(row["abs_integral"]) - closed) > 1e-8 * closed:
            problems.append(f"lambda={lam} tau={tau}: integral "
                            f"{row['abs_integral']} misses {closed} by "
                            "more than 1e-8")
    return problems


def _check_envelope(spec, rows, summary, oracle):
    n = spec.get("n", 3)
    problems = []
    if [int(row["k"]) for row in rows] != sorted(spec["k"]):
        problems.append("rows do not match the requested degrees")
    for row in rows:
        k = int(row["k"])
        expected = harmonic_dim(n, k) / (sphere_volume(n) * k ** (n - 1))
        if abs(float(row["c_flat"]) - expected) > 1e-12 * expected:
            problems.append(f"k={k}: c_flat {row['c_flat']} misses "
                            f"N(n,k)/(vol k^(n-1)) = {expected}")
    return problems


def _check_dyadic(spec, rows, summary, oracle):
    problems = []
    if [int(row["k"]) for row in rows] != sorted(spec["k"]):
        problems.append("rows do not match the requested degrees")
    for row in rows:
        if not math.isfinite(float(row["c_obs"])):
            problems.append(f"k={row['k']}: c_obs is {row['c_obs']}")
    # the CSV keeps the largest per-cap constant, which hides a NaN cap
    for rec in summary["rows"]:
        for cap in rec["caps"]:
            if not math.isfinite(cap["c_obs"]):
                problems.append(f"k={rec['k']}: a cap's c_obs is "
                                f"{cap['c_obs']}")
    return problems


_GATES = {
    "proj-scaling": _check_projector,
    "resolvent-scaling": _check_resolvent,
    "multiplier-check": _check_multiplier,
    "envelope": _check_envelope,
    "dyadic-certify": _check_dyadic,
}


def check(spec, output, reference, oracle):
    """Problems with one command's output; reference is the CSV the same
    command wrote in the warm-up pass, which every later pass must repeat
    byte for byte."""
    if output.code != 0:
        return [f"exit code {output.code}"]
    if output.summary is None:
        return ["no JSON summary written"]
    problems = _GATES[spec["command"]](spec, read_rows(output.csv), output.summary,
                                       oracle)
    if output.csv != reference:
        problems.append("CSV differs from the warm-up pass")
    return problems


def certificate_gaps(spec, csv_bytes):
    """upper/lower of every certificate row a sweep wrote."""
    if spec["command"] not in ("proj-scaling", "resolvent-scaling"):
        return []
    return [float(row["upper"]) / float(row["lower"])
            for row in read_rows(csv_bytes)]


def piece_sum_error(pieces):
    """max |sum_j A_j - A_spectral| / max |A_spectral| over the captured
    dyadic decompositions, floored at PIECE_SUM_FLOOR.

    pieces maps (n, k) to {j: (grid, reduced matrix)}.  The spectral matrix
    of the degree-k projector is e_k e_k^T on the same nodes.
    """
    err = PIECE_SUM_FLOOR
    for (n, k), by_j in pieces.items():
        grid = next(iter(by_j.values()))[0]
        e = harmonic_row(n, k, np.cos(grid.nodes))
        spectral = np.outer(e, e)
        total = sum(matrix for _, matrix in by_j.values())
        err = max(err, float(np.abs(total - spectral).max()
                             / np.abs(spectral).max()))
    return err
