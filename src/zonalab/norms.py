"""Lebesgue, weak-type, and Lorentz norms of zonal grid functions.

All norms are taken against the grid's quadrature measure, so the exact
discrete identities hold: an indicator of node set E has
weak-L^q norm mu(E)^{1/q} and L^{p,1} norm mu(E)^{1/p} with mu the grid
measure of E.
"""

import math

import numpy as np


def weighted_lp(w, v, p):
    """L^p norm of node values v against node weights w; p may be inf.

    v is a vector, or a (nodes, m) block whose m column norms are returned
    as an array.  Each column of |v| is divided by its max before the power,
    so no exponent overflows.
    """
    a = np.abs(v)
    peak = a.max(axis=0)
    if not math.isinf(p):
        peak = peak * (w @ (a / np.where(peak > 0, peak, 1.0)) ** p) ** (
            1.0 / p)
    return float(peak) if v.ndim == 1 else peak


def weighted_row_lp(w, A, p):
    """weighted_lp of every row of A.

    Each row of |A| is divided by its max and raised to p in place, so no
    second copy of the matrix is made.
    """
    a = np.abs(A)
    peak = a.max(axis=1)
    if math.isinf(p):
        return peak
    a /= np.where(peak > 0, peak, 1.0)[:, None]
    np.power(a, p, out=a)
    return peak * (a @ w) ** (1.0 / p)


def lp_norm(f, p):
    """L^p norm against the grid measure; p may be inf."""
    if p < 1:
        raise ValueError(f"exponent must be >= 1, got {p}")
    return weighted_lp(f.grid.weights, f.values, p)


def superlevels(w, v):
    """Distinct values of |v| in descending order, and for each level the
    measure mu(|v| >= level) under node weights w."""
    absval = np.abs(v)
    order = np.argsort(absval)[::-1]
    desc = absval[order]
    cumw = np.cumsum(w[order])
    # last index of each run of equal values gives mu(|v| >= value)
    last = np.nonzero(np.diff(desc, append=-1.0))[0]
    return desc[last], cumw[last]


def weak_lq(f, q):
    """Weak-L^q norm sup_t t mu(|f| > t)^{1/q}.

    mu is a right-continuous step function of t, so the sup is attained just
    below an achieved node value v, where mu(|f| > t) = mu(|f| >= v); only the
    achieved values need to be scanned.
    """
    if q < 1:
        raise ValueError(f"exponent must be >= 1, got {q}")
    levels, mass = superlevels(f.grid.weights, f.values)
    return float(np.max(levels * mass ** (1.0 / q)))


def lorentz_p1(f, p):
    """Lorentz L^{p,1} norm via the layer-cake integral int mu(|f|>t)^{1/p} dt.

    Piecewise exact: mu(|f|>t) is constant between consecutive achieved values.
    """
    if p < 1:
        raise ValueError(f"exponent must be >= 1, got {p}")
    levels, mass = superlevels(f.grid.weights, f.values)
    below = np.append(levels[1:], 0.0)  # next level down
    # for t in [below_i, level_i), |f| > t exactly where |f| >= level_i, so
    # mu(|f| > t) = mass_i on that interval
    return float(np.sum((levels - below) * mass ** (1.0 / p)))
