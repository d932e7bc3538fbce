"""Exponent-plane bookkeeping in (1/r, 1/s) coordinates.

Points live in the closed triangle 0 <= 1/s <= 1/r <= 1 below the diagonal;
sigma = 1/r - 1/s is the gap.  Duality reflects across the anti-diagonal:
(x, y) -> (1 - y, 1 - x).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ExponentPoint:
    """A Lebesgue exponent pair recorded as (x, y) = (1/r, 1/s)."""

    x: float
    y: float

    def __post_init__(self):
        if not (-1e-12 <= self.y <= self.x + 1e-12 and self.x <= 1.0 + 1e-12):
            raise ValueError(
                f"exponent point ({self.x}, {self.y}) outside 0 <= 1/s <= 1/r <= 1")

    @property
    def r(self):
        return 1.0 / self.x if self.x > 0 else np.inf

    @property
    def s(self):
        return 1.0 / self.y if self.y > 0 else np.inf

    @property
    def sigma(self):
        return self.x - self.y

    def dual(self):
        """Exponents of the adjoint: (1/r, 1/s) -> (1/s', 1/r')."""
        return ExponentPoint(1.0 - self.y, 1.0 - self.x)


def admissible(n, r, s):
    """Whether (r, s) sits in the admissible range for dimension n.

    Returns (ok, reason).  The gap sigma = 1/r - 1/s must lie in
    [2/(n+1), 2/n] (both ends allowed) and r strictly inside
    (2n/(n-1+2n sigma), 2n/(n+1)).
    """
    if n < 2:
        raise ValueError(f"sphere dimension must be >= 2, got {n}")
    sigma = 1.0 / r - (0.0 if np.isinf(s) else 1.0 / s)
    if sigma < 2.0 / (n + 1) - 1e-14:
        return False, "sigma >= 2/(n+1) violated"
    if sigma > 2.0 / n + 1e-14:
        return False, "sigma <= 2/n violated"
    if not r > 2.0 * n / (n - 1 + 2 * n * sigma):
        return False, "r > 2n/(n-1+2n*sigma) violated (strict)"
    if not r < 2.0 * n / (n + 1):
        return False, "r < 2n/(n+1) violated (strict)"
    return True, "admissible"


def check_sigma(n, sigma):
    """Raise ValueError unless 2/(n+1) <= sigma <= 2/n, up to rounding."""
    if not 2.0 / (n + 1) - 1e-14 <= sigma <= 2.0 / n + 1e-14:
        raise ValueError(f"sigma={sigma} outside [2/(n+1), 2/n] for n={n}")


def segment_endpoints(n, sigma):
    """Endpoint pair of the sigma-segment: the point where the scaling is
    critical, and its dual."""
    check_sigma(n, sigma)
    left = ExponentPoint((n + 1) / (2 * n), (n + 1 - 2 * n * sigma) / (2 * n))
    return left, left.dual()


def stein_point(n, sigma):
    """The oscillatory-decay anchor P and the size anchor Q for the gap sigma."""
    p = ExponentPoint((n + 1) * sigma / (2 * n) + (n - 1) / (2 * n),
                      -(n - 1) * sigma / (2 * n) + (n - 1) / (2 * n))
    q = ExponentPoint(sigma, 0.0)
    return p, q


def special_points(n):
    """Named fixed points of the exponent diagram."""
    return {
        "A": ExponentPoint(0.5, (n - 1) / (2 * (n + 1))),
        "B": ExponentPoint(1.0, 0.0),
        "C": ExponentPoint((n + 1) / (2 * n),
                           (n - 1) ** 2 / (2 * n * (n + 1))),
        "D": ExponentPoint((n + 1) / (2 * n), 0.0),
    }


def predicted_exponents(n, sigma):
    """Predicted growth exponents (projector, resolvent) = (n sigma - 1, n sigma - 2).

    Pure formulas, evaluated for any sigma > 0; the admissible range is
    enforced where a range actually matters (segment_endpoints, admissible).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return n * sigma - 1.0, n * sigma - 2.0
