"""Interpolation between two dyadic-family endpoint bounds.

Given piece bounds ||T_j|| <= M1 2^{beta1 j} at one exponent pair (growth)
and ||T_j|| <= M2 2^{-beta2 j} at another (decay), the summed operator maps
restricted inputs into weak Lebesgue space at the intermediate point

    target = theta * growth + (1 - theta) * decay,   theta = beta2/(beta1+beta2),

in (1/r, 1/s) coordinates.  The proof mechanism splits the dyadic sum at an
index rho chosen so the finite geometric part and the tail part balance;
optimal_split reproduces that index, and certify_restricted_weak replays the
whole argument over every input set E on the rank-one H_k = e_k e_k^T that
the pieces of a projector kernel sum to, where that sup has a closed form.
interp_from_fit takes the endpoints, prefactors and rates from a measured
`dyadic.PieceNormFit` alone, which carries the points it was measured at.
"""

import math
from dataclasses import dataclass

from .errors import NumericalError
from .exponents import ExponentPoint
from .norms import set_sweep, weak_sweep


@dataclass(frozen=True)
class InterpolationData:
    """Endpoints with their fitted prefactors and dyadic rates."""

    growth: ExponentPoint      # endpoint where ||T_j|| grows like 2^{beta1 j}
    decay: ExponentPoint       # endpoint where it decays like 2^{-beta2 j}
    m_growth: float
    m_decay: float
    beta_growth: float
    beta_decay: float

    def __post_init__(self):
        if min(self.m_growth, self.m_decay) <= 0:
            raise ValueError("endpoint prefactors must be positive")
        if min(self.beta_growth, self.beta_decay) <= 0:
            raise ValueError("dyadic rates must be positive")

    @property
    def theta(self):
        return self.beta_decay / (self.beta_growth + self.beta_decay)

    @property
    def target(self):
        th = self.theta
        return ExponentPoint(
            th * self.growth.x + (1.0 - th) * self.decay.x,
            th * self.growth.y + (1.0 - th) * self.decay.y)


def interp_from_fit(fit):
    """InterpolationData from a measured piece-norm fit, at the endpoints
    the fit was measured at.

    The decay-side slope must be negative and the growth-side positive for
    the family hypotheses to hold; a measured fit that breaks them is a
    NumericalError, as piece_norm_slopes's own fit failures are.
    """
    if fit.slope_growth <= 0:
        raise NumericalError(
            f"growth-side slope {fit.slope_growth:.3f} is not positive")
    if fit.slope_decay >= 0:
        raise NumericalError(
            f"decay-side slope {fit.slope_decay:.3f} is not negative")
    return InterpolationData(
        growth=fit.growth, decay=fit.decay,
        m_growth=2.0 ** fit.intercept_growth,
        m_decay=2.0 ** fit.intercept_decay,
        beta_growth=fit.slope_growth,
        beta_decay=-fit.slope_decay)


@dataclass(frozen=True)
class SplitChoice:
    rho: int
    branch: str                # "split" or "tail-only"
    log2_quantity: float


def optimal_split(data, mu_e, mu_a):
    """Dyadic split index rho with 2^rho < Q <= 2^{rho+1} for the balance
    quantity Q; all in log2 so extreme prefactor ratios stay finite."""
    if mu_e <= 0 or mu_a <= 0:
        raise ValueError("measures must be positive")
    g, d = data.growth, data.decay
    log2q = (math.log2(data.m_growth) - math.log2(data.m_decay)
             + (d.x - g.x) * math.log2(mu_e)
             + (g.y - d.y) * math.log2(mu_a)) / (data.beta_growth
                                                 + data.beta_decay)
    if log2q <= 0.0:
        return SplitChoice(0, "tail-only", log2q)
    return SplitChoice(max(0, math.ceil(log2q) - 1), "split", log2q)


# ---------------------------------------------------------------------------
# end-to-end certification on the operator the pieces sum to

def certify_restricted_weak(op, data):
    """Replay the restricted weak-type bound on the rank-one op = m e e^T
    (the H_k that the pieces of Z_k sum to) over every node set E.

    T 1_E = m <e, 1_E>_w e, so the sup over E is exact from `set_sweep`.
    The report is the attaining set's, with the two-term split bound at the
    optimal rho; C_obs divides its weak-type constant by M1^theta
    M2^{1-theta}.  Any other op is a ValueError.
    """
    if not op.rank_one:
        raise ValueError("the replay needs a rank-one operator m e e^T")
    (e,), (m,) = op.unfolded()
    w, target, theta = op.grid.weights, data.target, data.theta
    value, level, mu_e, nodes, sign = set_sweep(w, e, target.x)
    image = abs(m) * (value * mu_e ** target.x) * e   # T 1_E up to sign
    weak, t_star, mu_a = weak_sweep(w, image, target.s)
    interp_const = data.m_growth ** theta * data.m_decay ** (1.0 - theta)
    c1 = 2.0 ** data.beta_growth / (2.0 ** data.beta_growth - 1.0)
    c2 = 1.0 / (1.0 - 2.0 ** (-data.beta_decay))
    split = optimal_split(data, mu_e, mu_a)
    g, d = data.growth, data.decay
    finite = (c1 * data.m_growth * 2.0 ** (data.beta_growth * split.rho)
              * mu_e ** g.x * mu_a ** (1.0 - g.y))
    tail = (c2 * data.m_decay * 2.0 ** (-data.beta_decay * split.rho)
            * mu_e ** d.x * mu_a ** (1.0 - d.y))
    return {"mu_e": mu_e, "nodes": nodes, "level": level, "sign": sign,
            "weak": weak, "c_obs": weak / (interp_const * mu_e ** target.x),
            "threshold": t_star, "mu_a": mu_a, "rho": split.rho,
            "branch": split.branch, "finite_part": finite,
            "tail_part": tail, "split_bound_on_mu_a": (finite + tail) / t_star}
