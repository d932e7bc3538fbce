"""Interpolation between two dyadic-family endpoint bounds.

Given piece bounds ||T_j|| <= M1 2^{beta1 j} at one exponent pair (growth)
and ||T_j|| <= M2 2^{-beta2 j} at another (decay), the summed operator maps
restricted inputs into weak Lebesgue space at the intermediate point

    target = theta * growth + (1 - theta) * decay,   theta = beta2/(beta1+beta2),

in (1/r, 1/s) coordinates.  The proof mechanism splits the dyadic sum at an
index rho chosen so the finite geometric part and the tail part balance;
optimal_split reproduces that index, and certify_restricted_weak replays the
whole argument against the summed measured pieces on cap inputs.
"""

import math
from dataclasses import dataclass, field

from .errors import NumericalError
from .exponents import ExponentPoint
from .norms import lp_norm, weak_sweep


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


def interp_from_fit(sigma_points, fit):
    """InterpolationData from a measured piece-norm fit.

    sigma_points is the (decay, growth) anchor pair; fit carries slopes and
    log2-intercepts.  The decay-side slope must be negative and the
    growth-side positive for the family hypotheses to hold; a measured fit
    that breaks them is a NumericalError, as piece_norm_slopes's own fit
    failures are.
    """
    p_pt, q_pt = sigma_points
    if fit.slope_growth <= 0:
        raise NumericalError(
            f"growth-side slope {fit.slope_growth:.3f} is not positive")
    if fit.slope_decay >= 0:
        raise NumericalError(
            f"decay-side slope {fit.slope_decay:.3f} is not negative")
    return InterpolationData(
        growth=q_pt, decay=p_pt,
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
# end-to-end certification on measured operators

# a measured piece norm above this multiple of its fitted exponential
# envelope is reported as a hypothesis violation
ENVELOPE_FACTOR = 1.6


@dataclass
class CertificationReport:
    data: InterpolationData
    target: ExponentPoint
    cap_reports: list
    c_obs: float
    hypothesis_violations: list = field(default_factory=list)


def certify_restricted_weak(op, data, caps, piece_fit=None):
    """Replay the restricted weak-type bound on op, the summed pieces T.

    For each cap indicator E the image T 1_E is measured in weak L^q at the
    target; C_obs normalizes by the interpolated prefactor
    M1^theta M2^{1-theta} mu(E)^{1/p}.  Per cap, the two-term split bound at
    the optimal rho is reported to expose the finite-part/tail-part balance.
    piece_fit, when given, is scanned for pieces whose measured norms sit
    above the fitted exponential envelopes by more than ENVELOPE_FACTOR.
    A cap that holds no grid node has zero measure and raises ValueError.
    """
    target = data.target
    q = target.s
    theta = data.theta
    interp_const = data.m_growth ** theta * data.m_decay ** (1.0 - theta)
    c1 = 2.0 ** data.beta_growth / (2.0 ** data.beta_growth - 1.0)
    c2 = 1.0 / (1.0 - 2.0 ** (-data.beta_decay))
    reports = []
    c_obs = 0.0
    for capfn in caps:
        mu_e = lp_norm(capfn, 1)
        if mu_e == 0:
            raise ValueError("cap holds no grid node; its measure is zero")
        weak, t_star, mu_a = weak_sweep(capfn.grid.weights,
                                        op.apply(capfn.values), q)
        entry = {"mu_e": mu_e, "weak": weak,
                 "c_obs": weak / (interp_const * mu_e ** target.x)}
        if weak > 0 and t_star > 0:
            split = optimal_split(data, mu_e, mu_a)
            g, d = data.growth, data.decay
            finite = (c1 * data.m_growth * 2.0 ** (data.beta_growth * split.rho)
                      * mu_e ** g.x * mu_a ** (1.0 - g.y))
            tail = (c2 * data.m_decay * 2.0 ** (-data.beta_decay * split.rho)
                    * mu_e ** d.x * mu_a ** (1.0 - d.y))
            entry.update({
                "threshold": t_star, "mu_a": mu_a, "rho": split.rho,
                "branch": split.branch, "finite_part": finite,
                "tail_part": tail,
                "split_bound_on_mu_a": (finite + tail) / t_star,
            })
        reports.append(entry)
        c_obs = max(c_obs, entry["c_obs"])
    violations = []
    if piece_fit is not None:
        for j, nq, npp in zip(piece_fit.js, piece_fit.norms_growth,
                              piece_fit.norms_decay):
            line_g = 2.0 ** (piece_fit.intercept_growth
                             + piece_fit.slope_growth * j)
            line_d = 2.0 ** (piece_fit.intercept_decay
                             + piece_fit.slope_decay * j)
            if nq > ENVELOPE_FACTOR * line_g or npp > ENVELOPE_FACTOR * line_d:
                violations.append(int(j))
    return CertificationReport(data, target, reports, c_obs, violations)
