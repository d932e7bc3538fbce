"""Experiment runner and report emitter.

Each run writes two files: a CSV with one row per swept parameter and a JSON
summary {config, rows, slope, residual, wall_seconds, version}.  The CSV is
byte-identical for identical config + seed; timestamps live only in the JSON.

Exit codes: 0 success, 2 inadmissible exponents or bad arguments,
3 numerical failure (partial CSV rows are flushed before exiting).
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import envelope_check, fit_line, piece_norm_slopes
from .errors import NumericalError
from .exponents import (ExponentPoint, admissible, predicted_exponents,
                        segment_endpoints, special_points, stein_point)
from .grids import cap, load_grid, make_grid, save_grid
from .interpolation import certify_restricted_weak, interp_from_fit
from .operators import norm_certificate, operator_from_kernel
from .resolvent import (ResolventParams, default_degree_cutoff,
                        multiplier_from_integral, resolvent_kernel,
                        resolvent_multiplier)
from .specfun import SphereSpec, eigenvalue, projector_kernel

COMMANDS = ("proj-scaling", "resolvent-scaling", "dyadic-certify",
            "envelope", "multiplier-check", "exponent-map")


def fit_slope(rows):
    """Ordinary least squares of log(value) against log(parameter).

    rows: pairs (parameter, value), at least three, all positive.
    Returns (slope, intercept, rms residual).
    """
    rows = list(rows)
    if len(rows) < 3:
        raise ValueError(f"slope fit needs >= 3 rows, got {len(rows)}")
    params = np.array([p for p, _ in rows], dtype=np.float64)
    vals = np.array([v for _, v in rows], dtype=np.float64)
    if np.any(params <= 0) or np.any(vals <= 0):
        raise ValueError("slope fit needs positive parameters and values")
    if np.unique(params).size < 2:
        raise ValueError("slope fit is degenerate: parameters coincide")
    return fit_line(np.log(params), np.log(vals))


def default_r(n, sigma):
    """Midpoint of the open admissible interval, taken in 1/r coordinates."""
    inv_lo = (n + 1) / (2.0 * n)
    inv_hi = (n - 1 + 2.0 * n * sigma) / (2.0 * n)
    return 2.0 / (inv_lo + inv_hi)


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.15g}"


class _CsvSink:
    """Row writer that flushes eagerly so failures keep partial results."""

    def __init__(self, path, header):
        self.fh = open(path, "w", newline="")
        self.writer = csv.writer(self.fh)
        self.writer.writerow(header)
        self.fh.flush()
        self.rows = []

    def emit(self, row):
        self.writer.writerow([_fmt(v) for v in row])
        self.fh.flush()
        self.rows.append(row)

    def close(self):
        self.fh.close()


def _grid_for(sphere, points, kexact, cache_dir=None):
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / f"grid_n{sphere.n}_p{points}_k{kexact}.csv"
        if path.exists():
            return load_grid(path)
        grid = make_grid(sphere, points, kexact)
        save_grid(grid, path)
        return grid
    return make_grid(sphere, points, kexact)


# ---------------------------------------------------------------------------
# commands; each returns (json_rows, slope, residual)

def _exponent_pair(cfg):
    x = 1.0 / cfg.r
    return ExponentPoint(x, x - cfg.sigma)


def _run_proj_scaling(cfg, sink):
    sphere = SphereSpec(cfg.n)
    point = _exponent_pair(cfg)
    kmax = max(cfg.ks)
    points = cfg.grid_points = cfg.grid_points or 4 * kmax + 16
    grid = _grid_for(sphere, points, kmax, cfg.cache_dir)
    exp_proj, _ = predicted_exponents(cfg.n, cfg.sigma)
    json_rows = []
    for k in sorted(cfg.ks):
        kern = projector_kernel(sphere, k)
        op = operator_from_kernel(kern, grid)
        cert = norm_certificate(op, point, restarts=cfg.restarts,
                                seed=cfg.seed, label=f"H_{k}")
        row = (k, point.r, point.s, cert.lower, cert.upper,
               float(k) ** exp_proj)
        sink.emit(row)
        rec = cert.to_record()
        rec["k"] = k
        rec["predicted"] = row[-1]
        json_rows.append(rec)
    slope, residual = _slope_of(sink.rows)
    return json_rows, slope, residual


def _slope_of(rows):
    # short sweeps cannot support a fit; the report then carries nulls
    if len(rows) < 3:
        return None, None
    slope, _, residual = fit_slope((r[0], r[3]) for r in rows)
    return slope, residual


def _run_resolvent_scaling(cfg, sink):
    sphere = SphereSpec(cfg.n)
    point = _exponent_pair(cfg)
    cutoffs = {lam: default_degree_cutoff(lam) for lam in cfg.lambdas}
    kmax = max(cutoffs.values())
    points = cfg.grid_points = cfg.grid_points or 4 * kmax + 16
    grid = _grid_for(sphere, points, kmax, cfg.cache_dir)
    _, exp_res = predicted_exponents(cfg.n, cfg.sigma)
    json_rows = []
    for lam in sorted(cfg.lambdas):
        params = ResolventParams(lam, cfg.mu)
        result = resolvent_kernel(sphere, params, cutoffs[lam])
        op = operator_from_kernel(result.kernel, grid)
        cert = norm_certificate(op, point, restarts=cfg.restarts,
                                seed=cfg.seed,
                                label=f"R_zeta lam={lam} mu={cfg.mu}")
        row = (lam, point.r, point.s, cert.lower, cert.upper,
               float(lam) ** exp_res)
        sink.emit(row)
        rec = cert.to_record()
        rec.update({"lambda": lam, "mu": cfg.mu, "kmax": result.kmax,
                    "tail_ratio": result.tail_ratio, "predicted": row[-1]})
        json_rows.append(rec)
    slope, residual = _slope_of(sink.rows)
    return json_rows, slope, residual


def _run_dyadic_certify(cfg, sink):
    sphere = SphereSpec(cfg.n)
    kmax = max(cfg.ks)
    points = cfg.grid_points = cfg.grid_points or 4 * kmax + 16
    grid = _grid_for(sphere, points, kmax, cfg.cache_dir)
    p_pt, q_pt = stein_point(cfg.n, cfg.sigma)
    json_rows = []
    for k in sorted(cfg.ks):
        fit, pieces, built = piece_norm_slopes(
            sphere, k, cfg.sigma, grid, restarts=cfg.restarts, seed=cfg.seed)
        data = interp_from_fit((p_pt, q_pt), fit)
        lam = eigenvalue(cfg.n, k)
        caps = [c for c in (cap(grid, th)[0]
                            for th in (1.0 / lam, 1.0 / 8.0, 0.5))
                if c.values.any()]
        ops = [built[p.j] if p.j in built else p.operator() for p in pieces]
        report = certify_restricted_weak(ops, data, caps, piece_fit=fit)
        sink.emit((k, fit.slope_growth, fit.slope_decay, data.theta,
                   data.m_growth, data.m_decay, report.c_obs))
        json_rows.append({
            "k": k, "sigma": cfg.sigma,
            "growth_endpoint": [q_pt.x, q_pt.y],
            "decay_endpoint": [p_pt.x, p_pt.y],
            "target": [report.target.x, report.target.y],
            "m1": data.m_growth, "m2": data.m_decay,
            "beta1": data.beta_growth, "beta2": data.beta_decay,
            "theta": data.theta, "c_obs": report.c_obs,
            "caps": report.cap_reports,
            "hypothesis_violations": report.hypothesis_violations,
        })
    return json_rows, None, None


def _run_envelope(cfg, sink):
    sphere = SphereSpec(cfg.n)
    json_rows = []
    for k in sorted(cfg.ks):
        env = envelope_check(sphere, k)
        sink.emit((k, env.c_flat, env.c_osc, env.c_antipodal))
        json_rows.append({"k": k, "c_flat": env.c_flat, "c_osc": env.c_osc,
                          "c_antipodal": env.c_antipodal})
    return json_rows, None, None


def _run_multiplier_check(cfg, sink):
    json_rows = []
    for lam in sorted(cfg.lambdas):
        params = ResolventParams(lam, cfg.mu)
        taus = np.unique(np.round(np.linspace(1.0, 2.0 * lam, 5)))
        for tau in taus:
            closed = resolvent_multiplier(params, float(tau))
            numeric = multiplier_from_integral(params, float(tau))
            rel = abs(abs(numeric) - abs(closed)) / abs(closed)
            sink.emit((lam, cfg.mu, tau, abs(closed), abs(numeric), rel))
            json_rows.append({"lambda": lam, "mu": cfg.mu, "tau": float(tau),
                              "abs_closed": abs(closed),
                              "abs_integral": abs(numeric), "rel_err": rel})
    return json_rows, None, None


def _run_exponent_map(cfg, sink):
    named = dict(special_points(cfg.n))
    p_pt, q_pt = stein_point(cfg.n, cfg.sigma)
    e_pt, e_dual = segment_endpoints(cfg.n, cfg.sigma)
    named.update({"P": p_pt, "Q": q_pt, "E": e_pt, "E*": e_dual})
    json_rows = []
    for name, pt in named.items():
        sink.emit((name, pt.x, pt.y))
        json_rows.append({"name": name, "x": pt.x, "y": pt.y})
    return json_rows, None, None


_RUNNERS = {
    "proj-scaling": _run_proj_scaling,
    "resolvent-scaling": _run_resolvent_scaling,
    "dyadic-certify": _run_dyadic_certify,
    "envelope": _run_envelope,
    "multiplier-check": _run_multiplier_check,
    "exponent-map": _run_exponent_map,
}

_HEADERS = {
    "proj-scaling": ["k", "r", "s", "lower", "upper", "predicted"],
    "resolvent-scaling": ["lambda", "r", "s", "lower", "upper", "predicted"],
    "dyadic-certify": ["k", "slope_growth", "slope_decay", "theta",
                       "m1", "m2", "c_obs"],
    "envelope": ["k", "c_flat", "c_osc", "c_antipodal"],
    "multiplier-check": ["lambda", "mu", "tau", "abs_closed",
                         "abs_integral", "rel_err"],
    "exponent-map": ["name", "x", "y"],
}

# commands that sweep exponents and must pass the admissibility gate
_NEEDS_EXPONENTS = {"proj-scaling", "resolvent-scaling"}
_NEEDS_SIGMA = {"proj-scaling", "resolvent-scaling", "dyadic-certify",
                "exponent-map"}
_NEEDS_K = {"proj-scaling", "dyadic-certify", "envelope"}
_NEEDS_LAMBDA = {"resolvent-scaling", "multiplier-check"}


class Config:
    def __init__(self, args):
        self.command = args.command
        self.n = args.n
        self.sigma = args.sigma
        self.ks = args.k
        self.lambdas = getattr(args, "lambdas", None)
        self.mu = args.mu
        self.grid_points = args.grid_points
        self.restarts = args.restarts
        self.seed = args.seed
        self.out = Path(args.out)
        self.cache_dir = args.cache_dir
        if self.command in _NEEDS_SIGMA and self.sigma is None:
            raise ValueError(f"{self.command} requires --sigma")
        if self.command in _NEEDS_K and not self.ks:
            raise ValueError(f"{self.command} requires --k")
        if self.command in _NEEDS_LAMBDA and not self.lambdas:
            raise ValueError(f"{self.command} requires --lambda")
        self.r = args.r
        if self.command in _NEEDS_EXPONENTS:
            if self.r is None:
                self.r = default_r(self.n, self.sigma)
            s = 1.0 / (1.0 / self.r - self.sigma)
            ok, reason = admissible(self.n, self.r, s)
            if not ok:
                raise ValueError(
                    f"inadmissible exponents n={self.n} sigma={self.sigma} "
                    f"r={self.r}: {reason}")

    def echo(self):
        return {
            "command": self.command, "n": self.n, "sigma": self.sigma,
            "r": self.r, "k": self.ks, "lambda": self.lambdas, "mu": self.mu,
            "grid_points": self.grid_points, "restarts": self.restarts,
            "seed": self.seed, "out": str(self.out),
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
        }


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def _float_list(text):
    return [float(v) for v in text.split(",") if v]


def _real(text):
    """Plain decimal or a fraction like 2/3, so range endpoints stay exact."""
    if "/" in text:
        num, den = text.split("/")
        return float(num) / float(den)
    return float(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zonalab",
        description="Norm experiments for zonal spectral projectors and "
                    "resolvents on S^n.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--sigma", type=_real, default=None,
                       help="decimal or fraction, e.g. 3/5")
        p.add_argument("--r", type=_real, default=None,
                       help="defaults to the admissible midpoint")
        p.add_argument("--k", type=_int_list, default=None,
                       help="comma-separated degree list, e.g. 4,8,16,32")
        p.add_argument("--lambda", dest="lambdas", type=_float_list,
                       default=None,
                       help="comma-separated spectral parameters")
        p.add_argument("--mu", type=float, default=1.0)
        p.add_argument("--grid-points", type=int, default=None,
                       help="defaults to 4*max_degree+16")
        p.add_argument("--restarts", type=int, default=8)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--cache-dir", default=None,
                       help="directory for cached quadrature grids")
        p.add_argument("--out", required=True,
                       help="CSV path; the JSON summary lands next to it")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = Config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sink = _CsvSink(cfg.out, _HEADERS[cfg.command])
    try:
        json_rows, slope, residual = _RUNNERS[cfg.command](cfg, sink)
    except NumericalError as exc:
        sink.close()
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        sink.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sink.close()
    wall = time.perf_counter() - t0
    summary = {
        "config": cfg.echo(),
        "rows": json_rows,
        "slope": slope,
        "residual": residual,
        "wall_seconds": wall,
        "version": __version__,
    }
    json_path = cfg.out.with_suffix(".json")
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, default=float)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
