"""Experiment runner and report emitter.

Each run writes two files: a CSV with one row per swept parameter and a JSON
summary {config, rows, slope, residual, wall_seconds, version, env}, where
env names the python, numpy and zonalab versions that ran and the SciPy that
computed the run's quadrature grid (null if the run built none: no grid, or
one read from --cache-dir).  Each row is one record, its JSON row; the CSV
row prints the record's header columns.  The CSV is byte-identical for
identical config + seed; timestamps live only in the JSON, which is strict
(s = inf is null).  Each subcommand takes only the flags it reads (COMMANDS),
plus --seed and --out; any other flag exits 2.

Exit codes: 0 success, 2 inadmissible exponents, bad arguments or a path
that cannot be read or written (an --out that cannot be opened, or a grid
cache that cannot be read or written or does not match its key, writes no
file: a sweep's grid is built or read before the CSV opens), 3 numerical
failure (partial CSV rows are flushed before exiting).
"""

import argparse
import csv
import json
import math
import platform
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .dyadic import (envelope_check, fit_line, least_fit_degree,
                     piece_norm_slopes)
from .errors import NumericalError
from .exponents import (ExponentPoint, admissible, check_sigma,
                        predicted_exponents, segment_endpoints,
                        special_points, stein_point)
from .grids import load_grid, make_grid, save_grid
from .interpolation import certify_restricted_weak, interp_from_fit
from .operators import norm_certificate, operator_from_kernel
from .resolvent import (ResolventParams, default_degree_cutoff,
                        multiplier_from_integral, resolvent_kernel,
                        resolvent_multiplier)
from .specfun import SphereSpec, projector_kernel

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
    """Keeps each row's record and writes its header columns, flushing
    eagerly so failures keep partial results."""

    def __init__(self, path, header):
        self.fh = open(path, "w", newline="")
        self.writer = csv.writer(self.fh)
        self.header = header
        self.writer.writerow(header)
        self.fh.flush()
        self.rows = []

    def emit(self, record):
        self.writer.writerow([_fmt(record[name]) for name in self.header])
        self.fh.flush()
        self.rows.append(record)

    def close(self):
        self.fh.close()


def _null_inf(value):
    """value with every infinite float, as s = inf, made None."""
    if isinstance(value, dict):
        return {key: _null_inf(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_inf(v) for v in value]
    return None if isinstance(value, float) and math.isinf(value) else value


def _grid(cfg):
    """The grid of cfg.grid_points nodes, exact to degree cfg.band, which
    `main` builds or reads before the CSV opens.

    A cached grid must match that key; a grid built here records the SciPy
    version that computed it in cfg.scipy.
    """
    points, kmax = cfg.grid_points, cfg.band
    path = None
    if cfg.cache_dir is not None:
        cache_dir = Path(cfg.cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / f"grid_n{cfg.n}_p{points}_k{kmax}.csv"
        if path.exists():
            grid = load_grid(path)
            found = (grid.sphere.n, grid.points, grid.kexact, grid.rule)
            key = (cfg.n, points, kmax, f"gauss-jacobi-{points}")
            if found != key:
                raise ValueError(
                    f"grid cache {path} holds (n, points, kexact, rule) = "
                    f"{found}, not {key}")
            return grid
    grid = make_grid(cfg.sphere, points, kmax)
    import scipy  # loaded by make_grid
    cfg.scipy = scipy.__version__
    if path is not None:
        save_grid(grid, path)
    return grid


# ---------------------------------------------------------------------------
# commands; each emits one record per row

def _sweep(cfg, sink, params, build, exponent):
    """One certificate at cfg.point per parameter, predicted param**exponent;
    build(grid, param) gives (operator, label, extra JSON fields)."""
    for param in sorted(params):
        op, label, extra = build(cfg.grid, param)
        sink.emit({**norm_certificate(op, cfg.point, restarts=cfg.restarts,
                                      seed=cfg.seed, label=label),
                   **extra, "predicted": float(param) ** exponent})
        # the next build must not run while this operator's rows are held
        del op


def _run_proj_scaling(cfg, sink):
    def build(grid, k):
        op = operator_from_kernel(projector_kernel(cfg.sphere, k), grid)
        return op, f"H_{k}", {"k": k}

    exp_proj, _ = predicted_exponents(cfg.n, cfg.sigma)
    _sweep(cfg, sink, cfg.ks, build, exp_proj)


def _run_resolvent_scaling(cfg, sink):
    def build(grid, lam):
        result = resolvent_kernel(cfg.sphere, ResolventParams(lam, cfg.mu))
        return (operator_from_kernel(result.kernel, grid),
                f"R_zeta lam={lam} mu={cfg.mu}",
                {"lambda": lam, "mu": cfg.mu, "kmax": result.kmax,
                 "tail_ratio": result.tail_ratio})

    _, exp_res = predicted_exponents(cfg.n, cfg.sigma)
    _sweep(cfg, sink, cfg.lambdas, build, exp_res)


def _run_dyadic_certify(cfg, sink):
    for k in sorted(cfg.ks):
        fit = piece_norm_slopes(k, cfg.sigma, cfg.grid, restarts=cfg.restarts,
                                seed=cfg.seed)
        data = interp_from_fit(fit)
        h_k = operator_from_kernel(projector_kernel(cfg.sphere, k), cfg.grid)
        report = certify_restricted_weak(h_k, data)
        sink.emit({
            "k": k, "sigma": cfg.sigma,
            "growth_endpoint": [fit.growth.x, fit.growth.y],
            "decay_endpoint": [fit.decay.x, fit.decay.y],
            "target": [data.target.x, data.target.y],
            "m1": data.m_growth, "m2": data.m_decay,
            "beta1": data.beta_growth, "beta2": data.beta_decay,
            "slope_growth": fit.slope_growth, "slope_decay": fit.slope_decay,
            "residual_growth": fit.residual_growth,
            "residual_decay": fit.residual_decay,
            "theta": data.theta, "c_obs": report["c_obs"],
            # the attaining set's report; the key predates it
            "caps": [report],
            "hypothesis_violations": fit.violations(),
        })


def _run_envelope(cfg, sink):
    for k in sorted(cfg.ks):
        env = envelope_check(cfg.sphere, k)
        sink.emit({"k": k, "c_flat": env.c_flat, "c_osc": env.c_osc})


def _run_multiplier_check(cfg, sink):
    for lam in sorted(cfg.lambdas):
        params = ResolventParams(lam, cfg.mu)
        taus = np.unique(np.round(np.linspace(1.0, 2.0 * lam, 5)))
        for tau in taus:
            closed = resolvent_multiplier(params, float(tau))
            numeric = multiplier_from_integral(params, float(tau))
            rel = abs(abs(numeric) - abs(closed)) / abs(closed)
            sink.emit({"lambda": lam, "mu": cfg.mu, "tau": float(tau),
                       "abs_closed": abs(closed),
                       "abs_integral": abs(numeric), "rel_err": rel})


def _run_exponent_map(cfg, sink):
    named = dict(special_points(cfg.n))
    p_pt, q_pt = stein_point(cfg.n, cfg.sigma)
    e_pt, e_dual = segment_endpoints(cfg.n, cfg.sigma)
    named.update({"P": p_pt, "Q": q_pt, "E": e_pt, "E*": e_dual})
    for name, pt in named.items():
        sink.emit({"name": name, "x": pt.x, "y": pt.y})


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def _float_list(text):
    return [float(v) for v in text.split(",") if v]


def _real(text):
    """Plain decimal or a fraction like 2/3, so range endpoints stay exact;
    a zero denominator is a ValueError, which argparse reports with exit 2."""
    if "/" in text:
        num, den = text.split("/")
        if float(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return float(num) / float(den)
    return float(text)


# argparse keywords of every flag, by name
_FLAGS = {
    "n": {"type": int, "default": 3},
    "sigma": {"type": _real, "help": "decimal or fraction, e.g. 3/5"},
    "r": {"type": _real, "help": "defaults to the admissible midpoint"},
    "k": {"type": _int_list,
          "help": "comma-separated degree list, e.g. 4,8,16,32"},
    "lambda": {"type": _float_list,
               "help": "comma-separated spectral parameters"},
    "mu": {"type": float, "default": 1.0},
    "grid-points": {"type": int, "help": "defaults to 4*max_degree+16"},
    "restarts": {"type": int, "default": 8},
    "cache-dir": {"help": "directory for cached quadrature grids"},
    "seed": {"type": int, "default": 1},
    "out": {"required": True,
            "help": "CSV path; the JSON summary lands next to it"},
}

_Command = namedtuple("_Command", "run header needs takes")
_SWEEP = ("n", "grid-points", "restarts", "cache-dir")
_BOUNDS = ("r", "s", "lower", "upper", "predicted")

# each command's runner, CSV header, the flags it needs (no default; Config
# checks them) and the optional flags it reads; all also take --seed, --out
COMMANDS = {
    "proj-scaling": _Command(_run_proj_scaling, ("k",) + _BOUNDS,
                             ("sigma", "k"), ("r",) + _SWEEP),
    "resolvent-scaling": _Command(_run_resolvent_scaling,
                                  ("lambda",) + _BOUNDS,
                                  ("sigma", "lambda"), ("r", "mu") + _SWEEP),
    "dyadic-certify": _Command(_run_dyadic_certify,
                               ("k", "slope_growth", "slope_decay", "theta",
                                "m1", "m2", "c_obs"),
                               ("sigma", "k"), _SWEEP),
    "envelope": _Command(_run_envelope,
                         ("k", "c_flat", "c_osc"),
                         ("k",), ("n",)),
    "multiplier-check": _Command(_run_multiplier_check,
                                 ("lambda", "mu", "tau", "abs_closed",
                                  "abs_integral", "rel_err"),
                                 ("lambda",), ("mu",)),
    "exponent-map": _Command(_run_exponent_map, ("name", "x", "y"),
                             ("sigma",), ("n",)),
}


class Config:
    """One run's settings, checked before the CSV opens; None if not taken."""

    def __init__(self, args):
        self.command = args.command
        command = COMMANDS[self.command]
        flags = vars(args)
        for flag in command.needs:
            if flags[flag] in (None, []):
                raise ValueError(f"{self.command} requires --{flag}")
        self.n = flags.get("n")
        self.sigma = flags.get("sigma")
        self.r = flags.get("r")
        self.ks = flags.get("k")
        self.lambdas = flags.get("lambda")
        self.mu = flags.get("mu")
        self.grid_points = flags.get("grid_points")
        self.restarts = flags.get("restarts")
        self.seed = args.seed
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        self.out = Path(args.out)
        self.cache_dir = flags.get("cache_dir")
        # the SciPy version that built this run's grid; None until one does
        self.scipy = None
        # a sweep's grid, set by `main` before the CSV opens
        self.grid = None
        self.sphere = SphereSpec(self.n) if self.n is not None else None
        if self.sigma is not None:
            check_sigma(self.n, self.sigma)
        if self.command == "exponent-map":
            # the endpoint E leaves the triangle at n = 2 for sigma > 3/4
            segment_endpoints(self.n, self.sigma)
        for flag, values in (("k", self.ks), ("lambda", self.lambdas)):
            if values is not None and len(set(values)) < len(values):
                raise ValueError(f"{self.command} lists a --{flag} value "
                                 f"twice: {values}")
        if self.ks is not None and min(self.ks) < 1:
            raise ValueError(f"{self.command} needs degrees k >= 1, "
                             f"got {self.ks}")
        for lam in self.lambdas or ():
            # lam >= 1 and |mu| >= 1, as the runners will need
            ResolventParams(lam, self.mu)
        if self.command == "dyadic-certify" and self.n == 2:
            raise ValueError(
                "dyadic-certify needs n >= 3: at n = 2 the points P and Q "
                "coincide at sigma = 1, and at sigma = 2/3 the P-side piece "
                "norms grow with j, so the decay hypothesis fails")
        if self.command == "dyadic-certify":
            least = least_fit_degree(self.n)
            if min(self.ks) < least:
                raise ValueError(
                    f"dyadic-certify needs degrees k >= {least} at "
                    f"n = {self.n}, which leave two dyadic pieces to fit")
        # the band: the largest degree a sweep's grid must integrate exactly
        self.band = None
        if "grid-points" in command.takes:
            self.band = (max(self.ks) if self.ks is not None else
                         max(default_degree_cutoff(lam, self.mu, self.n)
                             for lam in self.lambdas))
            if self.grid_points is None:
                self.grid_points = 4 * self.band + 16
            if self.grid_points < 2 * self.band + 1:
                raise ValueError(
                    f"--grid-points {self.grid_points} cannot carry degree "
                    f"{self.band}; need at least {2 * self.band + 1}")
            if self.restarts < 1:
                raise ValueError(
                    f"--restarts must be >= 1, got {self.restarts}")
        self.point = None
        if "r" in command.takes:
            if self.r is None:
                self.r = default_r(self.n, self.sigma)
            # 1/s = 1/r - sigma; 1/s = 0 is s = inf.  ExponentPoint rejects
            # pairs outside 0 <= 1/s <= 1/r <= 1 with a ValueError
            self.point = ExponentPoint(1.0 / self.r, 1.0 / self.r - self.sigma)
            ok, reason = admissible(self.n, self.r, self.point.s)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zonalab",
        description="Norm experiments for zonal spectral projectors and "
                    "resolvents on S^n.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # no prefix matching: dyadic-certify --r must not mean --restarts
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in command.needs + command.takes + ("seed", "out"):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = Config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        if cfg.band is not None:
            cfg.grid = _grid(cfg)
        sink = _CsvSink(cfg.out, COMMANDS[cfg.command].header)
    except (ValueError, OSError) as exc:
        # --out in a missing directory, or not writable, and a grid cache
        # that does not match its key or cannot be read or written (an
        # OSError names its path: a --cache-dir that is a file, or a cache
        # entry that is a directory): no file is written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    slope = residual = None
    try:
        COMMANDS[cfg.command].run(cfg, sink)
        # the two sweeps fit a slope; with fewer than 3 rows it is null
        if cfg.point is not None and len(sink.rows) >= 3:
            slope, _, residual = fit_slope((rec[sink.header[0]], rec["lower"])
                                           for rec in sink.rows)
    except (NumericalError, ArithmeticError) as exc:
        # an overflow (say k ** (n - 1) at a huge n) is a numerical failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # a row that cannot be written, or a value the library refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sink.close()
    wall = time.perf_counter() - t0
    summary = {
        "config": cfg.echo(),
        "rows": sink.rows,
        "slope": slope,
        "residual": residual,
        "wall_seconds": wall,
        "version": __version__,
        "env": {"python": platform.python_version(),
                "numpy": np.__version__, "zonalab": __version__,
                "scipy": cfg.scipy},
    }
    # strict JSON: an infinite value, s = inf, is null; NaN raises
    text = json.dumps(_null_inf(summary), indent=2, default=float,
                      allow_nan=False)
    cfg.out.with_suffix(".json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
