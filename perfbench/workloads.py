"""The benchmark's workloads: fixed lists of zonalab CLI commands.

One caller runs a workload's commands in order in one process, each starting
after the previous one returns (a closed loop with one client).  A pass is one
run through the list; every pass gets a fresh output directory, and the sweeps
that take a grid cache get a fresh cache directory inside it, so the first
sweep of a pass writes the cache and the second one reads it.
"""

from fractions import Fraction

# "why" is the reason the workload exists; BENCHMARK.json repeats it.
WORKLOADS = {
    "dyadic": {
        "why": "dyadic-certify at n=3 and n=4: profile route, Gegenbauer "
               "tables and azimuthal quadrature; no spectral operator, no "
               "upper bound",
        "commands": [
            {"command": "dyadic-certify", "n": 3, "k": [16, 32],
             "sigma": Fraction(3, 5)},
            {"command": "dyadic-certify", "n": 4, "k": [16, 32],
             "sigma": Fraction(9, 20)},
        ],
    },
    "projector": {
        "why": "rank-one projector sweeps on grids up to 2064 points, "
               "cache written then read, plus dense envelope evaluation; "
               "no profile route or complex arithmetic",
        "commands": [
            {"command": "proj-scaling", "k": [8, 16, 32, 64, 128, 256, 512],
             "sigma": Fraction(3, 5), "cache": True},
            {"command": "proj-scaling", "k": [8, 16, 32, 64, 128, 256, 512],
             "sigma": Fraction(2, 3), "cache": True},
            {"command": "envelope", "k": [64, 128, 256, 512, 1024]},
        ],
    },
    "resolvent": {
        "why": "complex full-rank resolvent operators with long ascents "
               "through apply_adjoint, plus wave-integral quadrature; no "
               "profile route",
        "commands": [
            {"command": "resolvent-scaling", "lambda": [8, 16, 32, 64],
             "sigma": Fraction(2, 3), "cache": True},
            {"command": "resolvent-scaling", "lambda": [8, 16, 32, 64],
             "sigma": Fraction(3, 5), "cache": True},
            {"command": "multiplier-check", "lambda": [8, 16, 32, 64, 128]},
        ],
    },
}


def _csv(values):
    return ",".join(str(v) for v in values)


def argv(spec, out, cache_dir, seed):
    """Command line for one command spec; out is its CSV path."""
    args = [spec["command"]]
    if "n" in spec:
        args += ["--n", str(spec["n"])]
    if "k" in spec:
        args += ["--k", _csv(spec["k"])]
    if "lambda" in spec:
        args += ["--lambda", _csv(spec["lambda"])]
    if "sigma" in spec:
        args += ["--sigma", str(spec["sigma"])]
    if spec.get("cache"):
        args += ["--cache-dir", str(cache_dir)]
    return args + ["--seed", str(seed), "--out", str(out)]
