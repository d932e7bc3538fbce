"""zonalab benchmark: closed-loop CLI workloads checked against exact oracles.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload dyadic --seed 1 --seconds 30 --trace 0

--workload is dyadic, projector, resolvent, or all (each in its own process).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run.  --out FILE appends the result, with the run
environment, to a JSON-lines file; --compare BASE CHANGE prints both sides'
medians and quartiles from two such files.  The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.  NOTES.md
describes the workloads and metrics.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# OpenBLAS reads its thread count when NumPy loads: allow at most nproc
# threads before the imports below load it
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _value = os.environ.get(_var, "")
    if not _value.isdigit() or not 1 <= int(_value) <= NPROC:
        os.environ[_var] = str(NPROC)

import numpy  # noqa: E402
import scipy  # noqa: E402

import gates  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, argv  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 3

# (metric, unit, better, bound); BENCHMARK.json lists the same metrics
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.01),
    ("gap_max", "ratio", "lower", 0.05),
    ("piece_sum_err", "ratio", "lower", 0.1),
]


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def import_zonalab():
    """zonalab.cli from this checkout's src, never an installed copy."""
    if not (SRC / "zonalab" / "__init__.py").is_file():
        raise SystemExit(f"error: no zonalab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zonalab.cli
    if Path(zonalab.__file__).resolve().parent != SRC / "zonalab":
        raise SystemExit(f"error: imported zonalab from {zonalab.__file__}")
    return zonalab


def measure_setup():
    """Median wall time of a fresh interpreter importing zonalab.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import zonalab.cli"],
                       cwd=ROOT, env=src_env(), check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# run environment

def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def blas_name():
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def src_digest():
    """sha256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "zonalab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(zonalab, workload, seed):
    return {
        "workload": workload, "seed": seed, "backend": zonalab.BACKEND,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name(),
        "blas_threads": blas_threads(), "nproc": NPROC,
        "git_sha": git_sha(), "src_sha256": src_digest(),
    }


# ---------------------------------------------------------------------------
# passes

@dataclass
class Output:
    code: Optional[int]       # exit code; None if main raised
    csv: bytes
    summary: Optional[dict]   # the JSON summary, if one was written


def call_cli(cli, argv):
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return None


def run_pass(cli, specs, pass_dir, seed, tracing_context=None):
    """Run every command once; returns (wall seconds, outputs)."""
    pass_dir.mkdir(parents=True)
    argvs = [argv(spec, pass_dir / f"{i}.csv", pass_dir / "grids", seed)
             for i, spec in enumerate(specs)]
    with tracing_context or contextlib.nullcontext():
        start = time.perf_counter()
        codes = [call_cli(cli, args) for args in argvs]
        wall = time.perf_counter() - start
    outputs = []
    for i, code in enumerate(codes):
        csv_path = pass_dir / f"{i}.csv"
        json_path = csv_path.with_suffix(".json")
        outputs.append(Output(
            code, csv_path.read_bytes() if csv_path.exists() else b"",
            json.loads(json_path.read_text()) if json_path.exists() else None))
    shutil.rmtree(pass_dir)
    return wall, outputs


class Book:
    """Commands attempted and failed, checked against the gates."""

    def __init__(self, specs):
        self.specs = specs
        self.oracle = gates.Oracle()
        self.attempted = 0
        self.failed = 0

    def check(self, outputs, reference):
        for spec, output, ref in zip(self.specs, outputs, reference):
            self.attempted += 1
            problems = gates.check(spec, output, ref, self.oracle)
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"gate failed: {spec['command']}: {problem}",
                          file=sys.stderr)


def capture_pieces():
    """Patch DyadicPiece.operator to keep every piece matrix it builds,
    keyed (n, k) -> {j: (grid, matrix)}."""
    pieces = defaultdict(dict)

    def wrap(_, build):
        def capture(piece, *args, **kwargs):
            op = build(piece, *args, **kwargs)
            pieces[piece.grid.sphere.n, piece.base][piece.j] = (piece.grid,
                                                                 op.matrix)
            return op
        return capture

    span = [s for s in tracing.SPANS if s[0] == "dyadic.piece_operator"]
    return pieces, tracing.patched(wrap, span)


def run_workload(name, seed, seconds, trace):
    """Warm up, then run passes for `seconds`; returns (result, env)."""
    zonalab = import_zonalab()
    cli = zonalab.cli
    setup_s = measure_setup()
    specs = WORKLOADS[name]["commands"]
    cli_seed = seed % 2 ** 32
    book = Book(specs)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    try:
        # the untimed warm-up pass writes the reference CSVs and supplies
        # the dyadic piece matrices for piece_sum_err
        pieces, capture = capture_pieces()
        step_start = time.perf_counter()
        _, warm = run_pass(cli, specs, work / "warmup", cli_seed, capture)
        reference = [out.csv for out in warm]
        book.check(warm, reference)
        step = time.perf_counter() - step_start
        piece_sum_err = gates.piece_sum_error(pieces)
        del pieces
        untraced, traced, layers, gaps = [], [], [], []
        start = time.perf_counter()
        # a pass starts only if it should end by the deadline, judged by the
        # last pass and its gates; trace mode alternates untraced and traced
        # passes, from untraced, and runs at least one of each
        while (not untraced or (trace and not traced)
               or time.perf_counter() - start + step <= seconds):
            step_start = time.perf_counter()
            tracer = (tracing.Tracer()
                      if trace and len(untraced) > len(traced) else None)
            context = tracing.patched(tracer.wrap) if tracer else None
            wall, outputs = run_pass(cli, specs,
                                     work / f"pass{len(untraced) + len(traced)}",
                                     cli_seed, context)
            book.check(outputs, reference)
            if tracer:
                traced.append(wall)
                layers.append(tracer.metrics())
            else:
                untraced.append(wall)
                gaps.append(max((g for spec, out in zip(specs, outputs)
                                 for g in gates.certificate_gaps(spec, out.csv)),
                                default=1.0))
            step = time.perf_counter() - step_start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORK.rmdir()
    if trace:
        metrics = {m: statistics.median(layer[m] for layer in layers)
                   for m in layers[0]}
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"]
                                          / metrics["trace.untraced_wall_s"]
                                          - 1.0)
        units = {m: unit for m, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (book.attempted - book.failed) / book.attempted,
            "gap_max": statistics.median(gaps),
            "piece_sum_err": piece_sum_err,
        }
        units = {m: unit for m, unit, _, _ in END_TO_END}
    result = {
        "correct": book.failed == 0, "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }
    env = environment(zonalab, name, seed)
    env["pass_walls"] = {"untraced": untraced, "traced": traced}
    return result, env


def print_metrics(prefix, result):
    for metric, entry in result["metrics"].items():
        print(f"{prefix}{metric} = {entry['value']:.6g} {entry['unit']}")


# ---------------------------------------------------------------------------
# all workloads, and the comparison of two result files

def run_all(args):
    """Each workload in its own process, so peak_rss_mb is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited "
                             f"{proc.returncode}")
        *lines, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        print_metrics(f"{name} ", result)
        print(f"{name} " + next(ln for ln in lines if ln.startswith("env ")))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def _quartiles(values):
    """(q1, median, q3); statistics.quantiles needs two values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(base_path, change_path):
    """Per workload and metric: each side's median [q1, q3] and the ratio
    change/base of the medians."""
    sides = []
    for path in (base_path, change_path):
        values = defaultdict(list)
        units = {}
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                for metric, entry in record["result"]["metrics"].items():
                    values[record["workload"], metric].append(entry["value"])
                    units[metric] = entry["unit"]
        sides.append(values)
    base, change = sides
    print(f"{'workload':<10} {'metric':<46} {'base median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} ratio (change/base)")
    for key in sorted(set(base) & set(change)):
        cells, medians = [], []
        for values in (base[key], change[key]):
            q1, median, q3 = _quartiles(values)
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)} "
                         f"{units[key[1]]}")
            medians.append(median)
        ratio = medians[1] / medians[0] if medians[0] else float("nan")
        print(f"{key[0]:<10} {key[1]:<46} {cells[0]:<36} {cells[1]:<36} "
              f"{ratio:.4f} (base {medians[0]:.6g})")
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]:<10} {key[1]:<46} only in "
              f"{'base' if key in base else 'change'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the result to this JSON-lines "
                                      "file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args)
    else:
        result, env = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
        print_metrics("", result)
        print(f"wall_s is the median of {len(env['pass_walls']['untraced'])} "
              "untraced passes after one warm-up pass")
        print("env " + json.dumps(env))
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": args.workload,
                                     "trace": args.trace, "env": env,
                                     "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
