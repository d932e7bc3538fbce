"""Spans around the calls into zonalab's layers, recorded from outside.

Callers bind library functions with ``from .x import y``, so a traced function
is replaced under every name any zonalab module holds it by (for example both
``zonalab.specfun.zonal_table`` and ``zonalab.dyadic.zonal_table``); a traced
method is replaced on its class.  Spans stay in memory until the pass ends.
A span's self time is its duration minus the durations of its child spans.
No layer queues or waits, so no wait time is recorded.
"""

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

# (span name, module, attribute); a dotted attribute is a method
SPANS = [
    ("specfun.zonal_table", "zonalab.specfun", "zonal_table"),
    ("specfun.gegenbauer", "zonalab.specfun", "gegenbauer"),
    ("core.geg_table", "zonalab._core", "geg_table"),
    ("core.geg_eval", "zonalab._core", "geg_eval"),
    ("grids.make_grid", "zonalab.grids", "make_grid"),
    ("grids.save_grid", "zonalab.grids", "save_grid"),
    ("grids.load_grid", "zonalab.grids", "load_grid"),
    ("grids.basis", "zonalab.grids", "ZonalGrid.basis"),
    ("norms.lp_norm", "zonalab.norms", "lp_norm"),
    ("operators.operator_from_kernel", "zonalab.operators",
     "operator_from_kernel"),
    ("operators.azimuthal_matrix", "zonalab.operators", "azimuthal_matrix"),
    ("operators.norm_lower", "zonalab.operators", "norm_lower"),
    ("operators.norm_upper", "zonalab.operators", "norm_upper"),
    ("operators.apply", "zonalab.operators", "ZonalOperator.apply"),
    ("operators.apply_adjoint", "zonalab.operators",
     "ZonalOperator.apply_adjoint"),
    ("dyadic.dyadic_decompose", "zonalab.dyadic", "dyadic_decompose"),
    ("dyadic.piece_operator", "zonalab.dyadic", "DyadicPiece.operator"),
    ("dyadic.profile", "zonalab.dyadic", "DyadicPiece.profile"),
    ("dyadic.envelope_check", "zonalab.dyadic", "envelope_check"),
    ("interpolation.certify_restricted_weak", "zonalab.interpolation",
     "certify_restricted_weak"),
    ("resolvent.resolvent_kernel", "zonalab.resolvent", "resolvent_kernel"),
    ("resolvent.multiplier_from_integral", "zonalab.resolvent",
     "multiplier_from_integral"),
    ("cli.main", "zonalab.cli", "main"),
]

# (metric, unit, better); BENCHMARK.json lists the same metrics
PER_LAYER = [
    ("specfun.zonal_table.calls", "count", "lower"),
    ("specfun.zonal_table.self_s", "s", "lower"),
    ("specfun.zonal_table.values", "count", "lower"),
    ("specfun.gegenbauer.calls", "count", "lower"),
    ("specfun.gegenbauer.self_s", "s", "lower"),
    ("core.geg_table.self_s", "s", "lower"),
    ("core.geg_eval.self_s", "s", "lower"),
    ("grids.make_grid.self_s", "s", "lower"),
    ("grids.save_grid.self_s", "s", "lower"),
    ("grids.load_grid.self_s", "s", "lower"),
    ("grids.basis.calls", "count", "lower"),
    ("grids.basis.self_s", "s", "lower"),
    ("grids.basis.hit_ratio", "ratio", "higher"),
    ("norms.lp_norm.calls", "count", "lower"),
    ("norms.lp_norm.self_s", "s", "lower"),
    ("operators.operator_from_kernel.self_s", "s", "lower"),
    ("operators.azimuthal_matrix.calls", "count", "lower"),
    ("operators.azimuthal_matrix.self_s", "s", "lower"),
    ("operators.norm_lower.calls", "count", "lower"),
    ("operators.norm_lower.self_s", "s", "lower"),
    ("operators.ascent_steps", "count", "lower"),
    ("operators.apply.calls", "count", "lower"),
    ("operators.apply.self_s", "s", "lower"),
    ("operators.apply_adjoint.calls", "count", "lower"),
    ("operators.apply_adjoint.self_s", "s", "lower"),
    ("operators.matvec_bytes", "bytes_computed", "lower"),
    ("operators.norm_upper.self_s", "s", "lower"),
    ("dyadic.dyadic_decompose.self_s", "s", "lower"),
    ("dyadic.piece_operator.builds", "count", "lower"),
    ("dyadic.piece_operator.self_s", "s", "lower"),
    ("dyadic.piece_operator.reuse_ratio", "ratio", "higher"),
    ("dyadic.profile.points", "count", "lower"),
    ("dyadic.envelope_check.self_s", "s", "lower"),
    ("interpolation.certify_restricted_weak.calls", "count", "lower"),
    ("interpolation.certify_restricted_weak.self_s", "s", "lower"),
    ("resolvent.resolvent_kernel.self_s", "s", "lower"),
    ("resolvent.multiplier_from_integral.calls", "count", "lower"),
    ("resolvent.multiplier_from_integral.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _count_table(tracer, args, result):
    # rows x points of every Gegenbauer table computed
    tracer.counts["specfun.zonal_table.values"] += result.size


def _count_ascent(tracer, args, result):
    tracer.counts["operators.ascent_steps"] += result.iterations


def _count_matvec(tracer, args, result):
    # computed, not measured: the matrix is read once per application
    tracer.counts["operators.matvec_bytes"] += args[0].matrix.nbytes


def _count_piece(tracer, args, result):
    piece = args[0]
    tracer.pieces.add((piece.grid.sphere.n, piece.grid.points, piece.base,
                       piece.j))


def _count_profile(tracer, args, result):
    tracer.counts["dyadic.profile.points"] += len(args[1])


_COUNTERS = {
    "specfun.zonal_table": _count_table,
    "operators.norm_lower": _count_ascent,
    "operators.apply": _count_matvec,
    "operators.apply_adjoint": _count_matvec,
    "dyadic.piece_operator": _count_piece,
    "dyadic.profile": _count_profile,
}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.pieces = set()      # distinct dyadic pieces built
        self._open = []

    def wrap(self, name, fn):
        count = _COUNTERS.get(name)
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def metrics(self):
        """Per-layer metrics of the pass, without the trace.* ones."""
        child_time = [0.0] * len(self.spans)
        has_child = [False] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                has_child[parent] = True
        calls, self_s, leaves = Counter(), Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            leaves[name] += not has_child[i]
        values = {}
        for metric, _, _ in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind in ("calls", "builds"):
                values[metric] = calls[span]
            elif kind == "self_s":
                values[metric] = self_s["cli.main" if span == "cli" else span]
            elif metric in _COUNTED:
                values[metric] = self.counts[metric]
        # a basis call that computed nothing below it was served from cache
        values["grids.basis.hit_ratio"] = _ratio(leaves["grids.basis"],
                                                 calls["grids.basis"])
        values["dyadic.piece_operator.reuse_ratio"] = _ratio(
            len(self.pieces), calls["dyadic.piece_operator"])
        return {metric: values[metric] for metric, _, _ in PER_LAYER
                if metric in values}


_COUNTED = ("specfun.zonal_table.values", "operators.ascent_steps",
            "operators.matvec_bytes", "dyadic.profile.points")


def _ratio(num, den):
    return num / den if den else 0.0


def _bindings(module, attr):
    """Every (owner, name) under which zonalab holds module.attr."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls, method = attr.split(".")
        return [(getattr(owner, cls), method)]
    fn = getattr(owner, attr)
    return [(mod, name)
            for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").startswith("zonalab")
            for name, value in list(vars(mod).items()) if value is fn]


@contextlib.contextmanager
def patched(wrap, spans=SPANS):
    """Replace each listed function by wrap(span name, function), restoring
    the originals on exit."""
    saved = []
    try:
        for span, module, attr in spans:
            for owner, name in _bindings(module, attr):
                fn = vars(owner)[name]
                saved.append((owner, name, fn))
                setattr(owner, name, wrap(span, fn))
        yield
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)
