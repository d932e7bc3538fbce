"""The benchmark's tracer patches zonalab functions by module and name
(perfbench/tracing.py SPANS); a rename in the library must not leave a span,
or the dyadic piece capture built on one, silently unpatched."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import zonalab as zl

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("span,module,attr", tracing.SPANS,
                         ids=[span for span, _, _ in tracing.SPANS])
def test_span_resolves(span, module, attr):
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner)
    assert tracing._bindings(module, attr), f"{span}: nothing to patch"


def test_traced_pieces_count_every_layer():
    # the spans the dyadic workload reads see one build per piece, and on
    # S^4 one azimuthal matrix per piece; a piece on S^3 is in closed form
    # and calls none; a build reads the kernel only through the spectrum or
    # the closed form, so it samples no profile points
    build = zl.DyadicPiece.operator
    for n in (3, 4):
        grid = zl.make_grid(zl.SphereSpec(n), 80, kexact=16)
        tracer = tracing.Tracer()
        with tracing.patched(tracer.wrap):
            pieces = zl.dyadic_decompose(8, grid)
            for piece in pieces:
                piece.operator()
        metrics = tracer.metrics()
        assert metrics["dyadic.piece_operator.builds"] == len(pieces)
        assert metrics["dyadic.piece_operator.reuse_ratio"] == 1.0
        assert metrics["operators.azimuthal_matrix.calls"] == (
            0 if n == 3 else len(pieces))
        assert metrics["dyadic.profile.points"] == 0
    assert zl.DyadicPiece.operator is build
