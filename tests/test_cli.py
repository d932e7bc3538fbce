"""End-to-end runs of the console entry point, in process."""

import csv
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import zonalab as zl
from zonalab import cli
from zonalab.cli import build_parser, default_r, fit_slope, main
from zonalab.dyadic import DyadicPiece
from zonalab.errors import NumericalError
from zonalab.exponents import ExponentPoint

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _run(tmp_path, name, *args):
    out = tmp_path / f"{name}.csv"
    code = main(list(args) + ["--out", str(out)])
    return code, out, out.with_suffix(".json")


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestFitSlope:
    def test_exact_power_law(self):
        rows = [(x, 3.0 * x ** 1.7) for x in (2.0, 4.0, 8.0, 32.0)]
        slope, intercept, rms = fit_slope(rows)
        assert slope == pytest.approx(1.7, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert rms == pytest.approx(0.0, abs=1e-12)

    def test_constant_data(self):
        slope, _, _ = fit_slope([(2.0, 5.0), (4.0, 5.0), (8.0, 5.0)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_square_root_sequence(self):
        rows = [(4.0, 2.0), (8.0, 2.0 * math.sqrt(2.0)), (16.0, 4.0)]
        assert fit_slope(rows)[0] == pytest.approx(0.5, abs=1e-12)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            fit_slope([(1.0, 1.0), (2.0, 2.0)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_slope([(1.0, 1.0), (2.0, -2.0), (3.0, 3.0)])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            fit_slope([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])


def test_default_r_midpoint():
    assert default_r(3, 2 / 3) == pytest.approx(1.2, abs=1e-12)
    for sigma in (0.5, 0.6, 2 / 3):
        r = default_r(3, sigma)
        s = 1.0 / (1.0 / r - sigma)
        ok, reason = zl.admissible(3, r, s)
        assert ok, reason


class TestExponentMap:
    def test_rows_and_values(self, tmp_path):
        code, out, js = _run(tmp_path, "map", "exponent-map", "--sigma", "3/5")
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["name", "x", "y"]
        table = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        assert set(table) == {"A", "B", "C", "D", "P", "Q", "E", "E*"}
        assert table["Q"] == (pytest.approx(0.6), 0.0)
        assert table["P"][0] == pytest.approx(11 / 15)
        assert table["E"][1] == pytest.approx(1 / 15)

    def test_fraction_and_decimal_sigma_agree(self, tmp_path):
        _, out1, _ = _run(tmp_path, "m1", "exponent-map", "--sigma", "3/5")
        _, out2, _ = _run(tmp_path, "m2", "exponent-map", "--sigma", "0.6")
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_summary(self, tmp_path):
        code, _, js = _run(tmp_path, "map", "exponent-map", "--sigma", "1/2")
        summary = json.loads(js.read_text())
        assert summary["config"]["sigma"] == pytest.approx(0.5)
        assert summary["config"]["n"] == 3
        assert summary["slope"] is None
        assert summary["version"] == zl.__version__
        assert summary["wall_seconds"] >= 0
        assert len(summary["rows"]) == 8

    def test_json_env(self, tmp_path):
        # what ran: the python, numpy and zonalab versions, in the JSON only,
        # and the SciPy that built the grid, null when the run built none
        import scipy
        code, out, js = _run(tmp_path, "map", "exponent-map", "--sigma", "1/2")
        env = json.loads(js.read_text())["env"]
        assert env == {"python": platform.python_version(),
                       "numpy": np.__version__, "zonalab": zl.__version__,
                       "scipy": None}
        assert "python" not in out.read_text()
        sweep = ("proj-scaling", "--sigma", "2/3", "--k", "2,4",
                 "--grid-points", "40", "--restarts", "1",
                 "--cache-dir", str(tmp_path / "cache"))
        built = [json.loads(_run(tmp_path, name, *sweep)[2].read_text())
                 ["env"]["scipy"] for name in ("cold", "warm")]
        assert built == [scipy.__version__, None]


class TestEnvelopeCommand:
    def test_values_match_library(self, tmp_path, sphere3):
        code, out, _ = _run(tmp_path, "env", "envelope", "--k", "8,16")
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["k", "c_flat", "c_osc"]
        for row in rows:
            env = zl.envelope_check(sphere3, int(row[0]))
            assert float(row[1]) == pytest.approx(env.c_flat, rel=1e-12)
            assert float(row[2]) == pytest.approx(env.c_osc, rel=1e-12)


class TestMultiplierCommand:
    def test_small_sweep(self, tmp_path):
        code, out, js = _run(tmp_path, "mult", "multiplier-check",
                             "--lambda", "2", "--mu", "1")
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["lambda", "mu", "tau", "abs_closed",
                          "abs_integral", "rel_err"]
        # tau draws collapse duplicates: 1,2,3,4
        assert [float(r[2]) for r in rows] == [1.0, 2.0, 3.0, 4.0]
        assert all(float(r[5]) < 1e-6 for r in rows)


class TestProjScaling:
    def test_two_degree_sweep(self, tmp_path):
        code, out, js = _run(tmp_path, "proj", "proj-scaling",
                             "--sigma", "2/3", "--k", "2,4",
                             "--grid-points", "40", "--restarts", "2")
        assert code == 0
        header, rows = _read_csv(out)
        assert header == ["k", "r", "s", "lower", "upper", "predicted"]
        assert [int(r[0]) for r in rows] == [2, 4]
        for row in rows:
            assert float(row[3]) <= float(row[4]) * (1 + 1e-12)
        summary = json.loads(js.read_text())
        # defaulted exponent pair echoed back
        assert summary["config"]["r"] == pytest.approx(1.2)
        assert summary["config"]["grid_points"] == 40
        assert summary["slope"] is None
        # the rank-one projector's lower bound is exact: no ascent step
        assert [rec["iterations"] for rec in summary["rows"]] == [0, 0]

    def test_deterministic_output(self, tmp_path):
        args = ("proj-scaling", "--sigma", "2/3", "--k", "2,4",
                "--grid-points", "40", "--restarts", "2", "--seed", "7")
        _, out1, _ = _run(tmp_path, "d1", *args)
        _, out2, _ = _run(tmp_path, "d2", *args)
        assert out1.read_bytes() == out2.read_bytes()

    def test_grid_cache_roundtrip(self, tmp_path):
        cache = tmp_path / "cache"
        args = ("proj-scaling", "--sigma", "2/3", "--k", "2,4",
                "--grid-points", "40", "--restarts", "2",
                "--cache-dir", str(cache))
        _, out1, _ = _run(tmp_path, "c1", *args)
        files = list(cache.glob("grid_*.csv"))
        assert len(files) == 1
        # second run loads the cached grid and must reproduce the bytes
        _, out2, _ = _run(tmp_path, "c2", *args)
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("damage", ["truncate", "header"])
    def test_grid_cache_must_match_its_key(self, tmp_path, capsys, damage):
        # a cached grid that is not the grid its name promises exits 2,
        # naming the file, instead of certifying on the wrong grid
        cache = tmp_path / "cache"
        args = ("proj-scaling", "--sigma", "2/3", "--k", "2,4",
                "--grid-points", "40", "--restarts", "1",
                "--cache-dir", str(cache))
        assert _run(tmp_path, "c1", *args)[0] == 0
        path, = cache.glob("grid_*.csv")
        lines = path.read_text().splitlines(keepends=True)
        if damage == "truncate":
            lines = lines[:2 + 19]
        else:
            lines[0] = lines[0].replace("kexact=4", "kexact=3")
        path.write_text("".join(lines))
        capsys.readouterr()
        # the grid is read before the CSV opens, so no file is written
        code, out, js = _run(tmp_path, "c2", *args)
        assert code == 2 and not out.exists() and not js.exists()
        assert str(path) in capsys.readouterr().err

    def test_sweep_releases_each_operator(self, grid80, sphere3):
        # the previous operator's rows are gone before the next one is built
        cfg = SimpleNamespace(point=ExponentPoint(0.8, 0.2), restarts=1,
                              seed=1, grid=grid80)
        sink = SimpleNamespace(emit=lambda record: None)
        built = []

        def build(grid, k):
            assert all(ref() is None for ref in built)
            op = zl.operator_from_kernel(zl.projector_kernel(sphere3, k),
                                         grid)
            built.append(weakref.ref(op))
            return op, f"H_{k}", {"k": k}

        cli._sweep(cfg, sink, [2, 4, 8], build, 0.0)
        assert len(built) == 3

    def test_slope_reported_for_three_rows(self, tmp_path):
        code, out, js = _run(tmp_path, "p3", "proj-scaling",
                             "--sigma", "2/3", "--k", "2,4,8",
                             "--grid-points", "48", "--restarts", "2")
        assert code == 0
        summary = json.loads(js.read_text())
        assert summary["slope"] is not None
        assert summary["residual"] >= 0


class TestDyadicCertify:
    def test_each_row_reports_one_attaining_set(self, tmp_path):
        # at n=5, k=32 no grid node lies within 1/lambda_k of the pole; the
        # attaining set still holds at least one node
        code, out, js = _run(tmp_path, "dy5", "dyadic-certify", "--n", "5",
                             "--k", "16,32", "--sigma", "0.36")
        assert code == 0
        rows = json.loads(js.read_text())["rows"]
        assert [row["k"] for row in rows] == [16, 32]
        for row in rows:
            assert math.isfinite(row["c_obs"])
            # the rms residuals of the two log2 fits
            assert row["residual_growth"] >= 0 and row["residual_decay"] >= 0
            [entry] = row["caps"]
            assert entry["mu_e"] > 0 and entry["nodes"] >= 1
            assert entry["c_obs"] == row["c_obs"]

    def test_attaining_set_rebuilds_c_obs(self, tmp_path):
        # H_k applied to the set {sign e_k >= level} has the row's weak
        # norm, and the row's m1, m2, theta and target turn it into c_obs
        code, out, js = _run(tmp_path, "dy3", "dyadic-certify",
                             "--k", "16,32", "--sigma", "3/5")
        assert code == 0
        summary = json.loads(js.read_text())
        sphere = zl.SphereSpec(3)
        grid = zl.make_grid(sphere, summary["config"]["grid_points"])
        for row in summary["rows"]:
            [entry] = row["caps"]
            e = grid.basis([row["k"]])[0]
            ind = (entry["sign"] * e >= entry["level"]).astype(float)
            assert ind.sum() == entry["nodes"]
            mu_e = grid.weights @ ind
            h_k = zl.operator_from_kernel(
                zl.projector_kernel(sphere, row["k"]), grid)
            x, y = row["target"]
            weak = zl.weak_lq(zl.ZonalFunction(grid, h_k.apply(ind)), 1 / y)
            prefactor = row["m1"] ** row["theta"] * row["m2"] ** (
                1 - row["theta"])
            assert weak == pytest.approx(entry["weak"], rel=1e-12)
            assert (weak / (prefactor * mu_e ** x)
                    == pytest.approx(row["c_obs"], rel=1e-12))

    def test_each_piece_operator_built_once(self, tmp_path, monkeypatch):
        builds = Counter()
        build = DyadicPiece.operator

        def counted(piece, *args, **kwargs):
            builds[piece.base, piece.j] += 1
            return build(piece, *args, **kwargs)

        monkeypatch.setattr(DyadicPiece, "operator", counted)
        code, _, _ = _run(tmp_path, "once", "dyadic-certify", "--n", "3",
                          "--k", "16,32", "--sigma", "3/5")
        assert code == 0
        expected = {(k, j) for k in (16, 32)
                    for j in range(zl.piece_count(3, k) + 1)}
        assert set(builds) == expected
        assert set(builds.values()) == {1}

    def test_one_restart_fits_as_eight(self, tmp_path):
        # the row witness alone reaches the P-side norms of the fitted
        # pieces at n = 3, k = 16, so one start fits the 8-start line.
        # Known gap: at n = 4, sigma = 9/20, k = 16 the witness stops at
        # 0.566 on piece j = 5, where a random start reaches 0.607, and one
        # restart fits slope_decay -0.119 against -0.0697 with 2 or 8
        runs = []
        for restarts in ("1", "8"):
            code, out, _ = _run(tmp_path, f"r{restarts}", "dyadic-certify",
                                "--n", "3", "--sigma", "3/5", "--k", "16",
                                "--restarts", restarts)
            assert code == 0
            runs.append(_read_csv(out))
        (header, one), (header8, eight) = runs
        assert header == header8 and len(one) == len(eight) == 1
        np.testing.assert_allclose(np.array(one, dtype=float),
                                   np.array(eight, dtype=float),
                                   rtol=1e-8, atol=0)


class TestFailureModes:
    def test_inadmissible_sigma(self, tmp_path, capsys):
        code, _, _ = _run(tmp_path, "bad", "proj-scaling",
                          "--sigma", "1/3", "--k", "2,4")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_explicit_r_out_of_range(self, tmp_path):
        code, _, _ = _run(tmp_path, "badr", "proj-scaling",
                          "--sigma", "3/5", "--r", "1.5", "--k", "2,4")
        assert code == 2

    def test_pair_at_s_infinity(self, tmp_path):
        # 1/s = 1/r - sigma = 0 is the admissible pair s = inf, certified
        # exactly for the rank-one projector
        code, out, js = _run(tmp_path, "sinf", "proj-scaling", "--n", "2",
                             "--sigma", "1", "--r", "1", "--k", "4,8")
        assert code == 0
        _, rows = _read_csv(out)
        assert [row[2] for row in rows] == ["inf", "inf"]
        assert all(row[3] == row[4] for row in rows)
        assert js.exists()

    @pytest.mark.parametrize("r", ["0.9", "1.2"])
    def test_pair_outside_triangle(self, tmp_path, capsys, r):
        # 1/r > 1 or 1/s < 0: rejected before the CSV opens
        code, out, js = _run(tmp_path, "tri", "proj-scaling", "--n", "2",
                             "--sigma", "1", "--r", r, "--k", "4,8")
        assert code == 2
        assert "0 <= 1/s <= 1/r <= 1" in capsys.readouterr().err
        assert not out.exists() and not js.exists()

    def test_missing_required_flags(self, tmp_path):
        assert _run(tmp_path, "nok", "proj-scaling", "--sigma", "3/5")[0] == 2
        assert _run(tmp_path, "nos", "dyadic-certify", "--k", "8")[0] == 2
        assert _run(tmp_path, "nol", "multiplier-check")[0] == 2

    def test_numerical_failure_keeps_partial_csv(self, tmp_path, capsys,
                                                 monkeypatch):
        # the second degree fails inside the run, after the first one's row
        # was written (a degree too low to fit exits 2 before the CSV opens)
        slopes = cli.piece_norm_slopes

        def failing(k, *args, **kwargs):
            if k == 32:
                raise NumericalError("vanishing piece norm; cannot fit slopes")
            return slopes(k, *args, **kwargs)

        monkeypatch.setattr(cli, "piece_norm_slopes", failing)
        code, out, js = _run(tmp_path, "num", "dyadic-certify",
                             "--sigma", "3/5", "--k", "16,32")
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        header, rows = _read_csv(out)
        assert header[0] == "k" and [row[0] for row in rows] == ["16"]
        assert not js.exists()

    def test_overflow_is_numerical_failure(self, tmp_path, capsys):
        # k ** (n - 1) overflows a float at k = 16, n = 260, after the rows
        # of k = 4 and 8 are written
        code, out, js = _run(tmp_path, "ovf", "envelope", "--n", "260",
                             "--k", "4,8,16")
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        header, rows = _read_csv(out)
        assert header[0] == "k" and [row[0] for row in rows] == ["4", "8"]
        assert not js.exists()

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_negative_seed_rejected_before_csv(self, tmp_path, capsys,
                                               command):
        args = {"sigma": ["--sigma", "3/5"], "k": ["--k", "16"],
                "lambda": ["--lambda", "8"]}
        argv = [command, "--seed", "-1"]
        for flag in cli.COMMANDS[command].needs:
            argv += args[flag]
        code, out, js = _run(tmp_path, "seed", *argv)
        assert code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists() and not js.exists()

    def test_out_in_missing_directory(self, tmp_path, capsys):
        # an unwritable --out exits 2 before any file is written
        out = tmp_path / "missing" / "run.csv"
        code = main(["envelope", "--k", "4", "--out", str(out)])
        assert code == 2
        assert str(out) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_is_a_file(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.write_text("not a directory\n")
        code, out, js = _run(tmp_path, "cf", "proj-scaling", "--sigma",
                             "2/3", "--k", "2,4", "--grid-points", "40",
                             "--cache-dir", str(cache))
        assert code == 2 and not out.exists() and not js.exists()
        assert str(cache) in capsys.readouterr().err

    def test_cache_entry_is_a_directory(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ("proj-scaling", "--sigma", "2/3", "--k", "2,4",
                "--grid-points", "40", "--restarts", "1",
                "--cache-dir", str(cache))
        assert _run(tmp_path, "c1", *args)[0] == 0
        path, = cache.glob("grid_*.csv")
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        # the grid is read before the CSV opens, so no file is written
        code, out, js = _run(tmp_path, "c2", *args)
        assert code == 2 and not out.exists() and not js.exists()
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("n,sigma,k", [("3", "3/5", "5"),
                                           ("4", "9/20", "4")])
    def test_wrong_sign_slope_is_numerical_failure(self, tmp_path, capsys,
                                                   n, sigma, k):
        # the lowest degrees that Config admits fit a decay-side slope
        # above zero; that is found after the CSV opens
        code, out, js = _run(tmp_path, "sgn", "dyadic-certify", "--n", n,
                             "--sigma", sigma, "--k", k)
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "is not negative" in err
        header, rows = _read_csv(out)
        assert header[0] == "k" and rows == []
        assert not js.exists()


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_json_is_strict_at_s_infinity(tmp_path):
    # the CSV keeps inf; the JSON records s = inf as null
    code, out, js = _run(tmp_path, "sinf", "proj-scaling", "--n", "2",
                         "--sigma", "1", "--r", "1", "--k", "4,8")
    assert code == 0
    rows = _strict_json(js.read_text())["rows"]
    assert [row["s"] for row in rows] == [None, None]
    assert [row["r"] for row in rows] == [1.0, 1.0]


@pytest.mark.parametrize("argv", [
    ("proj-scaling", "--n", "2", "--sigma", "1", "--r", "1", "--k", "4,8"),
    ("resolvent-scaling", "--sigma", "2/3", "--lambda", "2,3",
     "--restarts", "2"),
    ("dyadic-certify", "--sigma", "3/5", "--k", "16"),
    ("envelope", "--k", "8,16"),
    ("multiplier-check", "--lambda", "2"),
    ("exponent-map", "--sigma", "3/5"),
], ids=lambda argv: argv[0])
def test_csv_row_is_json_row_projected(tmp_path, argv):
    # every CSV column is a key of the row's JSON record, printed by _fmt;
    # a JSON null is s = inf, which the CSV prints as inf
    code, out, js = _run(tmp_path, "rec", *argv)
    assert code == 0
    header, rows = _read_csv(out)
    assert tuple(header) == cli.COMMANDS[argv[0]].header
    records = _strict_json(js.read_text())["rows"]
    assert len(records) == len(rows) > 0
    for row, rec in zip(rows, records):
        assert row == [cli._fmt(math.inf if rec[col] is None else rec[col])
                       for col in header]


class TestRejectedBeforeCsv:
    """Bad sigma, n, degrees and spectral parameters exit 2 from Config: no
    CSV and no JSON is written."""

    @pytest.mark.parametrize("argv", [
        ("exponent-map", "--sigma", "0.9"),
        ("exponent-map", "--n", "2", "--sigma", "0.6"),
        ("dyadic-certify", "--sigma", "0.9", "--k", "16"),
        ("dyadic-certify", "--sigma", "0.3", "--k", "16"),
        ("proj-scaling", "--sigma", "0.9", "--r", "1.2", "--k", "2,4"),
        ("resolvent-scaling", "--sigma", "0.3", "--lambda", "4"),
    ], ids=["map-above", "map-below-n2", "dyadic-above", "dyadic-below",
            "proj-above", "resolvent-below"])
    def test_sigma_outside_range(self, tmp_path, capsys, argv):
        code, out, js = _run(tmp_path, "sig", *argv)
        assert code == 2
        assert "outside [2/(n+1), 2/n]" in capsys.readouterr().err
        assert not out.exists() and not js.exists()

    @pytest.mark.parametrize("sigma", ["1", "2/3"])
    def test_dyadic_at_n2(self, tmp_path, capsys, sigma):
        code, out, js = _run(tmp_path, "dy2", "dyadic-certify", "--n", "2",
                             "--sigma", sigma, "--k", "16,32")
        assert code == 2
        err = capsys.readouterr().err
        assert "dyadic-certify needs n >= 3" in err
        assert "P and Q coincide" in err and "grow with j" in err
        assert not out.exists() and not js.exists()

    @pytest.mark.parametrize("argv", [
        ("envelope", "--n", "1", "--k", "8"),
        ("exponent-map", "--n", "1", "--sigma", "1"),
    ], ids=["envelope", "exponent-map"])
    def test_dimension_below_two(self, tmp_path, capsys, argv):
        code, out, js = _run(tmp_path, "n1", *argv)
        assert code == 2
        assert "sphere dimension must be >= 2" in capsys.readouterr().err
        assert not out.exists() and not js.exists()

    @pytest.mark.parametrize("argv,message", [
        (("envelope", "--k", "0"), "needs degrees k >= 1"),
        (("proj-scaling", "--sigma", "3/5", "--k", "0,4,8"),
         "needs degrees k >= 1"),
        (("dyadic-certify", "--sigma", "3/5", "--k", "0,16"),
         "needs degrees k >= 1"),
        (("multiplier-check", "--lambda", "0"), "need lam >= 1"),
        (("resolvent-scaling", "--sigma", "3/5", "--lambda", "8",
          "--mu", "0.5"), "need |mu| >= 1"),
    ], ids=["envelope-k0", "proj-k0", "dyadic-k0", "multiplier-lambda0",
            "resolvent-mu"])
    def test_degrees_and_spectral_parameters(self, tmp_path, capsys, argv,
                                             message):
        code, out, js = _run(tmp_path, "kl", *argv)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not js.exists()

    @pytest.mark.parametrize("argv", [
        ("resolvent-scaling", "--lambda", "inf", "--sigma", "2/3"),
        ("multiplier-check", "--lambda", "inf"),
        ("multiplier-check", "--lambda", "8", "--mu", "nan"),
    ], ids=["resolvent-lambda-inf", "multiplier-lambda-inf",
            "multiplier-mu-nan"])
    def test_nonfinite_spectral_parameter(self, tmp_path, capsys, argv):
        code, out, js = _run(tmp_path, "nf", *argv)
        assert code == 2
        assert "need finite lam and mu" in capsys.readouterr().err
        assert not out.exists() and not js.exists()

    @pytest.mark.parametrize("argv,flag", [
        (("exponent-map", "--sigma", "1/0"), "sigma"),
        (("proj-scaling", "--sigma", "3/5", "--k", "4,8", "--r", "1/0"), "r"),
    ], ids=["sigma", "r"])
    def test_zero_denominator(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            _run(tmp_path, "zd", *argv)
        assert exc.value.code == 2
        assert (f"argument --{flag}: invalid _real value: '1/0'"
                in capsys.readouterr().err)
        assert not (tmp_path / "zd.csv").exists()

    @pytest.mark.parametrize("argv,flag", [
        (("proj-scaling", "--sigma", "3/5", "--k", "8,8,8"), "k"),
        (("dyadic-certify", "--sigma", "3/5", "--k", "16,32,16"), "k"),
        (("envelope", "--k", "8,16,8"), "k"),
        (("multiplier-check", "--lambda", "8,8"), "lambda"),
        (("resolvent-scaling", "--sigma", "3/5", "--lambda", "8,16,8.0"),
         "lambda"),
    ], ids=["proj", "dyadic", "envelope", "multiplier", "resolvent"])
    def test_repeated_value(self, tmp_path, capsys, argv, flag):
        # a repeated degree or spectral parameter would write the same row
        # twice, and a sweep of one repeated value cannot fit its slope
        code, out, js = _run(tmp_path, "rep", *argv)
        assert code == 2
        assert f"lists a --{flag} value twice" in capsys.readouterr().err
        assert not out.exists() and not js.exists()

    @pytest.mark.parametrize("n,sigma,k,least", [
        ("3", "3/5", "1", 5), ("3", "3/5", "2", 5), ("3", "3/5", "4", 5),
        ("3", "3/5", "4,16", 5), ("4", "9/20", "3", 4), ("5", "2/5", "3", 4),
    ])
    def test_dyadic_degree_too_low_to_fit(self, tmp_path, capsys, n, sigma,
                                          k, least):
        # the fit needs two unclipped pieces from j = ceil(log2 pi) + 1 on
        code, out, js = _run(tmp_path, "dyk", "dyadic-certify", "--n", n,
                             "--sigma", sigma, "--k", k)
        assert code == 2
        assert (f"dyadic-certify needs degrees k >= {least} at n = {n}"
                in capsys.readouterr().err)
        assert not out.exists() and not js.exists()

    @pytest.mark.parametrize("sigma", ["0.8", "1"])
    def test_exponent_map_endpoint_outside_triangle(self, tmp_path, capsys,
                                                    sigma):
        # at n = 2 the endpoint E of segment_endpoints has 1/s < 0 for
        # sigma > 3/4
        code, out, js = _run(tmp_path, "map2", "exponent-map", "--n", "2",
                             "--sigma", sigma)
        assert code == 2
        assert "outside 0 <= 1/s <= 1/r <= 1" in capsys.readouterr().err
        assert not out.exists() and not js.exists()

    @pytest.mark.parametrize("argv,message", [
        (("proj-scaling", "--sigma", "3/5", "--k", "4,8", "--grid-points",
          "5"), "--grid-points 5 cannot carry degree 8; need at least 17"),
        (("resolvent-scaling", "--sigma", "3/5", "--lambda", "8",
          "--restarts", "0"), "--restarts must be >= 1, got 0"),
        # the band of dyadic-certify is the largest degree, 16
        (("dyadic-certify", "--sigma", "3/5", "--k", "16", "--grid-points",
          "20"), "--grid-points 20 cannot carry degree 16; need at least 33"),
        # 0 is a grid size like any other, not a request for the default
        (("proj-scaling", "--sigma", "3/5", "--k", "4", "--grid-points",
          "0"), "--grid-points 0 cannot carry degree 4; need at least 9"),
    ], ids=["proj-points", "resolvent-restarts", "dyadic-points",
            "proj-points-zero"])
    def test_grid_points_and_restarts(self, tmp_path, capsys, argv, message):
        code, out, js = _run(tmp_path, "gr", *argv)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not js.exists()

    def test_resolvent_band_is_largest_cutoff(self, tmp_path, capsys):
        # lambda = 8 needs degree default_degree_cutoff(8) = 48, so 96
        # points are too few although 4 * 8 + 16 would suffice for lambda
        code, out, js = _run(tmp_path, "rb", "resolvent-scaling", "--sigma",
                             "3/5", "--lambda", "8", "--grid-points", "96")
        assert code == 2
        assert "cannot carry degree 48; need at least 97" in (
            capsys.readouterr().err)
        assert not out.exists() and not js.exists()

    @pytest.mark.parametrize("mu", [1.5, 4.0])
    def test_cutoff_grows_with_mu(self, tmp_path, mu):
        # at lambda = 16 the mu = 1 cutoff, 64, leaves a discarded sup above
        # 1e-2 of the peak for these mu; the cutoff at this mu does not
        kmax = zl.default_degree_cutoff(16, mu)
        assert kmax > zl.default_degree_cutoff(16) == 64
        code, out, js = _run(tmp_path, "mu", "resolvent-scaling", "--sigma",
                             "3/5", "--lambda", "16", "--mu", str(mu),
                             "--restarts", "2")
        assert code == 0
        summary = json.loads(js.read_text())
        row, = summary["rows"]
        assert row["kmax"] == kmax and row["tail_ratio"] <= 1e-2
        assert summary["config"]["grid_points"] == 4 * kmax + 16


@pytest.mark.parametrize("argv", [
    ("--sigma", "3/5", "--lambda", "13.5"),
    ("--n", "2", "--sigma", "3/4", "--lambda", "13"),
    ("--sigma", "3/5", "--lambda", "8", "--mu", "12", "--restarts", "2"),
], ids=["lam-13.5", "n2-lam-13", "mu-above-lam"])
def test_default_cutoff_passes_the_gate(tmp_path, argv):
    # each exited 3 at the tail gate while the cutoff was
    # max(ceil(4 lam), ceil(lam) + 40) or sqrt(lam^2 + 200 lam |mu|),
    # whichever was larger
    code, out, js = _run(tmp_path, "gate", "resolvent-scaling", *argv)
    assert code == 0
    row, = json.loads(js.read_text())["rows"]
    assert row["tail_ratio"] <= 1e-2


# every command's flags besides --seed and --out, as the README lists them:
# with those two, 39 (command, flag) pairs; any other flag exits 2
_READS = {
    "proj-scaling": {"n", "sigma", "r", "k", "grid-points", "restarts",
                     "cache-dir"},
    "resolvent-scaling": {"n", "sigma", "r", "lambda", "mu", "grid-points",
                          "restarts", "cache-dir"},
    "dyadic-certify": {"n", "sigma", "k", "grid-points", "restarts",
                       "cache-dir"},
    "envelope": {"n", "k"},
    "multiplier-check": {"lambda", "mu"},
    "exponent-map": {"n", "sigma"},
}
_ALL_FLAGS = sorted(set().union(*_READS.values()))
# a command line each command accepts; "1" parses as a value of any flag
_VALID = {
    "proj-scaling": ["--sigma", "3/5", "--k", "4,8"],
    "resolvent-scaling": ["--sigma", "2/3", "--lambda", "8"],
    "dyadic-certify": ["--sigma", "3/5", "--k", "16"],
    "envelope": ["--k", "8"],
    "multiplier-check": ["--lambda", "8"],
    "exponent-map": ["--sigma", "3/5"],
}


def _argv(command, *extra):
    return [command] + _VALID[command] + list(extra) + ["--out", "x.csv"]


class TestFlagTable:
    @pytest.mark.parametrize("command,flag", [
        (c, f) for c in _READS for f in sorted(_READS[c]) + ["seed"]])
    def test_flag_read(self, command, flag):
        args = build_parser().parse_args(_argv(command, f"--{flag}", "1"))
        assert args.command == command
        assert vars(args)[flag.replace("-", "_")] in (1, [1], "1")

    @pytest.mark.parametrize("command,flag", [
        (c, f) for c in _READS for f in _ALL_FLAGS if f not in _READS[c]])
    def test_flag_not_read_exits_2(self, capsys, command, flag):
        build_parser().parse_args(_argv(command))
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(_argv(command, f"--{flag}", "1"))
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    def test_config_echoes_null_for_flags_not_taken(self, tmp_path):
        code, _, js = _run(tmp_path, "mult", "multiplier-check",
                           "--lambda", "2")
        assert code == 0
        config = json.loads(js.read_text())["config"]
        assert config["mu"] == 1.0 and config["seed"] == 1
        for key in ("n", "sigma", "r", "k", "grid_points", "restarts",
                    "cache_dir"):
            assert config[key] is None


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
_WORKLOAD_SPECS = [
    (f"{name}-{i}", spec)
    for name, workload in workloads.WORKLOADS.items()
    for i, spec in enumerate(workload["commands"])]


@pytest.mark.parametrize("spec", [spec for _, spec in _WORKLOAD_SPECS],
                         ids=[label for label, _ in _WORKLOAD_SPECS])
def test_benchmark_command_lines_parse(tmp_path, spec):
    # the benchmark passes --seed to every command, and --cache-dir to the
    # sweeps that share a grid; a narrowed flag set must still take them
    argv = workloads.argv(spec, tmp_path / "run.csv", tmp_path / "cache", 7)
    args = build_parser().parse_args(argv)
    assert args.command == spec["command"] and args.seed == 7


def _child_env():
    """Environment in which a child imports the zonalab this test imported,
    installed or not."""
    src = str(Path(zl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_smoke(tmp_path):
    out = tmp_path / "smoke.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "zonalab.cli", "exponent-map",
         "--sigma", "1/2", "--out", str(out)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert out.exists() and out.with_suffix(".json").exists()


# a fresh interpreter runs commands through main and reports, after each
# stage, whether SciPy has been imported
_SCIPY_PROBE = """
import sys
import zonalab, zonalab.cli
out, cache = sys.argv[1], sys.argv[2]
sweep = ["proj-scaling", "--sigma", "2/3", "--k", "2,4", "--grid-points",
         "40", "--restarts", "1"]
no_grid = [["envelope", "--k", "4,8"], ["multiplier-check", "--lambda", "8"],
           ["exponent-map", "--sigma", "1/2"],
           ["dyadic-certify", "--n", "2", "--sigma", "1", "--k", "8"],
           sweep + ["--cache-dir", cache]]
codes = [zonalab.cli.main(argv + ["--out", out]) for argv in no_grid]
print(codes, "scipy" in sys.modules)
print([zonalab.cli.main(sweep + ["--out", out])], "scipy" in sys.modules)
"""


def test_scipy_loads_only_to_build_a_grid(tmp_path):
    # commands that build no grid, a sweep on a warm cache and an argument
    # error never import SciPy; building a grid does
    cache = tmp_path / "cache"
    assert _run(tmp_path, "warm", "proj-scaling", "--sigma", "2/3", "--k",
                "2,4", "--grid-points", "40", "--restarts", "1",
                "--cache-dir", str(cache))[0] == 0
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path / "probe.csv"),
         str(cache)], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0, 2, 0] False",
                                        "[0] True"]


# a fresh interpreter reports whether numpy.polynomial has been imported
# after the CLI's import, after an envelope run and after the wave integrals
_POLYNOMIAL_PROBE = """
import sys
import zonalab.cli
out = sys.argv[1]
seen = ["numpy.polynomial" in sys.modules]
for argv in (["envelope", "--k", "4,8"], ["multiplier-check", "--lambda",
                                          "8"]):
    assert zonalab.cli.main(argv + ["--out", out]) == 0
    seen.append("numpy.polynomial" in sys.modules)
print(seen)
"""


def test_polynomial_loads_only_for_wave_integrals(tmp_path):
    # the panel rule of the wave integrals is built on first use, so the
    # CLI's import and every other command leave numpy.polynomial unloaded
    proc = subprocess.run(
        [sys.executable, "-c", _POLYNOMIAL_PROBE, str(tmp_path / "p.csv")],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[False, False, True]"]
