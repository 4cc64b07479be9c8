"""End-to-end tests of the experiment runner: artifacts, determinism, exit
codes, parameter echo, and the concurrency switch."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cmclab.mincut
from cmclab import (CellSet, GridGeometry, RegionMask, boundary_faces,
                    cellset_to_text, diagonal_wedge, evaluate_quanta,
                    mean_curvature_values, quadrant_grid, read_cellset,
                    shoot_leaf)
from cmclab import cli
from cmclab.cli import _BLOCK, _dec9, _echoed, build_parser, main
from cmclab.equivariant import _base_problem
from oracles import leaf_csv, svg_document
from support import (count_arc_builds, forbid_wrapping, prune_flows,
                     traced_peak)


def read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def run_cli(*args):
    return main(list(args))


def leaf_oracle(p, q, s0, r_max=None):
    """The leaf CSV text the per-row oracle writes, and its row count."""
    leaf = shoot_leaf(p, q, s0, r_max=r_max)
    resid = np.abs(mean_curvature_values(leaf))
    return leaf_csv(leaf.s, leaf.x, leaf.y, resid), len(leaf.s)


def plot_with_oracle(monkeypatch, src, svg):
    """Plot src to svg; returns the SVG's bytes and the per-point oracle's,
    formatted from the polylines, box and stroke width the CLI drew."""
    drawn = []
    real = cli._svg_document

    def spy(*args):
        drawn.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_svg_document", spy)
    assert run_cli("plot", "--input", str(src), "--output", str(svg)) == 0
    (args,) = drawn
    return svg.read_bytes(), svg_document(*args).encode()


@pytest.fixture(scope="module")
def default_leaf(tmp_path_factory):
    """The CSV of the (3,3) leaf from s0 = 1 to the default exit radius."""
    csv = tmp_path_factory.mktemp("leaf") / "leaf.csv"
    assert run_cli("leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                   "--csv", str(csv)) == 0
    return csv


class TestSpectra:
    def test_stable_cone_document(self, tmp_path):
        out = str(tmp_path)
        assert run_cli("spectra", "--p", "3", "--q", "3", "--kmax", "12",
                       "--outdir", out) == 0
        doc = json.loads(read_text(os.path.join(out, "spectra_p3_q3.json")))
        assert doc["schema_version"] == 1
        assert doc["dimension"] == 7
        assert doc["lambda1"] == -6.0
        assert doc["stable"] is True
        assert doc["gamma"] == [2.0, 3.0]
        assert doc["eigenvalues"] == sorted(doc["eigenvalues"])
        assert doc["config"]["subcommand"] == "spectra"

    def test_unstable_cone_has_no_gamma(self, tmp_path):
        out = str(tmp_path)
        assert run_cli("spectra", "--p", "1", "--q", "1", "--kmax", "8",
                       "--outdir", out) == 0
        doc = json.loads(read_text(os.path.join(out, "spectra_p1_q1.json")))
        assert doc["stable"] is False
        assert doc["gamma"] is None

    def test_rerun_is_byte_identical(self, tmp_path):
        out = str(tmp_path)
        args = ("spectra", "--p", "2", "--q", "4", "--kmax", "10",
                "--outdir", out)
        assert run_cli(*args) == 0
        first = read_text(os.path.join(out, "spectra_p2_q4.json"))
        assert run_cli(*args) == 0
        assert read_text(os.path.join(out, "spectra_p2_q4.json")) == first

    def test_invalid_multiplicity_is_config_error(self, tmp_path, capsys):
        code = run_cli("spectra", "--p", "0", "--q", "3", "--kmax", "8",
                       "--outdir", str(tmp_path))
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_kmax_over_budget_is_config_error(self, tmp_path, capsys):
        # refused before link_spectrum enumerates anything
        assert run_cli("spectra", "--p", "3", "--q", "3",
                       "--kmax", "1000000000", "--outdir", str(tmp_path)) == 2
        assert "budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestPlateau2d:
    def test_chord_row_and_cellset_roundtrip(self, tmp_path):
        out = str(tmp_path)
        assert run_cli("plateau2d", "--radius", "8", "--resolution", "20",
                       "--lambda", "0.0", "--lambda", "0.5",
                       "--outdir", out) == 0
        doc = json.loads(read_text(os.path.join(out, "plateau2d.json")))
        rows = doc["rows"]
        assert [r["lambda"] for r in rows] == [0.0, 0.5]
        assert rows[0]["filled"] is False
        assert rows[0]["contact_excess"] == 0.0
        assert rows[1]["filled"] is True
        # emitted cell sets re-read to the same bytes
        for row in rows:
            path = os.path.join(out, row["cellset"])
            assert cellset_to_text(read_cellset(path)) == read_text(path)
        # the lambda = 0 minimizer is the lower half-plane chord
        D = read_cellset(os.path.join(out, rows[0]["cellset"]))
        _X, Y = D.grid.center_mesh()
        assert np.array_equal(D.bits, Y < 9.5)

    @pytest.mark.parametrize("lam", ["1500", "-1500", "2000"])
    def test_merged_arcs_past_int32_solve_on_the_orbit_graph(
            self, tmp_path, monkeypatch, lam):
        # Summed over each mirror pair the largest arc is 3148539776 quanta
        # or more, past int32.  The orbit graph is solved by capacity
        # scaling, every graph max-flow receives fits int32, and the run
        # writes the bytes the unmerged solve writes.
        argv = ("plateau2d", "--radius", "8", "--resolution", "24",
                "--lambda", lam)
        nodes = []
        real = cmclab.mincut._flow_solve

        def spy(problem, node, m, band=None):
            nodes.append(m)
            return real(problem, node, m, band)

        def artifacts(name):
            out = tmp_path / name
            assert run_cli(*argv, "--outdir", str(out)) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        calls = forbid_wrapping(monkeypatch)
        monkeypatch.setattr(cmclab.mincut, "_flow_solve", spy)
        merged = artifacts("merged")
        assert len(calls) > 1
        # No reflection to look for: the free cells keep one node each.
        monkeypatch.setattr(cmclab.mincut, "_mirrors", lambda d: iter(()))
        assert artifacts("unmerged") == merged
        # One solve each: the orbit graph has half the unmerged nodes.
        assert len(nodes) == 2 and 2 * nodes[0] == nodes[1]

    def test_sweep_memory_peak(self, tmp_path):
        # The benchmark's sweep: radius 64, 8 lambdas from 0 to 1/16.
        # 6.13 MB while the capacities and node numbers were int64 and the
        # fold's arrays lived through max-flow, 5.09 MB while the arcs
        # between free nodes outlived the graph build, 4.50 MB since.
        argv = ["plateau2d", "--radius", "64", "--resolution", "136",
                "--outdir", str(tmp_path)]
        for k in range(8):
            argv += ["--lambda", repr(2.0 * (2.0 / 64) * k / 7)]
        rcs = []
        assert traced_peak(lambda: rcs.append(main(argv))) < 5.6
        assert rcs == [0]

    def test_sweep_builds_the_arcs_once(self, tmp_path, monkeypatch):
        # Every lambda's problem is relabeled from the first one's.
        builds = count_arc_builds(monkeypatch)
        argv = ["plateau2d", "--radius", "8", "--resolution", "24",
                "--outdir", str(tmp_path)]
        for k in range(8):
            argv += ["--lambda", repr(0.05 * k)]
        assert run_cli(*argv) == 0
        assert builds == [(24, 24)]


class TestEquivariant:
    def test_artifacts(self, tmp_path):
        out = str(tmp_path)
        assert run_cli("equivariant", "--p", "3", "--q", "3",
                       "--grid-n", "32", "--lambda", "0.0",
                       "--outdir", out) == 0
        doc = json.loads(read_text(os.path.join(out, "equivariant.json")))
        assert doc["result"]["schema_version"] == 1
        assert doc["cellset"] == "equivariant_largest.csl"
        D = read_cellset(os.path.join(out, "equivariant_largest.csl"))
        assert D.grid.dims == (32, 32)

    def test_lambda_past_int32_fills_the_obstacle_ball(self, tmp_path,
                                                       monkeypatch):
        # Each ball cell gains about 1e9 * h * 2^20 quanta, past int32 and
        # past any perimeter, so the one minimizer is the whole ball plus
        # the wedge outside it, and its energy is that set's.  Every graph
        # max-flow receives fits int32.
        calls = forbid_wrapping(monkeypatch)
        assert run_cli("equivariant", "--p", "3", "--q", "3",
                       "--grid-n", "32", "--lambda", "1e9",
                       "--outdir", str(tmp_path)) == 0
        assert len(calls) > 2    # the two stages, at least one scaled
        doc = json.loads(read_text(tmp_path / "equivariant.json"))
        D = read_cellset(tmp_path / "equivariant_largest.csl")
        g = quadrant_grid(32)
        ball = RegionMask.ball(g, (0.0, 0.0), 0.5).bits
        assert np.array_equal(D.bits, ball | diagonal_wedge(g, 3, 3).bits)
        problem, _band = _base_problem(3, 3, g, 1e9,
                                       diagonal_wedge(g, 3, 3), 0.5)
        assert doc["result"]["unique"] is True
        assert doc["result"]["energy_quanta"] == evaluate_quanta(problem, D)

    def test_a_flow_on_another_structure_is_a_numerical_failure(
            self, tmp_path, capsys, monkeypatch):
        # A max-flow backend that returned its flow without the arcs that
        # carry none: the solve refuses it, so the run exits 3 with one
        # line and writes no set.
        dropped = prune_flows(monkeypatch)
        assert run_cli("equivariant", "--p", "3", "--q", "3",
                       "--grid-n", "32", "--lambda", "0.0",
                       "--outdir", str(tmp_path)) == 3
        assert dropped == [True]
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        diag = json.loads(err)
        assert diag["error"] == "NumericalError"
        assert diag["detail"].startswith("max-flow returned its flow on")
        assert list(tmp_path.iterdir()) == []


class TestEnergyBudget:
    # Weights x^3 y^3 on a box of side 100 or 1000, or a lambda of 1e300,
    # give coefficients whose magnitudes sum past 2^62 quanta: refused as
    # a numerical failure before any integer cast, also when no cell is
    # free.  A box of 1e200 puts the weights past the float range: a
    # config error.  Each prints one line and no warning.
    @pytest.mark.parametrize("argv,rc", [
        pytest.param(["equivariant", "--p", "3", "--q", "3", "--grid-n", "64",
                      "--box", "100", "--obstacle-radius", "3",
                      "--lambda", "0"], 3, id="weights-past-int64"),
        pytest.param(["equivariant", "--p", "3", "--q", "3", "--grid-n", "64",
                      "--box", "100", "--obstacle-radius", "0.05",
                      "--lambda", "0"], 3, id="no-free-cell"),
        pytest.param(["equivariant", "--p", "3", "--q", "3", "--grid-n", "16",
                      "--box", "1000", "--lambda", "0"], 3, id="box-1000"),
        pytest.param(["plateau2d", "--radius", "8", "--resolution", "20",
                      "--lambda", "1e300"], 3, id="lambda-1e300"),
        pytest.param(["equivariant", "--p", "3", "--q", "3", "--grid-n", "16",
                      "--box", "1e200", "--lambda", "0"], 2,
                     id="weights-past-float-range"),
    ])
    def test_is_refused(self, tmp_path, capsys, argv, rc):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv, "--outdir", str(tmp_path)) == rc
        assert caught == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if rc == 3:
            assert json.loads(err)["error"] == "CapacityOverflowError"
        else:
            assert err.startswith("config error: cell weights")
        assert list(tmp_path.iterdir()) == []


class TestLeaf:
    def test_csv_shape_and_determinism(self, tmp_path):
        csv = str(tmp_path / "leaf.csv")
        args = ("leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                "--rmax", "12", "--csv", csv)
        assert run_cli(*args) == 0
        text = read_text(csv)
        lines = text.splitlines()
        assert lines[0] == "s,x,y,curvature_residual"
        assert lines[1].endswith(",nan")
        assert lines[-1].endswith(",nan")
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert data.shape[1] == 4
        assert np.nanmax(data[:, 3]) < 1e-5
        assert run_cli(*args) == 0
        assert read_text(csv) == text

    def test_csv_fields_parse_back_bit_exactly(self, tmp_path):
        csv = tmp_path / "leaf.csv"
        assert run_cli("leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                       "--rmax", "12", "--csv", str(csv)) == 0
        leaf = shoot_leaf(3, 3, 1.0, r_max=12.0)
        want = np.column_stack([leaf.s, leaf.x, leaf.y,
                                np.abs(mean_curvature_values(leaf))])
        got = np.array([[float(v) for v in line.split(",")]
                        for line in read_text(csv).splitlines()[1:]])
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64),
                              want[~nan].view(np.int64))

    # exit radii giving one row less than a formatting block, a block, and
    # one row more
    @pytest.mark.parametrize("rmax,rows", [
        ("2.6267", _BLOCK - 1), ("2.6272", _BLOCK), ("2.6277", _BLOCK + 1)])
    def test_csv_matches_per_row_oracle_at_block_edges(self, tmp_path, rmax,
                                                        rows):
        csv = tmp_path / "leaf.csv"
        assert run_cli("leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                       "--rmax", rmax, "--csv", str(csv)) == 0
        want, n = leaf_oracle(3, 3, 1.0, r_max=float(rmax))
        assert n == rows
        assert csv.read_bytes() == want.encode()

    def test_default_leaf_and_svg_match_oracles(self, default_leaf, tmp_path,
                                                monkeypatch):
        want, n = leaf_oracle(3, 3, 1.0)
        assert n == 98851
        assert default_leaf.read_bytes() == want.encode()
        got, want = plot_with_oracle(monkeypatch, default_leaf,
                                     tmp_path / "leaf.svg")
        assert got == want

    # The curve's five arrays and the residual take 4.7 MB, the plot's CSV
    # data 3.2 MB.  A second copy of the curve, a whole dense read-out, or
    # a whole CSV or SVG text (6.7 and 3.8 MB) would pass these bounds.
    def test_leaf_holds_its_curve_once(self, tmp_path):
        argv = ["leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                "--csv", str(tmp_path / "leaf.csv")]
        rcs = []
        assert traced_peak(lambda: rcs.append(main(argv))) < 7.0
        assert rcs == [0]

    def test_plot_of_the_leaf_holds_no_whole_text(self, default_leaf,
                                                  tmp_path):
        argv = ["plot", "--input", str(default_leaf),
                "--output", str(tmp_path / "leaf.svg")]
        rcs = []
        assert traced_peak(lambda: rcs.append(main(argv))) < 6.5
        assert rcs == [0]

    def test_exit_radius_over_sample_budget_is_config_error(self, tmp_path,
                                                            capsys):
        # the budget check runs before any integration or allocation
        assert run_cli("leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                       "--rmax", "1e9", "--csv",
                       str(tmp_path / "leaf.csv")) == 2
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "leaf.csv").exists()

    @pytest.mark.parametrize("p", ["50000", "100000", "1000000",
                                   "1000000000"])
    def test_taylor_start_outside_the_quadrant_is_numerical_failure(
            self, tmp_path, capsys, p):
        # These once integrated a start below the axis for seconds, or past
        # a minute, before ProfileCurve refused the samples as a config
        # error.
        start = time.perf_counter()
        assert run_cli("leaf", "--p", p, "--q", "1", "--s0", "1.0",
                       "--csv", str(tmp_path / "leaf.csv")) == 3
        assert time.perf_counter() - start < 2.0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["detail"].startswith("Taylor start left")
        assert not (tmp_path / "leaf.csv").exists()


class TestAtomicWrite:
    def test_chunks_are_written_in_turn(self, tmp_path):
        path = tmp_path / "out.txt"
        cli.atomic_write(str(path), iter(["a,b\n", "", "1,2\n"]))
        assert path.read_text(encoding="utf-8") == "a,b\n1,2\n"
        cli.atomic_write(str(path), "whole\n")
        assert path.read_text(encoding="utf-8") == "whole\n"

    def test_a_chunk_that_raises_leaves_no_file(self, tmp_path):
        def chunks():
            yield "a,b\n"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            cli.atomic_write(str(tmp_path / "out.txt"), chunks())
        assert list(tmp_path.iterdir()) == []

    def test_leaf_chunks_encode_as_their_text(self, tmp_path):
        rows = np.arange(4 * (_BLOCK + 1), dtype=float).reshape(-1, 4) / 7
        chunks = cli._Chunks(cli._leaf_csv, rows.T)
        blocks = list(chunks)
        assert len(blocks) == 3
        assert list(chunks) == blocks    # each iteration renders anew
        assert chunks.encode("utf-8") == "".join(blocks).encode("utf-8")
        path = tmp_path / "leaf.csv"
        cli.atomic_write(str(path), chunks)
        assert path.read_bytes() == chunks.encode()


class TestApprox:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def good_config(self):
        h = 1.0 / 32
        return {"p": 3, "q": 3, "lambda": 0.0,
                "grid": {"n": 32, "box": 1.0},
                "t_list": [8 * h, 4 * h, 2 * h]}

    def test_run_and_nesting(self, tmp_path):
        out = str(tmp_path)
        cfg = self.write_config(tmp_path, self.good_config())
        assert run_cli("approx", "--config", cfg, "--outdir", out) == 0
        doc = json.loads(read_text(os.path.join(out, "approx.json")))
        assert doc["inclusion_ok"] == [True, True, True]
        assert doc["chain_ok"] == [True, True, True]
        limit = read_cellset(os.path.join(out, doc["limit"]))
        prev = None
        for name in doc["steps"]:
            D = read_cellset(os.path.join(out, name))
            assert np.all(D.bits <= limit.bits)
            if prev is not None:
                assert np.all(prev.bits <= D.bits)
            prev = D

    def test_memory_peak_at_n256(self, tmp_path):
        # The benchmark's (3,3) run at n=256 with four t: 11.47 MB while
        # the capacities and node numbers were int64 and the fold's arrays
        # lived through max-flow, 8.52 MB while the flow graph was int64
        # with an int32 copy for scipy and the annulus profile was built
        # before the base solve, 7.07 MB while each residual was a sparse
        # difference, 6.26 MB since.
        cfg = self.write_config(tmp_path, {
            "p": 3, "q": 3, "lambda": 0.0, "grid": {"n": 256, "box": 1.0},
            "t_list": [1 / 16, 1 / 32, 1 / 64, 1 / 128]})
        argv = ["approx", "--config", cfg, "--outdir", str(tmp_path)]
        rcs = []
        assert traced_peak(lambda: rcs.append(main(argv))) < 7.0
        assert rcs == [0]

    def test_a_limit_set_filling_the_grid(self, tmp_path):
        # One cell, in the limit set: no cell lies outside it, so its depth
        # is infinite and every step keeps it.  scipy's transform measured
        # to a cell past the grid, and step 0 came out empty.
        out = str(tmp_path)
        cfg = self.write_config(tmp_path, {
            "p": 1, "q": 5, "lambda": 0.0, "grid": {"n": 1, "box": 1.0},
            "t_list": [2.0, 1.0, 0.5]})
        assert run_cli("approx", "--config", cfg, "--outdir", out) == 0
        doc = json.loads(read_text(os.path.join(out, "approx.json")))
        limit = read_cellset(os.path.join(out, doc["limit"]))
        assert limit.bits.all()
        assert [read_cellset(os.path.join(out, name))
                for name in doc["steps"]] == [limit] * 3
        assert doc["sym_diff_volume"] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("mangle,needle", [
        (lambda d: d.pop("q"), "'q'"),
        (lambda d: d.update(foo=1), "'foo'"),
        (lambda d: d["grid"].update(spacing=0.1), "grid.spacing"),
        (lambda d: d.update(t_list=[]), "t_list"),
        (lambda d: d["grid"].pop("box"), "grid.box"),
        (lambda d: d.update({"lambda": "x"}), "'lambda' must be a finite"),
        (lambda d: d.update({"lambda": float("nan")}), "'lambda' must be"),
        (lambda d: d.update({"lambda": 10**400}), "'lambda' must be a"),
        (lambda d: d["grid"].update(box="x"), "'grid.box' must be"),
        (lambda d: d.update(t_list=["z"]), "'t_list[0]' must be"),
        (lambda d: d.update(annulus=["a", 1]), "'annulus[0]' must be"),
        (lambda d: d.update(annulus=[0.1, True]), "'annulus[1]' must be"),
        (lambda d: d.update(annulus=[0.3, 0.1]), "r_lo < r_hi"),
        (lambda d: d["grid"].update(n=0), "'grid.n' must be an integer"),
        (lambda d: d["grid"].update(n=2.0), "'grid.n' must be"),
        (lambda d: d.update(p=True), "'p' must be an integer"),
        (lambda d: d.update(q="3"), "'q' must be an integer"),
        (lambda d: d.update(p=10**400), "at most 2**53"),
    ])
    def test_config_errors(self, tmp_path, capsys, mangle, needle):
        doc = self.good_config()
        mangle(doc)
        cfg = self.write_config(tmp_path, doc)
        assert run_cli("approx", "--config", cfg,
                       "--outdir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_missing_keys_are_named_in_one_order(self, tmp_path):
        # A config missing both grid keys once named 'grid.box' or
        # 'grid.n' by the string hash seed (1 and 3 gave one each).
        doc = self.good_config()
        doc["grid"] = {}
        cfg = self.write_config(tmp_path, doc)
        errs = []
        for seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.path.dirname(os.path.dirname(
                           os.path.abspath(cli.__file__))))
            proc = subprocess.run(
                [sys.executable, "-m", "cmclab.cli", "approx", "--config",
                 cfg, "--outdir", str(tmp_path)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 2
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert "missing config key: 'grid.n'" in errs[0]

    def test_non_object_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        assert run_cli("approx", "--config", str(cfg),
                       "--outdir", str(tmp_path)) == 2
        assert "object" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        assert run_cli("approx", "--config", str(tmp_path / "absent.json"),
                       "--outdir", str(tmp_path)) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.dumps cannot write 10**5000 either, so the text is written
        # as is; Python refuses to read an int of over 4300 digits.
        cfg = tmp_path / "run.json"
        cfg.write_text('{"p": ' + "1" * 5000 + ', "q": 3, "lambda": 0.0, '
                       '"grid": {"n": 32, "box": 1.0}, "t_list": [0.25]}',
                       encoding="utf-8")
        assert run_cli("approx", "--config", str(cfg),
                       "--outdir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{nope", encoding="utf-8")
        assert run_cli("approx", "--config", str(cfg),
                       "--outdir", str(tmp_path)) == 2
        assert "JSON" in capsys.readouterr().err


class TestPlot:
    def test_cellset_to_svg(self, tmp_path):
        out = str(tmp_path)
        assert run_cli("equivariant", "--p", "3", "--q", "3",
                       "--grid-n", "32", "--lambda", "0.0",
                       "--outdir", out) == 0
        src = os.path.join(out, "equivariant_largest.csl")
        svg = os.path.join(out, "largest.svg")
        assert run_cli("plot", "--input", src, "--output", svg) == 0
        text = read_text(svg)
        assert text.startswith("<svg ")
        assert text.count("<path ") >= 1
        assert run_cli("plot", "--input", src, "--output", svg) == 0
        assert read_text(svg) == text

    def test_curve_csv_to_svg(self, tmp_path):
        csv = str(tmp_path / "leaf.csv")
        assert run_cli("leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                       "--rmax", "12", "--csv", csv) == 0
        svg = str(tmp_path / "leaf.svg")
        assert run_cli("plot", "--input", csv, "--output", svg) == 0
        assert read_text(svg).count("<path ") == 1

    def test_cellset_svg_matches_per_point_oracle(self, tmp_path,
                                                  monkeypatch):
        rng = np.random.default_rng(1)
        D = CellSet(GridGeometry((40, 40), h=0.1),
                    rng.random((40, 40)) < 0.5)
        src = tmp_path / "d.csl"
        src.write_text(cellset_to_text(D), encoding="utf-8")
        got, want = plot_with_oracle(monkeypatch, src, tmp_path / "d.svg")
        assert got == want

    def test_curve_svg_outside_the_positional_range_matches_oracle(
            self, tmp_path, monkeypatch):
        # x and the stroke width outside [1e-4, 1e6); flip - y below 1e-4
        src = tmp_path / "c.csv"
        src.write_text("s,x,y,curvature_residual\n0,0.0,1e-7,0\n"
                       "1,-0.0,-3e-5,0\n2,1e-7,-0.0,0\n3,-3e-5,0.0,0\n"
                       "4,2e6,1e-7,0\n5,1e12,-3e-5,0\n", encoding="utf-8")
        got, want = plot_with_oracle(monkeypatch, src, tmp_path / "c.svg")
        assert got == want
        assert b"M 0.0 " in got and b" L -0.0 " in got
        assert b" L 1000000000000.0 " in got

    def test_default_leaf_plots_within_budget(self, default_leaf, tmp_path):
        start = time.perf_counter()
        assert run_cli("plot", "--input", str(default_leaf),
                       "--output", str(tmp_path / "leaf.svg")) == 0
        assert time.perf_counter() - start < 3.0

    def test_unknown_format(self, tmp_path, capsys):
        junk = tmp_path / "junk.txt"
        junk.write_text("hello\n", encoding="utf-8")
        assert run_cli("plot", "--input", str(junk),
                       "--output", str(tmp_path / "x.svg")) == 2
        assert "neither" in capsys.readouterr().err

    def test_malformed_run_count_is_config_error(self, tmp_path, capsys):
        src = tmp_path / "bad.csl"
        src.write_text("cmcgrid v1 d=2 ext=2,3 h=1.0 stencil=cc\n4z1 2z0\n",
                       encoding="utf-8")
        assert run_cli("plot", "--input", str(src),
                       "--output", str(tmp_path / "x.svg")) == 2
        assert "bad run token '4z1'" in capsys.readouterr().err

    def test_empty_ext_field_is_config_error(self, tmp_path, capsys):
        src = tmp_path / "bad.csl"
        src.write_text("cmcgrid v1 d=2 ext=2,,3 h=1.0 stencil=cc\n61\n",
                       encoding="utf-8")
        assert run_cli("plot", "--input", str(src),
                       "--output", str(tmp_path / "x.svg")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad cell set header")
        assert err.count("\n") == 1


# Edges of _dec9's positional range and of the float range, and decimals
# half-way between two steps of 1e-9 at every decade up to 1e6.
_DEC9_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    *(sign * v for sign in (1.0, -1.0) for edge in (1e-4, 1e6)
      for below in (math.nextafter(edge, 0.0),)
      for above in (math.nextafter(edge, math.inf),)
      for v in (math.nextafter(below, 0.0), below, edge, above,
                math.nextafter(above, math.inf))),
    *(sign * (k + 0.5) / 1e9 for sign in (1.0, -1.0) for e in range(16)
      for k in (10**e - 1, 10**e, 10**e + 1, 5 * 10**e)),
]


class TestDec9:
    def test_edge_values(self):
        assert [v for v in _DEC9_EDGES if _dec9(v) != repr(round(v, 9))] == []

    def test_log_uniform_magnitudes(self, rng):
        # dense enough to meet the floats from 2**23 up, where %.9f has more
        # digits than the rounded double's repr
        values = (rng.choice([-1.0, 1.0], 100000)
                  * 10.0 ** rng.uniform(-12, 12, 100000)).tolist()
        assert [v for v in values if _dec9(v) != repr(round(v, 9))] == []

    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_is_repr_of_round_for_every_finite_float(self, v):
        assert _dec9(v) == repr(round(v, 9))

    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(-10**15, 10**15))
    def test_half_way_decimals(self, k):
        v = (k + 0.5) / 1e9
        assert _dec9(v) == repr(round(v, 9))


def svg_paths(text):
    """The path data of an SVG as lists of (x, y) points."""
    return [[tuple(float(v) for v in pt.split()) for pt in d[2:].split(" L ")]
            for d in re.findall(r' d="([^"]*)"', text)]


class TestPlotChains:
    def test_random_interfaces_are_maximal_polylines(self, tmp_path):
        # Every interface face is drawn exactly once, as a unit segment,
        # and an open path ends only at vertices that one face touches.
        src, svg = tmp_path / "d.csl", tmp_path / "d.svg"
        for seed in range(60):
            rng = np.random.default_rng(seed)
            dims = tuple(int(n) for n in rng.integers(2, 14, size=2))
            D = CellSet(GridGeometry(dims, h=1.0),
                        rng.random(dims) < rng.uniform(0.2, 0.8))
            src.write_text(cellset_to_text(D), encoding="utf-8")
            mids, axes = boundary_faces(D)
            if len(axes) == 0:
                assert run_cli("plot", "--input", str(src),
                               "--output", str(svg)) == 2
                continue
            assert run_cli("plot", "--input", str(src),
                           "--output", str(svg)) == 0
            half = 0.5 * np.eye(2)[1 - axes]
            ends = np.stack([mids - half, mids + half], axis=1)
            y = ends[..., 1]
            ends[..., 1] = y.min() + y.max() - y    # as the SVG flips it
            faces = Counter(frozenset(map(tuple, e)) for e in ends.tolist())
            paths = svg_paths(svg.read_text(encoding="utf-8"))
            drawn = Counter(frozenset(pair) for p in paths
                            for pair in zip(p, p[1:]))
            assert drawn == faces, seed
            degree = Counter(pt for face in faces for pt in face)
            for p in paths:
                if p[0] != p[-1]:
                    assert degree[p[0]] == degree[p[-1]] == 1, seed

    def test_random_128_square_plots_within_budget(self, tmp_path):
        rng = np.random.default_rng(0)
        D = CellSet(GridGeometry((128, 128), h=1.0),
                    rng.random((128, 128)) < 0.5)
        src = tmp_path / "d.csl"
        src.write_text(cellset_to_text(D), encoding="utf-8")
        start = time.perf_counter()
        assert run_cli("plot", "--input", str(src),
                       "--output", str(tmp_path / "d.svg")) == 0
        assert time.perf_counter() - start < 3.0


# Curve CSVs of any floats and a valid cell set, which the fuzz test
# mutates by splicing in these pieces.
_CURVES = st.lists(st.tuples(st.floats(), st.floats()), max_size=4).map(
    lambda rows: b"s,x,y,curvature_residual\n" + b"".join(
        f"{k},{x!r},{y!r},0.0\n".encode() for k, (x, y) in enumerate(rows)))
_CELLS = b"cmcgrid v1 d=2 ext=3,4 h=0.25 stencil=cc\n50 31 40\n"
_PIECES = [b"nan", b"inf", b"-", b"1e308", b"1e-320", b"0", b"9", b",", b"\n",
           b" ", b"x", b"e", b".", b"#", b"\xff", b"d=3", b"ext=1,", b"h=",
           b"99999999999"]


class TestPlotFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.one_of(_CURVES, st.just(_CELLS)),
           st.lists(st.tuples(st.integers(0, 200), st.integers(0, 2),
                              st.sampled_from(_PIECES)), max_size=3))
    def test_exit_contract(self, tmp_path_factory, seed_text, edits):
        # rc 0 writes an SVG of finite numbers; rc 2 prints one line.
        data = seed_text
        for pos, op, piece in edits:
            pos %= len(data) + 1
            if op == 0:
                data = data[:pos] + piece + data[pos:]
            elif op == 1:
                data = data[:pos] + data[pos + 1:]
            else:
                data = data[:pos] + piece + data[pos + 1:]
        work = tmp_path_factory.mktemp("fuzz")
        src, svg = work / "in", work / "out.svg"
        src.write_bytes(data)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(["plot", "--input", str(src), "--output", str(svg)])
        assert caught == []
        if rc == 2:
            assert err.getvalue().startswith("config error: ")
            assert err.getvalue().count("\n") == 1
            assert not svg.exists()
            return
        assert rc == 0 and err.getvalue() == ""
        text = svg.read_text(encoding="utf-8")
        values = re.findall(r'(?:viewBox|d|stroke-width)="([^"]*)"', text)
        numbers = [v for value in values for v in value.split()
                   if v not in ("M", "L")]
        assert numbers and all(math.isfinite(float(v)) for v in numbers)


# Values for the fuzz test of main.  Flags draw from strings the parser
# accepts for their type, so every argv parses and the runners meet zero,
# negatives, nan, inf, 1e300 and 2^63; grid sides stay at 16 or fewer
# cells, and a leaf's --rmax is one of _RMAX or left at its default of
# 50 s0.  The approx config draws from JSON values of every type.
_INTS = st.sampled_from(["0", "-1", "1", "3", "16", str(2**63)])
_FLOATS = st.sampled_from(["0", "-1", "0.5", "1", "8", "nan", "inf", "-inf",
                           "1e300", "1e-300", str(2**63)])
_RMAX = st.sampled_from(["3", "0", "-1", "nan", "inf", "1e300", "1e-300"])


def _argv(sub, flags):
    """Strategy for sub's argv: per flag, a list of values to pass it."""
    return st.tuples(*flags.values()).map(lambda values: [sub] + [
        f"--{flag}={v}" for flag, vals in zip(flags, values) for v in vals])


def _one(values):
    return values.map(lambda v: [v])


_FLAG_ARGVS = st.one_of(
    _argv("spectra", {"p": _one(_INTS), "q": _one(_INTS),
                      "kmax": _one(_INTS)}),
    _argv("plateau2d", {"radius": _one(_FLOATS), "resolution": _one(_INTS),
                        "lambda": st.lists(_FLOATS, min_size=1, max_size=3)}),
    _argv("equivariant", {"p": _one(_INTS), "q": _one(_INTS),
                          "grid-n": _one(_INTS),
                          "box": st.lists(_FLOATS, max_size=1),
                          "lambda": _one(_FLOATS),
                          "obstacle-radius": st.lists(_FLOATS, max_size=1)}),
    _argv("leaf", {"p": _one(_INTS), "q": _one(_INTS), "s0": _one(_FLOATS),
                   "rmax": st.lists(_RMAX, max_size=1)}))
_JSON = st.sampled_from([0, -1, 1, 3, 16, 2**63, 0.5, 0.25, 1e300, -1e300,
                         float("nan"), float("inf"), "3", None, True]) | \
    st.builds(dict)
_EDITS = st.lists(st.tuples(
    st.sampled_from(["p", "q", "lambda", "grid", "grid.n", "grid.box",
                     "t_list", "annulus", "spare"]),
    st.one_of(_JSON, st.lists(_JSON, max_size=4), st.none().map(
        lambda _: KeyError))), max_size=3)


def _approx_config(edits):
    """A small valid approx config with edits (KeyError: delete) applied."""
    doc = {"p": 3, "q": 3, "lambda": 0.0, "grid": {"n": 16, "box": 1.0},
           "t_list": [0.25, 0.125]}
    for key, value in edits:
        *outer, key = key.split(".")
        target = doc.get(outer[0]) if outer else doc
        if not isinstance(target, dict):
            continue
        if value is KeyError:
            target.pop(key, None)
        else:
            target[key] = value
    return json.dumps(doc)


class TestExitContractFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(st.one_of(_FLAG_ARGVS, _EDITS.map(_approx_config)))
    def test_main(self, tmp_path_factory, case):
        # rc in {0, 2, 3}; one stderr line unless rc is 0; no warning.
        work = tmp_path_factory.mktemp("fuzz")
        if isinstance(case, str):
            (work / "run.json").write_text(case, encoding="utf-8")
            argv = ["approx", "--config", str(work / "run.json")]
        else:
            argv = case
        if argv[0] == "leaf":
            argv = argv + ["--csv", str(work / "leaf.csv")]
        else:
            argv = argv + ["--outdir", str(work)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(argv)
        assert caught == []
        assert rc in (0, 2, 3)
        assert err.getvalue().count("\n") == (rc != 0)
        if rc == 2:
            assert err.getvalue().startswith("config error: ")
        if rc == 3:
            assert json.loads(err.getvalue())["schema_version"] == 1


def plot_row(name, data, id):
    """A plot of the input file name, holding data, to x.svg."""
    return pytest.param({name: data}, ["plot", "--input", "{d}/" + name,
                                       "--output", "{d}/x.svg"], id=id)


# A sphere dimension that converting to float overflows.
_HUGE = str(10**400)


def outdir_row(argv, id):
    """argv writing its artifacts to the test directory."""
    return pytest.param({}, argv + ["--outdir", "{d}"], id=id)


class TestMalformedInput:
    # The two giant grids are refused by the cell budget before any
    # per-cell allocation (4e12 and 1e15 cells); the non-UTF-8 cell sets
    # fail in the header read and, past the first read chunk, in the body.
    # A curve needs two rows of finite x and y spanning 2.5e-6 or more, and a
    # plotted cell set a cell size the SVG resolves.  The four rows from
    # non-utf8-approx-config name a path that cannot be read or written;
    # the argument parser refuses the next four, and shoot_leaf the next
    # seven: a non-finite exit radius, and an axis distance outside
    # [1e-100, 1e100] at the default exit radius, which overflowed the
    # Taylor start or left it non-finite.  The last four give p or q past
    # 2**53, which a float cannot hold exactly.  The three cell sets after
    # them hold a d, an ext entry or a run length of 5000 digits, past the
    # digit limit of Python's int().  The last two sweeps hold a non-finite
    # lambda, refused before any lambda is solved: before, the 1e300 solve
    # ran first and overflowed the coefficient budget (exit 3).  Each row
    # lists its input files (None: a directory) and its argv, where {d} is
    # the test directory.
    @pytest.mark.parametrize("files,argv", [
        outdir_row(["equivariant", "--p", "3", "--q", "3",
                    "--grid-n", "2000000", "--lambda", "0.0"],
                   id="giant-grid-n"),
        plot_row("giant.csl",
                 b"cmcgrid v1 d=3 ext=100000,100000,100000 h=1.0 "
                 b"stencil=cc\n1000000000000000x1\n", id="giant-header"),
        plot_row("bad.csv", b"s,x,y,curvature_residual\n0.0,1.0,abc,0\n",
                 id="non-numeric-csv"),
        plot_row("head.csl", b"\xffcmcgrid v1 d=2 ext=2,3\n61\n",
                 id="non-utf8-header"),
        plot_row("body.csl",
                 b"cmcgrid v1 d=2 ext=2,3 h=1.0 stencil=cc\n"
                 + b" " * 10000 + b"6\xff1\n", id="non-utf8-body"),
        plot_row("head.csv", b"s,x,y,curvature_residual\n",
                 id="header-only-csv"),
        plot_row("one.csv", b"s,x,y,curvature_residual\n0.0,1.0,2.0,0\n",
                 id="one-row-csv"),
        plot_row("nan.csv", b"s,x,y,curvature_residual\n0,1,2,0\n1,nan,2,0\n",
                 id="nan-csv"),
        plot_row("inf.csv",
                 b"s,x,y,curvature_residual\n0,-inf,0,0\n1,inf,1,0\n",
                 id="inf-csv"),
        plot_row("huge.csv",
                 b"s,x,y,curvature_residual\n0,-1e308,0,0\n1,1e308,0,0\n",
                 id="overflowing-csv"),
        plot_row("flat.csv", b"s,x,y,curvature_residual\n0,1,2,0\n1,1,2,0\n",
                 id="zero-extent-csv"),
        plot_row("huge.csl",
                 b"cmcgrid v1 d=2 ext=3,3 h=1e308 stencil=cc\n40 51\n",
                 id="overflowing-cellset"),
        plot_row("tiny.csv", b"s,x,y,curvature_residual\n0,0,0,0\n"
                 b"1,1e-12,2e-12,0\n2,3e-12,1e-12,0\n", id="unresolved-curve"),
        plot_row("subnormal.csv", b"s,x,y,curvature_residual\n0,0,0,0\n"
                 b"1,5e-324,0,0\n", id="subnormal-curve"),
        outdir_row(["plateau2d", "--radius", "nan", "--resolution", "20",
                    "--lambda", "0"], id="nan-radius"),
        plot_row("tiny.csl",
                 b"cmcgrid v1 d=2 ext=3,3 h=1e-12 stencil=cc\n40 51\n",
                 id="unresolved-cellset"),
        plot_row("subnormal.csl",
                 b"cmcgrid v1 d=2 ext=3,3 h=5e-324 stencil=cc\n40 51\n",
                 id="subnormal-cellset"),
        pytest.param({"run.json": b'\xff{"p": 3}'},
                     ["approx", "--config", "{d}/run.json", "--outdir", "{d}"],
                     id="non-utf8-approx-config"),
        pytest.param({"out": b""}, ["spectra", "--p", "3", "--q", "3",
                                    "--kmax", "8", "--outdir", "{d}/out"],
                     id="outdir-is-a-file"),
        pytest.param({"leaf.csv": None},
                     ["leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                      "--rmax", "3", "--csv", "{d}/leaf.csv"],
                     id="csv-is-a-directory"),
        pytest.param({"leaf.csv": b"s,x,y,curvature_residual\n0,0,0,0\n"
                                  b"1,1,1,0\n", "x.svg": None},
                     ["plot", "--input", "{d}/leaf.csv",
                      "--output", "{d}/x.svg"],
                     id="output-is-a-directory"),
        outdir_row(["spectra", "--p", "nan", "--q", "3", "--kmax", "8"],
                   id="wrong-type-flag"),
        outdir_row(["spectra", "--p", "3", "--kmax", "8"],
                   id="missing-flag"),
        outdir_row(["frobnicate"], id="unknown-subcommand"),
        outdir_row(["plateau2d", "--radius", "-inf", "--resolution", "20",
                    "--lambda", "0"], id="detached-negative-inf"),
        pytest.param({}, ["leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                          "--rmax", "nan", "--csv", "{d}/leaf.csv"],
                     id="nan-exit-radius"),
        pytest.param({}, ["leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                          "--rmax", "inf", "--csv", "{d}/leaf.csv"],
                     id="inf-exit-radius"),
        *(pytest.param({}, ["leaf", "--p", "3", "--q", "3", "--s0", s0,
                            "--csv", "{d}/leaf.csv"], id=f"axis-distance-{s0}")
          for s0 in ("1e300", "1e150", "1e-150", "1e-300", "5e-324")),
        outdir_row(["spectra", "--p", _HUGE, "--q", "3", "--kmax", "8"],
                   id="spectra-huge-p"),
        pytest.param({}, ["leaf", "--p", _HUGE, "--q", "3", "--s0", "1.0",
                          "--csv", "{d}/leaf.csv"], id="leaf-huge-p"),
        outdir_row(["equivariant", "--p", _HUGE, "--q", "3", "--grid-n", "8",
                    "--lambda", "0"], id="equivariant-huge-p"),
        outdir_row(["equivariant", "--p", "0", "--q", _HUGE, "--grid-n", "8",
                    "--lambda", "0"], id="equivariant-zero-p-huge-q"),
        plot_row("d.csl", b"cmcgrid v1 d=" + b"2" * 5000
                 + b" ext=2,2 h=1 stencil=cc\n40\n", id="huge-digit-d"),
        plot_row("ext.csl", b"cmcgrid v1 d=2 ext=2," + b"2" * 5000
                 + b" h=1 stencil=cc\n40\n", id="huge-digit-ext"),
        plot_row("run.csl", b"cmcgrid v1 d=2 ext=2,2 h=1 stencil=cc\n"
                 + b"1" * 5000 + b"0\n", id="huge-digit-run-length"),
        outdir_row(["plateau2d", "--radius", "8", "--resolution", "20",
                    "--lambda", "1e300", "--lambda", "nan"],
                   id="nan-lambda-after-overflowing-one"),
        outdir_row(["plateau2d", "--radius", "8", "--resolution", "20",
                    "--lambda", "0.1", "--lambda", "inf"],
                   id="inf-lambda-after-finite-one"),
    ])
    def test_is_config_error(self, tmp_path, capsys, files, argv):
        for name, data in files.items():
            if data is None:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_bytes(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*(a.format(d=tmp_path) for a in argv)) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
        for name, data in files.items():
            assert (tmp_path / name).is_dir() == (data is None)

    def test_huge_digit_cell_size_is_named_not_finite(self, tmp_path,
                                                      capsys):
        # 5000 digits read as a float are inf, which is positive.
        path = tmp_path / "h.csl"
        path.write_bytes(b"cmcgrid v1 d=2 ext=2,2 h=" + b"1" * 5000
                         + b" stencil=cc\n40\n")
        assert run_cli("plot", "--input", str(path),
                       "--output", str(tmp_path / "x.svg")) == 2
        assert "finite" in one_config_error_line(capsys)


def one_config_error_line(capsys):
    """The captured stderr, after asserting it is one config error line."""
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    return err


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 2
        one_config_error_line(capsys)

    def test_missing_required_flag(self, capsys):
        assert run_cli("spectra", "--p", "3") == 2
        one_config_error_line(capsys)

    def test_no_arguments(self, capsys):
        assert run_cli() == 2
        one_config_error_line(capsys)

    def test_seed_is_unrecognized(self, capsys):
        assert run_cli("spectra", "--p", "3", "--q", "3", "--kmax", "8",
                       "--seed", "0") == 2
        assert "unrecognized arguments: --seed" in one_config_error_line(
            capsys)

    def test_help_exits_zero(self, capsys):
        assert run_cli("spectra", "--help") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv,keys", [
        pytest.param(["spectra", "--p", "3", "--q", "3", "--kmax", "8"],
                     {"p", "q", "kmax"}, id="spectra"),
        pytest.param(["plateau2d", "--radius", "8", "--resolution", "20",
                      "--lambda", "0.0"],
                     {"radius", "resolution", "lambdas"}, id="plateau2d"),
        pytest.param(["equivariant", "--p", "3", "--q", "3", "--grid-n", "8",
                      "--lambda", "0.0"],
                     {"p", "q", "grid_n", "box", "lam", "obstacle_radius"},
                     id="equivariant"),
        pytest.param(["leaf", "--p", "3", "--q", "3", "--s0", "1.0",
                      "--csv", "leaf.csv"],
                     {"p", "q", "s0", "rmax", "csv"}, id="leaf"),
        pytest.param(["approx", "--config", "run.json"], {"config"},
                     id="approx"),
        pytest.param(["plot", "--input", "a.csl", "--output", "a.svg"],
                     {"input", "output"}, id="plot"),
    ])
    def test_echoed_params_are_the_parser_params(self, argv, keys):
        echoed = _echoed(build_parser().parse_args(argv))
        assert set(echoed) == {"subcommand", "params"}
        assert set(echoed["params"]) == keys


class TestDeterminism:
    # Every subcommand, run in a working directory that holds run.json.
    RUNS = [
        ("spectra", "--p", "2", "--q", "4", "--kmax", "10"),
        ("plateau2d", "--radius", "8", "--resolution", "20",
         "--lambda", "0.0", "--lambda", "0.5"),
        ("equivariant", "--p", "3", "--q", "3", "--grid-n", "32",
         "--lambda", "0.0"),
        ("approx", "--config", "run.json"),
        ("leaf", "--p", "3", "--q", "3", "--s0", "1.0", "--rmax", "12",
         "--csv", "leaf.csv"),
        ("plot", "--input", "leaf.csv", "--output", "leaf.svg"),
        ("plot", "--input", "approx_limit.csl",
         "--output", "approx_limit.svg"),
    ]

    # The sha256 of every JSON and cell-set artifact RUNS writes.  A rerun
    # alone would pass a deterministic change to every artifact; a change
    # that alters one on purpose says why in CHANGES.md and updates it here.
    DIGESTS = {
        "approx.json": "3e001d4eed59d083eb7ca754b89e036d"
                       "8ca305a6cde4922ba1cbb18795be5ebc",
        "approx_limit.csl": "9bf2cb0abce3b51693212136b0fa3654"
                            "18e6740bdb15ac5982f1149ab5ea3a8d",
        "approx_step_00.csl": "87eaca01809951c78fa168ade996b328"
                              "0f2a05ee5de77e165a2dfd652b599b57",
        "approx_step_01.csl": "755ff4cb383ae928ea5456dd4262330a"
                              "8ff542ddeedcb9b583eb79b49e5ce1be",
        "approx_step_02.csl": "75484508e5bb20b73aade590648c1e6c"
                              "89af62fb40ac3f00d87a550e32c8a4ef",
        "equivariant.json": "64682faa6aeaf892ce62518f7adbd356"
                            "ae2afaf871611bbb44489b39ec5b4531",
        "equivariant_largest.csl": "9bf2cb0abce3b51693212136b0fa3654"
                                   "18e6740bdb15ac5982f1149ab5ea3a8d",
        "plateau2d.json": "e09d88a5af1327ac163b25805f9bd1ed"
                          "b5d4cb147d9eecb66f600e5d30946c71",
        "plateau2d_00.csl": "bddbc166680967f7ce045739835de987"
                            "ca65abedf21d92b464dd749e35eac316",
        "plateau2d_01.csl": "a21f21fb474b8b1483f485010976fcb3"
                            "ed5ca6fe3e0cb403e1b4684d7a40898f",
        "spectra_p2_q4.json": "4696056c76c0a7d5853281e4d715ecde"
                              "a9d316f245d4064e77df9b759d379aba",
    }

    @staticmethod
    def write_config(cwd):
        h = 1.0 / 32
        (cwd / "run.json").write_text(json.dumps(
            {"p": 3, "q": 3, "lambda": 0.0, "grid": {"n": 32, "box": 1.0},
             "t_list": [8 * h, 4 * h, 2 * h]}), encoding="utf-8")

    def test_every_subcommand_reruns_byte_identical(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write_config(tmp_path)

        def artifacts():
            for args in self.RUNS:
                assert run_cli(*args) == 0, args
            return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        first = artifacts()
        second = artifacts()
        assert {"spectra_p2_q4.json", "plateau2d.json", "equivariant.json",
                "approx.json", "leaf.csv", "leaf.svg",
                "approx_limit.svg"} <= set(first)
        assert sorted(second) == sorted(first)
        assert [name for name in first if second[name] != first[name]] == []

    def test_every_artifact_keeps_its_pinned_digest(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.write_config(tmp_path)
        for args in self.RUNS:
            assert run_cli(*args) == 0, args
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()
               if p.suffix in (".json", ".csl") and p.name != "run.json"}
        assert got == self.DIGESTS

    def test_every_json_artifact_is_strict_json(self, tmp_path,
                                                monkeypatch):
        # JSON has no NaN or Infinity.  A step set with no interface, as
        # the whole-box annulus at a huge t gives, writes null distances.
        monkeypatch.chdir(tmp_path)
        self.write_config(tmp_path)
        (tmp_path / "degenerate.json").write_text(json.dumps(
            {"p": 3, "q": 3, "lambda": 0.0, "grid": {"n": 16, "box": 1.0},
             "t_list": [100.0], "annulus": [0.0, 100.0]}), encoding="utf-8")
        for args in self.RUNS + [("approx", "--config", "degenerate.json",
                                  "--outdir", "degenerate")]:
            assert run_cli(*args) == 0, args

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        docs = {str(path.relative_to(tmp_path)): json.loads(
                    read_text(path), parse_constant=refuse)
                for path in tmp_path.rglob("*.json")}
        assert {"spectra_p2_q4.json", "plateau2d.json", "equivariant.json",
                "approx.json", os.path.join("degenerate", "approx.json")
                } <= set(docs)
        degenerate = docs[os.path.join("degenerate", "approx.json")]
        assert degenerate["hausdorff_to_limit"] == [None]
        assert degenerate["min_origin_distance"] == [None]

    def test_json_does_not_depend_on_the_working_directory(self, tmp_path,
                                                           monkeypatch):
        h = 1.0 / 16
        config = json.dumps({"p": 3, "q": 3, "lambda": 0.0,
                             "grid": {"n": 16, "box": 1.0},
                             "t_list": [4 * h, 2 * h]})
        docs = []
        for name in ("a", "b"):
            cwd = tmp_path / name
            cwd.mkdir()
            (cwd / "run.json").write_text(config, encoding="utf-8")
            monkeypatch.chdir(cwd)
            assert run_cli("approx", "--config", "run.json",
                           "--outdir", "out") == 0
            docs.append((cwd / "out" / "approx.json").read_bytes())
        assert docs[0] == docs[1]
