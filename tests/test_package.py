"""The package surface: what `cmclab` exports is what it defines, what
importing the CLI loads, and how every entry reads the numbers it takes."""

import functools
import math
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import cmclab
from cmclab import cli, cones, equivariant, grid, mincut
from cmclab import (
    CellSet, GridGeometry, MinCutProblem, ProfileCurve, RadialFunction,
    RegionMask, UsageError, approximation_sequence, boundary_faces,
    brute_force, cell_weights, cellset_from_text, cellset_to_text,
    cmc_graph_residual, complement, curve_from_samples, diagonal_wedge,
    evaluate_quanta, fit_decay_exponent, gamma_pm, indicial_exponents,
    lattice, lc_residual, leaf_to_radial_graph, linearization_check,
    link_spectrum, make_cone, mean_curvature_values, perimeter,
    quadrant_grid, result_to_json, rle_decode, rle_encode, shoot_leaf, solve,
    split_perimeter, stability, stencil_levels, threshold_experiment,
    volume, weighted_minimize,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_all_is_the_public_surface():
    for name in cmclab.__all__:
        assert hasattr(cmclab, name), name
    public = [name for name, value in vars(cmclab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(cmclab.__all__) == sorted(public)
    # Removed, as nothing but their own tests reached them, or, for
    # has_interface_pinch, as nothing it was run on could make it fire.
    for name in ("classify_positive_jacobi", "jacobi_eval", "j_lambda",
                 "evaluate", "has_interface_pinch", "quantum",
                 "write_cellset"):
        assert name not in public


def test_cli_import_leaves_unused_scipy_subpackages_unloaded():
    # Leaves are shot by the package's own RK45, depths and Hausdorff
    # distances come from its own kernels, and CubicSpline is imported
    # inside leaf_to_radial_graph, which still works afterwards.
    code = (
        "import sys, cmclab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in\n"
        "      (['scipy', 'integrate'], ['scipy', 'optimize'],\n"
        "       ['scipy', 'interpolate'], ['scipy', 'ndimage'],\n"
        "       ['scipy', 'spatial'], ['scipy', 'special'])))\n"
        "from cmclab import leaf_to_radial_graph, make_cone, shoot_leaf\n"
        "u = leaf_to_radial_graph(shoot_leaf(3, 3, 1.0, r_max=12.0),\n"
        "                         make_cone(3, 3), 2.0, 10.0, 64)\n"
        "print(u.n_nodes)\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "64"]


def test_numbers_are_checked_in_grid_alone():
    # grid.py holds the one check of each kind of number; the idioms it
    # replaced are gone, and every other module takes grid's own checks.
    src = os.path.join(ROOT, "src", "cmclab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "grid.py":
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            assert not re.search(r"^\s*(import|from)\s+(numbers|operator)\b",
                                 text, re.M), name
    assert not hasattr(mincut, "_finite_lambda")
    assert not hasattr(cli, "_count")
    for module in (mincut, cones, equivariant, cli):
        for check in ("_real", "_finite", "_positive", "_integer",
                      "_instance"):
            assert getattr(module, check, None) in (
                None, getattr(grid, check)), (module.__name__, check)


def test_no_module_reads_the_environment():
    # Every setting is an argument or a flag: no knob can come back
    # through an environment variable.
    src = os.path.join(ROOT, "src", "cmclab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            assert not re.search(r"\b(environ|getenv)\b", text), name


_GRID = GridGeometry((8, 8))
_NONE = RegionMask.whole(_GRID).invert()
_CONE = make_cone(3, 3)
_ARC = np.linspace(0.1, 1.4, 16)


@functools.cache
def _quadrant():
    g = quadrant_grid(8)
    return g, diagonal_wedge(g, 3, 3)


@functools.cache
def _leaf():
    return shoot_leaf(3, 3, 1.0, r_max=12.0)


def _curve(p):
    c = curve_from_samples(3, 3, np.cos(_ARC), np.sin(_ARC))
    return ProfileCurve(p, 3, c.s, c.x, c.y, c.tx, c.ty)


def _flat(r):
    return 0.0 * r


def _radial():
    return RadialFunction.from_callable(_flat, 1.0, 8.0, 64)


# The bad values, by the name a row's id gives them.
_BAD = {"str": "1", "None": None, "True": True, "nan": math.nan,
        "inf": math.inf, "complex": 1 + 2j, "1e400": 10**400,
        "-1e5000": -10**5000, "1e5000": 10**5000, "2.5": 2.5, "3.0": 3.0,
        "3.7": 3.7}


def _rows(name, call, needle, values):
    """A row of call(v) for each bad value v named in values."""
    return [(f"{name}-{k}", lambda v=_BAD[k]: call(v), needle)
            for k in values.split()]


# One public call with one bad value per row, and the input the refusal
# must name.  Each row once raised a bare TypeError, ValueError,
# OverflowError, IndexError or KeyError, or ran on: a bool as 1, an
# integral float as an integer, 3.7 as 3, nan to a nan result.  The
# ValueError of an integer past 10**4300 came from writing it into the
# message.
_REFUSALS = [
    *_rows("make_cone", lambda v: make_cone(v, 3), "sphere dimension p",
           "None True nan inf complex 3.0 -1e5000"),
    *_rows("link_spectrum", lambda v: link_spectrum(_CONE, v),
           "eigenvalue count K", "None True nan inf complex 3.0 -1e5000"),
    *_rows("quadrant_grid-box", lambda v: quadrant_grid(8, v), "box side",
           "str None True complex 1e400 -1e5000"),
    *_rows("quadrant_grid-n", quadrant_grid, "grid side",
           "True 1e400 -1e5000"),
    ("GridGeometry-int-dims", lambda: GridGeometry(4), "grid extents"),
    *_rows("GridGeometry-extent", lambda v: GridGeometry((v, 4)),
           "grid extent", "True -1e5000"),
    ("GridGeometry-extent-1e5000", lambda: GridGeometry((10**5000, 4)),
     r"grid \(<integer of 16610 bits>, 4\) has more cells"),
    *_rows("GridGeometry-h", lambda v: GridGeometry((4, 4), h=v),
           "cell size", "str None True complex 1e400 -1e5000"),
    ("GridGeometry-int-origin", lambda: GridGeometry((4, 4), origin=5),
     "origin"),
    *_rows("GridGeometry-origin", lambda v: GridGeometry((4, 4),
                                                         origin=(v, 0.0)),
           "origin entry", "str None True nan inf complex 1e400"),
    ("stencil_levels-4", lambda: stencil_levels(4, "cc"), "grid dimension"),
    *_rows("stencil_levels", lambda v: stencil_levels(v, "cc"),
           "grid dimension", "True 3.0"),
    *_rows("ball-r", lambda v: RegionMask.ball(_GRID, (1, 1), v),
           "ball radius", "str None True nan inf complex 1e400 -1e5000"),
    ("ball-short-center", lambda: RegionMask.ball(_GRID, (1.0,), 2.0),
     "ball center"),
    ("ball-str-center", lambda: RegionMask.ball(_GRID, ("1", 1.0), 2.0),
     "ball center entry"),
    *_rows("split_perimeter-r",
           lambda v: split_perimeter(CellSet.full(_GRID), v, (1.0, 1.0)),
           "ball radius", "str None True complex 1e400 -1e5000"),
    ("split_perimeter-short-center",
     lambda: split_perimeter(CellSet.full(_GRID), 2.0, (1.0,)),
     "ball center"),
    *_rows("MinCutProblem-lambda",
           lambda v: MinCutProblem(_GRID, v, _NONE, _NONE), "lambda",
           "True"),
    *_rows("relabeled-lambda",
           lambda v: MinCutProblem(_GRID, 0.0, _NONE, _NONE).relabeled(
               _NONE, _NONE, lam=v), "lambda", "True"),
    *_rows("threshold_experiment-lambda",
           lambda v: threshold_experiment(8, 24, [v]), "lambda", "True"),
    ("threshold_experiment-bare-lambda",
     lambda: threshold_experiment(8, 20, 0.5), "lambda list"),
    *_rows("RadialFunction-r_min",
           lambda v: RadialFunction(v, 2.0, [0.0, 0.0]), "r_min",
           "str None True complex"),
    *_rows("RadialFunction-r_max",
           lambda v: RadialFunction(1.0, v, [0.0, 0.0]), "r_max",
           "inf 1e400"),
    ("RadialFunction-str-samples",
     lambda: RadialFunction(1, 2, ["a", "b"]), "samples"),
    *_rows("from_callable-n",
           lambda v: RadialFunction.from_callable(_flat, 1.0, 8.0, v),
           "node count n", "str None 2.5 3.0 1e400 -1e5000"),
    *_rows("from_callable-r_min",
           lambda v: RadialFunction.from_callable(_flat, v, 8.0, 16),
           "r_min", "str None complex"),
    *_rows("leaf_to_radial_graph-n",
           lambda v: leaf_to_radial_graph(_leaf(), _CONE, 3.0, 10.0, v),
           "node count n", "None 2.5 1e400"),
    *_rows("leaf_to_radial_graph-r_min",
           lambda v: leaf_to_radial_graph(_leaf(), _CONE, v, 10.0, 64),
           "r_min", "str"),
    *_rows("leaf_to_radial_graph-r_max",
           lambda v: leaf_to_radial_graph(_leaf(), _CONE, 3.0, v, 64),
           "r_max", "None"),
    *_rows("indicial_exponents-lambda1",
           lambda v: indicial_exponents(8, v), "lambda_1",
           "str None True nan inf complex 1e400"),
    *_rows("indicial_exponents-n", lambda v: indicial_exponents(v, 0.0),
           "cone dimension n", "True 3.0 1e400"),
    *_rows("cell_weights-p", lambda v: cell_weights(_quadrant()[0], v, 1),
           "sphere dimension",
           "str None True nan inf complex 1e400 -1e5000 2.5 3.0"),
    *_rows("diagonal_wedge-p",
           lambda v: diagonal_wedge(_quadrant()[0], v, 1),
           "sphere dimension p", "str None nan complex -1e5000"),
    *_rows("ProfileCurve-p", _curve, "sphere dimension",
           "3.7 3.0 str None True nan inf complex 1e400"),
    *_rows("curve_from_samples-p",
           lambda v: curve_from_samples(v, 3, np.cos(_ARC), np.sin(_ARC)),
           "sphere dimension p", "3.7"),
    *_rows("shoot_leaf-s0", lambda v: shoot_leaf(3, 3, v), "axis distance",
           "True"),
    *_rows("cmc_graph_residual-lambda",
           lambda v: cmc_graph_residual(
               _CONE, RadialFunction.from_callable(_flat, 1.0, 8.0, 64), v),
           "lambda", "True"),
    *_rows("weighted_minimize-lambda",
           lambda v: weighted_minimize(3, 3, _quadrant()[0], v,
                                       _quadrant()[1], 0.5),
           "lambda", "True"),
    *_rows("weighted_minimize-radius",
           lambda v: weighted_minimize(3, 3, _quadrant()[0], 0.0,
                                       _quadrant()[1], v),
           "obstacle radius", "True"),
    *_rows("approximation_sequence-t",
           lambda v: approximation_sequence(3, 3, 0.0, _quadrant()[1], [v],
                                            0.5), r"t_list\[0\]", "True"),
    *_rows("approximation_sequence-annulus",
           lambda v: approximation_sequence(3, 3, 0.0, _quadrant()[1],
                                            [0.1], 0.5, (0.1, v)),
           r"annulus\[1\]", "True"),
    # An argument of the wrong object type; each row once raised a bare
    # AttributeError.
    ("approximation_sequence-boundary",
     lambda: approximation_sequence(3, 3, 0.0, "x", [0.1], 0.5),
     "boundary data must be a CellSet, got str"),
    ("solve-problem", lambda: solve("x"), "problem must be a MinCutProblem"),
    ("solve-band",
     lambda: solve(MinCutProblem(_GRID, 0.0, _NONE, _NONE), band="x"),
     "band must be a RegionMask"),
    ("weighted_minimize-grid",
     lambda: weighted_minimize(3, 3, "g", 0.0, "b", 0.5),
     "grid must be a GridGeometry"),
    ("weighted_minimize-boundary",
     lambda: weighted_minimize(3, 3, _quadrant()[0], 0.0, "b", 0.5),
     "boundary data must be a CellSet"),
    ("lc_residual-f", lambda: lc_residual(_CONE, "x"),
     "radial function f must be a RadialFunction"),
    ("lc_residual-cone",
     lambda: lc_residual("x", RadialFunction.from_callable(_flat, 1.0, 8.0,
                                                           64)),
     "cone must be a CliffordCone"),
    ("link_spectrum-cone", lambda: link_spectrum("x", 3),
     "cone must be a CliffordCone"),
    ("perimeter-D", lambda: perimeter("a", "b"), "cell set D must be a CellSet"),
    ("perimeter-R", lambda: perimeter(CellSet.full(_GRID), "b"),
     "region R must be a RegionMask"),
    ("mean_curvature_values", lambda: mean_curvature_values("x"),
     "curve must be a ProfileCurve"),
    ("evaluate_quanta-problem",
     lambda: evaluate_quanta("x", CellSet.full(_GRID)),
     "problem must be a MinCutProblem"),
    ("evaluate_quanta-D",
     lambda: evaluate_quanta(MinCutProblem(_GRID, 0.0, _NONE, _NONE), "x"),
     "cell set D must be a CellSet"),
    ("brute_force-problem", lambda: brute_force("x"),
     "problem must be a MinCutProblem"),
    ("result_to_json", lambda: result_to_json("x"),
     "result must be a MinimizerResult"),
    ("MinCutProblem-grid", lambda: MinCutProblem("g", 0.0, _NONE, _NONE),
     "grid must be a GridGeometry"),
    ("MinCutProblem-fixed_in",
     lambda: MinCutProblem(_GRID, 0.0, "a", _NONE),
     "fixed_in must be a RegionMask"),
    ("MinCutProblem-fixed_out",
     lambda: MinCutProblem(_GRID, 0.0, _NONE, "b"),
     "fixed_out must be a RegionMask"),
    ("relabeled-fixed_in",
     lambda: MinCutProblem(_GRID, 0.0, _NONE, _NONE).relabeled("a", _NONE),
     "fixed_in must be a RegionMask"),
    ("relabeled-fixed_out",
     lambda: MinCutProblem(_GRID, 0.0, _NONE, _NONE).relabeled(_NONE, "b"),
     "fixed_out must be a RegionMask"),
    ("CellSet-grid", lambda: CellSet("g", np.zeros((8, 8), dtype=bool)),
     "grid must be a GridGeometry"),
    ("RegionMask-grid",
     lambda: RegionMask("g", np.zeros((8, 8), dtype=bool)),
     "grid must be a GridGeometry"),
    ("ball-grid", lambda: RegionMask.ball("g", (1.0, 1.0), 2.0),
     "grid must be a GridGeometry"),
    ("intersect", lambda: _NONE.intersect("x"), "region must be a RegionMask"),
    ("volume-D", lambda: volume("x", _NONE), "cell set D must be a CellSet"),
    ("volume-R", lambda: volume(CellSet.full(_GRID), "x"),
     "region R must be a RegionMask"),
    ("complement", lambda: complement("x"), "cell set D must be a CellSet"),
    ("lattice-D1", lambda: lattice("x", CellSet.full(_GRID)),
     "cell set D1 must be a CellSet"),
    ("lattice-D2", lambda: lattice(CellSet.full(_GRID), "x"),
     "cell set D2 must be a CellSet"),
    ("boundary_faces", lambda: boundary_faces("x"),
     "cell set D must be a CellSet"),
    ("cellset_to_text", lambda: cellset_to_text("x"),
     "cell set D must be a CellSet"),
    ("split_perimeter-D", lambda: split_perimeter("x", 2.0, (1.0, 1.0)),
     "cell set D must be a CellSet"),
    ("stability", lambda: stability("x"), "cone must be a CliffordCone"),
    ("gamma_pm", lambda: gamma_pm("x"), "cone must be a CliffordCone"),
    ("cmc_graph_residual-cone",
     lambda: cmc_graph_residual(
         "x", RadialFunction.from_callable(_flat, 1.0, 8.0, 64), 0.0),
     "cone must be a CliffordCone"),
    ("fit_decay_exponent-leaf", lambda: fit_decay_exponent("x", _CONE),
     "leaf must be a ProfileCurve"),
    ("fit_decay_exponent-cone", lambda: fit_decay_exponent(_leaf(), "x"),
     "cone must be a CliffordCone"),
    ("leaf_to_radial_graph-leaf",
     lambda: leaf_to_radial_graph("x", _CONE, 3.0, 10.0, 64),
     "leaf must be a ProfileCurve"),
    ("leaf_to_radial_graph-cone",
     lambda: leaf_to_radial_graph(_leaf(), "x", 3.0, 10.0, 64),
     "cone must be a CliffordCone"),
    ("linearization_check-cone",
     lambda: linearization_check("x", _radial(), _radial()),
     "cone must be a CliffordCone"),
    ("linearization_check-u",
     lambda: linearization_check(_CONE, "x", _radial()),
     "radial function u must be a RadialFunction"),
    ("linearization_check-v",
     lambda: linearization_check(_CONE, _radial(), "x"),
     "radial function v must be a RadialFunction"),
    ("diagonal_wedge-grid", lambda: diagonal_wedge("g", 3, 3),
     "grid must be a GridGeometry"),
    ("cell_weights-grid", lambda: cell_weights("g", 3, 3),
     "grid must be a GridGeometry"),
    ("CellSet.empty-grid", lambda: CellSet.empty("g"),
     "grid must be a GridGeometry"),
    ("CellSet.full-grid", lambda: CellSet.full("g"),
     "grid must be a GridGeometry"),
    ("RegionMask.whole-grid", lambda: RegionMask.whole("g"),
     "grid must be a GridGeometry"),
    ("from_predicate-grid",
     lambda: RegionMask.from_predicate("g", lambda x, y: x > 0),
     "grid must be a GridGeometry"),
    ("rle_decode-text", lambda: rle_decode(5, 3), "run text must be a str"),
    ("cellset_from_text", lambda: cellset_from_text(5),
     "cell set text must be a str"),
    ("compatible-grid", lambda: _GRID.compatible("x"),
     "grid must be a GridGeometry, got str"),
    # Once a bare TypeError, and a silently short function.
    ("from_callable-fn",
     lambda: RadialFunction.from_callable("x", 1.0, 8.0, 64),
     "sample function must be a Callable, got str"),
    ("from_callable-samples",
     lambda: RadialFunction.from_callable(lambda r: r[:3], 1.0, 8.0, 64),
     "sample function gave 3 values, not 64"),
    # Once a bare ValueError or TypeError, a text rle_decode refuses
    # ("11 12 13"), or a silent cast of floats ("10 11").
    *[(f"rle_encode-{k}", lambda v=v: rle_encode(v),
       f"run bits must be a bool array, got {got}")
      for k, v, got in (("str", "abc", "str"), ("None", None, "NoneType"),
                        ("int-list", [1, 2, 3], "list"),
                        ("float", np.array([0.5, 1.5]), "a float64 array"))],
    ("from_predicate-pred", lambda: CellSet.from_predicate(_GRID, 5),
     "predicate must be a Callable, got int"),
    # Once a bare IndexError, a bare ValueError, and a RuntimeWarning
    # (an error under this suite's filter) before the refusal.
    ("curve_from_samples-one-point",
     lambda: curve_from_samples(3, 3, [1.0], [1.0]),
     "x and y must be 1-D, of one length of at least 3"),
    ("curve_from_samples-lengths",
     lambda: curve_from_samples(3, 3, [1.0, 2.0, 3.0], [1.0, 2.0]),
     "x and y must be 1-D, of one length of at least 3"),
    ("curve_from_samples-repeat",
     lambda: curve_from_samples(3, 3, [1.0, 1.0, 2.0], [1.0, 1.0, 2.0]),
     "x and y repeat a point"),
]


@pytest.mark.parametrize("call,needle", [
    pytest.param(call, needle, id=name) for name, call, needle in _REFUSALS])
def test_bad_numbers_are_refused_by_name(call, needle):
    # UsageError naming the input, with no integer's digits written out.
    with pytest.raises(UsageError, match=needle) as err:
        call()
    assert len(str(err.value)) < 200
