"""The benchmark's workloads: CLI invocations per pass, their inputs, and the
semantic checks run on each pass's artifacts.

A workload is built from a seed.  The seed perturbs only values that leave
the work size fixed (t scales, lambda factors, s0), each by at most 3%; seed
0 is the reference configuration.  Checks test what the artifacts mean, not
their bytes, so a change that alters artifacts for a stated correctness
reason is not counted as failing.  Each check belongs to one invocation; an
invocation fails when it exits non-zero or one of its checks fails.
"""

import json
import math
import os
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

# Largest relative perturbation a seed applies.
SEED_SPREAD = 0.03
# Interior curvature residual allowed on the leaf CSV; the reference leaf
# measures 3.3e-7.
LEAF_RESIDUAL_BOUND = 1e-5


class CheckFailure(Exception):
    """An artifact does not say what the invocation promised."""


def require(cond, message):
    if not cond:
        raise CheckFailure(message)


@dataclass
class Workload:
    name: str
    invocations: list            # argv lists, run in order
    inputs: dict = field(default_factory=dict)   # file name -> text
    checks: list = field(default_factory=list)   # (invocation index, fn)

    def check(self, work_dir, rcs):
        """Per invocation, the reason it failed, or None."""
        failures = []
        for i in range(len(self.invocations)):
            rc = rcs[i] if i < len(rcs) else None
            failures.append(None if rc == 0 else f"exit status {rc}")
        for i, fn in self.checks:
            if failures[i] is not None:
                continue
            try:
                fn(work_dir)
            except CheckFailure as e:
                failures[i] = f"check {fn.__name__}: {e}"
            except (OSError, ValueError, KeyError, IndexError, TypeError,
                    ET.ParseError) as e:
                failures[i] = f"check {fn.__name__}: {type(e).__name__}: {e}"
        return failures


def _factor(seed):
    """1 for seed 0, else a seeded factor within 1 +- SEED_SPREAD."""
    if seed == 0:
        return 1.0
    return 1.0 + SEED_SPREAD * random.Random(seed).uniform(-1.0, 1.0)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cellset(path):
    from cmclab.grid import read_cellset
    return read_cellset(path)


def check_svg(path):
    """The file is an SVG document with at least one non-empty path."""
    def check_svg(work_dir):
        root = ET.parse(os.path.join(work_dir, path)).getroot()
        require(root.tag.endswith("svg"), f"{path}: root is {root.tag}")
        paths = [el for el in root.iter() if el.tag.endswith("path")]
        require(paths, f"{path}: no path element")
        require(all(el.get("d", "").startswith("M") for el in paths),
                f"{path}: a path has no move-to data")
    return check_svg


# ----------------------------------------------------------- quadrant_approx

APPROX_T = (1 / 16, 1 / 32, 1 / 64, 1 / 128)


def quadrant_approx(seed):
    """approx on the (3,3) quadrant at n=256 with four t, then a plot.

    mincut.solve is about 96% of a traced pass: 6 solves on nested data whose
    consecutive step sets differ in a few percent of the free cells, so warm
    restriction, coefficient reuse and any flow backend show here first.
    """
    scale = _factor(seed)
    t_list = [scale * t for t in APPROX_T]
    config = {"p": 3, "q": 3, "lambda": 0.0,
              "grid": {"n": 256, "box": 1.0}, "t_list": t_list}

    def check_approx(work_dir):
        doc = _load_json(os.path.join(work_dir, "approx.json"))
        k = len(t_list)
        require(doc["t_list"] == t_list, "t_list is not the input's")
        require(len(doc["inclusion_ok"]) == k and all(doc["inclusion_ok"]),
                "inclusion_ok is not all true")
        require(len(doc["chain_ok"]) == k and all(doc["chain_ok"]),
                "chain_ok is not all true")
        sym = doc["sym_diff_volume"]
        require(len(sym) == k and all(b < a for a, b in zip(sym, sym[1:])),
                f"sym_diff_volume does not strictly decrease: {sym}")
        require(doc["steps"] == [f"approx_step_{j:02d}.csl"
                                 for j in range(k)],
                "not one step file per t")
        limit = _cellset(os.path.join(work_dir, doc["limit"]))
        prev = None
        for name in doc["steps"]:
            step = _cellset(os.path.join(work_dir, name))
            require(np.all(step.bits <= limit.bits),
                    f"{name} is not inside the limit set")
            require(prev is None or np.all(prev.bits <= step.bits),
                    f"{name} does not contain the previous step")
            prev = step

    return Workload(
        "quadrant_approx",
        [["approx", "--config", "approx_config.json", "--outdir", "."],
         ["plot", "--input", "approx_limit.csl",
          "--output", "approx_limit.svg"]],
        inputs={"approx_config.json": json.dumps(config) + "\n"},
        checks=[(0, check_approx), (1, check_svg("approx_limit.svg"))])


# ------------------------------------------------------------- plateau_sweep

PLATEAU_RADIUS = 64
PLATEAU_LAMBDAS = 8


def plateau_sweep(seed):
    """One plateau2d call at radius 64 with 8 lambdas from 0 to twice the
    disk threshold 2/r.

    The same mincut layer used differently: unweighted cc data, h=1, many
    lambdas on fixed data through the pool thread.  A lambda-ordered sweep
    and removing the pool show here; warm restriction of the approximation
    sequence must show no change.
    """
    r = PLATEAU_RADIUS
    top = 2.0 * (2.0 / r) * _factor(seed)
    lams = [top * k / (PLATEAU_LAMBDAS - 1) for k in range(PLATEAU_LAMBDAS)]
    argv = ["plateau2d", "--radius", str(r), "--resolution", "136",
            "--outdir", "."]
    for lam in lams:
        argv += ["--lambda", repr(lam)]

    def check_sweep(work_dir):
        rows = _load_json(os.path.join(work_dir, "plateau2d.json"))["rows"]
        require([row["lambda"] for row in rows] == lams,
                "rows are not one per lambda in input order")
        filled = [row["filled"] for row in rows]
        require(all(b >= a for a, b in zip(filled, filled[1:])),
                f"filled is not non-decreasing in lambda: {filled}")
        require(not filled[0] and filled[-1],
                f"filled must be false at lambda 0 and true at the top: "
                f"{filled}")
        prev = None
        for row in rows:
            cur = _cellset(os.path.join(work_dir, row["cellset"]))
            require(prev is None or np.all(prev.bits <= cur.bits),
                    f"{row['cellset']} does not contain the set of the "
                    "previous lambda")
            prev = cur

    return Workload(
        "plateau_sweep", [argv], checks=[(0, check_sweep)])


# ------------------------------------------------------------------ curve_io

LEAF_DS = 5e-4          # leaf sample spacing, in units of s0
LEAF_EXIT = 50.0        # default exit radius, in units of s0
EQUIVARIANT_N = 128


def curve_io(seed):
    """leaf (98,852 CSV lines), plot of it, spectra, a small equivariant
    solve, and a plot of its cell set.

    The self time of run_leaf and run_plot, mostly CSV and SVG text
    formatting, is about 90% of a traced pass and mincut about 3%.
    Vectorized output and lazy imports show here, and solver work must not.
    """
    s0 = _factor(seed)

    def check_leaf(work_dir):
        path = os.path.join(work_dir, "leaf.csv")
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
        require(header == "s,x,y,curvature_residual",
                f"bad CSV header {header!r}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        require(data.shape[1] == 4 and len(data) > 2, "CSV is not 4 columns")
        s, x, y, resid = data.T
        ds = LEAF_DS * s0
        require(np.array_equal(s, np.arange(len(s)) * ds),
                "rows are not exactly on the arclength grid k*ds")
        require(x[0] == s0 and y[0] == 0.0, "curve does not start at (s0, 0)")
        r_end = math.hypot(x[-1], y[-1])
        r_max = LEAF_EXIT * s0
        require(r_max - ds <= r_end <= r_max,
                f"last row at radius {r_end}, exit radius {r_max}")
        require(np.isnan(resid[0]) and np.isnan(resid[-1]),
                "endpoint residuals are not nan")
        worst = float(np.max(resid[1:-1]))
        require(worst < LEAF_RESIDUAL_BOUND,
                f"interior curvature residual {worst} >= "
                f"{LEAF_RESIDUAL_BOUND}")

    def check_spectra(work_dir):
        doc = _load_json(os.path.join(work_dir, "spectra_p3_q3.json"))
        require(doc["lambda1"] == -6, f"lambda1 is {doc['lambda1']}")
        require(doc["stable"] is True, "the (3,3) cone is not stable")
        require(len(doc["eigenvalues"]) == 2000, "not kmax eigenvalues")

    def check_equivariant(work_dir):
        from cmclab.equivariant import (cell_weights, diagonal_wedge,
                                        quadrant_grid)
        from cmclab.grid import RegionMask
        from cmclab.mincut import MinCutProblem, evaluate_quanta
        doc = _load_json(os.path.join(work_dir, "equivariant.json"))
        largest = _cellset(os.path.join(work_dir, doc["cellset"]))
        grid = quadrant_grid(EQUIVARIANT_N, 1.0)
        wedge = diagonal_wedge(grid, 3, 3).bits
        X, Y = grid.center_mesh()
        outside = X**2 + Y**2 > 0.5**2
        problem = MinCutProblem(
            grid, 0.0, RegionMask(grid, wedge & outside),
            RegionMask(grid, ~wedge & outside),
            cell_weight=cell_weights(grid, 3, 3))
        got = evaluate_quanta(problem, largest)
        want = doc["result"]["energy_quanta"]
        require(got == want, f"energy_quanta {want}, the written set "
                f"evaluates to {got}")
        require(np.array_equal(largest.bits[outside], wedge[outside]),
                "the largest set breaks the fixed boundary labels")

    return Workload(
        "curve_io",
        [["leaf", "--p", "3", "--q", "3", "--s0", repr(s0),
          "--csv", "leaf.csv"],
         ["plot", "--input", "leaf.csv", "--output", "leaf.svg"],
         ["spectra", "--p", "3", "--q", "3", "--kmax", "2000",
          "--outdir", "."],
         ["equivariant", "--p", "3", "--q", "3",
          "--grid-n", str(EQUIVARIANT_N), "--lambda", "0.0",
          "--outdir", "."],
         ["plot", "--input", "equivariant_largest.csl",
          "--output", "equivariant.svg"]],
        checks=[(0, check_leaf), (1, check_svg("leaf.svg")),
                (2, check_spectra), (3, check_equivariant),
                (4, check_svg("equivariant.svg"))])


WORKLOADS = {
    "quadrant_approx": quadrant_approx,
    "plateau_sweep": plateau_sweep,
    "curve_io": curve_io,
}
