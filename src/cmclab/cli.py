"""Experiment runner: subcommands around the library with deterministic
file artifacts.

Each runner reads its flags from the parsed arguments, executes, and writes
JSON, CSV, CellSet, or SVG outputs atomically (temp file in the target
directory, then rename).  JSON artifacts carry schema_version and the full
echoed config, so identical configs give byte-identical files.  Exit codes:
0 success, 2 config error (a path that cannot be read or written among
them), 3 numerical failure.
"""

import argparse
import contextlib
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .grid import (UsageError, NumericalError, boundary_faces,
                   cellset_to_text, read_cellset)
from .mincut import threshold_experiment, result_to_json
from .cones import make_cone, link_spectrum
from .equivariant import (shoot_leaf, mean_curvature_values, quadrant_grid,
                          diagonal_wedge, weighted_minimize,
                          approximation_sequence)

SCHEMA_VERSION = 1


def thread_count():
    """Worker cap from CMC_LAB_THREADS; defaults to 1."""
    raw = os.environ.get("CMC_LAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"CMC_LAB_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise UsageError(f"CMC_LAB_THREADS must be >= 1, got {n}")
    return n


def atomic_write(path, text):
    """Write text to path via a same-directory temp file and rename; the
    temp file is removed if either step fails."""
    path = os.path.abspath(path)
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _echoed(args):
    """The subcommand and its parameters: every parsed flag but --outdir."""
    return {
        "subcommand": args.subcommand,
        "params": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("subcommand", "outdir")},
    }


def _write_report(args, name, doc):
    """Write doc, with schema_version and the echoed config, as the JSON
    file outdir/name and echo it to stdout; returns exit status 0."""
    doc = {"schema_version": SCHEMA_VERSION, "config": _echoed(args), **doc}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    atomic_write(os.path.join(args.outdir, name), text)
    sys.stdout.write(text)
    return 0


def _write_cellset(args, name, D):
    """Write the cell set D as the file outdir/name; returns name."""
    atomic_write(os.path.join(args.outdir, name), cellset_to_text(D))
    return name


# ---------------------------------------------------------------- spectra

def run_spectra(args):
    p, q = args.p, args.q
    cone = make_cone(p, q)
    spectrum = link_spectrum(cone, args.kmax)
    return _write_report(args, f"spectra_p{p}_q{q}.json", {
        "p": p,
        "q": q,
        "dimension": cone.n,
        "lambda1": spectrum.eigenvalues[0],
        "eigenvalues": list(spectrum.eigenvalues),
        "multiplicities": list(spectrum.multiplicities),
        "stable": spectrum.stable,
        "gamma": ([spectrum.gamma_minus, spectrum.gamma_plus]
                  if spectrum.stable else None),
    })


# -------------------------------------------------------------- plateau2d

def run_plateau2d(args):
    def job(lam):
        return threshold_experiment(args.radius, args.resolution, [lam])[0]

    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        rows = list(pool.map(job, args.lambdas))

    table = [{
        "lambda": row.lam,
        "filled": row.filled,
        "contact_excess": row.contact_excess,
        "obstacle_circumference": row.obstacle_circumference,
        "cellset": _write_cellset(args, f"plateau2d_{i:02d}.csl",
                                  row.largest),
    } for i, row in enumerate(rows)]
    return _write_report(args, "plateau2d.json", {"rows": table})


# ------------------------------------------------------------ equivariant

def run_equivariant(args):
    p, q = args.p, args.q
    grid = quadrant_grid(args.grid_n, args.box)
    r_obs = args.obstacle_radius
    if r_obs is None:
        r_obs = 0.5 * args.box
    boundary = diagonal_wedge(grid, p, q)
    res = weighted_minimize(p, q, grid, args.lam, boundary, r_obs)
    return _write_report(args, "equivariant.json", {
        "result": result_to_json(res),
        "cellset": _write_cellset(args, "equivariant_largest.csl",
                                  res.set_max),
    })


# ------------------------------------------------------------------- leaf

def run_leaf(args):
    leaf = shoot_leaf(args.p, args.q, args.s0, r_max=args.rmax)
    resid = np.abs(mean_curvature_values(leaf))
    lines = ["s,x,y,curvature_residual"]
    lines += [f"{s!r},{x!r},{y!r},{r!r}" for s, x, y, r in zip(
        leaf.s.tolist(), leaf.x.tolist(), leaf.y.tolist(), resid.tolist())]
    atomic_write(args.csv, "\n".join(lines) + "\n")
    return 0


# ------------------------------------------------------------------ approx

_APPROX_KEYS = {"p", "q", "lambda", "grid", "t_list", "annulus"}
_GRID_KEYS = {"n", "box"}


def _finite(value, key):
    """A config number as a float; booleans and non-finite values fail."""
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    except OverflowError:
        ok = False
    if not ok:
        raise UsageError(f"config key {key!r} must be a finite number")
    return float(value)


def _count(value, key):
    """A config integer >= 1; booleans fail."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise UsageError(f"config key {key!r} must be an integer >= 1")
    return value


def _load_approx_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise UsageError(f"config is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    for key in doc:
        if key not in _APPROX_KEYS:
            raise UsageError(f"unknown config key: {key!r}")
    for key in ("p", "q", "lambda", "grid", "t_list"):
        if key not in doc:
            raise UsageError(f"missing config key: {key!r}")
    gdoc = doc["grid"]
    if not isinstance(gdoc, dict):
        raise UsageError("config key 'grid' must be an object")
    for key in gdoc:
        if key not in _GRID_KEYS:
            raise UsageError(f"unknown config key: 'grid.{key}'")
    for key in _GRID_KEYS:
        if key not in gdoc:
            raise UsageError(f"missing config key: 'grid.{key}'")
    t_list = doc["t_list"]
    if not isinstance(t_list, list) or not t_list:
        raise UsageError("config key 't_list' must be a non-empty list")
    annulus = doc.get("annulus")
    if annulus is not None:
        if (not isinstance(annulus, list) or len(annulus) != 2):
            raise UsageError("config key 'annulus' must be a pair of radii")
        annulus = tuple(_finite(a, f"annulus[{i}]")
                        for i, a in enumerate(annulus))
    return (_count(doc["p"], "p"), _count(doc["q"], "q"),
            _finite(doc["lambda"], "lambda"), _count(gdoc["n"], "grid.n"),
            _finite(gdoc["box"], "grid.box"),
            [_finite(t, f"t_list[{i}]") for i, t in enumerate(t_list)],
            annulus)


def run_approx(args):
    p, q, lam, n, box, t_list, annulus = _load_approx_config(args.config)
    grid = quadrant_grid(n, box)
    report = approximation_sequence(p, q, lam, diagonal_wedge(grid, p, q),
                                    t_list, obstacle_radius=0.5 * box,
                                    annulus=annulus)
    steps = [_write_cellset(args, f"approx_step_{j:02d}.csl", Ej)
             for j, Ej in enumerate(report.sets)]
    limit = _write_cellset(args, "approx_limit.csl", report.limit_set)
    return _write_report(args, "approx.json", {
        "t_list": list(report.t_list),
        "inclusion_ok": list(report.inclusion_ok),
        "chain_ok": list(report.chain_ok),
        "sym_diff_volume": list(report.sym_diff_volume),
        "hausdorff_to_limit": list(report.hausdorff_to_E),
        "min_origin_distance": list(report.min_origin_distance),
        "singular_proxy_flag": list(report.singular_proxy_flag),
        "obstacle_radius": report.obstacle_radius,
        "annulus": list(report.annulus),
        "steps": steps,
        "limit": limit,
    })


# -------------------------------------------------------------------- plot

# Plotted coordinates stay below this magnitude, so every number the SVG
# derives from them (extent, padding, flip) is finite.
_PLOT_LIMIT = 1e300
# The SVG rounds every number to 9 decimals, so a plotted cell is at least
# this wide: its corners then stay apart by a thousand steps of 1e-9 and
# its stroke width h/4 keeps two significant digits.
_PLOT_MIN_CELL = 1e-6


def _fmt(v):
    return repr(round(float(v), 9))


def _interface_segments(D):
    """Interface faces of a 2-D cell set as an (m, 2, 2) array of unit
    segments, each face's midpoint -/+ h/2 across its normal axis, in
    boundary_faces order."""
    if D.grid.d != 2:
        raise UsageError("plot supports 2-D cell sets only")
    if not D.grid.h * max(D.grid.dims) < _PLOT_LIMIT:
        raise UsageError(f"cell set extent is over {_PLOT_LIMIT:g}")
    if not D.grid.h >= _PLOT_MIN_CELL:
        raise UsageError(f"cell size {D.grid.h:g} is below "
                         f"{_PLOT_MIN_CELL:g}, which the SVG cannot resolve")
    mids, axes = boundary_faces(D)
    if not len(axes):
        raise UsageError("cell set has no interface to plot")
    half = np.zeros_like(mids)
    half[np.arange(len(axes)), 1 - axes] = 0.5 * D.grid.h
    return np.stack([mids - half, mids + half], axis=1)


def _chain_segments(keys):
    """Join segments into maximal polylines by shared endpoints.

    keys is an (m, 2, 2) array: endpoint j of segment s is keys[s, j], and
    equal keys are one vertex.  One sort orders the vertices by key and
    lists each vertex's segments in input order.  Open chains start at the
    degree-1 vertices, in vertex order: first where the vertex is its
    segment's first point, then where it is the second.  Closed chains then
    start at the smallest remaining segment, compared as (first point,
    second point).  Each step takes the first unused segment at the chain's
    end.  Returns each chain as an array of endpoint indices into
    keys.reshape(-1, 2), one per vertex.
    """
    flat = keys.reshape(-1, 2)
    order = np.lexsort((flat[:, 1], flat[:, 0]))
    new = np.ones(len(order), dtype=bool)
    new[1:] = (flat[order[1:]] != flat[order[:-1]]).any(axis=1)
    vertex = np.empty(len(order), dtype=np.int64)
    vertex[order] = np.cumsum(new) - 1
    first = np.flatnonzero(new).tolist() + [len(order)]
    incident = (order // 2).tolist()
    seg = vertex.reshape(-1, 2).tolist()
    used = [False] * len(seg)
    unread = first[:-1]    # per vertex, the first incident entry not used

    def walk(v, s):
        chain = [v]
        while s is not None:
            used[s] = True
            v = seg[s][1] if seg[s][0] == v else seg[s][0]
            chain.append(v)
            i, end = unread[v], first[v + 1]
            while i < end and used[incident[i]]:
                i += 1
            unread[v] = i
            s = incident[i] if i < end else None
        return chain

    vertices = range(len(first) - 1)
    tips = [v for v in vertices if first[v + 1] - first[v] == 1]
    chains = []
    for j in (0, 1):
        for v in tips:
            s = incident[first[v]]
            if not used[s] and seg[s][j] == v:
                chains.append(walk(v, s))
    for v in vertices:
        while out := [(seg[s][1], s) for s in incident[first[v]:first[v + 1]]
                      if seg[s][0] == v and not used[s]]:
            chains.append(walk(v, min(out)[1]))
    at = order[new]
    return [at[c] for c in chains]


def _svg_document(polylines, bbox, stroke_width):
    """SVG of polylines, each a (k, 2) array, with y flipped in bbox."""
    x0, y0, x1, y1 = bbox
    flip = float(y0 + y1)
    pad = 0.05 * max(x1 - x0, y1 - y0, stroke_width)
    vb = " ".join(map(_fmt, (x0 - pad, y0 - pad,
                             x1 - x0 + 2 * pad, y1 - y0 + 2 * pad)))
    tail = (f'" fill="none" stroke="black" '
            f'stroke-width="{_fmt(stroke_width)}"/>')
    body = "\n".join(
        '  <path d="M ' + " L ".join(
            f"{round(x, 9)!r} {round(flip - y, 9)!r}"
            for x, y in line.tolist()) + tail
        for line in polylines)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}">\n'
            f"{body}\n</svg>\n")


def run_plot(args):
    src = args.input
    with open(src, "r", encoding="utf-8") as fh:
        head = fh.readline()

    if head.startswith("cmcgrid "):
        D = read_cellset(src)
        ends = _interface_segments(D)
        # Lattice vertices as odd integers, exact at any cell size.
        keys = np.rint(2 * (ends - D.grid.origin) / D.grid.h)
        pts = np.round(ends.reshape(-1, 2), 9)
        lines = [pts[c] for c in _chain_segments(keys)]
        bbox = (*ends.min(axis=(0, 1)), *ends.max(axis=(0, 1)))
        text = _svg_document(lines, bbox, 0.25 * D.grid.h)
    elif head.strip().startswith("s,x,y"):
        try:
            with warnings.catch_warnings():
                # an empty body is refused below, without numpy's warning
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(src, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as e:
            raise UsageError(f"bad curve CSV: {e}")
        if len(data) < 2:
            raise UsageError("curve CSV needs at least two rows")
        if data.shape[1] < 3:
            raise UsageError("curve CSV must have columns s,x,y,...")
        xy = data[:, 1:3]
        if not (np.abs(xy) < _PLOT_LIMIT).all():
            raise UsageError(f"curve x and y must be finite and below "
                             f"{_PLOT_LIMIT:g} in magnitude")
        (x0, y0), (x1, y1) = xy.min(axis=0), xy.max(axis=0)
        span = max(x1 - x0, y1 - y0)
        if span == 0:
            raise UsageError("curve has zero extent")
        text = _svg_document([xy], (x0, y0, x1, y1), 0.004 * span)
    else:
        raise UsageError("input is neither a cell-set file nor a curve CSV")
    atomic_write(args.output, text)
    return 0


# ------------------------------------------------------------------ driver

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError, so they print as
    one config error line; its subcommand parsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="cmclab",
        description="constant-mean-curvature minimization experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--outdir", default=".")

    sp = sub.add_parser("spectra", help="link spectrum and stability of a cone")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--kmax", type=int, required=True)
    common(sp)

    sp = sub.add_parser("plateau2d", help="half-plane obstacle lambda sweep")
    sp.add_argument("--radius", type=float, required=True)
    sp.add_argument("--resolution", type=int, required=True)
    sp.add_argument("--lambda", dest="lambdas", type=float, required=True,
                    action="append")
    common(sp)

    sp = sub.add_parser("equivariant", help="weighted quadrant minimization")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--grid-n", type=int, required=True)
    sp.add_argument("--box", type=float, default=1.0)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--obstacle-radius", type=float, default=None)
    common(sp)

    sp = sub.add_parser("leaf", help="shoot one leaf and emit a CSV")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--s0", type=float, required=True)
    sp.add_argument("--rmax", type=float, default=None)
    sp.add_argument("--csv", required=True)

    sp = sub.add_parser("approx", help="inward-perturbation run from a config")
    sp.add_argument("--config", required=True)
    common(sp)

    sp = sub.add_parser("plot", help="render a cell set or curve CSV to SVG")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    return parser


_RUNNERS = {
    "spectra": run_spectra,
    "plateau2d": run_plateau2d,
    "equivariant": run_equivariant,
    "leaf": run_leaf,
    "approx": run_approx,
    "plot": run_plot,
}


def main(argv=None):
    """Parse argv, run its subcommand, and map each failure to an exit
    status: 2 for a config error or a named path that cannot be read or
    written, 3 for a numerical failure."""
    try:
        args = build_parser().parse_args(argv)
        return _RUNNERS[args.subcommand](args)
    except SystemExit as e:    # --help: the parser's only exit
        return e.code if e.code is not None else 0
    except UsageError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as e:
        print(f"config error: cannot read or write: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        diag = {
            "schema_version": SCHEMA_VERSION,
            "error": type(e).__name__,
            "detail": str(e),
        }
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
