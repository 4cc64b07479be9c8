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

from .grid import (UsageError, NumericalError, _BLOCK, _finite, _integer,
                   boundary_faces, cellset_to_text, read_cellset)
from .mincut import threshold_experiment, result_to_json
from .cones import make_cone, link_spectrum
from .equivariant import (shoot_leaf, mean_curvature_values, quadrant_grid,
                          diagonal_wedge, weighted_minimize,
                          approximation_sequence)

SCHEMA_VERSION = 1


def atomic_write(path, text):
    """Write text, a str or an iterable of str chunks written in turn, to
    path via a same-directory temp file and rename; the temp file is
    removed if either step fails, a chunk that raises included."""
    path = os.path.abspath(path)
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
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


def _save_cellset(args, name, D):
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
    # One job: the sweep is sequential, each lambda solved from the
    # minimizer of the one below it.  It runs on one pool thread, which
    # clibench/test_clibench.py pins.
    with ThreadPoolExecutor(max_workers=1) as pool:
        rows = pool.submit(threshold_experiment, args.radius,
                           args.resolution, args.lambdas).result()

    table = [{
        "lambda": row.lam,
        "filled": row.filled,
        "contact_excess": row.contact_excess,
        "obstacle_circumference": row.obstacle_circumference,
        "cellset": _save_cellset(args, f"plateau2d_{i:02d}.csl",
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
        "cellset": _save_cellset(args, "equivariant_largest.csl",
                                 res.set_max),
    })


# ------------------------------------------------------------------- leaf

class _Chunks:
    """Text made as str chunks by blocks(*args), called anew on each
    iteration: atomic_write writes each chunk as it is made, so the whole
    text is never held.  encode() renders the text again and returns
    str.encode of the joined text; only clibench's tracer calls it, to
    count the bytes atomic_write wrote."""

    def __init__(self, blocks, *args):
        self._blocks = blocks
        self._args = args

    def __iter__(self):
        return iter(self._blocks(*self._args))

    def encode(self, encoding="utf-8"):
        return "".join(self).encode(encoding)


def _leaf_csv(columns):
    """The leaf CSV's header, then its rows formatted _BLOCK at a time from
    columns, the four 1-D arrays s, x, y and |H|; only a block of rows is
    ever stacked."""
    yield "s,x,y,curvature_residual\n"
    for i in range(0, len(columns[0]), _BLOCK):
        block = np.column_stack([c[i:i + _BLOCK] for c in columns])
        yield (("%r,%r,%r,%r\n" * len(block))
               % tuple(block.ravel().tolist()))


def run_leaf(args):
    leaf = shoot_leaf(args.p, args.q, args.s0, r_max=args.rmax)
    resid = mean_curvature_values(leaf)
    np.abs(resid, out=resid)
    atomic_write(args.csv,
                 _Chunks(_leaf_csv, (leaf.s, leaf.x, leaf.y, resid)))
    return 0


# ------------------------------------------------------------------ approx

def _check_keys(doc, required, optional=(), prefix=""):
    """UsageError for the first key of doc outside required and optional,
    in doc's order, else for the first of required missing from doc, in
    required's order, so the key named never depends on hashing."""
    for key in doc:
        if key not in required + optional:
            raise UsageError(f"unknown config key: {prefix + key!r}")
    for key in required:
        if key not in doc:
            raise UsageError(f"missing config key: {prefix + key!r}")


def _load_approx_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as e:    # JSONDecodeError, or an int past the digit limit
        raise UsageError(f"config is not valid JSON: {e}")
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    _check_keys(doc, ("p", "q", "lambda", "grid", "t_list"), ("annulus",))
    gdoc = doc["grid"]
    if not isinstance(gdoc, dict):
        raise UsageError("config key 'grid' must be an object")
    _check_keys(gdoc, ("n", "box"), prefix="grid.")
    t_list = doc["t_list"]
    if not isinstance(t_list, list) or not t_list:
        raise UsageError("config key 't_list' must be a non-empty list")
    key = "config key {!r}".format
    annulus = doc.get("annulus")
    if annulus is not None:
        if (not isinstance(annulus, list) or len(annulus) != 2):
            raise UsageError("config key 'annulus' must be a pair of radii")
        annulus = tuple(_finite(a, key(f"annulus[{i}]"))
                        for i, a in enumerate(annulus))
    return (_integer(doc["p"], key("p"), 1), _integer(doc["q"], key("q"), 1),
            _finite(doc["lambda"], key("lambda")),
            _integer(gdoc["n"], key("grid.n"), 1),
            _finite(gdoc["box"], key("grid.box")),
            [_finite(t, key(f"t_list[{i}]")) for i, t in enumerate(t_list)],
            annulus)


def _nulled(distances):
    """The distances as a JSON list, with null for the inf that a step
    set without an interface gives; JSON has no Infinity."""
    return [None if math.isinf(v) else v for v in distances]


def run_approx(args):
    p, q, lam, n, box, t_list, annulus = _load_approx_config(args.config)
    grid = quadrant_grid(n, box)
    report = approximation_sequence(p, q, lam, diagonal_wedge(grid, p, q),
                                    t_list, obstacle_radius=0.5 * box,
                                    annulus=annulus)
    steps = [_save_cellset(args, f"approx_step_{j:02d}.csl", Ej)
             for j, Ej in enumerate(report.sets)]
    limit = _save_cellset(args, "approx_limit.csl", report.limit_set)
    return _write_report(args, "approx.json", {
        "t_list": list(report.t_list),
        "inclusion_ok": list(report.inclusion_ok),
        "chain_ok": list(report.chain_ok),
        "sym_diff_volume": list(report.sym_diff_volume),
        "hausdorff_to_limit": _nulled(report.hausdorff_to_E),
        "min_origin_distance": _nulled(report.min_origin_distance),
        "step_free_cells": list(report.step_free_cells),
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
# A plotted curve spans at least this much in x or y: its stroke width
# 0.004 * span is then at least 1e-8, ten steps of 1e-9, so it too keeps
# two significant digits.
_PLOT_MIN_EXTENT = 2.5e-6


def _dec9(v):
    """repr(round(v, 9)) of a float v, the SVG's one number format.

    For 1e-4 <= |v| < 1e6 it is "%.9f" % v without trailing zeros but one
    after the point: round and %.9f take the same 9 decimals from one
    correctly rounded conversion, which has at most 15 significant digits
    there, so the rounded double's shortest repr is those digits, written
    positionally.  Below 1e-4 repr switches to exponent form, and from 1e6
    up the digits can pass 15, so those values go through repr(round()).
    """
    if 1e-4 <= abs(v) < 1e6:
        s = ("%.9f" % v).rstrip("0")
        return s + "0" if s[-1] == "." else s
    return repr(round(v, 9))


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


def _path_points(line, flip):
    """The points of a (k, 2) polyline as "x y" strings joined by " L ",
    with y flipped to flip - y, in chunks of _BLOCK points."""
    for i in range(0, len(line), _BLOCK):
        block = line[i:i + _BLOCK]
        xs = map(_dec9, block[:, 0].tolist())
        ys = map(_dec9, (flip - block[:, 1]).tolist())
        yield " L " * (i > 0) + " L ".join(map(" ".join, zip(xs, ys)))


def _svg_document(polylines, bbox, stroke_width):
    """SVG of polylines, each a (k, 2) array, with y flipped in bbox, as
    str chunks: the header, each path's text in blocks, the footer."""
    x0, y0, x1, y1 = map(float, bbox)
    stroke_width = float(stroke_width)
    flip = y0 + y1
    pad = 0.05 * max(x1 - x0, y1 - y0, stroke_width)
    vb = " ".join(map(_dec9, (x0 - pad, y0 - pad,
                              x1 - x0 + 2 * pad, y1 - y0 + 2 * pad)))
    yield f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}">\n'
    for i, line in enumerate(polylines):
        yield "\n" * (i > 0) + '  <path d="M '
        yield from _path_points(line, flip)
        yield (f'" fill="none" stroke="black" '
               f'stroke-width="{_dec9(stroke_width)}"/>')
    yield "\n</svg>\n"


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
        width = 0.25 * D.grid.h
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
        # A column holding a nan has a nan min and max, which fail here.
        lo, hi = xy.min(axis=0), xy.max(axis=0)
        if not ((lo > -_PLOT_LIMIT).all() and (hi < _PLOT_LIMIT).all()):
            raise UsageError(f"curve x and y must be finite and below "
                             f"{_PLOT_LIMIT:g} in magnitude")
        (x0, y0), (x1, y1) = lo, hi
        span = max(x1 - x0, y1 - y0)
        if not span >= _PLOT_MIN_EXTENT:
            raise UsageError(f"curve extent {span:g} is below "
                             f"{_PLOT_MIN_EXTENT:g}, which the SVG cannot "
                             f"resolve")
        lines, bbox, width = [xy], (x0, y0, x1, y1), 0.004 * span
    else:
        raise UsageError("input is neither a cell-set file nor a curve CSV")
    atomic_write(args.output, _Chunks(_svg_document, lines, bbox, width))
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
