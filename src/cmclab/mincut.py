"""Exact global minimization of perimeter - lambda*volume over grid sets.

The functional is submodular: pairwise terms charge stencil weight whenever
two neighboring labels differ, the volume term is linear.  Minimization is a
single s-t min cut with the convention label 1 = source side.  Capacities are
energy quanta, h^(d-1)/2^20 each; pairwise capacities round up so that every
cut arc costs at least one quantum, volume coefficients round to nearest.
All exactness statements (solver vs. brute force, lattice identities) are
about the quantized energy.

Extremal minimizers come from residual reachability: cells reachable from the
source form the smallest minimizer, cells not reaching the sink form the
largest.  Uniqueness is their coincidence.

The max-flow backend works on int32 capacities and wraps silently past 2^31,
so capacities and both terminal totals are guarded first.  Before that, the
coefficients are refused unless their total magnitude stays below 2^62
quanta, so no int64 energy sum can wrap.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .grid import (CellSet, GridGeometry, NumericalError, RegionMask,
                   UsageError, _offset_slices, boundary_faces, perimeter,
                   rle_decode, rle_encode)

QUANT_BITS = 20
_INT32_MAX = 2**31 - 1


class CapacityOverflowError(NumericalError):
    """Quantized capacities would exceed what the flow backend can carry."""


def quantum(grid):
    """Energy represented by one capacity unit."""
    return grid.h ** (grid.d - 1) / 2**QUANT_BITS


@dataclass(frozen=True, eq=False)
class MinCutProblem:
    """A discrete instance: fixed labels outside the free window, lambda,
    optional positive cell weights, and the region where energy is counted."""

    grid: GridGeometry
    lam: float
    fixed_in: RegionMask
    fixed_out: RegionMask
    cell_weight: np.ndarray = None
    active_region: RegionMask = None

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise UsageError(f"lambda must be finite, got {self.lam}")
        for mask in (self.fixed_in, self.fixed_out):
            if not mask.grid.compatible(self.grid):
                raise UsageError("fixed-label masks live on a different grid")
        if np.any(self.fixed_in.bits & self.fixed_out.bits):
            raise UsageError("fixed_in and fixed_out overlap")
        if self.cell_weight is not None:
            w = np.asarray(self.cell_weight, dtype=float).reshape(self.grid.dims)
            if not (np.all(np.isfinite(w)) and np.all(w > 0)):
                raise UsageError("cell weights must be positive and finite")
            w = w.copy()
            w.setflags(write=False)
            object.__setattr__(self, "cell_weight", w)
        if self.active_region is not None:
            if not self.active_region.grid.compatible(self.grid):
                raise UsageError("active_region lives on a different grid")
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def free(self):
        return RegionMask(self.grid,
                          ~(self.fixed_in.bits | self.fixed_out.bits))

    def labels(self):
        """Per-cell label: 1 fixed in, 0 fixed out, -1 free."""
        lab = np.full(self.grid.dims, -1, dtype=np.int8)
        lab[self.fixed_out.bits] = 0
        lab[self.fixed_in.bits] = 1
        return lab

    def weights(self):
        if self.cell_weight is None:
            return np.ones(self.grid.dims)
        return self.cell_weight

    def active_bits(self):
        if self.active_region is None:
            return np.ones(self.grid.dims, dtype=bool)
        return self.active_region.bits


@dataclass(frozen=True)
class MinimizerResult:
    set_min: CellSet
    set_max: CellSet
    energy: float
    energy_quanta: int
    quantum: float
    unique: bool
    flow_stats: dict


def _coefficients(problem):
    """Integer arc capacities per stencil edge and volume gains per cell.

    Arcs outside the active region carry nothing; each kept arc costs
    ceil(weight * 2^20 * mean incident cell weight) quanta, so no cut arc is
    ever free.  Gains are round(lambda * h * 2^20 * cell weight).  Both are
    built in floats; CapacityOverflowError unless their magnitudes, summed,
    stay below 2^62 quanta, so every energy sum fits int64.
    """
    grid = problem.grid
    act = problem.active_bits()
    cw = problem.weights()
    flat = np.arange(grid.ncells).reshape(grid.dims)
    ai, bi, caps = [], [], []
    with np.errstate(over="ignore"):
        for w, offsets in grid.levels():
            scale = w * 2**QUANT_BITS
            for off in offsets:
                sa, sb = _offset_slices(grid.dims, off)
                keep = act[sa] & act[sb]
                ai.append(flat[sa][keep])
                bi.append(flat[sb][keep])
                mw = 0.5 * (cw[sa][keep] + cw[sb][keep])
                caps.append(np.ceil(scale * mw))
        caps = np.concatenate(caps)
        gains = np.where(
            act, np.rint(problem.lam * grid.h * 2**QUANT_BITS * cw), 0.0)
        total = caps.sum() + np.abs(gains).sum()
    if not total < 2.0**62:
        raise CapacityOverflowError(
            f"energy coefficients total {total:.3g} quanta, over the int64 "
            f"budget of 2^62; shrink the grid or rescale lambda")
    return (np.concatenate(ai), np.concatenate(bi), caps.astype(np.int64),
            gains.astype(np.int64).ravel())


def _quanta(coeffs, D):
    """Quantized energy of D under coefficients built by _coefficients."""
    ai, bi, caps, gains = coeffs
    bits = D.bits.ravel()
    cut = bits[ai] != bits[bi]
    return int(caps[cut].sum()) - int(gains[bits].sum())


def evaluate_quanta(problem, D):
    """Quantized energy of an arbitrary cell set under this problem's
    coefficients; the arithmetic path shared by solve and brute_force."""
    if not D.grid.compatible(problem.grid):
        raise UsageError("cell set lives on a different grid")
    return _quanta(_coefficients(problem), D)


def evaluate(problem, D):
    """Energy of a cell set in physical units, via the quantized path."""
    return evaluate_quanta(problem, D) * quantum(problem.grid)


@dataclass
class _Linearized:
    n_free: int
    theta0: np.ndarray
    theta1: np.ndarray
    ei: np.ndarray
    ej: np.ndarray
    ew: np.ndarray
    const: int
    labels_flat: np.ndarray
    coeffs: tuple


def _linearized(problem):
    """Fold fixed labels into unary terms over free cells plus a constant."""
    coeffs = _coefficients(problem)
    ai, bi, caps, gains = coeffs
    lab = problem.labels().ravel()
    free_flat = np.flatnonzero(lab < 0)
    m = len(free_flat)
    fid = np.full(lab.size, -1, dtype=np.int64)
    fid[free_flat] = np.arange(m)

    theta0 = np.zeros(m, dtype=np.int64)
    theta1 = np.zeros(m, dtype=np.int64)
    const = 0

    fa, fb = fid[ai], fid[bi]
    both = (fa >= 0) & (fb >= 0)
    ei, ej, ew = fa[both], fb[both], caps[both]

    for aa, bb in ((ai, bi), (bi, ai)):
        sel = (fid[aa] >= 0) & (fid[bb] < 0)
        tgt = fid[aa[sel]]
        opp = lab[bb[sel]]
        c = caps[sel]
        np.add.at(theta1, tgt[opp == 0], c[opp == 0])
        np.add.at(theta0, tgt[opp == 1], c[opp == 1])
    fixed_pair = (fa < 0) & (fb < 0)
    const += int(caps[fixed_pair][lab[ai[fixed_pair]] != lab[bi[fixed_pair]]].sum())

    theta1 -= gains[free_flat]
    const -= int(gains[lab == 1].sum())

    shift = np.minimum(theta0, theta1)
    theta0 -= shift
    theta1 -= shift
    const += int(shift.sum())
    return _Linearized(m, theta0, theta1, ei, ej, ew, const, lab, coeffs)


def _assemble(problem, lab_flat, free_bits):
    bits = lab_flat == 1
    bits[lab_flat < 0] = free_bits
    return CellSet(problem.grid, bits.reshape(problem.grid.dims))


def _check_energy(coeffs, result_quanta, *sets):
    for D in sets:
        got = _quanta(coeffs, D)
        if got != result_quanta:
            raise NumericalError(
                f"energy bookkeeping broke: cut gives {result_quanta} quanta, "
                f"re-evaluation gives {got}")


def solve(problem):
    """Global minimizer pair by max-flow.

    Returns the inclusion-smallest and inclusion-largest minimizers, the
    minimum energy (quantized), and whether the minimizer is unique.
    """
    lin = _linearized(problem)
    m = lin.n_free
    if m == 0:
        D = _assemble(problem, lin.labels_flat, np.zeros(0, dtype=bool))
        q = _quanta(lin.coeffs, D)
        return MinimizerResult(D, D, q * quantum(problem.grid), q,
                               quantum(problem.grid), True,
                               {"backend": "none", "free_cells": 0})

    s, t = m, m + 1
    rows = [lin.ei, lin.ej]
    cols = [lin.ej, lin.ei]
    vals = [lin.ew, lin.ew]
    src = np.flatnonzero(lin.theta0)
    rows.append(np.full(len(src), s, dtype=np.int64))
    cols.append(src)
    vals.append(lin.theta0[src])
    snk = np.flatnonzero(lin.theta1)
    rows.append(snk)
    cols.append(np.full(len(snk), t, dtype=np.int64))
    vals.append(lin.theta1[snk])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)

    src_total = int(lin.theta0.sum())
    snk_total = int(lin.theta1.sum())
    max_cap = int(vals.max()) if len(vals) else 0
    if max_cap > _INT32_MAX or min(src_total, snk_total) > _INT32_MAX:
        raise CapacityOverflowError(
            f"arc capacities out of range for the flow backend: "
            f"largest arc {max_cap} quanta, terminal totals "
            f"{src_total}/{snk_total}; shrink the grid or rescale lambda")

    graph = csr_matrix((vals, (rows, cols)), shape=(m + 2, m + 2),
                       dtype=np.int64).astype(np.int32)
    res = maximum_flow(graph, s, t)

    # Every stored entry of the residual is a positive capacity: flow stays
    # within each arc's capacity and is antisymmetric, so graph - flow is
    # never negative, and scipy's sparse subtraction stores no zeros.  The
    # stored entries are therefore exactly the residual arcs.
    residual = graph - res.flow
    order = breadth_first_order(residual, s, directed=True,
                                return_predecessors=False)
    x_min = np.zeros(m, dtype=bool)
    x_min[order[order < m]] = True
    order_t = breadth_first_order(residual.T, t, directed=True,
                                  return_predecessors=False)
    x_max = np.ones(m, dtype=bool)
    x_max[order_t[order_t < m]] = False

    set_min = _assemble(problem, lin.labels_flat, x_min)
    set_max = _assemble(problem, lin.labels_flat, x_max)
    q = lin.const + int(res.flow_value)
    _check_energy(lin.coeffs, q, set_min, set_max)
    stats = {"backend": "scipy.maximum_flow", "flow_value": int(res.flow_value),
             "nodes": m + 2, "arcs": int(graph.nnz)}
    return MinimizerResult(set_min, set_max, q * quantum(problem.grid), q,
                           quantum(problem.grid), bool(np.array_equal(x_min, x_max)),
                           stats)


def brute_force(problem, chunk=1 << 16):
    """Exhaustive minimization over all labelings of the free cells.

    Returns the same contract as solve, with set_min/set_max the intersection
    and union of the whole argmin family.
    """
    lin = _linearized(problem)
    m = lin.n_free
    if m > 24:
        raise UsageError(f"brute force supports at most 24 free cells, got {m}")
    shifts = np.arange(m, dtype=np.uint32)
    dtheta = (lin.theta1 - lin.theta0).astype(np.int64)
    base = lin.const + int(lin.theta0.sum())

    best = None
    and_bits = or_bits = None
    for start in range(0, 1 << m, chunk):
        codes = np.arange(start, min(start + chunk, 1 << m), dtype=np.uint32)
        bits = (codes[:, None] >> shifts[None, :]) & 1
        e = base + bits.astype(np.int64) @ dtheta
        if len(lin.ew):
            cut = bits[:, lin.ei] != bits[:, lin.ej]
            e += cut @ lin.ew
        lo = int(e.min())
        if best is None or lo < best:
            best = lo
            and_bits = np.ones(m, dtype=bool)
            or_bits = np.zeros(m, dtype=bool)
        if lo == best:
            argm = bits[e == best].astype(bool)
            and_bits &= argm.all(axis=0)
            or_bits |= argm.any(axis=0)

    set_min = _assemble(problem, lin.labels_flat, and_bits)
    set_max = _assemble(problem, lin.labels_flat, or_bits)
    _check_energy(lin.coeffs, best, set_min, set_max)
    stats = {"backend": "exhaustive", "evaluations": 1 << m}
    return MinimizerResult(set_min, set_max, best * quantum(problem.grid),
                           best, quantum(problem.grid),
                           bool(np.array_equal(and_bits, or_bits)), stats)


@dataclass(frozen=True)
class ThresholdRow:
    lam: float
    filled: bool
    contact_excess: float
    obstacle_circumference: float
    largest: CellSet


def threshold_experiment(r, resolution, lam_list):
    """Half-plane data outside a free disk: which lambdas fill the upper half.

    Crofton stencil; h = 1.  The face-only metric is too anisotropic here (it
    prices near-vertical circle arcs like chords plus their horizontal run,
    which truncates thin rim slivers), so the isotropic weights are required
    to reproduce the Euclidean filling threshold.  `filled` asks whether the
    largest minimizer covers every disk cell above the equator.
    contact_excess is the face-length of the smallest minimizer's boundary
    lying within one cell of the obstacle circle but away from the equator
    band (2h half-width).  `largest` is the largest minimizer itself.
    """
    if not r >= 8:
        raise UsageError(f"disk radius must be at least 8 cells, got {r}")
    grid = GridGeometry((int(resolution),) * 2, h=1.0, stencil="cc")
    c = ((resolution - 1) / 2.0,) * 2
    for k in range(2):
        if c[k] - r < -0.5 or c[k] + r > resolution - 0.5:
            raise UsageError("obstacle does not fit inside the grid")
    X, Y = grid.center_mesh()
    ball = RegionMask.ball(grid, c, r).bits
    fixed_in = RegionMask(grid, ~ball & (Y < c[1]))
    fixed_out = RegionMask(grid, ~ball & (Y > c[1]))
    upper = ball & (Y > c[1])

    ball_set = CellSet(grid, ball)
    circumference = perimeter(ball_set, RegionMask.whole(grid))

    rows = []
    for lam in lam_list:
        if not np.isfinite(lam):
            raise UsageError(f"lambda values must be finite, got {lam}")
        res = solve(MinCutProblem(grid, lam, fixed_in, fixed_out))
        filled = bool(np.all(res.set_max.bits[upper]))
        rows.append(ThresholdRow(float(lam), filled,
                                 _contact_excess(res.set_min, c, r),
                                 circumference, res.set_max))
    return rows


def _contact_excess(D, center, r, band=2.0):
    mids, _axes = boundary_faces(D)
    if len(mids) == 0:
        return 0.0
    h = D.grid.h
    dist = np.sqrt(((mids - np.asarray(center)) ** 2).sum(axis=1))
    near_circle = np.abs(dist - r) <= h
    off_equator = np.abs(mids[:, 1] - center[1]) > band * h
    return float(np.count_nonzero(near_circle & off_equator) * h)


@dataclass(frozen=True)
class ConvergenceReport:
    sym_diff_successive: list
    sym_diff_to_limit: list
    perimeters: list
    perimeter_gaps: list


def convergence_experiment(problems):
    """Minimize a sequence of instances whose data approaches the last one.

    Reports symmetric-difference volumes between successive largest
    minimizers and against the final instance's minimizer, plus perimeters in
    the shared active region and their gaps to the final perimeter.
    """
    problems = list(problems)
    if len(problems) < 1:
        raise UsageError("need at least one problem")
    first = problems[0]
    for p in problems[1:]:
        if not p.grid.compatible(first.grid) or p.lam != first.lam:
            raise UsageError("problems do not share grid and lambda")
        if (p.active_region is None) != (first.active_region is None) or (
                p.active_region is not None
                and p.active_region != first.active_region):
            raise UsageError("problems do not share the active region")

    sets = [solve(p).set_max for p in problems]
    act = (first.active_region if first.active_region is not None
           else RegionMask.whole(first.grid))
    hvol = first.grid.h ** first.grid.d
    vol = lambda a, b: float(np.count_nonzero(a.bits != b.bits) * hvol)
    pers = [perimeter(s, act) for s in sets]
    return ConvergenceReport(
        [vol(a, b) for a, b in zip(sets, sets[1:])],
        [vol(s, sets[-1]) for s in sets],
        pers,
        [abs(p - pers[-1]) for p in pers])


def problem_to_json(problem):
    grid = problem.grid
    doc = {
        "schema_version": 1,
        "grid": {"d": grid.d, "ext": list(grid.dims), "h": grid.h,
                 "stencil": grid.stencil},
        "lambda": problem.lam,
        "fixed_in": rle_encode(problem.fixed_in.bits),
        "fixed_out": rle_encode(problem.fixed_out.bits),
        "weights": (None if problem.cell_weight is None
                    else [float(x) for x in problem.cell_weight.ravel()]),
        "active_region": (None if problem.active_region is None
                          else rle_encode(problem.active_region.bits)),
    }
    return doc


def problem_from_json(doc):
    try:
        g = doc["grid"]
        grid = GridGeometry(tuple(g["ext"]), h=g["h"], stencil=g["stencil"])
        if g["d"] != grid.d:
            raise UsageError("grid d does not match ext")
        n = grid.ncells
        fi = RegionMask(grid, rle_decode(doc["fixed_in"], n).reshape(grid.dims))
        fo = RegionMask(grid, rle_decode(doc["fixed_out"], n).reshape(grid.dims))
        w = doc.get("weights")
        if w is not None:
            w = np.asarray(w, dtype=float).reshape(grid.dims)
        act = doc.get("active_region")
        if act is not None:
            act = RegionMask(grid, rle_decode(act, n).reshape(grid.dims))
        return MinCutProblem(grid, doc["lambda"], fi, fo, w, act)
    except KeyError as missing:
        raise UsageError(f"problem document lacks key {missing}") from None


def result_to_json(result):
    return {
        "schema_version": 1,
        "energy": result.energy,
        "energy_quanta": result.energy_quanta,
        "quantum": result.quantum,
        "unique": result.unique,
        "flow_stats": result.flow_stats,
    }
