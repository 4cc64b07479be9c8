"""Exact global minimization of perimeter - lambda*volume over grid sets.

The functional is submodular: pairwise terms charge stencil weight whenever
two neighboring labels differ, the volume term is linear.  Minimization is a
single s-t min cut with the convention label 1 = source side.  Capacities are
energy quanta, h^(d-1)/2^20 each; pairwise capacities round up so that every
cut arc costs at least one quantum, volume coefficients round to nearest.
All exactness statements (solver vs. brute force, lattice identities) are
about the quantized energy.

The arc capacities depend only on the grid and the cell weights, so a
problem builds them once, as one array in arc order, and shares them with
every problem derived from it by MinCutProblem.relabeled: one arc build per
run of solves that differ only in fixed labels or lambda.  The capacities
and the volume gains are each held as int32 when every value fits, as
int64 otherwise, and every sum over them accumulates in int64.  No
end-cell index is stored: the arcs of one stencil offset join the cells of
its two offset slices elementwise (_arc_slices), and every reader of the
arcs (the fold, the energy re-check) takes their ends through those
slices.  Each solve prices its own volume gains and folds into unary terms
only the arcs that touch a free cell, so its set-up work scales with the
free cells; the energy re-check of the minimizers stays on the full
coefficients.  Flow nodes are numbered in int32, which the grid's cell
budget of 2^24 keeps in range.  A solve folds its arcs once, straight into
the flow graph (_flow_graph), so no fold array lives through max-flow.

The free cells are numbered as flow nodes in raster order, backwards along
the one axis on which the fixed-out cells lie farthest past the fixed-in
cells, if they lie toward its far end (_reversed_axis).  Every reader of a
result maps cells through that numbering, so it decides no result, only the
speed of the max-flow backend, whose searches take arcs in index order.

Extremal minimizers come from residual reachability: cells reachable from the
source form the smallest minimizer, cells not reaching the sink form the
largest.  Uniqueness is their coincidence.  A problem unchanged by a grid
reflection is solved on the orbit graph of that reflection: the free cells
are numbered by orbit, each with its mirror image, before the fold
(_orbit_numbering).  Both extremal minimizers are invariant, so they are
the full problem's.

Given a band of cells, max-flow runs in two stages: first on the sub-graph
of the band's free nodes and the two terminals, then on the residual of the
full graph under that flow.  This is exact for every band.  A flow on a
sub-graph with the same terminals is feasible on the full graph, a maximum
flow on the residual of a feasible flow completes it to a maximum flow, and
the residual of every maximum flow has the same source-reachable and
sink-reaching sets; so the band decides only the speed.

The max-flow backend works on int32 capacities and wraps silently past 2^31;
_max_flow is its one caller.  A graph fits when its largest arc-pair sum
c(u, v) + c(v, u), which bounds every residual arc, and the smaller of its
terminal totals, which bounds every flow, pass int32; it is solved in one
call.  A graph that does not fit is solved exactly by capacity scaling
(Gabow 1985): max-flow runs on the capacities shifted right by b bits, so
that they fit, and its flow f1 lifted by 2^b is feasible on the graph, as
2^b floor(c / 2^b) <= c.  With S1 the source side of the shifted graph's
residual, U = c(S1) - 2^b |f1| bounds the flow left to find, and the
residual under the lifted flow, clipped at U + 1, is solved the same way,
its source fed from one new node by an arc of U + 1.  A cut through a
clipped arc or the new arc costs more than U, so the clipped residual has
the true residual's minimum cuts and maximum flow value; a maximum flow of
it is feasible on the true residual, so with the lifted flow it makes a
maximum flow of the graph.  The residual returned is the graph's own under
that flow, and the residual of every maximum flow has the same
source-reachable and sink-reaching sets, so the scaling decides neither
minimizer.  Before all that, the coefficients are refused unless their
total magnitude stays below 2^62 quanta, so no int64 energy sum can wrap.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .grid import (CellSet, GridGeometry, NumericalError, RegionMask,
                   UsageError, _finite, _finite_array, _instance, _integer,
                   _offset_slices, _real, _sequence, boundary_faces, perimeter)

QUANT_BITS = 20
_INT32_MAX = 2**31 - 1
_BRUTE_CHUNK = 1 << 16    # labelings brute_force scores per batch


class CapacityOverflowError(NumericalError):
    """The energy coefficients total 2^62 quanta or more, so an int64
    energy sum could wrap."""


@dataclass(frozen=True, eq=False)
class MinCutProblem:
    """A discrete instance: fixed labels outside the free window, lambda,
    and optional positive cell weights.

    The arcs depend only on the grid and the cell weights; they are built
    on first use and shared with every problem derived by relabeled.
    """

    grid: GridGeometry
    lam: float
    fixed_in: RegionMask
    fixed_out: RegionMask
    cell_weight: np.ndarray = None

    def __post_init__(self):
        _instance(self.grid, GridGeometry, "grid")
        object.__setattr__(self, "lam", _finite(self.lam, "lambda"))
        self._check_labels()
        if self.cell_weight is not None:
            w = _finite_array(self.cell_weight, "cell weights")
            if w.size != self.grid.ncells:
                raise UsageError(
                    f"cell weights hold {w.size} values, the grid has "
                    f"{self.grid.ncells} cells")
            w = w.reshape(self.grid.dims)
            if not np.all(w > 0):
                raise UsageError("cell weights must be positive")
            w.setflags(write=False)
            object.__setattr__(self, "cell_weight", w)

    def _check_labels(self):
        for name in ("fixed_in", "fixed_out"):
            mask = _instance(getattr(self, name), RegionMask, name)
            if not mask.grid.compatible(self.grid):
                raise UsageError("fixed-label masks live on a different grid")
        if np.any(self.fixed_in.bits & self.fixed_out.bits):
            raise UsageError("fixed_in and fixed_out overlap")

    @cached_property
    def _arcs(self):
        return _arc_table(self.grid, self.cell_weight)

    def relabeled(self, fixed_in, fixed_out, lam=None):
        """This problem with new fixed labels and, if given, a new lambda,
        each checked as the constructor checks it.  The grid, the checked
        cell weights and the arcs are this problem's, shared, not built
        again."""
        fields = dict(vars(self), fixed_in=fixed_in, fixed_out=fixed_out,
                      _arcs=self._arcs)
        if lam is not None:
            fields["lam"] = _finite(lam, "lambda")
        derived = object.__new__(type(self))
        vars(derived).update(fields)
        derived._check_labels()
        return derived

    @property
    def free(self):
        return RegionMask(self.grid,
                          ~(self.fixed_in.bits | self.fixed_out.bits))


@dataclass(frozen=True)
class MinimizerResult:
    set_min: CellSet
    set_max: CellSet
    energy: float
    energy_quanta: int
    quantum: float
    unique: bool
    flow_stats: dict


def _arc_slices(grid):
    """Each stencil offset's weight and its (tail, head) cell slices, in
    arc order: the arcs of one offset join a[tail] to a[head] elementwise
    for any cell-shaped array a."""
    for w, offsets in grid.levels():
        for off in offsets:
            yield w, _offset_slices(grid.dims, off)


def _narrowest(a):
    """The integer-valued floats a as int32 when every magnitude is at most
    2^31 - 1, so each value and its negation fit, as int64 otherwise."""
    fits = a.min(initial=0) >= -_INT32_MAX and a.max(initial=0) <= _INT32_MAX
    return a.astype(np.int32 if fits else np.int64)


def _arc_table(grid, cell_weight):
    """The capacities of the stencil arcs of grid under cell_weight (None
    for unit weights), in arc order, int32 when every one fits and int64
    otherwise (_narrowest), and their float total.  An arc's end cells are
    not stored: they are its offset's slices.

    Each arc costs ceil(weight * 2^20 * mean incident cell weight) quanta,
    so no cut arc is ever free.  The capacities are None when their total
    is not below 2^62, so no cast wraps; _coefficients refuses them.
    """
    cw = np.ones(grid.dims) if cell_weight is None else cell_weight
    with np.errstate(over="ignore"):
        caps = np.concatenate([
            np.ceil(w * 2**QUANT_BITS * (0.5 * (cw[sa] + cw[sb]))).ravel()
            for w, (sa, sb) in _arc_slices(grid)])
        total = caps.sum()
    return _narrowest(caps) if total < 2.0**62 else None, total


def _gains(lam, grid, cell_weight):
    """Volume gains in quanta, rint(lambda * h * 2^20 * cell weight), as
    floats: the one place a gain is rounded."""
    with np.errstate(over="ignore"):
        return np.rint(lam * grid.h * 2**QUANT_BITS * cell_weight)


def _coefficients(problem):
    """The problem's arc capacities and its volume gain per cell, each
    int32 when every value fits and int64 otherwise (_narrowest); sums over
    them are taken in int64.

    CapacityOverflowError unless the capacities and the gain magnitudes,
    summed in floats, stay below 2^62 quanta, so every energy sum fits
    int64.
    """
    grid = problem.grid
    caps, caps_total = problem._arcs
    gains = _gains(problem.lam, grid, np.ones(grid.dims)
                   if problem.cell_weight is None else problem.cell_weight)
    with np.errstate(over="ignore"):
        total = caps_total + np.abs(gains).sum()
    if not total < 2.0**62:
        raise CapacityOverflowError(
            f"energy coefficients total {total:.3g} quanta, over the int64 "
            f"budget of 2^62; shrink the grid or rescale lambda")
    return caps, _narrowest(gains).ravel()


def _quanta(coeffs, D):
    """Quantized energy of D under coefficients built by _coefficients; the
    cut arcs come from offset slices rather than index gathers."""
    caps, gains = coeffs
    cut = np.concatenate([(D.bits[sa] != D.bits[sb]).ravel()
                          for _w, (sa, sb) in _arc_slices(D.grid)])
    return (int(caps[cut].sum(dtype=np.int64))
            - int(gains[D.bits.ravel()].sum(dtype=np.int64)))


def evaluate_quanta(problem, D):
    """Quantized energy of an arbitrary cell set under this problem's
    coefficients; the arithmetic path shared by solve and brute_force."""
    _instance(problem, MinCutProblem, "problem")
    if not _instance(D, CellSet, "cell set D").grid.compatible(problem.grid):
        raise UsageError("cell set lives on a different grid")
    return _quanta(_coefficients(problem), D)


def _reversed_axis(fixed_in, fixed_out):
    """The axis along which _node_numbering numbers the free cells
    backwards, or None: the axis on which the mean index of the fixed-out
    cells lies farthest from that of the fixed-in cells, the lowest such
    axis on a tie, when fixed-out lies toward its far end.  None when
    either label set is empty.

    The mean gap on axis k is D_k / (N_in N_out), with the integer
    D_k = N_in S_out,k - N_out S_in,k over the cell counts N and index sums
    S; the denominator is common to every axis, so the integers D_k decide,
    ties included, exactly.  Each S comes from the label counts along one
    axis, so no grid-sized index array is built.
    """
    n_in, n_out = int(fixed_in.sum()), int(fixed_out.sum())
    if n_in == 0 or n_out == 0:
        return None
    gaps = []
    for k, n in enumerate(fixed_in.shape):
        rest = tuple(j for j in range(fixed_in.ndim) if j != k)
        index = np.arange(n)
        s_in = int(fixed_in.sum(axis=rest) @ index)
        s_out = int(fixed_out.sum(axis=rest) @ index)
        gaps.append(n_in * s_out - n_out * s_in)
    k = max(range(len(gaps)), key=lambda j: abs(gaps[j]))
    return k if gaps[k] > 0 else None


def _node_numbering(problem):
    """(node, m): the int32 flow node of every cell, flat, and the number
    m of free cells, nodes 0..m-1; every fixed-in cell is node m (the
    source, label 1) and every fixed-out cell m+1 (the sink, label 0).

    The free cells are numbered in raster order, except backwards along
    the axis _reversed_axis names, so the free cells nearest the fixed-out
    cells come first.  The numbering decides no result: every reader of
    the nodes (the band, the orbit numbering, the read-out of the
    minimizers) goes through node.  It decides the speed of scipy's Dinic
    max-flow, whose searches take each node's arcs in index order: the
    same 8-lambda half-plane sweep ran max-flow 2.5 to 3 times slower, at
    disk radii 64 to 128 cells, with its fixed-out cells numbered last
    than first.
    """
    dims = problem.grid.dims
    fixed_in = problem.fixed_in.bits.ravel()
    free = ~(fixed_in | problem.fixed_out.bits.ravel())
    m = int(np.count_nonzero(free))
    node = np.where(fixed_in, np.int32(m), np.int32(m + 1))
    # Raster order of a view reversed along one axis is the node order.
    k = _reversed_axis(problem.fixed_in.bits, problem.fixed_out.bits)
    view = (lambda a: a.reshape(dims)) if k is None else (
        lambda a: np.flip(a.reshape(dims), k))
    view(node)[view(free)] = np.arange(m, dtype=np.int32)
    return node, m


def _mirrors(d):
    """The grid reflections a problem may be invariant under, in a fixed
    order: each axis flip, then each swap of two axes.  Each maps a
    cell-shaped array to its mirror image; a swap of two axes of unequal
    extent changes the shape, so no array equals its image under it."""
    for k in range(d):
        yield lambda a, k=k: np.flip(a, k)
    for i, j in combinations(range(d), 2):
        yield lambda a, i=i, j=j: np.swapaxes(a, i, j)


def _orbit_numbering(problem, node, m):
    """(node, m) renumbered by the orbits of the first reflection that
    leaves problem unchanged, or as given when none does: each free cell
    and its mirror image are one node, in the order of their lower node.

    A reflection sigma leaves the energy unchanged when it maps fixed_in,
    fixed_out and the cell weights onto themselves; every stencil maps
    onto itself under sigma (see stencil_levels), so the arc capacities
    and gains follow.  sigma then maps the largest minimizer to a
    minimizer, which lies inside the largest one, so both extremal
    minimizers are sigma-invariant.  On sigma-invariant labels the energy
    is a cut of the orbit graph _flow_graph folds through this numbering:
    unary terms add over each orbit, arcs between two orbits add up, and
    arcs inside one orbit are never cut, so they are dropped.
    """
    arrays = [problem.fixed_in.bits, problem.fixed_out.bits]
    if problem.cell_weight is not None:
        arrays.append(problem.cell_weight)
    for mirror in _mirrors(problem.grid.d):
        if all(np.array_equal(a, mirror(a)) for a in arrays):
            break
    else:
        return node, m
    # image[i] is the node of the mirror image of free node i's cell: at
    # each free cell, node holds i and its mirror image holds image[i].
    # The node order need not be raster order, so this goes cell by cell.
    cells = node.reshape(problem.grid.dims)
    free = cells < m
    image = np.empty(m, dtype=np.int32)
    image[cells[free]] = mirror(cells)[free]
    nodes = np.arange(m, dtype=np.int32)
    rep = np.minimum(nodes, image)
    first = rep == nodes
    orbit = (np.cumsum(first, dtype=np.int32) - 1)[rep]
    k = int(np.count_nonzero(first))
    return np.concatenate([orbit, [k, k + 1]], dtype=np.int32)[node], k


def _flow_graph(problem, node, m):
    """The flow graph of problem under the node numbering (node, m): an
    int64 CSR matrix of m + 2 nodes, m the source and m + 1 the sink; the
    constant of its energy; and the coefficients.  Free labels x cost the
    constant plus the cut between the source with the nodes labeled 1 and
    the rest.

    Each arc that touches a free cell is folded once, through node and its
    offset's (tail, head) slices; of the others, those joining a fixed-in
    to a fixed-out cell go into the constant.  theta[x, i], int64, is what
    node i pays for label x, added per node: the arcs to fixed cells of the
    other label, less its gain when x = 1.  It is shifted to
    theta.min(axis=0) = 0 and becomes the source (theta[0]) and sink
    (theta[1]) arcs.  Arcs between two free nodes join them both ways,
    summed per pair; arcs inside one orbit are dropped.  On an orbit
    numbering a cell and its mirror image have equal unmerged theta
    columns, so shifting their sum equals summing their shifts: the graph
    and the constant are the unmerged ones contracted by the orbit map.
    """
    coeffs = _coefficients(problem)
    caps, gains = coeffs
    dims = problem.grid.dims
    fixed_in = problem.fixed_in.bits.ravel()
    free = node < m
    # Cell codes: 1 fixed in, 0 fixed out, 2 free.
    code = (fixed_in.view(np.uint8)
            | (free.view(np.uint8) << 1)).reshape(dims)
    cells = node.reshape(dims)
    na, nb, c = [], [], []
    start = cross = 0
    for _w, (sa, sb) in _arc_slices(problem.grid):
        touch = ((code[sa] | code[sb]) & 2).astype(bool)
        arc_caps = caps[start:start + touch.size]
        start += touch.size
        na.append(cells[sa][touch])
        nb.append(cells[sb][touch])
        c.append(arc_caps[touch.ravel()])
        cross += int(arc_caps[(code[sa] ^ code[sb]).ravel() == 1].sum(
            dtype=np.int64))
    na, nb, c = np.concatenate(na), np.concatenate(nb), np.concatenate(c)

    # The values are added as int64: np.add.at runs several times slower
    # when it casts them into theta.
    theta = np.zeros((2, m), dtype=np.int64)
    np.subtract.at(theta[1], node[free], gains[free].astype(np.int64))
    # Row node - m of a fixed end is the label that differs from it.
    sel = nb >= m
    np.add.at(theta, (nb[sel] - m, na[sel]), c[sel].astype(np.int64))
    sel = na >= m
    np.add.at(theta, (na[sel] - m, nb[sel]), c[sel].astype(np.int64))
    shift = theta.min(axis=0)
    theta -= shift
    const = (cross - int(gains[fixed_in].sum(dtype=np.int64))
             + int(shift.sum()))
    apart = (na < m) & (nb < m) & (na != nb)
    ei, ej, ew = na[apart], nb[apart], c[apart]
    del na, nb, c, sel, apart

    s, t = m, m + 1
    src = np.flatnonzero(theta[0])
    snk = np.flatnonzero(theta[1])
    # In the index type scipy stores, so the matrix takes no copy of them;
    # the grid's cell budget keeps t <= 2^24 + 1.
    rows = np.concatenate([ei, ej, np.full(len(src), s), snk],
                          dtype=np.int32)
    cols = np.concatenate([ej, ei, src, np.full(len(snk), t)],
                          dtype=np.int32)
    vals = np.concatenate([ew, ew, theta[0, src], theta[1, snk]])
    del ei, ej, ew, theta, src, snk
    graph = csr_matrix((vals, (rows, cols)), shape=(m + 2, m + 2),
                       dtype=np.int64)
    return graph, const, coeffs


def _minimizer(problem, node, coeffs, q, x_min, x_max, stats):
    """The result for the extremal free labels x_min and x_max, unfolded
    to cells through node, of energy q quanta; each distinct set is
    re-evaluated from the full coefficients, and a NumericalError raised
    unless it gives q."""
    grid = problem.grid
    unique = bool(np.array_equal(x_min, x_max))
    sets = []
    for x in (x_min,) if unique else (x_min, x_max):
        bits = np.concatenate([x, [True, False]])[node]
        D = CellSet(grid, bits.reshape(grid.dims))
        got = _quanta(coeffs, D)
        if got != q:
            raise NumericalError(
                f"energy bookkeeping broke: cut gives {q} quanta, "
                f"re-evaluation gives {got}")
        sets.append(D)
    quantum = grid.h ** (grid.d - 1) / 2**QUANT_BITS
    return MinimizerResult(sets[0], sets[-1], q * quantum, q, quantum, unique,
                           stats)


def _max_flow(graph, s, t):
    """A maximum s-t flow of graph, a CSR matrix of non-negative integer
    capacities: its value, and graph's residual under it, whose stored
    entries are exactly the positive residual arcs.

    The one caller of the max-flow backend.  A graph that fits int32 (see
    the module docstring) is cast to int32 once and solved in one call.
    Otherwise each round solves the graph shifted right by the fewest bits
    b that make it fit, lifts that flow by 2^b, and clips the residual
    under it at U + 1 for the next round, U that residual's capacity out of
    the shifted graph's source side; the capacity clipped off is added back
    at the end.
    From the second round on, s is fed from a new node n by one arc, also
    clipped at U + 1, so that the smaller terminal total, like every arc,
    is at most U + 1.  Then 2^b <= (U + 1) / 2^29, and the lift leaves
    each of the k arcs out of the source side below 2^b: each later round
    shrinks U + 1 by the factor k / 2^29, below 1/2 for any graph of fewer
    than 2^27 arcs, whose residual has fewer than 2^28, so the rounds end.
    """
    n = graph.shape[0]
    value, source, clipped = 0, s, None
    # The smaller terminal total, or a bound on it: U + 1 after a clip.
    total = min(int(graph.data[graph.indptr[s]:graph.indptr[s + 1]].sum()),
                int(graph.data[graph.indices == t].sum()))
    while True:
        data, indices, indptr = graph.data, graph.indices, graph.indptr
        pair = 2 * int(data.max(initial=0))
        if pair > _INT32_MAX:    # the exact pair sums, formed only past 2^30
            pair = int((graph + graph.T).max())
        b = max(pair, total).bit_length() - 31
        coarse = csr_matrix(
            ((data if b <= 0 else data >> b).astype(np.int32), indices,
             indptr), shape=graph.shape)
        res = maximum_flow(coarse, source, t)
        # scipy's sparse subtraction stores no zeros, and the flow stays
        # within each arc's capacity, so the stored entries are exactly
        # the positive residual arcs.
        residual = coarse - res.flow
        if b <= 0:
            value += int(res.flow_value)
            if clipped is not None:
                residual = (residual + clipped)[:n, :n]
            return value, residual

        # The residual under the lifted flow: the low b bits of each
        # capacity plus the shifted graph's residual, lifted by 2^b.
        side = np.zeros(graph.shape[0], dtype=bool)
        side[breadth_first_order(residual, source, directed=True,
                                 return_predecessors=False)] = True
        residual = residual.astype(np.int64)
        residual.data <<= b
        residual = residual + csr_matrix(
            (data & ((1 << b) - 1), indices, indptr), shape=graph.shape)
        value += int(res.flow_value) << b
        rows = np.repeat(side, np.diff(residual.indptr))
        # U, the residual capacity out of the source side, bounds the flow
        # left to find.
        total = int(residual.data[rows & ~side[residual.indices]].sum()) + 1
        if clipped is None:    # feed s from node n by one arc
            residual = csr_matrix(
                (np.append(residual.data, total),
                 np.append(residual.indices, s),
                 np.append(residual.indptr, residual.nnz + 1)),
                shape=(n + 1, n + 1))
            source = n
        kept = np.minimum(residual.data, total)
        over = csr_matrix((residual.data - kept, residual.indices,
                           residual.indptr), shape=residual.shape)
        clipped = over if clipped is None else clipped + over
        graph = csr_matrix((kept, residual.indices, residual.indptr),
                           shape=residual.shape)


def _band_residual(graph, band):
    """The residual of graph under a maximum flow of its sub-graph on the
    free nodes in band and the two terminals (the last two nodes), and
    that flow's value.  The sub-graph and its flow are freed on return."""
    keep = np.flatnonzero(np.append(band, [True, True]))
    k = len(keep)
    sub = graph[keep][:, keep]
    value, sub_residual = _max_flow(sub, k - 2, k - 1)
    f = (sub - sub_residual).tocoo()
    lifted = csr_matrix((f.data, (keep[f.row], keep[f.col])),
                        shape=graph.shape)
    return graph - lifted, value


def _flow_solve(problem, node, m, band=None):
    """solve on the flow graph of problem under the numbering (node, m).

    When the RegionMask band holds a free node, max-flow runs first on the
    sub-graph of the free nodes holding a band cell, then on the full
    graph's residual under that flow (see the module docstring), and the
    full graph is freed once that residual stands; otherwise it runs once
    on the full graph.  Either stage runs through _max_flow, exactly.
    """
    graph, const, coeffs = _flow_graph(problem, node, m)
    if m == 0:
        x = np.zeros(0, dtype=bool)
        return _minimizer(problem, node, coeffs, const, x, x,
                          {"backend": "none", "free_cells": 0})

    s, t = m, m + 1
    arcs = int(graph.nnz)
    flow_value = 0
    if band is not None:
        # The nodes of the band's cells, of which the first m are free.
        in_band = np.zeros(m + 2, dtype=bool)
        in_band[node[band.bits.ravel()]] = True
        if in_band[:m].any():
            graph, flow_value = _band_residual(graph, in_band[:m])
    value, residual = _max_flow(graph, s, t)
    del graph
    flow_value += value

    order = breadth_first_order(residual, s, directed=True,
                                return_predecessors=False)
    x_min = np.zeros(m, dtype=bool)
    x_min[order[order < m]] = True
    order_t = breadth_first_order(residual.T, t, directed=True,
                                  return_predecessors=False)
    x_max = np.ones(m, dtype=bool)
    x_max[order_t[order_t < m]] = False

    stats = {"backend": "scipy.maximum_flow", "flow_value": flow_value,
             "nodes": m + 2, "arcs": arcs}
    return _minimizer(problem, node, coeffs, const + flow_value,
                      x_min, x_max, stats)


def solve(problem, band=None):
    """Global minimizer pair by max-flow.

    Returns the inclusion-smallest and inclusion-largest minimizers, the
    minimum energy (quantized), and whether the minimizer is unique.  A
    problem unchanged by a grid reflection is solved on its orbit graph,
    its free cells numbered by orbit, each with its mirror image
    (_orbit_numbering), before the fold.  flow_stats "nodes" and "arcs"
    count the whole graph that max-flow ran on.  Capacities past the flow
    backend's int32 are solved exactly by capacity scaling (_max_flow);
    only coefficients totalling 2^62 quanta or more are refused, with
    CapacityOverflowError.

    band, a RegionMask, warm-starts max-flow: it runs first on the free
    nodes holding a band cell, then on the residual of the whole graph,
    and the two flow values add up.  Every result field, flow_stats
    included, is that of the solve without a band, whatever cells the band
    holds.

    Each extremal minimizer is re-priced on the full coefficients and a
    NumericalError raised unless it costs the cut's energy.  That guards
    the bookkeeping of the fold and the flow value, not optimality: an
    orbit graph that paired the wrong cells would still be a valid
    contraction pricing its own labelings right.  The tests check the
    pairing itself: the orbit graph must equal the unmerged graph
    contracted by the orbit map, and its solve the unmerged solve and
    brute_force.
    """
    _instance(problem, MinCutProblem, "problem")
    if band is not None:
        _instance(band, RegionMask, "band")
        if not band.grid.compatible(problem.grid):
            raise UsageError("band lives on a different grid")
    return _flow_solve(problem,
                       *_orbit_numbering(problem, *_node_numbering(problem)),
                       band)


def brute_force(problem):
    """Exhaustive minimization over all labelings of the free cells.

    Returns the same contract as solve, with set_min/set_max the intersection
    and union of the whole argmin family, priced on the unmerged flow graph.
    """
    _instance(problem, MinCutProblem, "problem")
    node, m = _node_numbering(problem)
    if m > 24:
        raise UsageError(f"brute force supports at most 24 free cells, got {m}")
    graph, const, coeffs = _flow_graph(problem, node, m)
    dense = graph.toarray()
    # Node i pays its source arc for label 0 and its sink arc for label 1.
    theta0, theta1 = dense[m, :m], dense[:m, m + 1]
    ei, ej = np.nonzero(np.triu(dense[:m, :m]))
    ew = dense[ei, ej]
    shifts = np.arange(m, dtype=np.uint32)
    dtheta = theta1 - theta0
    base = const + int(theta0.sum())

    best = None
    and_bits = or_bits = None
    for start in range(0, 1 << m, _BRUTE_CHUNK):
        codes = np.arange(start, min(start + _BRUTE_CHUNK, 1 << m),
                          dtype=np.uint32)
        bits = (codes[:, None] >> shifts[None, :]) & 1
        e = base + bits.astype(np.int64) @ dtheta
        e += (bits[:, ei] != bits[:, ej]) @ ew
        lo = int(e.min())
        if best is None or lo < best:
            best = lo
            and_bits = np.ones(m, dtype=bool)
            or_bits = np.zeros(m, dtype=bool)
        if lo == best:
            argm = bits[e == best].astype(bool)
            and_bits &= argm.all(axis=0)
            or_bits |= argm.any(axis=0)

    return _minimizer(problem, node, coeffs, best, and_bits, or_bits,
                      {"backend": "exhaustive", "evaluations": 1 << m})


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
    which truncates thin rim slivers), so the isotropic weights are used.
    They do not give the continuum threshold either: the filling lambda * r
    measured on cc grows from 1.48 at r = 8 to 3.55 at r = 32 and 64, where
    the continuum half-disk fills at lambda = 1/r.  `filled` asks whether the
    largest minimizer covers every disk cell above the equator.
    contact_excess is the face-length of the smallest minimizer's boundary
    lying within one cell of the obstacle circle but away from the equator
    band (2h half-width).  `largest` is the largest minimizer itself.
    Rows come back in the order of lam_list.

    Every lambda is checked a finite real number before the first solve.
    The lambdas are then solved in ascending order, each with the previous
    solve's largest minimizer fixed in on top of the half-plane data, on a
    problem relabeled from the previous one, so the arcs are built once per
    sweep.  This is exact: the cell weights are all 1, so every cell's
    quantized gain is g = rint(lambda * h * 2^20) (_gains).  If g1 < g2
    and E1, E2 minimize at g1, g2, submodularity of the perimeter and
    |E1| + |E2| = |E1 & E2| + |E1 | E2| give (g2 - g1) |E1 \\ E2| <= 0, so
    every minimizer at g2 contains every minimizer at g1.  Fixing one of
    them in therefore removes no minimizer, and set_min, set_max and the
    energy, priced over the whole grid, are those of the unrestricted
    solve.  A lambda whose gain equals the
    previous one poses the same quantized problem, so its result is reused.

    The resolution is an integer n; anything else is refused.  The disk is
    centred at ((n - 1) / 2, (n - 1) / 2), so every solve's data, the fixed
    minimizer included, are unchanged by the mirror x -> n - 1 - x in cell
    index, and solve runs max-flow on the orbit graph of that mirror.
    """
    lams = [_finite(lam, "lambda")
            for lam in _sequence(lam_list, "lambda list")]
    r = _real(r, "disk radius")
    if not r >= 8:
        raise UsageError(f"disk radius must be at least 8 cells, got {r}")
    n = _integer(resolution, "resolution", 1)
    grid = GridGeometry((n, n), h=1.0, stencil="cc")
    c = ((n - 1) / 2.0,) * 2
    for k in range(2):
        if c[k] - r < -0.5 or c[k] + r > n - 0.5:
            raise UsageError("obstacle does not fit inside the grid")
    X, Y = grid.center_mesh()
    ball = RegionMask.ball(grid, c, r).bits
    fixed_in = RegionMask(grid, ~ball & (Y < c[1]))
    fixed_out = RegionMask(grid, ~ball & (Y > c[1]))
    upper = ball & (Y > c[1])

    ball_set = CellSet(grid, ball)
    circumference = perimeter(ball_set, RegionMask.whole(grid))

    rows = [None] * len(lams)
    gain = res = None
    for i in sorted(range(len(lams)), key=lams.__getitem__):
        g = _gains(lams[i], grid, 1.0)
        if g != gain:
            problem = (MinCutProblem(grid, lams[i], fixed_in, fixed_out)
                       if res is None else problem.relabeled(
                           RegionMask(grid, res.set_max.bits), fixed_out,
                           lam=lams[i]))
            res = solve(problem)
            gain = g
            filled = bool(np.all(res.set_max.bits[upper]))
            excess = _contact_excess(res.set_min, c, r)
        rows[i] = ThresholdRow(lams[i], filled, excess, circumference,
                               res.set_max)
    return rows


def _contact_excess(D, center, r, band=2.0):
    mids, _axes = boundary_faces(D)
    h = D.grid.h
    dist = np.sqrt(((mids - np.asarray(center)) ** 2).sum(axis=1))
    near_circle = np.abs(dist - r) <= h
    off_equator = np.abs(mids[:, 1] - center[1]) > band * h
    return float(np.count_nonzero(near_circle & off_equator) * h)


def result_to_json(result):
    """The result's JSON document.  flow_stats "nodes" and "arcs" count the
    whole graph max-flow ran on, never a warm start's band sub-graph: the
    orbit graph when solve merged mirror-image cells, arcs between the
    same two nodes counted once."""
    _instance(result, MinimizerResult, "result")
    return {
        "schema_version": 1,
        "energy": result.energy,
        "energy_quanta": result.energy_quanta,
        "quantum": result.quantum,
        "unique": result.unique,
        "flow_stats": result.flow_stats,
    }
