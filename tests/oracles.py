"""Independent recomputations used to cross-check library results.

The perimeter recount walks cells in plain Python, and the link eigenvalues
come from a one-dimensional Sturm-Liouville discretization per sphere
factor instead of the separable closed form; neither shares an arithmetic
path with the package.  The leading link spectrum with multiplicity is also
enumerated in Fractions over one fixed square of harmonic degrees, in place
of the package's integer keys and doubling search.  The approximation steps
are re-solved without the band restriction, over the whole obstacle ball,
and the lambdas of a threshold sweep one at a time, each on the whole free
disk.  A mirror-symmetric problem is solved with one flow node per free
cell, no cell merged with its mirror image, and the weighted base problem
with max-flow in one stage, from no band.  The flow graph of a problem
gathers each arc's end cells through arrays of flat cell indices, in place
of the package's offset slices.  A leaf's arrays are read from the dense
output in one call and its mean curvature formed over every node at once,
where the package works in blocks.  The leaf CSV and the SVG are written
one f-string per row and per point, with repr(round(v, 9)) for every SVG
number.  Leaves are integrated by scipy's own RK45 stepper, its steps
gathered into an OdeSolution, in place of the package's port of both.
Depths in a cell set come from scipy's distance_transform_edt and Hausdorff
distances from cKDTree queries, in place of the package's bounded transform
and pairwise blocks.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.integrate import RK45, OdeSolution
from scipy.linalg import eigh_tridiagonal
from scipy.ndimage import distance_transform_edt
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from cmclab import (CellSet, MinCutProblem, RegionMask, cell_weights,
                    stencil_levels, threshold_experiment, weighted_minimize)
from cmclab import mincut
from cmclab.equivariant import _annulus_profile
from cmclab.grid import _offset_slices


def perimeter_recount(D, R):
    """Perimeter of D restricted to R by direct enumeration of cell pairs."""
    grid = D.grid
    bits = D.bits
    mask = R.bits
    total = 0.0
    for w, offsets in stencil_levels(grid.d, grid.stencil):
        count = 0
        for off in offsets:
            for idx in np.ndindex(*grid.dims):
                jdx = tuple(i + o for i, o in zip(idx, off))
                if any(j < 0 or j >= n for j, n in zip(jdx, grid.dims)):
                    continue
                if bits[idx] != bits[jdx] and mask[idx] and mask[jdx]:
                    count += 1
        total += count * w
    return total * grid.h ** (grid.d - 1)


def zonal_sphere_eigenvalues(p, k, n=2000):
    """First k eigenvalues of the zonal Laplacian on the unit p-sphere.

    Finite-volume discretization of -(sin^{p-1} t u')' / sin^{p-1} t on
    (0, pi) with natural pole conditions, symmetrized to a tridiagonal
    eigenproblem.  Exact values are i (i + p - 1).
    """
    dth = np.pi / n
    theta = (np.arange(n) + 0.5) * dth
    m = np.sin(theta) ** (p - 1) * dth
    c = np.sin(np.arange(1, n) * dth) ** (p - 1) / dth
    d = np.empty(n)
    d[0] = c[0] / m[0]
    d[-1] = c[-1] / m[-1]
    d[1:-1] = (c[:-1] + c[1:]) / m[1:-1]
    e = -c / np.sqrt(m[:-1] * m[1:])
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))[0]
    return vals


def link_eigenvalues_oracle(p, q, count, n=2000, cluster_gap=0.1):
    """First distinct eigenvalues of the stability operator on the link.

    Combines the per-factor zonal spectra with the scaling of each factor
    radius and subtracts the squared second fundamental form, then merges
    numerically coincident values.
    """
    per_factor = count + 2
    evp = zonal_sphere_eigenvalues(p, per_factor, n)
    evq = zonal_sphere_eigenvalues(q, per_factor, n)
    s = p + q
    mus = sorted(ev_i * s / p + ev_j * s / q - s
                 for ev_i in evp for ev_j in evq)
    distinct = [mus[0]]
    for mu in mus[1:]:
        if mu - distinct[-1] > cluster_gap:
            distinct.append(mu)
    return distinct[:count]


def rational_link_spectrum(p, q, K):
    """(eigenvalues, multiplicities) of the first K entries of minus the
    link operator of the (p, q) cone, as link_spectrum lists them.

    Every pair of harmonic degrees i, j <= K is enumerated: the pairs
    (i, 0) with i < K give K entries no larger than mu(K - 1, 0), and the
    pairs (0, j) with j < K K entries no larger than mu(0, K - 1).  A pair
    with i > K lies above the first bound and one with j > K above the
    second, so every entry up to the K-th, ties included, is in the square.
    """
    def dim(n, i):
        return 1 if i == 0 else math.comb(i + n, n) - math.comb(i + n - 2, n)

    s = p + q
    groups = {}
    for i in range(K + 1):
        for j in range(K + 1):
            mu = (Fraction(i * (i + p - 1) * s, p)
                  + Fraction(j * (j + q - 1) * s, q) - s)
            groups[mu] = groups.get(mu, 0) + dim(p, i) * dim(q, j)
    entries = []
    for mu in sorted(groups):
        entries += [(float(mu), groups[mu])] * min(groups[mu], K)
    evs, mults = zip(*entries[:K])
    return evs, mults


def unrestricted_steps(p, q, lam, report):
    """The step sets of an approximation run, each the largest minimizer
    of its step data with every cell of the obstacle ball free.

    The step data are rebuilt from the report's limit set, t_list,
    obstacle radius and annulus, as approximation_sequence defines them.
    """
    E = report.limit_set
    grid = E.grid
    # With no cell outside E, scipy measures to a cell past the grid.
    depth = (np.full(grid.dims, np.inf) if E.bits.all()
             else grid.h * distance_transform_edt(E.bits))
    profile = _annulus_profile(np.hypot(*grid.center_mesh()), *report.annulus)
    return tuple(
        weighted_minimize(p, q, grid, lam,
                          CellSet(grid, E.bits & (depth > t * profile)),
                          report.obstacle_radius).set_max
        for t in report.t_list)


def scipy_depth(bits):
    """Center distance, in cells, from each cell of bits to the nearest
    False cell, by scipy's distance_transform_edt."""
    return distance_transform_edt(bits)


def scipy_band(grid, boundary, r):
    """weighted_minimize's warm-start band by scipy's distance transform:
    the cells of the ball of radius r around the origin corner whose
    distance to the nearest cell of the other label is at most r/4."""
    ball = RegionMask.ball(grid, (0.0, 0.0), r).bits
    depth = grid.h * (distance_transform_edt(boundary.bits)
                      + distance_transform_edt(~boundary.bits))
    return RegionMask(grid, ball & (depth <= r / 4))


def kdtree_hausdorff(a, b):
    """Hausdorff distance of two non-empty point sets by cKDTree queries."""
    return float(max(cKDTree(a).query(b)[0].max(),
                     cKDTree(b).query(a)[0].max()))


def unmerged_solve(problem):
    """solve's result from max-flow on the unmerged graph, one node per
    free cell, whatever reflection leaves the problem unchanged."""
    return mincut._flow_solve(problem, *mincut._node_numbering(problem))


def unmerged_graph(problem):
    """The flow graph of problem with one node per free cell, as
    _flow_graph folds it: the CSR graph, its constant, every cell's node
    and the number m of free nodes."""
    node, m = mincut._node_numbering(problem)
    graph, const, _coeffs = mincut._flow_graph(problem, node, m)
    return graph, const, node, m


def gathered_graph(problem):
    """The unmerged flow graph of problem, with each arc's end cells
    gathered through flat cell indices ai, bi, built per offset in arc
    order: the CSR graph, its constant and every cell's node by name, in
    _flow_graph's dtypes.  The free cells are numbered as _node_numbering
    numbers them, in int32."""
    grid = problem.grid
    caps, gains = mincut._coefficients(problem)
    flat = np.arange(grid.ncells).reshape(grid.dims)
    ai, bi = [], []
    for _w, offsets in stencil_levels(grid.d, grid.stencil):
        for off in offsets:
            sa, sb = _offset_slices(grid.dims, off)
            ai.append(flat[sa].ravel())
            bi.append(flat[sb].ravel())
    ai, bi = np.concatenate(ai), np.concatenate(bi)

    fixed_in = problem.fixed_in.bits.ravel()
    fixed_out = problem.fixed_out.bits.ravel()
    free = ~(fixed_in | fixed_out)
    m = int(np.count_nonzero(free))
    node = np.full(grid.ncells, m + 1, dtype=np.int32)
    node[fixed_in] = m
    k = mincut._reversed_axis(problem.fixed_in.bits, problem.fixed_out.bits)
    order = flat if k is None else np.flip(flat, k)
    node[order.ravel()[free[order.ravel()]]] = np.arange(m)

    touch = free[ai] | free[bi]
    cross = (fixed_in[ai] & fixed_out[bi]) | (fixed_out[ai] & fixed_in[bi])
    na, nb, c = node[ai[touch]], node[bi[touch]], caps[touch]
    theta = np.zeros((2, m), dtype=np.int64)
    theta[1, node[free]] = -gains[free]
    sel = nb >= m
    np.add.at(theta, (nb[sel] - m, na[sel]), c[sel])
    sel = na >= m
    np.add.at(theta, (na[sel] - m, nb[sel]), c[sel])
    both = (na < m) & (nb < m)
    shift = theta.min(axis=0)
    theta -= shift
    const = (int(caps[cross].sum(dtype=np.int64))
             - int(gains[fixed_in].sum(dtype=np.int64)) + int(shift.sum()))
    src, snk = np.flatnonzero(theta[0]), np.flatnonzero(theta[1])
    rows = np.concatenate([na[both], nb[both], np.full(len(src), m), snk])
    cols = np.concatenate([nb[both], na[both], src,
                           np.full(len(snk), m + 1)])
    vals = np.concatenate([c[both], c[both], theta[0, src], theta[1, snk]])
    graph = csr_matrix((vals, (rows, cols)), shape=(m + 2, m + 2),
                       dtype=np.int64)
    return {"graph": graph, "const": const, "node": node}


def cold_solve(p, q, grid, lam, boundary, r):
    """weighted_minimize's result from max-flow run once on the whole
    graph, with no band: the boundary labels fixed outside the ball of
    radius r around the origin corner, the weights x^p y^q."""
    X, Y = grid.center_mesh()
    ball = X ** 2 + Y ** 2 <= r * r
    return mincut.solve(MinCutProblem(
        grid, lam, RegionMask(grid, boundary.bits & ~ball),
        RegionMask(grid, ~boundary.bits & ~ball),
        cell_weight=cell_weights(grid, p, q)))


def independent_thresholds(r, resolution, lams):
    """The rows of a threshold sweep, each lambda solved in a sweep of its
    own, so no solve starts from another lambda's minimizer."""
    return [threshold_experiment(r, resolution, [lam])[0] for lam in lams]


def whole_leaf_arrays(sol, s0, n):
    """shoot_leaf's five curve arrays, s, x, y, tx and ty, of n samples
    from its unit-scale integration sol, with the dense output read in one
    call over every sample and each array built whole."""
    k = np.arange(n)
    xs, ys, alphas = sol.sol(k[1:] * 5e-4)
    return (k * (5e-4 * s0), np.concatenate([[1.0], xs]) * s0,
            np.concatenate([[0.0], ys]) * s0,
            np.concatenate([[0.0], np.cos(alphas)]),
            np.concatenate([[1.0], np.sin(alphas)]))


def whole_mean_curvature(curve):
    """mean_curvature_values(curve), each term formed over every interior
    node at once."""
    tx, ty = curve.tx, curve.ty
    cross = tx[:-2] * ty[2:] - ty[:-2] * tx[2:]
    dot = tx[:-2] * tx[2:] + ty[:-2] * ty[2:]
    kappa = np.arctan2(cross, dot) / (curve.s[2:] - curve.s[:-2])
    nux, nuy = -ty[1:-1], tx[1:-1]
    H = np.full(curve.n_nodes, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        H[1:-1] = (kappa - curve.p / curve.x[1:-1] * nux
                   - curve.q / curve.y[1:-1] * nuy)
    return H


def leaf_csv(s, x, y, resid):
    """The text of a leaf CSV, one f-string per row."""
    lines = ["s,x,y,curvature_residual"]
    lines += [f"{a!r},{b!r},{c!r},{d!r}" for a, b, c, d in zip(
        s.tolist(), x.tolist(), y.tolist(), resid.tolist())]
    return "\n".join(lines) + "\n"


def svg_document(polylines, bbox, stroke_width):
    """The text of an SVG of polylines, each a (k, 2) array, with y flipped
    in bbox, one f-string per point."""
    def fmt(v):
        return repr(round(float(v), 9))

    x0, y0, x1, y1 = bbox
    flip = float(y0 + y1)
    pad = 0.05 * max(x1 - x0, y1 - y0, stroke_width)
    vb = " ".join(map(fmt, (x0 - pad, y0 - pad,
                            x1 - x0 + 2 * pad, y1 - y0 + 2 * pad)))
    tail = (f'" fill="none" stroke="black" '
            f'stroke-width="{fmt(stroke_width)}"/>')
    body = "\n".join(
        '  <path d="M ' + " L ".join(
            f"{round(x, 9)!r} {round(flip - y, 9)!r}"
            for x, y in line.tolist()) + tail
        for line in polylines)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}">\n'
            f"{body}\n</svg>\n")


def scipy_solve_ivp(fun, t_span, y0, rtol, atol, stop):
    """shoot_leaf's integration, in the package stepper's signature, by
    scipy's RK45 stepped until the end state of a step passes stop, the
    steps' dense outputs gathered into an OdeSolution."""
    t0, tf = map(float, t_span)
    solver = RK45(fun, t0, y0, tf, rtol=rtol, atol=atol)
    ts, interpolants = [solver.t], []
    status = message = None
    while status is None:
        message = solver.step()
        if solver.status == "failed":
            status = -1
            break
        ts.append(solver.t)
        interpolants.append(solver.dense_output())
        if stop(solver.y):
            status = 1
        elif solver.status == "finished":
            status = 0
    return SimpleNamespace(sol=OdeSolution(ts, interpolants), y=solver.y,
                           status=status, message=message)
