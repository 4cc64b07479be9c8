"""Rotationally reduced experiments in the open quadrant.

A hypersurface in R^(p+q+2) invariant under rotations of the first p+1 and
last q+1 coordinates is a planar curve (x, y) with x, y > 0; area and volume
reduce to curve integrals against the weight x^p y^q.  The scalar mean
curvature of the generated hypersurface is the planar curvature plus the
weight's normal logarithmic derivative:

    H = kappa - (p/x) nu_x - (q/y) nu_y,     nu = left normal of the tangent.

The formula is validated in the test suite two ways: finite-difference first
variation of weighted length/area, and the closed cases (circle, orthogonal
quarter-circle, the minimal diagonal ray).

On sampled curves (leaves, curve_from_samples) the curvature at a node is
the angle between the two flanking stored tangents over the flanking
arclength gap: exact on circles, and it does not amplify integrator noise
the way second differences of positions do.  Graphs over the cone use the
closed form of _graph_mean_curvature, which never forms the two O(1/r)
weight terms that cancel near the cone.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.ndimage import distance_transform_edt
from scipy.spatial import cKDTree

from .cones import (RadialFunction, _jacobi_operator, _radial_derivatives,
                    gamma_pm, make_cone, stability)
from .grid import (CellSet, GridGeometry, NumericalError, RegionMask,
                   UsageError, boundary_faces)
from .mincut import MinCutProblem, solve

# Fraction of min(a, b) allowed for |u|/r + |u'| before a graph over the cone
# stops being reliably embedded; also the radial-decay gate.  At 0.4 every
# principal factor of det(Id - u A_C) stays above 1 - 0.4 sqrt(max/min) > 0.4.
_GRAPH_BOUND_FACTOR = 0.4

# Most arclength samples shoot_leaf may store; its five float64 curve arrays
# then take 400 MB.
_MAX_LEAF_SAMPLES = 10**7


class IntegrationFailure(NumericalError):
    """Profile integration left its admissible region."""


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    """Arclength-sampled planar curve generating an equivariant hypersurface.

    s is strictly increasing arclength, (x, y) the samples, (tx, ty) unit
    tangents.  Consecutive arclength gaps may not jump by more than a factor
    of 2, so stencils stay locally uniform.  Simplicity is not checked at
    construction (it is quadratic in general); is_simple() provides it.
    """

    p: int
    q: int
    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    tx: np.ndarray
    ty: np.ndarray

    def __post_init__(self):
        arrs = {}
        n = None
        for name in ("s", "x", "y", "tx", "ty"):
            a = np.asarray(getattr(self, name), dtype=float)
            if n is None:
                n = len(a)
            if a.ndim != 1 or len(a) != n:
                raise UsageError("curve arrays must share one length")
            if not np.all(np.isfinite(a)):
                raise UsageError(f"curve array {name} has non-finite entries")
            a = a.copy()
            a.setflags(write=False)
            arrs[name] = a
        if n < 3:
            raise UsageError("a profile curve needs at least 3 samples")
        gaps = np.diff(arrs["s"])
        if np.any(gaps <= 0):
            raise UsageError("arclength must be strictly increasing")
        ratio = gaps[1:] / gaps[:-1]
        if np.any(ratio > 2.0) or np.any(ratio < 0.5):
            raise UsageError("consecutive arclength gaps jump by more than 2x")
        tnorm = np.hypot(arrs["tx"], arrs["ty"])
        if np.max(np.abs(tnorm - 1.0)) > 1e-8:
            raise UsageError("tangents must be unit vectors")
        if np.any(arrs["x"][1:-1] <= 0) or np.any(arrs["y"][1:-1] <= 0):
            raise UsageError("interior samples must stay in the open quadrant")
        if np.any(arrs["x"] < 0) or np.any(arrs["y"] < 0):
            raise UsageError("samples may not leave the closed quadrant")
        for name, a in arrs.items():
            object.__setattr__(self, name, a)
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "q", int(self.q))

    @property
    def n_nodes(self):
        return len(self.s)

    def points(self):
        return np.stack([self.x, self.y], axis=1)

    def is_simple(self):
        """No self-intersection.  Strictly increasing radius settles it; the
        general fallback hashes segments into buckets and tests candidates."""
        r = np.hypot(self.x, self.y)
        if np.all(np.diff(r) > 0):
            return True
        return _simple_by_hash(self.points())


def _simple_by_hash(pts):
    seg = np.stack([pts[:-1], pts[1:]], axis=1)
    lens = np.hypot(*(seg[:, 1] - seg[:, 0]).T)
    cell = max(float(lens.max()), 1e-300)
    buckets = {}
    for i in range(len(seg)):
        lo = np.floor(seg[i].min(axis=0) / cell).astype(int)
        hi = np.floor(seg[i].max(axis=0) / cell).astype(int)
        for cx in range(lo[0], hi[0] + 1):
            for cy in range(lo[1], hi[1] + 1):
                buckets.setdefault((cx, cy), []).append(i)
    for members in buckets.values():
        for ii in range(len(members)):
            for jj in range(ii + 1, len(members)):
                i, j = members[ii], members[jj]
                if abs(i - j) <= 1:
                    continue
                if _segments_cross(seg[i], seg[j]):
                    return False
    return True


def _segments_cross(s1, s2):
    d1 = s1[1] - s1[0]
    d2 = s2[1] - s2[0]
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        return False
    w = s2[0] - s1[0]
    t = (w[0] * d2[1] - w[1] * d2[0]) / den
    u = (w[0] * d1[1] - w[1] * d1[0]) / den
    return 0 < t < 1 and 0 < u < 1


def curve_from_samples(p, q, x, y):
    """Build a ProfileCurve from bare points: chordal arclength, tangents by
    central differences (one-sided at the ends)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ds = np.hypot(np.diff(x), np.diff(y))
    s = np.concatenate([[0.0], np.cumsum(ds)])
    tx = np.gradient(x, s)
    ty = np.gradient(y, s)
    norm = np.hypot(tx, ty)
    return ProfileCurve(p, q, s, x, y, tx / norm, ty / norm)


def mean_curvature_values(curve):
    """Equivariant scalar mean curvature at every node; endpoints are nan.

    Planar curvature is the tangent turning rate measured between flanking
    nodes; the weight term projects (p/x, q/y) on the left normal.
    """
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


def profile_mean_curvature(curve, i):
    """Mean curvature of the generated hypersurface at sample i.

    Positive when the curvature vector points toward the enclosed side (the
    left normal).
    """
    if not 0 < i < curve.n_nodes - 1:
        raise UsageError(f"index {i} is not an interior sample")
    if curve.x[i] <= 0 or curve.y[i] <= 0:
        raise UsageError("sample touches a coordinate axis")
    return float(mean_curvature_values(curve)[i])


def _profile_rhs(p, q, lam):
    def rhs(_s, state):
        x, y, alpha = state
        return (math.cos(alpha), math.sin(alpha),
                lam - p * math.sin(alpha) / x + q * math.cos(alpha) / y)
    return rhs


def shoot_leaf(p, q, s0, side="below", r_max=None):
    """Minimal equivariant leaf through (s0, 0) meeting the axis orthogonally.

    Integrates the lam = 0 profile equation with a cubic Taylor start at the
    axis (the q/y term is singular there) and stops at exit radius r_max
    (default 50 s0).  The curve must stay strictly on its side of the cone
    ray; crossing it means the step control failed and raises
    IntegrationFailure.

    Returns a ProfileCurve sampled uniformly in arclength with spacing
    ds = 5e-4 s0.  The curve runs from radius s0 to r_max, so it needs at
    least (r_max - s0) / ds samples; more than _MAX_LEAF_SAMPLES = 10^7 of
    them raises UsageError before anything is integrated or allocated.
    """
    cone = make_cone(p, q)
    if not stability(cone):
        raise UsageError(
            f"({p},{q}) is an unstable cone; its leaves are not graphs over "
            "the cone and shooting is not supported")
    if side not in ("below", "above"):
        raise UsageError(f"side must be 'below' or 'above', got {side!r}")
    if side == "above":
        mirror = shoot_leaf(q, p, s0, side="below", r_max=r_max)
        return ProfileCurve(p, q, mirror.s, mirror.y, mirror.x,
                            mirror.ty, mirror.tx)
    if not (s0 > 0 and np.isfinite(s0)):
        raise UsageError(f"axis distance must be positive, got {s0}")
    r_max = 50.0 * s0 if r_max is None else float(r_max)
    if not (np.isfinite(r_max) and r_max > 2 * s0):
        raise UsageError(
            f"exit radius must be finite and exceed 2 s0, got {r_max:g}")
    ds = 5e-4 * s0
    if not (r_max - s0) / ds <= _MAX_LEAF_SAMPLES:
        raise UsageError(
            f"exit radius {r_max:g} needs at least {(r_max - s0) / ds:.3g} "
            f"samples, over the budget of {_MAX_LEAF_SAMPLES}")

    a, b = cone.a, cone.b
    # Taylor start: alpha = pi/2 + c s + c3 s^3 with the axis balance
    # c (1+q) = -p/s0; the even coefficient vanishes by symmetry.
    c = -p / s0 / (1 + q)
    c3 = -p * c * (1.0 / s0 - c) / (2.0 * s0 * (3 + q))
    eps = 1e-4 * s0
    start = (s0 - c * eps**2 / 2.0,
             eps - c**2 * eps**3 / 6.0,
             math.pi / 2.0 + c * eps + c3 * eps**3)

    def hit_ray(_s, st):
        return b * st[0] - a * st[1]
    hit_ray.terminal = True
    hit_ray.direction = -1

    def hit_exit(_s, st):
        return math.hypot(st[0], st[1]) - r_max
    hit_exit.terminal = True

    sol = solve_ivp(_profile_rhs(p, q, 0.0), (eps, 4.0 * r_max), start,
                    method="RK45", rtol=1e-10, atol=1e-12 * s0,
                    dense_output=True, events=(hit_ray, hit_exit))
    if len(sol.t_events[0]):
        st = sol.sol(sol.t_events[0][0])
        raise IntegrationFailure(
            f"leaf crossed the cone ray at s={sol.t_events[0][0]:.6g}, "
            f"state (x,y,alpha)=({st[0]:.6g},{st[1]:.6g},{st[2]:.6g})")
    if sol.status < 0:
        raise IntegrationFailure(f"profile integration failed: {sol.message}")
    if not len(sol.t_events[1]):
        raise IntegrationFailure("leaf never reached the exit radius")
    s_end = sol.t_events[1][0]

    s_grid = np.arange(1, int(s_end / ds) + 1) * ds
    xs, ys, alphas = sol.sol(s_grid)
    s_all = np.concatenate([[0.0], s_grid])
    x_all = np.concatenate([[s0], xs])
    y_all = np.concatenate([[0.0], ys])
    tx = np.concatenate([[0.0], np.cos(alphas)])
    ty = np.concatenate([[1.0], np.sin(alphas)])
    curve = ProfileCurve(p, q, s_all, x_all, y_all, tx, ty)
    if np.any(b * x_all[1:] - a * y_all[1:] <= 0):
        raise IntegrationFailure("leaf touched the cone ray between steps")
    if not curve.is_simple():
        raise IntegrationFailure("leaf self-intersected")
    return curve


def _graph_coordinates(curve, cone):
    """Cone-adapted coordinates: radius along the ray, signed offset along
    the ray's left normal (-b, a)."""
    rr = cone.a * curve.x + cone.b * curve.y
    uu = cone.a * curve.y - cone.b * curve.x
    return rr, uu


def fit_decay_exponent(leaf, cone):
    """Decay rate of the leaf's graph over the cone on the outer decade.

    Fits log|u| against log r; returns (gamma_fit, matched) where matched
    names the indicial exponent within 5 percent, or 'none'.  Which mode a
    leaf selects is recorded, never presumed.
    """
    if (leaf.p, leaf.q) != (cone.p, cone.q):
        raise UsageError("leaf and cone disagree on (p, q)")
    radius = np.hypot(leaf.x, leaf.y)
    s0 = radius[0]
    if radius.max() < 40.0 * s0:
        raise UsageError(
            "need a decade of radius beyond 4 s0; extend the leaf")
    rr, uu = _graph_coordinates(leaf, cone)
    hi = rr.max()
    window = (rr >= hi / 10.0) & (np.abs(uu) > 0)
    slope, _ = np.polyfit(np.log(rr[window]), np.log(np.abs(uu[window])), 1)
    gamma_fit = -float(slope)
    gm, gp = gamma_pm(cone)
    matched = "none"
    best = 0.05
    for name, val in (("gamma_minus", gm), ("gamma_plus", gp)):
        if val > 0 and abs(gamma_fit - val) / val <= best:
            best = abs(gamma_fit - val) / val
            matched = name
    return gamma_fit, matched


def leaf_to_radial_graph(leaf, cone, r_min, r_max, n):
    """Resample the leaf as a radial graph over the cone on a log grid."""
    rr, uu = _graph_coordinates(leaf, cone)
    inc = np.flatnonzero(np.diff(rr) <= 0)
    start = inc[-1] + 1 if len(inc) else 0
    rr, uu = rr[start:], uu[start:]
    if not (rr[0] <= r_min and r_max <= rr[-1]):
        raise UsageError(
            f"graph covers [{rr[0]:.4g}, {rr[-1]:.4g}], "
            f"requested [{r_min}, {r_max}]")
    spline = CubicSpline(rr, uu)
    r = np.geomspace(r_min, r_max, n)
    return RadialFunction(r_min, r_max, spline(r))


def _graph_mean_curvature(cone, r, g, g1, g2):
    """Mean curvature of the normal graph P(r) = r (a,b) + g(r) (-b,a) over
    the cone, from its values and radial derivatives at the same nodes.

    With a^2 + b^2 = 1 and p b^2 = q a^2 the curvature of P and the weight
    terms combine exactly into

        H = g''/w^3 + [(p+q) a b (g + r g') + (p a^2 - q b^2) g g']
                      / [(a r - b g)(b r + a g) w],     w = (1 + g'^2)^(1/2),

    so the O(1/r) weight terms that cancel on the cone are never formed.
    Raises UsageError where |g|/r + |g'| exceeds the embeddedness bound.
    """
    bound = np.max(np.abs(g) / r + np.abs(g1))
    limit = _GRAPH_BOUND_FACTOR * min(cone.a, cone.b)
    if bound > limit:
        raise UsageError(
            f"embeddedness bound violated: |u|/r + |u'| reaches {bound:.4g}, "
            f"limit {limit:.4g} for this cone")
    a, b, p, q = cone.a, cone.b, cone.p, cone.q
    w = np.sqrt(1.0 + g1 * g1)
    return g2 / w**3 + (((p + q) * a * b * (g + r * g1)
                         + (p * a * a - q * b * b) * g * g1)
                        / ((a * r - b * g) * (b * r + a * g) * w))


def cmc_graph_residual(cone, u, lam):
    """Max deviation of the graph's mean curvature from the prescribed
    right-hand side lam * det(Id - u A_C), over interior nodes.

    The mean curvature is the closed form of _graph_mean_curvature on
    central differences; the determinant uses the closed-form principal
    curvatures b/(a r) with multiplicity p, -a/(b r) with multiplicity q,
    and 0 radially.
    """
    if not np.isfinite(lam):
        raise UsageError(f"lambda must be finite, got {lam}")
    if u.n_nodes < 16:
        raise UsageError(f"need at least 16 nodes, got {u.n_nodes}")
    r, g, g1, g2 = _radial_derivatives(u)
    H = _graph_mean_curvature(cone, r, g, g1, g2)
    det = ((1.0 - g * cone.b / (cone.a * r)) ** cone.p
           * (1.0 + g * cone.a / (cone.b * r)) ** cone.q)
    return float(np.max(np.abs(H - lam * det)))


@dataclass(frozen=True)
class LinearizationReport:
    r: np.ndarray
    ratio: np.ndarray
    max_ratio: float
    inner_slope: float


def linearization_check(cone, u, v):
    """Quadratic-remainder diagnostics for the graph mean curvature operator.

    Computes (M_C v - M_C u) - L_C h for h = v - u on the shared log grid and
    reports the pointwise ratio against |h''| + |h'|/r + |h|/r^2, its max,
    and the fitted log-log slope of the ratio on the inner decade.  The
    remainder is at most quadratic in the graphs, so the max ratio is at
    most linear in their size; when p = q the operator is odd, the
    remainder is cubic and the ratio falls like the square of the size.

    M_C is the closed form of _graph_mean_curvature and L_C h uses the
    differences of u's and v's derivative arrays, so no O(1/r) terms
    cancel and the ratio shows no round-off floor: from 0 to eps r^-2 on
    C(3,3), r in [1, 10], 8192 nodes, it reads 3.328e-6, 3.328e-8,
    3.328e-10 at eps = 1e-3, 1e-4, 1e-5 (slope 2.000), and 3.29e-8,
    3.33e-8, 3.33e-8 on 1024, 8192, 32768 nodes at eps = 1e-4.  Scaling
    A2 by 1.001 in L_C drops the slopes over acceptance criterion 10's
    amplitudes to 0.375 on C(2,4) and 0.176 on C(3,3).
    """
    if (u.r_min, u.r_max, u.n_nodes) != (v.r_min, v.r_max, v.n_nodes):
        raise UsageError("u and v must share the radial grid")
    if u.n_nodes < 16:
        raise UsageError(f"need at least 16 nodes, got {u.n_nodes}")
    if np.array_equal(u.values, v.values):
        raise UsageError("v - u is identically zero")
    du, dv = _radial_derivatives(u), _radial_derivatives(v)
    for d in (du, dv):
        _require_radial_decay(cone, *d)
    Hu = _graph_mean_curvature(cone, *du)
    Hv = _graph_mean_curvature(cone, *dv)

    r = du[0]
    hc, h1, h2 = (y - x for x, y in zip(du[1:], dv[1:]))
    denom = np.abs(h2) + np.abs(h1) / r + np.abs(hc) / r**2
    keep = denom > 0
    if not keep.any():
        raise UsageError("v - u degenerates at every interior node")
    remainder = np.abs((Hv - Hu) - _jacobi_operator(cone, r, hc, h1, h2))
    r = r[keep]
    ratio = remainder[keep] / denom[keep]

    inner = r <= min(10.0 * r.min(), r.max())
    logs = np.log(np.maximum(ratio[inner], 1e-300))
    slope = float(np.polyfit(np.log(r[inner]), logs, 1)[0])
    return LinearizationReport(r, ratio, float(ratio.max()), slope)


def _require_radial_decay(cone, r, g, g1, g2):
    size = np.max(np.abs(g) / r + np.abs(g1) + r * np.abs(g2))
    limit = _GRAPH_BOUND_FACTOR * min(cone.a, cone.b)
    if size > limit:
        raise UsageError(
            f"radial decay bound violated: |u|/r + |u'| + r|u''| reaches "
            f"{size:.4g}, limit {limit:.4g}")


def quadrant_grid(n, box=1.0):
    """n x n grid over (0, box)^2 with cell centers off the axes by h/2."""
    if not n >= 1:
        raise UsageError(f"grid side must be at least 1 cell, got {n}")
    h = box / n
    return GridGeometry((n, n), h=h, origin=(h / 2, h / 2))


def cell_weights(grid, p, q):
    """The reduction weight x^p y^q at cell centers.  A weight past the
    float range is inf, without a warning; MinCutProblem refuses it."""
    X, Y = grid.center_mesh()
    with np.errstate(over="ignore"):
        return X ** p * Y ** q


def diagonal_wedge(grid, p, q):
    """Cells below the cone ray of the (p, q) cone: a y < b x."""
    cone = make_cone(p, q) if min(p, q) >= 1 else None
    a, b = (cone.a, cone.b) if cone else (math.sqrt(0.5), math.sqrt(0.5))
    X, Y = grid.center_mesh()
    return CellSet(grid, a * Y < b * X)


def weighted_minimize(p, q, grid, lam, boundary, r):
    """Minimize the weighted functional on the quadrant: boundary labels are
    fixed outside the obstacle ball of radius r around the origin corner.

    Returns the plain MinimizerResult; interpret member cells as the
    equivariant set in R^(p+q+2).
    """
    if int(p) != p or int(q) != q or p < 0 or q < 0:
        raise UsageError(f"p, q must be integers >= 0, got {p}, {q}")
    if grid.d != 2:
        raise UsageError("the reduction lives on 2-D grids")
    if abs(grid.origin[0] - grid.h / 2) > 1e-12 * grid.h or \
            abs(grid.origin[1] - grid.h / 2) > 1e-12 * grid.h:
        raise UsageError(
            "quadrant grid must exclude the axes by half a cell")
    if not boundary.grid.compatible(grid):
        raise UsageError("boundary data lives on a different grid")
    if not (r > 0 and np.isfinite(r)):
        raise UsageError(f"obstacle radius must be positive, got {r}")
    X, Y = grid.center_mesh()
    with np.errstate(over="ignore"):    # squares past the float range: inf
        ball = X**2 + Y**2 <= r * r
    fixed_in = RegionMask(grid, boundary.bits & ~ball)
    fixed_out = RegionMask(grid, ~boundary.bits & ~ball)
    return solve(MinCutProblem(grid, lam, fixed_in, fixed_out,
                               cell_weight=cell_weights(grid, p, q)))


@dataclass(frozen=True)
class PerturbationField:
    """Inward displacement profile supported on an annulus of radii."""

    t: float
    r_lo: float
    r_hi: float
    ramp: float = None

    def __post_init__(self):
        if self.t < 0 or not np.isfinite(self.t):
            raise UsageError(f"magnitude must be >= 0, got {self.t}")
        if not 0 <= self.r_lo < self.r_hi:
            raise UsageError("need 0 <= r_lo < r_hi")
        ramp = self.ramp
        if ramp is None:
            ramp = (self.r_hi - self.r_lo) / 4.0
        if not 0 < ramp <= (self.r_hi - self.r_lo) / 2.0:
            raise UsageError("ramp width must fit inside the annulus")
        object.__setattr__(self, "ramp", float(ramp))

    def displacement(self, r):
        r = np.asarray(r, dtype=float)
        shoulder = np.minimum((r - self.r_lo) / self.ramp,
                              (self.r_hi - r) / self.ramp)
        return self.t * np.clip(shoulder, 0.0, 1.0)


@dataclass(frozen=True)
class ApproxRunReport:
    """Per-step diagnostics of an inward-perturbation approximation run."""

    t_list: tuple
    inclusion_ok: tuple
    chain_ok: tuple
    sym_diff_volume: tuple
    hausdorff_to_E: tuple
    min_origin_distance: tuple
    singular_proxy_flag: tuple
    sets: tuple
    limit_set: CellSet
    obstacle_radius: float
    annulus: tuple


def has_interface_pinch(D):
    """Grid-scale pinch: some cell sees >= 3 interface arcs in its 3x3
    neighborhood, detected as >= 6 membership transitions around the ring."""
    padded = np.pad(D.bits, 1, mode="edge")
    nx, ny = D.bits.shape
    ring = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1),
            (1, -1))
    vals = [padded[1 + ox:1 + ox + nx, 1 + oy:1 + oy + ny] for ox, oy in ring]
    trans = np.zeros((nx, ny), dtype=np.int8)
    for k in range(8):
        trans += vals[k] != vals[(k + 1) % 8]
    return bool(np.any(trans >= 6))


def approximation_sequence(p, q, lam, boundary, t_list, obstacle_radius,
                           annulus=None):
    """Re-minimize under inward boundary perturbations of shrinking size.

    The base problem fixes the labels of `boundary` outside the obstacle
    ball and is solved once; its largest minimizer E is the limit set.  For
    each t in t_list (strictly decreasing, >= 0) E loses the cells within
    depth t of its own boundary, modulated by the annulus profile; the
    largest minimizer of the perturbed data is the step set.  Each step set
    must be contained in E; that inclusion is a hard assertion, not a report
    entry alone.

    Args:
        p, q: rotation multiplicities of the reduction weight.
        lam: prescribed mean curvature of the functional.
        boundary: boundary data; only its cells outside the obstacle ball
            matter, so the wedge and its own minimizer give the same run.
        t_list: perturbation magnitudes, strictly decreasing.
        obstacle_radius: free-ball radius around the origin corner.
        annulus: support radii (default (0.75, 1.6) times the obstacle).

    Returns:
        ApproxRunReport with per-step inclusion, successive-chain flags,
        weighted symmetric-difference volume, interface Hausdorff distance,
        minimum interface distance to the origin, and the pinch flag.
    """
    grid = boundary.grid
    t_arr = [float(t) for t in t_list]
    if not t_arr:
        raise UsageError("t_list is empty")
    if any(not np.isfinite(t) or t < 0 for t in t_arr):
        raise UsageError("perturbation magnitudes must be finite and >= 0")
    if any(b >= a for a, b in zip(t_arr, t_arr[1:])) and len(t_arr) > 1:
        raise UsageError("t_list must be strictly decreasing")
    r_obs = float(obstacle_radius)
    if annulus is None:
        annulus = (0.75 * r_obs, 1.6 * r_obs)

    E = weighted_minimize(p, q, grid, lam, boundary, r_obs).set_max

    X, Y = grid.center_mesh()
    radius = np.hypot(X, Y)
    depth = grid.h * distance_transform_edt(E.bits)
    weights = cell_weights(grid, p, q)
    hvol = grid.h ** 2
    E_mids = boundary_faces(E)[0]
    tree_E = cKDTree(E_mids) if len(E_mids) else None

    sets, incl, chain, sym, haus, dist0, pinch = [], [], [], [], [], [], []
    prev = None
    for t in t_arr:
        field = PerturbationField(t, annulus[0], annulus[1])
        data = CellSet(grid, E.bits & (depth > field.displacement(radius)))
        res = weighted_minimize(p, q, grid, lam, data, r_obs)
        Ej = res.set_max

        ok = bool(np.all(Ej.bits <= E.bits))
        if not ok:
            raise NumericalError(
                f"step t={t}: perturbed minimizer escaped the base minimizer; "
                "monotonicity is broken")
        incl.append(ok)
        chain.append(True if prev is None
                     else bool(np.all(prev.bits <= Ej.bits)))
        diff = Ej.bits != E.bits
        sym.append(float((weights[diff]).sum() * hvol))
        mids = boundary_faces(Ej)[0]
        if tree_E is None or len(mids) == 0:
            haus.append(float("inf") if (tree_E is None) != (len(mids) == 0)
                        else 0.0)
        else:
            d1 = tree_E.query(mids)[0].max()
            d2 = cKDTree(mids).query(E_mids)[0].max()
            haus.append(float(max(d1, d2)))
        dist0.append(float(np.hypot(mids[:, 0], mids[:, 1]).min())
                     if len(mids) else float("inf"))
        pinch.append(has_interface_pinch(Ej))
        sets.append(Ej)
        prev = Ej

    return ApproxRunReport(tuple(t_arr), tuple(incl), tuple(chain),
                           tuple(sym), tuple(haus), tuple(dist0),
                           tuple(pinch), tuple(sets), E, r_obs,
                           (float(annulus[0]), float(annulus[1])))
