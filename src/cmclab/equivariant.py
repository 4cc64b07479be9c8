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

from ._rk45 import first_zero, solve_ivp
from .cones import (CliffordCone, RadialFunction, _jacobi_operator,
                    _radial_derivatives, _radii, _sphere_dimensions,
                    gamma_pm, make_cone, stability)
from .grid import (_MAX_CELLS, CellSet, GridGeometry, NumericalError,
                   RegionMask, UsageError, _BLOCK, _chords, _finite,
                   _frozen_array, _hausdorff, _instance, _integer, _positive,
                   _real, _sequence, boundary_faces)
from .mincut import MinCutProblem, solve

# Fraction of min(a, b) allowed for |u|/r + |u'| before a graph over the cone
# stops being reliably embedded; also the radial-decay gate.  At 0.4 every
# principal factor of det(Id - u A_C) stays above 1 - 0.4 sqrt(max/min) > 0.4.
_GRAPH_BOUND_FACTOR = 0.4

# Most arclength samples shoot_leaf may store; its five float64 curve arrays
# then take 400 MB.
_MAX_LEAF_SAMPLES = 10**7
# Axis distances shoot_leaf accepts.  The leaf is shot at s0 = 1 and scaled
# by s0, and over this range the scaled samples, the spacing and the exit
# radius stay far inside the normal floats.
_LEAF_S0_RANGE = (1e-100, 1e100)
# Arclength spacing of shoot_leaf's samples, in units of s0.
_LEAF_DS = 5e-4


class IntegrationFailure(NumericalError):
    """Profile integration left its admissible region."""


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    """Arclength-sampled planar curve generating an equivariant hypersurface.

    s is strictly increasing arclength, (x, y) the samples, (tx, ty) unit
    tangents.  Consecutive arclength gaps may not jump by more than a factor
    of 2, so stencils stay locally uniform.  Simplicity is not checked.
    The arrays are held read-only: a read-only float64 array that owns its
    data is taken as it is, and any other array copied.
    """

    p: int
    q: int
    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    tx: np.ndarray
    ty: np.ndarray

    def __post_init__(self):
        p, q = _sphere_dimensions(self.p, self.q, 0)
        names = ("s", "x", "y", "tx", "ty")
        s, x, y, tx, ty = arrs = [
            _frozen_array(getattr(self, name), f"curve array {name}")
            for name in names]
        if s.ndim != 1 or len({a.shape for a in arrs}) > 1:
            raise UsageError("curve arrays must share one length")
        if len(s) < 3:
            raise UsageError("a profile curve needs at least 3 samples")
        gaps = np.diff(s)
        if np.any(gaps <= 0):
            raise UsageError("arclength must be strictly increasing")
        ratio = gaps[1:] / gaps[:-1]
        del gaps    # each temporary is dropped before the next is made
        if np.any(ratio > 2.0) or np.any(ratio < 0.5):
            raise UsageError("consecutive arclength gaps jump by more than 2x")
        del ratio
        tnorm = np.hypot(tx, ty)
        tnorm -= 1.0
        if np.max(np.abs(tnorm, out=tnorm)) > 1e-8:
            raise UsageError("tangents must be unit vectors")
        if np.any(x[1:-1] <= 0) or np.any(y[1:-1] <= 0):
            raise UsageError("interior samples must stay in the open quadrant")
        if np.any(x < 0) or np.any(y < 0):
            raise UsageError("samples may not leave the closed quadrant")
        for name, a in zip(names, arrs):
            object.__setattr__(self, name, a)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def n_nodes(self):
        return len(self.s)


def curve_from_samples(p, q, x, y):
    """Build a ProfileCurve from bare points: chordal arclength, tangents by
    central differences (one-sided at the ends).  x and y are 1-D, of one
    length of at least 3, and no point repeats the one before it."""
    x, y, ds = _chords(x, y)
    s = np.concatenate([[0.0], np.cumsum(ds)])
    tx = np.gradient(x, s)
    ty = np.gradient(y, s)
    norm = np.hypot(tx, ty)
    return ProfileCurve(p, q, s, x, y, tx / norm, ty / norm)


def mean_curvature_values(curve):
    """Equivariant scalar mean curvature at every node; endpoints are nan.

    Planar curvature is the tangent turning rate measured between flanking
    nodes; the weight term projects (p/x, q/y) on the left normal.  The
    nodes are worked on _BLOCK at a time.
    """
    _instance(curve, ProfileCurve, "curve")
    H = np.full(curve.n_nodes, np.nan)
    for i in range(0, curve.n_nodes - 2, _BLOCK):
        w = slice(i, i + _BLOCK + 2)
        s, x, y = curve.s[w], curve.x[w], curve.y[w]
        tx, ty = curve.tx[w], curve.ty[w]
        cross = tx[:-2] * ty[2:] - ty[:-2] * tx[2:]
        dot = tx[:-2] * tx[2:] + ty[:-2] * ty[2:]
        kappa = np.arctan2(cross, dot) / (s[2:] - s[:-2])
        with np.errstate(divide="ignore", invalid="ignore"):
            H[i + 1:i + len(s) - 1] = (kappa + curve.p / x[1:-1] * ty[1:-1]
                                       - curve.q / y[1:-1] * tx[1:-1])
    return H


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
    (default 50 s0).  The equation is scale covariant, so the leaf is shot
    through (1, 0) and its lengths scaled by s0: it ends at the same
    multiple of s0 at every s0.  The curve, from a Taylor start in the
    open quadrant on, must stay strictly on its side of the cone ray, and
    its sampled radius must strictly increase, which makes it simple;
    otherwise IntegrationFailure is raised.  A ray crossing is reported
    with its arclength and state.  It is not a fault of the step control:
    C(5,1) below, and so its mirror C(1,5) above, crosses at s = 5.57 s0
    under RK45, DOP853 and Radau alike, and the census test of the stable
    cones pins that crossing.

    Returns a ProfileCurve sampled uniformly in arclength with spacing
    ds = 5e-4 s0.  The curve runs from radius s0 to r_max, so it needs at
    least (r_max - s0) / ds samples; more than _MAX_LEAF_SAMPLES = 10^7 of
    them raises UsageError before anything is integrated or allocated, and
    so does an s0 outside _LEAF_S0_RANGE = [1e-100, 1e100].
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
    s0 = _real(s0, "axis distance")
    lo, hi = _LEAF_S0_RANGE
    if not lo <= s0 <= hi:
        raise UsageError(f"axis distance must be positive and in "
                         f"[{lo:g}, {hi:g}], got {s0}")
    r_max = 50.0 * s0 if r_max is None else _finite(r_max, "exit radius")
    if not r_max > 2 * s0:
        raise UsageError(f"exit radius must exceed 2 s0, got {r_max:g}")
    ds = _LEAF_DS * s0
    if not (r_max - s0) / ds <= _MAX_LEAF_SAMPLES:
        raise UsageError(
            f"exit radius {r_max:g} needs at least {(r_max - s0) / ds:.3g} "
            f"samples, over the budget of {_MAX_LEAF_SAMPLES}")

    # Shot at unit scale, every absolute tolerance meets the same numbers
    # at every s0.
    r_exit = r_max / s0
    a, b = cone.a, cone.b
    # Taylor start: alpha = pi/2 + c s + c3 s^3 with the axis balance
    # c (1+q) = -p; the even coefficient vanishes by symmetry.
    c = -p / (1 + q)
    c3 = -p * c * (1.0 - c) / (2.0 * (3 + q))
    eps = 1e-4
    start = (1.0 - c * eps**2 / 2.0,
             eps - c**2 * eps**3 / 6.0,
             math.pi / 2.0 + c * eps + c3 * eps**3)

    def gap(st):    # positive below the ray and inside the exit radius
        return min(b * st[0] - a * st[1], r_exit - math.hypot(st[0], st[1]))

    # Below the ray, y > 0 makes x > 0 too; a nan fails both tests.
    if not start[1] > 0 < gap(start):
        raise IntegrationFailure(
            "Taylor start left the open quadrant below the cone ray")
    sol = solve_ivp(_profile_rhs(p, q, 0.0), (eps, 4.0 * r_exit), start,
                    1e-10, 1e-12, lambda st: gap(st) <= 0)
    if sol.status < 0:
        raise IntegrationFailure(f"profile integration failed: {sol.message}")
    if sol.status == 0:
        raise IntegrationFailure("leaf never reached the exit radius")
    # The leaf ends at the earlier of the ray's and the exit's zero in the
    # last step, at the ray's on a tie.
    s_end = first_zero(sol.sol, gap)
    st = sol.sol(s_end)
    if b * st[0] - a * st[1] <= 0:
        raise IntegrationFailure(
            f"leaf crossed the cone ray at s={s_end * s0:.6g}, "
            f"state (x,y,alpha)=({st[0] * s0:.6g},{st[1] * s0:.6g},"
            f"{st[2]:.6g})")

    # The dense output is read _BLOCK samples at a time into the curve's
    # five arrays, at unit scale and with the angle held in tx, then
    # scaled in place; sample 0 is the axis point.
    n = int(s_end / _LEAF_DS) + 1
    s = np.arange(n) * ds
    x, y, tx, ty = (np.empty(n) for _ in range(4))
    for i in range(1, n, _BLOCK):
        k = np.arange(i, min(i + _BLOCK, n))
        x[k], y[k], tx[k] = sol.sol(k * _LEAF_DS)
        if np.any(b * x[k] - a * y[k] <= 0):
            raise IntegrationFailure("leaf touched the cone ray between steps")
    del sol    # the step interpolants, before the curve is checked
    x[0], y[0], tx[0], ty[0] = 1.0, 0.0, 0.0, 1.0
    x *= s0
    y *= s0
    np.sin(tx[1:], out=ty[1:])
    np.cos(tx[1:], out=tx[1:])
    for arr in (s, x, y, tx, ty):
        arr.setflags(write=False)    # so ProfileCurve takes it uncopied
    curve = ProfileCurve(p, q, s, x, y, tx, ty)
    stop = np.flatnonzero(np.diff(np.hypot(x, y)) <= 0)
    if len(stop):
        raise IntegrationFailure(
            f"leaf radius stopped increasing at s={s[stop[0]]:.6g}")
    return curve


def _graph_coordinates(curve, cone):
    """Cone-adapted coordinates: radius along the ray, signed offset along
    the ray's left normal (-b, a)."""
    _instance(curve, ProfileCurve, "leaf")
    _instance(cone, CliffordCone, "cone")
    rr = cone.a * curve.x + cone.b * curve.y
    uu = cone.a * curve.y - cone.b * curve.x
    return rr, uu


def fit_decay_exponent(leaf, cone):
    """Decay rate of the leaf's graph over the cone on the outer decade.

    Fits log|u| against log r; returns (gamma_fit, matched) where matched
    names the indicial exponent within 5 percent, or 'none'.  Which mode a
    leaf selects is recorded, never presumed.
    """
    rr, uu = _graph_coordinates(leaf, cone)
    if (leaf.p, leaf.q) != (cone.p, cone.q):
        raise UsageError("leaf and cone disagree on (p, q)")
    radius = np.hypot(leaf.x, leaf.y)
    s0 = radius[0]
    if radius.max() < 40.0 * s0:
        raise UsageError(
            "need a decade of radius beyond 4 s0; extend the leaf")
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
    # Imported here, so importing the package leaves scipy.interpolate out.
    from scipy.interpolate import CubicSpline
    r_min, r_max = _radii(r_min, r_max)
    rr, uu = _graph_coordinates(leaf, cone)
    inc = np.flatnonzero(np.diff(rr) <= 0)
    start = inc[-1] + 1 if len(inc) else 0
    rr, uu = rr[start:], uu[start:]
    if not (rr[0] <= r_min and r_max <= rr[-1]):
        raise UsageError(
            f"graph covers [{rr[0]:.4g}, {rr[-1]:.4g}], "
            f"requested [{r_min}, {r_max}]")
    return RadialFunction.from_callable(CubicSpline(rr, uu), r_min, r_max, n)


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
    """Max deviation of the graph's mean curvature from lam over interior
    nodes: zero for the graph of a hypersurface of constant mean curvature
    lam.  The mean curvature is the closed form of _graph_mean_curvature
    on central differences."""
    _instance(cone, CliffordCone, "cone")
    lam = _finite(lam, "lambda")
    r, g, g1, g2 = _radial_derivatives(u)
    H = _graph_mean_curvature(cone, r, g, g1, g2)
    return float(np.max(np.abs(H - lam)))


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
    _instance(cone, CliffordCone, "cone")
    _instance(u, RadialFunction, "radial function u")
    _instance(v, RadialFunction, "radial function v")
    if (u.r_min, u.r_max, u.n_nodes) != (v.r_min, v.r_max, v.n_nodes):
        raise UsageError("u and v must share the radial grid")
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
    n = _integer(n, "grid side", 1, _MAX_CELLS)
    h = _positive(box, "box side") / n
    return GridGeometry((n, n), h=h, origin=(h / 2, h / 2))


def cell_weights(grid, p, q):
    """The reduction weight x^p y^q at cell centers.  A weight past the
    float range is inf, without a warning; MinCutProblem refuses it."""
    _instance(grid, GridGeometry, "grid")
    p, q = _sphere_dimensions(p, q, 0)
    X, Y = grid.center_mesh()
    with np.errstate(over="ignore"):
        return X ** p * Y ** q


def diagonal_wedge(grid, p, q):
    """Cells below the cone ray of the (p, q) cone: a y < b x."""
    _instance(grid, GridGeometry, "grid")
    p, q = _sphere_dimensions(p, q, 0)
    cone = make_cone(p, q) if min(p, q) >= 1 else None
    a, b = (cone.a, cone.b) if cone else (math.sqrt(0.5), math.sqrt(0.5))
    X, Y = grid.center_mesh()
    return CellSet(grid, a * Y < b * X)


def _depth_bound(length, grid):
    """floor(length / h) + 1 cells, past every distance up to length; capped
    at the sum of the grid's extents, past every center distance on it."""
    cells = length / grid.h
    cap = sum(grid.dims)
    return math.floor(cells) + 1 if cells < cap else cap


def _depth2(bits, K, near):
    """Squared center distance, in cells, from each cell of the 2-D bool
    array bits to the nearest False cell, at the cells of near: 0 on False
    cells, exact where it is at most K*K, inf where it is more or where no
    False cell exists.  inf off near.

    The separable distance transform of Felzenszwalb and Huttenlocher
    (2012), bounded by K.  Pass 1 gives each cell the distance f to the
    nearest False cell in its column, from running max and min index
    scans, capped at K + 1.  Pass 2 takes along each row the minimum over
    |o| <= K of o^2 + f^2 at the cell o columns over.  The true value is
    that minimum over all o with f uncapped.  Where it is at most K*K, its
    best o has |o| <= K and an f of at most K, which the cap leaves alone,
    and every other term only adds; where it is more, every term exceeds
    K*K.  So the two passes are exact up to K*K, and they run only over
    the box of near grown by K cells, which holds every False cell within
    K of near.  Every sum is an integer below 2^53, so its float and its
    sqrt are those of scipy's exact Euclidean distance transform to the
    bit.
    """
    out = np.full(bits.shape, np.inf)
    rows, cols = (np.flatnonzero(near.any(axis=1 - k)) for k in (0, 1))
    if not len(rows):
        return out
    box = tuple(slice(max(0, ix[0] - K), ix[-1] + 1 + K)
                for ix in (rows, cols))
    sub = bits[box]
    n, m = sub.shape
    cap = K + 1
    # A pass-2 sum stays below 2 cap^2: int32 holds it for K < 2^15 - 1.
    dtype = np.int32 if K < 2**15 - 1 else np.int64
    idx = np.arange(n, dtype=dtype)[:, None]
    above = np.where(sub, dtype(-cap), idx)
    np.maximum.accumulate(above, axis=0, out=above)
    below = np.where(sub, dtype(n + cap), idx)[::-1]
    np.minimum.accumulate(below, axis=0, out=below)
    f = np.minimum(np.minimum(idx - above, below[::-1] - idx), cap)
    g = f * f
    d = g.copy()
    for o in range(1, min(K, m - 1) + 1):
        np.minimum(d[:, :-o], g[:, o:] + o * o, out=d[:, :-o])
        np.minimum(d[:, o:], g[:, :-o] + o * o, out=d[:, o:])
    d2 = d.astype(float)
    d2[(d > K * K) | ~near[box]] = np.inf
    out[box] = d2
    return out


def _base_problem(p, q, grid, lam, boundary, r):
    """weighted_minimize's problem and its warm-start band, each argument
    checked first: the labels of boundary fixed outside the obstacle ball of
    radius r, the weights x^p y^q, and the ball cells within r/4 of the
    boundary data's interface.

    The band's test is h sqrt(d2) <= r/4 on the squared cell distance d2 to
    the nearest cell of the other label, computed only to K = floor(r/(4h))
    + 1 cells: any farther cell lies more than r/4 away, and where the
    boundary data has one label only, no cell is within r/4 of another.
    """
    p, q = _sphere_dimensions(p, q, 0)
    _instance(grid, GridGeometry, "grid")
    lam = _finite(lam, "lambda")
    if grid.d != 2:
        raise UsageError("the reduction lives on 2-D grids")
    if max(abs(o - grid.h / 2) for o in grid.origin) > 1e-12 * grid.h:
        raise UsageError("quadrant grid must exclude the axes by half a cell")
    _instance(boundary, CellSet, "boundary data")
    if not boundary.grid.compatible(grid):
        raise UsageError("boundary data lives on a different grid")
    r = _positive(r, "obstacle radius")
    ball = RegionMask.ball(grid, (0.0, 0.0), r).bits
    fixed_in = RegionMask(grid, boundary.bits & ~ball)
    fixed_out = RegionMask(grid, ~boundary.bits & ~ball)
    # Distance to the nearest cell of the other label; one term is zero,
    # and both are inf off the ball.
    K = _depth_bound(r / 4, grid)
    d2 = (_depth2(boundary.bits, K, ball)
          + _depth2(~boundary.bits, K, ball))
    return (MinCutProblem(grid, lam, fixed_in, fixed_out,
                          cell_weight=cell_weights(grid, p, q)),
            RegionMask(grid, grid.h * np.sqrt(d2) <= r / 4))


def weighted_minimize(p, q, grid, lam, boundary, r):
    """Minimize the weighted functional on the quadrant: boundary labels are
    fixed outside the obstacle ball of radius r around the origin corner.

    Max-flow is warm-started from the band of ball cells within r/4 of the
    boundary data's interface (solve's band): the terminals lie only on
    the ball's rim, so a cold start sweeps the whole ball once per cell of
    radius.  The band decides only the speed, not the result.

    Returns the plain MinimizerResult; interpret member cells as the
    equivariant set in R^(p+q+2).
    """
    problem, band = _base_problem(p, q, grid, lam, boundary, r)
    return solve(problem, band=band)


def _annulus_profile(radius, r_lo, r_hi):
    """Unit inward-perturbation profile at the given radii: 0 off the annulus
    (r_lo, r_hi), 1 on its middle half, linear on its outer quarters."""
    if not 0 <= r_lo < r_hi:
        raise UsageError("need 0 <= r_lo < r_hi")
    ramp = _positive((r_hi - r_lo) / 4.0, "ramp width")
    return np.clip(np.minimum((radius - r_lo) / ramp, (r_hi - radius) / ramp),
                   0.0, 1.0)


@dataclass(frozen=True)
class ApproxRunReport:
    """Per-step diagnostics of an inward-perturbation approximation run."""

    t_list: tuple
    inclusion_ok: tuple
    chain_ok: tuple
    sym_diff_volume: tuple
    hausdorff_to_E: tuple
    min_origin_distance: tuple
    step_free_cells: tuple
    sets: tuple
    limit_set: CellSet
    obstacle_radius: float
    annulus: tuple


def approximation_sequence(p, q, lam, boundary, t_list, obstacle_radius,
                           annulus=None):
    """Re-minimize under inward boundary perturbations of shrinking size.

    t_list, the obstacle radius and the annulus are checked first, and
    lambda with the other base problem arguments before any depth work.  The
    base problem, weighted_minimize's, fixes the labels of `boundary`
    outside the obstacle ball and is solved once; its largest minimizer E
    is the limit set.  Every step problem is relabeled from it, so the
    arcs are built once per run.  The
    annulus profile is 0 off (r_lo, r_hi), 1 on its middle half and linear
    on the quarter-width ramps between.  For each t in t_list the step data
    is E less the cells whose depth in E is at most t times the profile,
    and the largest minimizer of that data is the step set.  A cell's depth
    is its center distance to the nearest cell outside E, infinite when E
    fills the grid; then every step's data is E.

    Each step solves only the band between the previous step set and E
    inside the obstacle ball: the previous step set is fixed in and the
    complement of E fixed out, on top of the step data.  That is exact.
    t_list strictly decreases, so the step data grow and stay inside E;
    by the comparison principle for this submodular energy the largest
    minimizer of step j then contains step j-1's and is contained in E.
    Fixing labels that a minimizer already has keeps it the largest
    minimizer, with the same energy.  So inclusion_ok is all True by
    construction, and so is chain_ok, as the previous step set is fixed
    in; step_free_cells counts the band of each solve.

    Args:
        p, q: rotation multiplicities of the reduction weight.
        lam: prescribed mean curvature of the functional.
        boundary: boundary data; only its cells outside the obstacle ball
            matter, so the wedge and its own minimizer give the same run.
        t_list: perturbation magnitudes, finite, >= 0, strictly decreasing.
        obstacle_radius: free-ball radius around the origin corner.
        annulus: support radii 0 <= r_lo < r_hi (default (0.75, 1.6) times
            the obstacle radius).

    Returns:
        ApproxRunReport with per-step inclusion, successive-chain flags,
        weighted symmetric-difference volume, interface Hausdorff distance,
        minimum interface distance to the origin, and the free-cell count
        of each step's solve.
    """
    grid = _instance(boundary, CellSet, "boundary data").grid
    t_arr = [_finite(t, f"t_list[{i}]")
             for i, t in enumerate(_sequence(t_list, "t_list"))]
    if not t_arr:
        raise UsageError("t_list is empty")
    if any(t < 0 for t in t_arr):
        raise UsageError("perturbation magnitudes must be finite and >= 0")
    if any(b >= a for a, b in zip(t_arr, t_arr[1:])):
        raise UsageError("t_list must be strictly decreasing")
    r_obs = _positive(obstacle_radius, "obstacle radius")
    if annulus is None:
        r_lo, r_hi = 0.75 * r_obs, 1.6 * r_obs
    else:
        r_lo, r_hi = (_real(a, f"annulus[{i}]") for i, a in
                      enumerate(_sequence(annulus, "annulus", 2)))
    with np.errstate(over="ignore"):    # past the float range: inf, clipped
        profile = _annulus_profile(np.hypot(*grid.center_mesh()), r_lo, r_hi)

    base, warm = _base_problem(p, q, grid, lam, boundary, r_obs)
    E = solve(base, band=warm).set_max
    # A cell of E deeper than K cells lies deeper than every t * profile,
    # and one where the profile is 0 passes at every depth, so neither
    # needs its depth.
    depth = grid.h * np.sqrt(_depth2(E.bits, _depth_bound(t_arr[0], grid),
                                     E.bits & (profile > 0)))
    weights = base.cell_weight
    ball = base.free.bits
    E_mids = boundary_faces(E)[0]
    prev = np.zeros(grid.dims, dtype=bool)
    rows = []
    for t in t_arr:
        data = E.bits & (depth > t * profile)
        band = E.bits & ball & ~prev
        fixed_in = prev | (data & ~ball)
        Ej = solve(base.relabeled(RegionMask(grid, fixed_in),
                                  RegionMask(grid, ~(band | fixed_in)))
                   ).set_max
        mids = boundary_faces(Ej)[0]
        rows.append((float(weights[Ej.bits != E.bits].sum() * grid.h ** 2),
                     _hausdorff(mids, E_mids),
                     float(np.hypot(*mids.T).min()) if len(mids) else math.inf,
                     int(np.count_nonzero(band)), Ej))
        prev = Ej.bits
    sym, haus, dist0, free, sets = zip(*rows)
    known = (True,) * len(rows)
    return ApproxRunReport(tuple(t_arr), known, known, sym, haus, dist0, free,
                           sets, E, r_obs, (r_lo, r_hi))
