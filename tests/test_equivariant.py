"""Tests for the profile-curve layer: curvature closed forms, leaf shooting,
decay fits, graph residuals, linearization diagnostics, and the weighted
quadrant reduction."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from cmclab import (
    CellSet, GridGeometry, IntegrationFailure, MinCutProblem, ProfileCurve, RadialFunction, RegionMask, UsageError, approximation_sequence,
    cell_weights, cmc_graph_residual, curve_from_samples, diagonal_wedge,
    evaluate_quanta, fit_decay_exponent, gamma_pm,
    leaf_to_radial_graph, linearization_check, make_cone, mean_curvature_values,
    quadrant_grid, shoot_leaf, solve, stability, weighted_minimize,
)
from cmclab import _rk45, equivariant, mincut
from oracles import (cold_solve, kdtree_hausdorff, scipy_band, scipy_depth,
                     scipy_solve_ivp, unrestricted_steps, whole_leaf_arrays,
                     whole_mean_curvature)
from support import count_arc_builds, count_flows, forbid_wrapping


def arc_curve(p, q, center, rho, theta0, theta1, n):
    """Circular arc with analytic arclength and tangents, counterclockwise."""
    theta = np.linspace(theta0, theta1, n)
    x = center[0] + rho * np.cos(theta)
    y = center[1] + rho * np.sin(theta)
    s = rho * theta
    return ProfileCurve(p, q, s, x, y, -np.sin(theta), np.cos(theta))


class TestProfileCurve:
    def test_basic_fields(self):
        c = arc_curve(1, 2, (2.0, 2.0), 0.5, 0.1, 1.2, 40)
        assert c.n_nodes == 40
        assert c.p == 1 and c.q == 2

    def test_arrays_read_only(self):
        c = arc_curve(0, 0, (2.0, 2.0), 0.5, 0.1, 1.2, 40)
        with pytest.raises(ValueError):
            c.x[0] = 5.0

    def test_length_mismatch(self):
        with pytest.raises(UsageError, match="one length"):
            ProfileCurve(0, 0, [0.0, 1.0, 2.0], [1, 2, 3], [1, 2],
                         [1, 1, 1], [0, 0, 0])

    def test_too_few_samples(self):
        with pytest.raises(UsageError, match="at least 3"):
            ProfileCurve(0, 0, [0.0, 1.0], [1, 2], [1, 1], [1, 1], [0, 0])

    def test_non_finite(self):
        with pytest.raises(UsageError, match="non-finite"):
            ProfileCurve(0, 0, [0.0, 1.0, 2.0], [1, np.nan, 3], [1, 1, 1],
                         [1, 1, 1], [0, 0, 0])

    def test_arclength_must_increase(self):
        with pytest.raises(UsageError, match="strictly increasing"):
            ProfileCurve(0, 0, [0.0, 1.0, 1.0], [1, 2, 3], [1, 1, 1],
                         [1, 1, 1], [0, 0, 0])

    def test_gap_jump_rejected(self):
        with pytest.raises(UsageError, match="jump"):
            ProfileCurve(0, 0, [0.0, 1.0, 2.0, 4.5], [1, 2, 3, 5.5],
                         [1, 1, 1, 1], [1, 1, 1, 1], [0, 0, 0, 0])

    def test_unit_tangents_required(self):
        with pytest.raises(UsageError, match="unit"):
            ProfileCurve(0, 0, [0.0, 1.0, 2.0], [1, 2, 3], [1, 1, 1],
                         [1, 1, 0.5], [0, 0, 0])

    def test_interior_on_axis_rejected(self):
        with pytest.raises(UsageError, match="open quadrant"):
            ProfileCurve(0, 0, [0.0, 1.0, 2.0], [1, 2, 3], [1, 0, 1],
                         [1, 1, 1], [0, 0, 0])

    def test_negative_coordinate_rejected(self):
        with pytest.raises(UsageError, match="closed quadrant"):
            ProfileCurve(0, 0, [0.0, 1.0, 2.0], [1, 2, 3], [-0.1, 1, 1],
                         [1, 1, 1], [0, 0, 0])

    def test_endpoints_may_touch_axes(self):
        c = arc_curve(1, 1, (0.0, 0.0), 1.0, 0.0, math.pi / 2, 50)
        assert c.y[0] == 0.0 and c.x[-1] <= 1e-15


class TestProfileCurveCopies:
    """A curve takes a read-only float64 array that owns its data as it
    is, and copies anything else."""

    NAMES = ("s", "x", "y", "tx", "ty")

    @staticmethod
    def arc_arrays(n=40):
        theta = np.linspace(0.1, 1.2, n)
        return [0.5 * theta, 2 + 0.5 * np.cos(theta), 2 + 0.5 * np.sin(theta),
                -np.sin(theta), np.cos(theta)]

    def test_writeable_arrays_stay_writeable_and_unshared(self):
        arrays = self.arc_arrays()
        c = ProfileCurve(1, 2, *arrays)
        for name, a in zip(self.NAMES, arrays):
            got = getattr(c, name)
            assert a.flags.writeable and not got.flags.writeable
            assert not np.shares_memory(got, a)
            assert np.array_equal(got, a)
        arrays[1][5] = 7.0    # the caller's array is still the caller's
        assert c.x[5] != 7.0

    def test_read_only_views_are_copied(self):
        arrays = self.arc_arrays()
        views = [a[:] for a in arrays]
        for v in views:
            v.setflags(write=False)
        c = ProfileCurve(1, 2, *views)
        for name, a in zip(self.NAMES, arrays):
            assert not np.shares_memory(getattr(c, name), a)
        assert all(a.flags.writeable for a in arrays)

    def test_read_only_owned_arrays_are_taken_as_they_are(self):
        arrays = self.arc_arrays()
        for a in arrays:
            a.setflags(write=False)
        c = ProfileCurve(1, 2, *arrays)
        assert all(getattr(c, name) is a
                   for name, a in zip(self.NAMES, arrays))

    def test_taken_arrays_are_still_checked(self):
        arrays = self.arc_arrays()
        arrays[2][3] = np.inf
        for a in arrays:
            a.setflags(write=False)
        with pytest.raises(UsageError, match="curve array y has non-finite"):
            ProfileCurve(1, 2, *arrays)

    def test_leaf_arrays_are_read_only(self, leaf33):
        for name in self.NAMES:
            a = getattr(leaf33, name)
            assert a.dtype == np.float64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    # A fault at the first interior sample, at the edges of the checks'
    # blocks of _BLOCK + 2 samples that overlap by two, and at the last
    # interior sample.
    @pytest.mark.parametrize("n,k", [(3, 1), (4099, 4095), (4099, 4096),
                                     (4099, 4097), (8195, 8193)])
    def test_block_edges_are_checked(self, n, k):
        faults = [(0, "jump"), (3, "unit"), (2, "open quadrant")]
        for i, match in faults:
            arrays = self.arc_arrays(n)
            if i == 0:    # one gap four times its neighbours
                arrays[0][k + 1:] += 3 * (arrays[0][1] - arrays[0][0])
            else:
                arrays[i][k] = 0.0
            with pytest.raises(UsageError, match=match):
                ProfileCurve(1, 2, *arrays)
        for end in (0, n - 1):
            arrays = self.arc_arrays(n)
            arrays[1][end] = -1e-9
            with pytest.raises(UsageError, match="closed quadrant"):
                ProfileCurve(1, 2, *arrays)


class TestCurveFromSamples:
    def test_tangents_match_analytic(self):
        theta = np.linspace(0.2, 1.3, 300)
        c = curve_from_samples(2, 2, 2 * np.cos(theta), 2 * np.sin(theta))
        err = np.hypot(c.tx[1:-1] + np.sin(theta[1:-1]),
                       c.ty[1:-1] - np.cos(theta[1:-1]))
        assert err.max() < 1e-4

    def test_chordal_arclength(self):
        theta = np.linspace(0.2, 1.3, 2000)
        c = curve_from_samples(0, 0, 2 * np.cos(theta), 2 * np.sin(theta))
        assert c.s[0] == 0.0
        assert abs(c.s[-1] - 2 * (1.3 - 0.2)) < 1e-5


class TestMeanCurvature:
    def test_endpoints_are_nan(self):
        c = arc_curve(1, 1, (2.0, 2.0), 0.5, 0.1, 1.2, 50)
        H = mean_curvature_values(c)
        assert np.isnan(H[0]) and np.isnan(H[-1])
        assert np.all(np.isfinite(H[1:-1]))

    def test_unweighted_arc_curvature(self):
        # p = q = 0 reduces to plain curve shortening: H is 1/rho on a
        # counterclockwise circle.
        c = arc_curve(0, 0, (2.0, 2.0), 0.5, 0.1, 1.2, 80)
        H = mean_curvature_values(c)
        assert np.nanmax(np.abs(H - 2.0)) < 1e-12

    def test_quarter_circle_sphere_value(self):
        # The (1,1) profile arc of radius rho about the origin generates a
        # round sphere in four dimensions: H = 3 / rho at every sample.
        rho = 2.0
        c = arc_curve(1, 1, (0.0, 0.0), rho, 0.15, math.pi / 2 - 0.15, 400)
        H = mean_curvature_values(c)
        assert np.nanmax(np.abs(H - 3.0 / rho)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4097, 4098, 4099, 9000])
    def test_blocks_match_the_whole_array_formula(self, n):
        c = arc_curve(1, 2, (2.0, 2.0), 0.5, 0.1, 1.2, n)
        want = whole_mean_curvature(c)
        assert np.array_equal(mean_curvature_values(c).view(np.int64),
                              want.view(np.int64))

    def test_leaf_matches_the_whole_array_formula(self, leaf33):
        want = whole_mean_curvature(leaf33)
        assert np.array_equal(mean_curvature_values(leaf33).view(np.int64),
                              want.view(np.int64))

    def test_diagonal_ray_is_critical(self):
        t = np.linspace(1.0, 2.0, 60)
        d = 1.0 / math.sqrt(2.0)
        c = ProfileCurve(3, 3, t, t * d, t * d,
                         np.full_like(t, d), np.full_like(t, d))
        H = mean_curvature_values(c)
        assert np.nanmax(np.abs(H)) < 1e-15


def weighted_length(p, q, x, y):
    w = x ** p * y ** q
    seg = np.hypot(np.diff(x), np.diff(y))
    return float(np.sum(0.5 * (w[1:] + w[:-1]) * seg))


def first_variation_pair(curve, t=1e-5):
    """Finite-difference first variation of the weighted length under a bump
    normal perturbation, next to the curvature-integral prediction."""
    s = curve.s
    span = s[-1] - s[0]
    mid = s[0] + 0.5 * span
    phi = np.exp(-0.5 * ((s - mid) / (0.06 * span)) ** 2)
    nx, ny = -curve.ty, curve.tx

    def length_at(tt):
        return weighted_length(curve.p, curve.q, curve.x + tt * phi * nx,
                               curve.y + tt * phi * ny)

    fd = (length_at(t) - length_at(-t)) / (2.0 * t)
    H = mean_curvature_values(curve)
    w = curve.x ** curve.p * curve.y ** curve.q
    integrand = np.where(np.isnan(H), 0.0, H * phi * w)
    predicted = -float(np.sum(integrand * np.gradient(s)))
    return fd, predicted


class TestFirstVariation:
    """The curvature formula is validated against a route that never touches
    it: numerical differentiation of the weighted length itself."""

    def test_sphere_arc_matches_energy_derivative(self):
        c = arc_curve(1, 1, (0.0, 0.0), 2.0, 0.15, math.pi / 2 - 0.15, 4000)
        fd, predicted = first_variation_pair(c)
        assert predicted != 0.0
        assert abs(fd - predicted) < 1e-6 * abs(predicted)

    def test_heavier_weight_arc(self):
        c = arc_curve(3, 2, (0.0, 0.0), 1.5, 0.3, 1.2, 4000)
        fd, predicted = first_variation_pair(c)
        assert abs(fd - predicted) < 1e-6 * abs(predicted)

    def test_leaf_is_stationary(self, leaf33):
        fd, predicted = first_variation_pair(leaf33)
        scale = weighted_length(leaf33.p, leaf33.q, leaf33.x, leaf33.y)
        assert abs(fd) < 1e-7 * scale
        assert abs(predicted) < 1e-7 * scale


@pytest.fixture(scope="module")
def leaf33():
    return shoot_leaf(3, 3, 1.0)


@pytest.fixture(scope="module")
def cone33():
    return make_cone(3, 3)


STABLE = [(p, q) for p in range(1, 7) for q in range(1, 7)
          if stability(make_cone(p, q))]


class TestShootLeaf:
    def test_unstable_cone_rejected(self):
        with pytest.raises(UsageError, match="unstable"):
            shoot_leaf(2, 2, 1.0)

    def test_bad_side(self):
        with pytest.raises(UsageError, match="side"):
            shoot_leaf(3, 3, 1.0, side="left")

    def test_bad_axis_distance(self):
        with pytest.raises(UsageError, match="positive"):
            shoot_leaf(3, 3, 0.0)

    def test_exit_radius_too_small(self):
        with pytest.raises(UsageError, match="exit radius"):
            shoot_leaf(3, 3, 1.0, r_max=1.5)

    @pytest.mark.parametrize("r_max", [float("nan"), float("inf")])
    def test_non_finite_exit_radius(self, r_max):
        # refused as a radius, not by the sample budget
        with pytest.raises(UsageError, match="must be a finite real number"):
            shoot_leaf(3, 3, 1.0, r_max=r_max)

    def test_start_at_axis_orthogonal(self, leaf33):
        assert leaf33.x[0] == pytest.approx(1.0, abs=1e-2)
        assert leaf33.y[0] == 0.0
        assert leaf33.y[1] > 0
        assert leaf33.ty[0] == pytest.approx(1.0, abs=1e-3)

    def test_reaches_exit_radius(self, leaf33):
        r = np.hypot(leaf33.x, leaf33.y)
        assert r.max() > 49.0

    @pytest.mark.parametrize("s0", [1e-100, 1e-15, 1e-14, 1e100])
    def test_ends_at_the_exit_radius_at_every_scale(self, leaf33, s0):
        # The last sample lies within one spacing inside the exit radius,
        # with the sample count of the unit leaf, also at s0 <= 1e-14, where
        # a spacing is below the stepper's absolute tolerances: the leaf is
        # shot, and its exit bisected, at unit scale.
        assert abs(leaf33.n_nodes - 98851) <= 1
        leaf = shoot_leaf(3, 3, s0)
        r_max, ds = 50.0 * s0, 5e-4 * s0
        assert r_max - ds <= math.hypot(leaf.x[-1], leaf.y[-1]) <= r_max
        assert abs(leaf.n_nodes - leaf33.n_nodes) <= 1

    def test_leaf_is_simple(self, leaf33):
        # Strictly increasing radius makes the curve simple.
        assert np.all(np.diff(np.hypot(leaf33.x, leaf33.y)) > 0)

    @pytest.mark.parametrize("kwargs,match", [
        ({"s0": "1"}, "axis distance must be a real number"),
        ({"s0": None}, "axis distance must be a real number"),
        ({"r_max": "60"}, "exit radius must be a finite real number"),
        ({"r_max": 10**400}, "exit radius must be a finite real number"),
    ], ids=["str-s0", "None-s0", "str-r_max", "huge-int-r_max"])
    def test_refuses_inputs_that_are_not_real_numbers(self, kwargs, match):
        # A str exit radius once ran on its float, a str or None axis
        # distance raised TypeError and 10**400 raised OverflowError.
        with pytest.raises(UsageError, match=match):
            shoot_leaf(3, 3, **{"s0": 1.0, **kwargs})

    def test_census_of_the_stable_cones(self):
        # Every stable cone with p, q <= 6, to the default exit radius.
        # The above side of C(p, q) is the mirrored below side of C(q, p),
        # so shooting below covers both sides.  Every leaf but one has
        # strictly increasing radius; C(5,1) below, and so C(1,5) above,
        # crosses its cone ray.
        crossed = []
        for p, q in STABLE:
            try:
                leaf = shoot_leaf(p, q, 1.0)
            except IntegrationFailure as exc:
                crossed.append((p, q, str(exc)))
                continue
            assert np.all(np.diff(np.hypot(leaf.x, leaf.y)) > 0), (p, q)
        assert [c[:2] for c in crossed] == [(5, 1)]
        assert crossed[0][2].startswith("leaf crossed the cone ray at s=5.57,")

    def test_taylor_start_below_the_axis_is_refused(self, monkeypatch):
        # The cubic start's y = eps - c^2 eps^3 / 6, c = -p / (1 + q), falls
        # to 0 or below from p = 48990 on at q = 1: refused before a step
        # is taken.  p = 48989 still starts above the axis and shoots.
        def no_stepper(*_args):
            raise AssertionError("integrated a start outside the quadrant")

        with monkeypatch.context() as patch:
            patch.setattr(equivariant, "solve_ivp", no_stepper)
            with pytest.raises(IntegrationFailure, match="^Taylor start left "
                               "the open quadrant below the cone ray$"):
                shoot_leaf(48990, 1, 1.0)
        leaf = shoot_leaf(48989, 1, 1.0, r_max=2.0001)
        assert leaf.y[1] > 0 and leaf.n_nodes == 2001

    @staticmethod
    def one_step(monkeypatch, path, end):
        """Make shoot_leaf's stepper return one stopped step from s = 0 to
        end, whose state at s is path(s)."""
        sol = _rk45._Solution(np.array([0.0, end]), [path])
        monkeypatch.setattr(equivariant, "solve_ivp", lambda *_args: (
            SimpleNamespace(sol=sol, y=sol(end), status=1, message=None)))

    def test_radius_that_stops_increasing_is_refused(self, monkeypatch):
        # Samples that turn back toward the origin from s = 2.02, staying
        # below the cone ray and inside the exit radius to the step's end.
        self.one_step(monkeypatch, lambda s: np.array(
            [1.0 + s - s * s / 4.0, 0.1 * s, 0.0 * s]), 3.0)
        with pytest.raises(IntegrationFailure,
                           match=r"radius stopped increasing at s=2\.02"):
            shoot_leaf(3, 3, 1.0)

    @pytest.mark.parametrize("r_max", [3.0, 4.0])
    def test_earlier_zero_of_the_last_step_wins(self, monkeypatch, r_max):
        # One straight step at 60 degrees from (1, 0) to s = 4, past both
        # the diagonal, the cone ray of C(3,3), at s = 1 + sqrt(3) = 2.732
        # and the exit radius: radius 3 (s = 2.372) comes first, so the
        # leaf ends there, and radius 4 (s = 3.405) second, so the ray
        # crossing is reported.
        theta = math.pi / 3
        self.one_step(monkeypatch, lambda s: np.array(
            [1.0 + s * math.cos(theta), s * math.sin(theta),
             theta + 0.0 * s]), 4.0)
        if r_max == 4.0:
            with pytest.raises(IntegrationFailure, match=(
                    r"leaf crossed the cone ray at s=2\.73205, state "
                    r"\(x,y,alpha\)=\(2\.36603,2\.36603,1\.0472\)$")):
                shoot_leaf(3, 3, 1.0, r_max=r_max)
        else:
            leaf = shoot_leaf(3, 3, 1.0, r_max=r_max)
            assert leaf.n_nodes == int((math.sqrt(33) - 1) / 2 / 5e-4) + 1
            r = math.hypot(leaf.x[-1], leaf.y[-1])
            assert r_max - 5e-4 <= r <= r_max

    @pytest.mark.parametrize("p,q,s0", [(3, 3, 1.0), (3, 3, 2.5),
                                        (2, 4, 1e-14), (6, 1, 1e80)])
    def test_blocked_read_out_is_the_whole_read_out(self, monkeypatch, p, q,
                                                    s0):
        # The dense output read _BLOCK samples at a time and scaled in
        # place gives the arrays of one read-out over every sample.
        sols = []
        real = equivariant.solve_ivp

        def kept(*args, **kwargs):
            sols.append(real(*args, **kwargs))
            return sols[-1]

        monkeypatch.setattr(equivariant, "solve_ivp", kept)
        leaf = shoot_leaf(p, q, s0)
        (sol,) = sols
        for name, want in zip(("s", "x", "y", "tx", "ty"),
                              whole_leaf_arrays(sol, s0, leaf.n_nodes)):
            assert getattr(leaf, name).tobytes() == want.tobytes(), name

    def test_stays_below_cone_ray(self, leaf33, cone33):
        assert np.all(cone33.b * leaf33.x[1:] - cone33.a * leaf33.y[1:] > 0)

    def test_profile_equation_residual(self, leaf33):
        H = mean_curvature_values(leaf33)
        assert np.nanmax(np.abs(H[2:-2])) < 1e-6

    def test_above_side_mirrors(self):
        below = shoot_leaf(4, 2, 1.0)
        above = shoot_leaf(2, 4, 1.0, side="above")
        assert above.p == 2 and above.q == 4
        assert np.array_equal(above.x, below.y)
        assert np.array_equal(above.y, below.x)
        assert np.array_equal(above.tx, below.ty)

    def test_scaling_covariance(self, leaf33):
        alpha = 2.0
        scaled = shoot_leaf(3, 3, alpha)
        m = min(scaled.n_nodes, leaf33.n_nodes)
        rel = np.abs(scaled.x[:m] - alpha * leaf33.x[:m]) / (
            alpha * np.hypot(leaf33.x[:m], leaf33.y[:m]))
        assert rel.max() < 1e-8


class TestStepperMatchesScipy:
    """The package's RK45 port gives scipy's results bit for bit."""

    @staticmethod
    def outcome(*args):
        try:
            leaf = shoot_leaf(*args)
        except Exception as exc:    # compared with scipy's, not handled
            return type(exc), str(exc)
        return tuple(getattr(leaf, n).tobytes()
                     for n in ("s", "x", "y", "tx", "ty"))

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_shoot_leaf_is_bit_identical(self, monkeypatch, side):
        # Every stable cone, at three scales; C(5,1) below and C(1,5)
        # above cross the cone ray, so the failure text is compared too.
        cases = [(p, q, s0, side, 12 * s0) for p, q in STABLE
                 for s0 in (1.0, 1e-14, 1e80)] + [(3, 3, 1.0, side)]
        ours = [self.outcome(*c) for c in cases]
        monkeypatch.setattr(equivariant, "solve_ivp", scipy_solve_ivp)
        theirs = [self.outcome(*c) for c in cases]
        assert [o[0] for o in ours if len(o) == 2] == [IntegrationFailure] * 3
        assert ours == theirs

    def test_step_size_underflow_fails_as_scipy_does(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1.
        def fun(_t, y):
            return y * y

        def never(_y):
            return False

        ours = _rk45.solve_ivp(fun, (0.0, 2.0), [1.0], 1e-10, 1e-12, never)
        theirs = scipy_solve_ivp(fun, (0.0, 2.0), [1.0], 1e-10, 1e-12, never)
        assert (ours.status, ours.message) == (-1, theirs.message)
        assert theirs.status == -1
        t = np.linspace(0.0, 0.999, 1000)
        assert np.array_equal(ours.sol(t), theirs.sol(t))

    @pytest.mark.parametrize("solve", [_rk45.solve_ivp, scipy_solve_ivp])
    def test_first_zero_is_the_first_float_of_the_last_step(self, solve):
        # y' = y from y(0) = 1, stopped on the first step that ends past
        # 3: first_zero gives the first float of that step at which
        # 3 - y <= 0, near log 3, and the step's end for a function that
        # stays positive.  It reads scipy's OdeSolution as well.
        sol = solve(lambda _t, y: y, (0.0, 5.0), [1.0], 1e-10, 1e-12,
                    lambda y: y[0] >= 3.0).sol
        t0, t1 = sol.ts[-2:]

        def gap(y):
            return 3.0 - y[0]

        t = _rk45.first_zero(sol, gap)
        assert type(t) is float and t0 < t <= t1
        assert gap(sol(t)) <= 0 < gap(sol(math.nextafter(t, t0)))
        assert abs(t - math.log(3.0)) < 1e-9
        assert _rk45.first_zero(sol, lambda _y: 1.0) == t1


class TestDepthAndHausdorffMatchScipy:
    """The bounded depth transform and the pairwise Hausdorff distance give
    scipy's distance_transform_edt and cKDTree results bit for bit."""

    def test_depth_is_exact_up_to_the_bound(self):
        # Random masks, every fifth with a single False cell: the sqrt of
        # each value up to K^2 is scipy's distance, every other is inf,
        # and near only turns the values off it to inf.
        rng = np.random.default_rng(19)
        for k in range(240):
            shape = tuple(rng.integers(1, 41, size=2))
            K = int(rng.integers(1, 51))
            if k % 5 == 0:
                bits = np.ones(shape, dtype=bool)
                bits[tuple(rng.integers(0, n) for n in shape)] = False
            else:
                bits = rng.random(shape) < rng.uniform(0.5, 1.0)
            got = equivariant._depth2(bits, K, np.ones(shape, dtype=bool))
            if bits.all():
                assert np.all(got == math.inf)
                continue
            want = scipy_depth(bits)
            within = want <= K
            assert np.array_equal(np.sqrt(got[within]), want[within])
            assert np.all(got[~within] == math.inf)
            near = rng.random(shape) < 0.3
            part = equivariant._depth2(bits, K, near)
            assert np.array_equal(part[near], got[near])
            assert np.all(part[~near] == math.inf)

    def test_depth_of_a_mask_with_no_false_cell_is_infinite(self):
        # scipy measures to a cell past the array: 1, sqrt 2, sqrt 5, ...
        bits = np.ones((3, 4), dtype=bool)
        assert scipy_depth(bits)[0, 0] == 1.0
        assert np.all(equivariant._depth2(bits, 50, bits) == math.inf)

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("p,q", [(3, 3), (2, 4), (1, 5)])
    def test_wedge_band_is_scipys(self, p, q, n):
        g = quadrant_grid(n)
        wedge = diagonal_wedge(g, p, q)
        band = equivariant._base_problem(p, q, g, 0.0, wedge, 0.5)[1]
        assert band == scipy_band(g, wedge, 0.5)
        assert band.bits.any()

    def test_random_band_is_scipys(self):
        # Blobs of random disks on random grids, with radii from a few
        # cells to past the grid's diagonal, where K takes its cap.
        rng = np.random.default_rng(5)
        for k in range(40):
            g = quadrant_grid(int(rng.integers(8, 97)),
                              box=float(rng.uniform(0.5, 2.0)))
            X, Y = g.center_mesh()
            bits = np.zeros(g.dims, dtype=bool)
            for _ in range(int(rng.integers(1, 6))):
                cx, cy = rng.uniform(0, g.h * g.dims[0], size=2)
                bits |= np.hypot(X - cx, Y - cy) < rng.uniform(0.05, 0.6)
            if bits.all() or not bits.any():
                continue
            r = float(g.h * g.dims[0] * rng.choice([0.1, 0.5, 1.0, 9.0]))
            boundary = CellSet(g, bits)
            band = equivariant._base_problem(3, 3, g, 0.0, boundary, r)[1]
            assert band == scipy_band(g, boundary, r)

    def test_band_of_one_label_is_empty(self):
        g = quadrant_grid(16)
        band = equivariant._base_problem(3, 3, g, 0.0, CellSet.full(g),
                                         0.5)[1]
        assert not band.bits.any()

    def test_hausdorff_is_cKDTrees(self):
        # Half-lattice points, as interface midpoints are, and floats; both
        # argument orders; sizes past one block of pairs.
        rng = np.random.default_rng(11)
        for k in range(120):
            na, nb = rng.integers(1, 900, size=2)
            if k % 2:
                a = rng.integers(0, 512, size=(na, 2)) / 2.0 / 256
                b = rng.integers(0, 512, size=(nb, 2)) / 2.0 / 256
            else:
                a = rng.normal(size=(na, 2)) * 10.0 ** rng.uniform(-3, 3)
                b = rng.normal(size=(nb, 2)) + rng.normal(size=2)
            want = kdtree_hausdorff(a, b)
            assert equivariant._hausdorff(a, b) == want
            assert equivariant._hausdorff(b, a) == want
        a, b = rng.random((3, 2)), rng.random((70000, 2))
        assert equivariant._hausdorff(a, b) == kdtree_hausdorff(a, b)

    def test_hausdorff_is_cKDTrees_on_pruning_edge_cases(self):
        # Sets far from the origin, where the x window's rounding pad
        # matters; sets on a few vertical lines, whose windows hold whole
        # lines and take several blocks; coincident and duplicate points.
        rng = np.random.default_rng(13)
        for k in range(60):
            na, nb = rng.integers(1, 400, size=2)
            a = rng.normal(size=(na, 2)) * 10.0 ** rng.uniform(-9, 0)
            b = a[rng.integers(0, na, size=nb)] + (
                rng.normal(size=(nb, 2)) * 10.0 ** rng.uniform(-12, 0))
            if k % 3 == 1:
                a[:, 0] = np.round(a[:, 0]) * 1e-3
                b[:, 0] = np.round(b[:, 0] * 2) * 1e-3
            shift = 10.0 ** rng.integers(0, 13) * rng.choice([-1, 1], size=2)
            a, b = a + shift, b + shift
            want = kdtree_hausdorff(a, b)
            assert equivariant._hausdorff(a, b) == want
            assert equivariant._hausdorff(b, a) == want
        line = np.zeros((70000, 2))
        line[:, 1] = np.arange(70000) / 7.0
        pts = rng.random((5, 2))
        for a, b in ((line, pts), (pts, line)):
            assert equivariant._hausdorff(a, b) == kdtree_hausdorff(a, b)

    def test_hausdorff_of_vertical_lines_is_fast(self):
        # A vertical line against a copy 0.5 to its right: each point's x
        # window once held the whole other line.
        line = np.zeros((20000, 2))
        line[:, 1] = np.arange(20000) / 7.0
        start = time.perf_counter()
        assert equivariant._hausdorff(line, line + [0.5, 0.0]) == 0.5
        assert time.perf_counter() - start < 2.0

    def test_hausdorff_of_empty_sets(self):
        empty = np.zeros((0, 2))
        pts = np.array([[0.5, 0.25]])
        assert equivariant._hausdorff(empty, empty) == 0.0
        assert equivariant._hausdorff(empty, pts) == math.inf
        assert equivariant._hausdorff(pts, empty) == math.inf


class TestDecayFit:
    def synthetic(self, cone, coef, power, r0=1.0, r1=120.0, n=500):
        r = np.geomspace(r0, r1, n)
        u = coef * r ** (-power)
        x = cone.a * r - cone.b * u
        y = cone.b * r + cone.a * u
        return curve_from_samples(cone.p, cone.q, x, y)

    def test_recovers_slow_mode(self, cone33):
        leaf = self.synthetic(cone33, 1e-3, 2.0)
        gamma_fit, matched = fit_decay_exponent(leaf, cone33)
        assert abs(gamma_fit - 2.0) < 1e-6
        assert matched == "gamma_minus"

    def test_recovers_fast_mode(self, cone33):
        leaf = self.synthetic(cone33, 1e-3, 3.0)
        gamma_fit, matched = fit_decay_exponent(leaf, cone33)
        assert abs(gamma_fit - 3.0) < 1e-6
        assert matched == "gamma_plus"

    def test_off_mode_reports_none(self, cone33):
        leaf = self.synthetic(cone33, 1e-3, 2.5)
        gamma_fit, matched = fit_decay_exponent(leaf, cone33)
        assert abs(gamma_fit - 2.5) < 1e-6
        assert matched == "none"

    def test_pq_mismatch(self, leaf33):
        with pytest.raises(UsageError, match="disagree"):
            fit_decay_exponent(leaf33, make_cone(2, 4))

    def test_short_leaf_rejected(self, cone33):
        leaf = shoot_leaf(3, 3, 1.0, r_max=10.0)
        with pytest.raises(UsageError, match="decade"):
            fit_decay_exponent(leaf, cone33)

    def test_leaf_selects_slow_mode(self, leaf33, cone33):
        gamma_fit, matched = fit_decay_exponent(leaf33, cone33)
        gm, _gp = gamma_pm(cone33)
        assert matched == "gamma_minus"
        assert abs(gamma_fit - gm) / gm < 0.05


class TestLeafGraph:
    def test_values_match_projection(self, leaf33, cone33):
        graph = leaf_to_radial_graph(leaf33, cone33, 3.0, 30.0, 512)
        rr = cone33.a * leaf33.x + cone33.b * leaf33.y
        uu = -cone33.b * leaf33.x + cone33.a * leaf33.y
        expected = np.interp(graph.r, rr, uu)
        assert np.max(np.abs(graph.values - expected)) < 1e-6

    def test_range_check(self, leaf33, cone33):
        with pytest.raises(UsageError, match="covers"):
            leaf_to_radial_graph(leaf33, cone33, 3.0, 80.0, 64)


class TestGraphResidual:
    def test_zero_graph_on_cone(self, cone33):
        u = RadialFunction.from_callable(lambda r: 0.0 * r, 1.0, 8.0, 64)
        assert cmc_graph_residual(cone33, u, 0.0) < 1e-13
        assert abs(cmc_graph_residual(cone33, u, 0.7) - 0.7) < 1e-13

    def test_zero_graph_asymmetric_cone(self):
        cone = make_cone(2, 4)
        u = RadialFunction.from_callable(lambda r: 0.0 * r, 1.0, 8.0, 64)
        assert cmc_graph_residual(cone, u, 0.0) < 1e-13

    def test_leaf_graph_is_minimal(self, leaf33, cone33):
        u = leaf_to_radial_graph(leaf33, cone33, 3.0, 30.0, 2048)
        assert cmc_graph_residual(cone33, u, 0.0) < 1e-5

    @pytest.mark.parametrize("lam", [0.01, 0.03])
    def test_cmc_profile_graph_has_mean_curvature_lambda(self, cone33, lam):
        # A profile of constant mean curvature lam, shot along the cone ray
        # from radius 3 by scipy's RK45, read as a graph over the cone on
        # [4, 25]: its max |H - lam| is about 2e-8, while H misses
        # lam * det(Id - u A_C) by 4.7e-6 and 1.3e-4, so the bound tells
        # the two right-hand sides apart.
        a, b = cone33.a, cone33.b
        sol = scipy_solve_ivp(equivariant._profile_rhs(3, 3, lam),
                              (0.0, 30.0), [3 * a, 3 * b, math.atan2(b, a)],
                              1e-12, 1e-12, lambda _y: False)
        s = np.arange(0.0, 30.0, 1e-3)
        x, y, alpha = sol.sol(s)
        curve = ProfileCurve(3, 3, s, x, y, np.cos(alpha), np.sin(alpha))
        u = leaf_to_radial_graph(curve, cone33, 4.0, 25.0, 2048)
        assert cmc_graph_residual(cone33, u, lam) < 1e-6

    def test_embeddedness_guard(self, cone33):
        u = RadialFunction.from_callable(lambda r: 0.3 * r, 1.0, 8.0, 64)
        with pytest.raises(UsageError, match="embeddedness"):
            cmc_graph_residual(cone33, u, 0.0)

    def test_node_floor(self, cone33):
        u = RadialFunction.from_callable(lambda r: 0.0 * r, 1.0, 8.0, 8)
        with pytest.raises(UsageError, match="16 nodes"):
            cmc_graph_residual(cone33, u, 0.0)

    def test_lambda_must_be_finite(self, cone33):
        u = RadialFunction.from_callable(lambda r: 0.0 * r, 1.0, 8.0, 64)
        with pytest.raises(UsageError, match="finite"):
            cmc_graph_residual(cone33, u, np.inf)

    @pytest.mark.parametrize("lam,match", [
        ("0.1", "real number"), (None, "real number"),
        (10**400, "finite real number, got <integer"),
    ], ids=["str", "None", "huge-int"])
    def test_lambda_must_be_a_real_number(self, cone33, lam, match):
        # These once raised TypeError from np.isfinite.
        u = RadialFunction.from_callable(lambda r: 0.0 * r, 1.0, 8.0, 64)
        with pytest.raises(UsageError, match=match):
            cmc_graph_residual(cone33, u, lam)


class TestLinearization:
    def radial(self, f, n=2048, r0=1.0, r1=10.0):
        return RadialFunction.from_callable(f, r0, r1, n)

    def amplitude_ratio(self, cone, eps):
        """Max remainder ratio from 0 to eps r^-2 on 8192 nodes, r in
        [1, 10]: the protocol of acceptance criterion 10."""
        u = self.radial(lambda r: 0.0 * r, n=8192)
        v = self.radial(lambda r: eps * r ** -2, n=8192)
        return linearization_check(cone, u, v).max_ratio

    def test_identical_graphs_rejected(self, cone33):
        u = self.radial(lambda r: 1e-3 * r ** -2)
        with pytest.raises(UsageError, match="identically zero"):
            linearization_check(cone33, u, u)

    def test_shared_grid_required(self, cone33):
        u = self.radial(lambda r: 0.0 * r, n=64)
        v = self.radial(lambda r: 1e-3 * r ** -2, n=128)
        with pytest.raises(UsageError, match="share"):
            linearization_check(cone33, u, v)

    def test_decay_bound_enforced(self, cone33):
        u = self.radial(lambda r: 0.0 * r, n=64)
        v = self.radial(lambda r: 0.25 * r, n=64)
        with pytest.raises(UsageError, match="decay bound"):
            linearization_check(cone33, u, v)

    def test_node_floor(self, cone33):
        u = self.radial(lambda r: 0.0 * r, n=8)
        v = self.radial(lambda r: 1e-3 * r ** -2, n=8)
        with pytest.raises(UsageError, match="16 nodes"):
            linearization_check(cone33, u, v)

    def test_ratio_vanishes_toward_origin_for_decaying_input(self, cone33):
        # Inputs that actually decay at small radius: the remainder ratio
        # falls with r, so its inner log-log slope is positive.
        u = self.radial(lambda r: 0.0 * r, n=4096, r0=0.01, r1=1.0)
        v = self.radial(lambda r: 1e-2 * r ** 2, n=4096, r0=0.01, r1=1.0)
        rep = linearization_check(cone33, u, v)
        assert rep.max_ratio < 1e-3
        assert rep.inner_slope > 0.5

    def test_remainder_scales_linearly_on_generic_cone(self):
        # On a cone with p != q the first neglected term is quadratic in the
        # graph, so the remainder ratio is proportional to the amplitude.
        cone = make_cone(2, 3)
        maxima = []
        for eps in (1e-2, 1e-3, 1e-4):
            u = self.radial(lambda r: 0.0 * r)
            v = self.radial(lambda r, e=eps: e * r ** -2)
            maxima.append(linearization_check(cone, u, v).max_ratio)
        slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(maxima), 1)[0]
        assert 0.85 <= slope <= 1.1

    def test_remainder_is_quadratic_on_balanced_cone(self, cone33):
        # With p = q the swap (x, y) -> (y, x) sends a graph u to -u while
        # reversing the normal, so the curvature operator is odd and every
        # even term of its expansion cancels.  The first correction is then
        # cubic and the remainder ratio drops like the amplitude squared.
        maxima = [self.amplitude_ratio(cone33, eps) for eps in (1e-2, 1e-3)]
        assert 70.0 < maxima[0] / maxima[1] < 140.0

    def test_quadratic_fall_has_no_floor_on_balanced_cone(self, cone33):
        # The closed-form curvature forms no O(1/r) terms that cancel, so
        # the ratio keeps falling like eps^2 two decades below criterion
        # 10's amplitudes (measured 3.328e-6, 3.328e-8, 3.328e-10).
        eps_list = (1e-3, 1e-4, 1e-5)
        maxima = [self.amplitude_ratio(cone33, eps) for eps in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(maxima), 1)[0]
        assert 1.95 <= slope <= 2.05, maxima

    def test_linear_fall_has_no_floor_on_generic_cone(self):
        # measured 4.7098e-6 at 1e-5 and 4.7100e-7 at 1e-6
        cone = make_cone(2, 4)
        big, small = (self.amplitude_ratio(cone, eps) for eps in (1e-5, 1e-6))
        assert small == pytest.approx(big / 10, rel=0.05)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3])
    def test_operator_is_odd_only_on_balanced_cone(self, eps):
        # The oddness behind the quadratic ratio on p = q: M_C(-w) = -M_C(w)
        # makes the remainder from -w to w twice the remainder from 0 to w,
        # over twice the size, so the two ratios agree up to round-off.  On
        # p != q the quadratic term survives and the ratios differ.
        w = self.radial(lambda r: eps * r ** -2, n=8192)
        minus_w = self.radial(lambda r: -eps * r ** -2, n=8192)
        zero = self.radial(lambda r: 0.0 * r, n=8192)

        def gap(cone):
            about_zero = linearization_check(cone, zero, w).ratio
            symmetric = linearization_check(cone, minus_w, w).ratio
            return (np.max(np.abs(symmetric - about_zero))
                    / np.max(about_zero))

        assert gap(make_cone(3, 3)) < 1e-5
        assert gap(make_cone(2, 4)) > 0.5

    def test_doubled_graph_pair_runs(self, cone33):
        u = self.radial(lambda r: 1e-3 * r ** -2)
        v = self.radial(lambda r: 2e-3 * r ** -2)
        rep = linearization_check(cone33, u, v)
        assert rep.r.shape == rep.ratio.shape
        assert np.all(np.isfinite(rep.ratio))
        assert rep.max_ratio < 1e-2


class TestQuadrantReduction:
    def test_quadrant_grid_layout(self):
        g = quadrant_grid(8, box=2.0)
        assert g.dims == (8, 8)
        assert g.h == 0.25
        assert g.origin == (0.125, 0.125)

    @pytest.mark.parametrize("n", [8.5, "8"], ids=["float", "str"])
    def test_quadrant_grid_refuses_a_side_that_is_not_an_integer(self, n):
        # 8.5 once built 8 cells of side 1/8.5, short of the box; "8"
        # raised TypeError.
        with pytest.raises(UsageError, match="grid side must be an integer"):
            quadrant_grid(n)

    def test_cell_weights(self):
        g = quadrant_grid(4)
        X, Y = g.center_mesh()
        assert np.array_equal(cell_weights(g, 0, 0), np.ones((4, 4)))
        assert np.array_equal(cell_weights(g, 1, 2), X * Y ** 2)

    def test_diagonal_wedge_balanced(self):
        g = quadrant_grid(16)
        X, Y = g.center_mesh()
        assert np.array_equal(diagonal_wedge(g, 3, 3).bits, Y < X)
        assert np.array_equal(diagonal_wedge(g, 0, 0).bits, Y < X)

    def test_weighted_minimize_validation(self):
        g = quadrant_grid(8)
        wedge = diagonal_wedge(g, 3, 3)
        with pytest.raises(UsageError, match="must be an integer"):
            weighted_minimize(1.5, 3, g, 0.0, wedge, 0.25)
        with pytest.raises(UsageError, match="half a cell"):
            weighted_minimize(3, 3, GridGeometry((8, 8), h=0.125), 0.0,
                              wedge, 0.25)
        with pytest.raises(UsageError, match="different grid"):
            weighted_minimize(3, 3, quadrant_grid(16), 0.0, wedge, 0.25)
        with pytest.raises(UsageError, match="radius"):
            weighted_minimize(3, 3, g, 0.0, wedge, -1.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, "0.5"])
    def test_lambda_is_refused_before_any_depth_work(self, monkeypatch, lam):
        # Once refused by MinCutProblem after both depth passes, which take
        # about 2 s at n = 2048.
        def no_depth(*_args):
            raise AssertionError("depth work before the lambda check")

        monkeypatch.setattr(equivariant, "_depth2", no_depth)
        g = quadrant_grid(16)
        wedge = diagonal_wedge(g, 3, 3)
        with pytest.raises(UsageError, match="lambda must be a finite"):
            weighted_minimize(3, 3, g, lam, wedge, 0.5)
        with pytest.raises(UsageError, match="lambda must be a finite"):
            approximation_sequence(3, 3, lam, wedge, [0.1], 0.5)

    @pytest.mark.parametrize("r", ["0.5", None], ids=["str", "None"])
    def test_weighted_minimize_refuses_a_radius_that_is_not_real(self, r):
        # These once raised TypeError from the comparison with 0.
        g = quadrant_grid(8)
        with pytest.raises(UsageError, match="radius must be a real number"):
            weighted_minimize(3, 3, g, 0.0, diagonal_wedge(g, 3, 3), r)

    def test_trivial_weight_matches_plain_solver(self):
        # p = q = 0 carries unit weights, so the reduction must agree with
        # the unweighted minimizer cell for cell.
        g = quadrant_grid(16)
        X, Y = g.center_mesh()
        boundary = CellSet(g, Y <= 0.5)
        res_w = weighted_minimize(0, 0, g, 0.4, boundary, 0.3)
        ball = X ** 2 + Y ** 2 <= 0.09
        plain = MinCutProblem(g, 0.4,
                              RegionMask(g, boundary.bits & ~ball),
                              RegionMask(g, ~boundary.bits & ~ball))
        res_p = solve(plain)
        assert res_w.energy_quanta == res_p.energy_quanta
        assert np.array_equal(res_w.set_max.bits, res_p.set_max.bits)

    def test_wedge_minimizer_stays_near_diagonal(self):
        g = quadrant_grid(64)
        wedge = diagonal_wedge(g, 3, 3)
        res = weighted_minimize(3, 3, g, 0.0, wedge, 0.5)
        X, Y = g.center_mesh()
        mism = res.set_max.bits != wedge.bits
        near_diag = np.abs(X - Y) / math.sqrt(2.0) <= 2.5 * g.h
        inside = np.hypot(X, Y) <= 0.5 + 2 * g.h
        assert not np.any(mism & ~near_diag & ~inside)

    @pytest.mark.parametrize("n", [64, 96])
    @pytest.mark.parametrize("lam", [0.0, 0.4, -0.3])
    @pytest.mark.parametrize("p,q", [(3, 3), (2, 4), (1, 5)])
    def test_warm_start_matches_cold_solve(self, monkeypatch, p, q, lam, n):
        # The band around the wedge's interface decides only the speed;
        # two max-flow calls show that the warm start was taken.
        g = quadrant_grid(n)
        wedge = diagonal_wedge(g, p, q)
        calls = count_flows(monkeypatch)
        got = weighted_minimize(p, q, g, lam, wedge, 0.5)
        assert len(calls) == 2 and calls[0] < calls[1]
        want = cold_solve(p, q, g, lam, wedge, 0.5)
        assert len(calls) == 3
        assert got.set_min == want.set_min
        assert got.set_max == want.set_max
        assert got.energy_quanta == want.energy_quanta
        assert got.unique == want.unique
        assert got.flow_stats == want.flow_stats


class TestApproximationSequence:
    def wedge_setup(self, n=64):
        # The raw staircase wedge is a few quanta above optimal, so the base
        # is its own largest minimizer, which is a fixed point of the solve.
        g = quadrant_grid(n)
        wedge = diagonal_wedge(g, 3, 3)
        base = weighted_minimize(3, 3, g, 0.0, wedge, 0.5 * n * g.h).set_max
        return g, base

    def test_t_list_validation(self):
        g, wedge = self.wedge_setup(16)
        with pytest.raises(UsageError, match="empty"):
            approximation_sequence(3, 3, 0.0, wedge, [], 0.5)
        with pytest.raises(UsageError, match="finite"):
            approximation_sequence(3, 3, 0.0, wedge, [0.1, -0.2], 0.5)
        with pytest.raises(UsageError, match="decreasing"):
            approximation_sequence(3, 3, 0.0, wedge, [0.01, 0.02], 0.5)

    @pytest.mark.parametrize("radius,annulus,needle", [
        (0.5, (0.3, 0.1), "r_lo < r_hi"),
        (0.5, (-0.1, 0.3), "r_lo < r_hi"),
        (0.5, (0.0, 5e-324), "ramp width"),
        (0.5, (0.1, math.inf), "ramp width"),
        (math.nan, None, "obstacle radius must be positive"),
        (-0.5, (0.1, 0.3), "obstacle radius must be positive"),
    ])
    def test_refused_before_any_solve(self, monkeypatch, radius, annulus,
                                      needle):
        # A bad annulus or obstacle radius is refused before the base solve;
        # a nan radius is named as such, not as the nan annulus it implies.
        g, wedge = self.wedge_setup(16)
        calls = []
        monkeypatch.setattr(equivariant, "solve",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(UsageError, match=needle):
            approximation_sequence(3, 3, 0.0, wedge, [0.1], radius, annulus)
        assert calls == []

    @pytest.mark.parametrize("t_list,annulus,needle", [
        ([0.1, None], None, r"t_list\[1\] must be a finite real number"),
        (["0.1"], None, r"t_list\[0\] must be a finite real number"),
        (0.1, None, "t_list must be a sequence"),
        ([0.1], ("a", 1), r"annulus\[0\] must be a real number"),
        ([0.1], (0.1,), "annulus must hold 2 items"),
    ], ids=["None-t", "str-t", "bare-t", "str-annulus", "short-annulus"])
    def test_refuses_inputs_that_are_not_real_numbers(self, monkeypatch,
                                                      t_list, annulus,
                                                      needle):
        # These once raised TypeError, ValueError or IndexError, or, for a
        # str t, ran on its float.
        g, wedge = self.wedge_setup(16)
        calls = []
        monkeypatch.setattr(equivariant, "solve",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(UsageError, match=needle):
            approximation_sequence(3, 3, 0.0, wedge, t_list, 0.5, annulus)
        assert calls == []

    def test_a_limit_set_filling_the_grid_is_every_steps_data(self):
        # No cell lies outside E, so every depth is infinite and no t
        # removes a cell; scipy once measured to a cell past the grid.
        g = quadrant_grid(4)
        rep = approximation_sequence(3, 3, 0.0, CellSet.full(g),
                                     [2.0, 1.0, 0.5], 0.5)
        assert rep.limit_set == CellSet.full(g)
        assert rep.sets == (rep.limit_set,) * 3
        assert rep.sym_diff_volume == (0.0,) * 3
        assert rep.sets == unrestricted_steps(3, 3, 0.0, rep)

    def test_run_builds_the_arcs_once(self, monkeypatch):
        # The base problem and its four step problems share one arc table.
        g = quadrant_grid(64)
        builds = count_arc_builds(monkeypatch)
        rep = approximation_sequence(3, 3, 0.0, diagonal_wedge(g, 3, 3),
                                     [8 * g.h, 4 * g.h, 2 * g.h, g.h], 0.5)
        assert len(rep.sets) == 4
        assert builds == [(64, 64)]

    def test_forty_bits_solve_the_quadrant_approx_config(self, monkeypatch):
        # At 40 bits the (3,3) run at n=256 has capacities past int32, so
        # its solves are scaled; the steps still nest inside the limit set,
        # and every extremal set passes solve's energy re-check.
        monkeypatch.setattr(mincut, "QUANT_BITS", 40)
        calls = forbid_wrapping(monkeypatch)
        g = quadrant_grid(256)
        rep = approximation_sequence(3, 3, 0.0, diagonal_wedge(g, 3, 3),
                                     [1 / 16, 1 / 32, 1 / 64, 1 / 128], 0.5)
        # Each of the two base stages and the four steps is shifted once,
        # and its clipped residual, with one more node feeding the source,
        # then fits.
        assert len(calls) == 2 * 6
        assert calls[1::2] == [nodes + 1 for nodes in calls[::2]]
        assert all(rep.inclusion_ok) and all(rep.chain_ok)
        assert all(np.all(E.bits <= rep.limit_set.bits) for E in rep.sets)
        assert rep.sets[0] != rep.limit_set
        assert rep.sets == unrestricted_steps(3, 3, 0.0, rep)

    def test_annulus_profile(self):
        # Quarter-width ramps: on (1, 2) the profile rises over [1, 1.25],
        # is 1 on [1.25, 1.75] and falls over [1.75, 2].
        r = np.array([0.9, 1.125, 1.5, 2.1])
        assert equivariant._annulus_profile(r, 1.0, 2.0).tolist() == [
            0.0, 0.5, 1.0, 0.0]
        profile = equivariant._annulus_profile(np.linspace(0, 3, 50), 1.0, 2.0)
        assert np.all((0.0 <= profile) & (profile <= 1.0))

    def test_only_data_outside_the_ball_matters(self):
        # The run solves its own base problem, so the raw wedge, its solved
        # minimizer, and that minimizer plus a cell inside the free ball all
        # fix the same labels and give the same report.
        g, base = self.wedge_setup(16)
        wedge = diagonal_wedge(g, 3, 3)
        bits = base.bits.copy()
        bits[1, 5] = True
        runs = [approximation_sequence(3, 3, 0.0, data, [4 * g.h, 2 * g.h],
                                       0.5)
                for data in (wedge, base, CellSet(g, bits))]
        assert runs[0].sets[0] != runs[0].limit_set
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_zero_perturbation_reproduces_base(self):
        g, wedge = self.wedge_setup(32)
        rep = approximation_sequence(3, 3, 0.0, wedge, [0.0], 0.5)
        assert rep.inclusion_ok == (True,)
        assert rep.sym_diff_volume == (0.0,)
        assert rep.hausdorff_to_E == (0.0,)
        assert np.array_equal(rep.sets[0].bits, rep.limit_set.bits)

    def test_shrinking_chain(self):
        g, wedge = self.wedge_setup(64)
        h = g.h
        rep = approximation_sequence(3, 3, 0.0, wedge, [8 * h, 4 * h, 2 * h],
                                     0.5)
        assert all(rep.inclusion_ok)
        assert all(rep.chain_ok)
        sym = rep.sym_diff_volume
        assert all(a >= b for a, b in zip(sym, sym[1:]))
        assert all(d >= h for d in rep.min_origin_distance)
        assert rep.obstacle_radius == pytest.approx(0.5)
        assert rep.sets == unrestricted_steps(3, 3, 0.0, rep)

    @pytest.mark.parametrize("lam", [0.0, 0.4])
    def test_generic_cone_steps_match_full_solves(self, lam):
        g = quadrant_grid(64)
        h = g.h
        rep = approximation_sequence(2, 4, lam, diagonal_wedge(g, 2, 4),
                                     [8 * h, 4 * h, 2 * h, h], 0.5)
        assert rep.sets == unrestricted_steps(2, 4, lam, rep)
        assert all(rep.chain_ok)

    def test_band_of_a_step_that_starts_at_the_limit_is_empty(self):
        # Every cell of E lies at depth >= h in it, so t = h/2 removes no
        # cell: the first step returns E, and the second has no free cell.
        g, wedge = self.wedge_setup(64)
        rep = approximation_sequence(3, 3, 0.0, wedge, [g.h / 2, 0.0], 0.5)
        assert rep.sets == (rep.limit_set, rep.limit_set)
        assert rep.sets == unrestricted_steps(3, 3, 0.0, rep)
        ball = RegionMask.ball(g, (0.0, 0.0), 0.5).bits
        assert rep.step_free_cells == (
            int(np.count_nonzero(rep.limit_set.bits & ball)), 0)
