"""Tests for the profile-curve layer: curvature closed forms, leaf shooting,
decay fits, graph residuals, linearization diagnostics, and the weighted
quadrant reduction."""

import math

import numpy as np
import pytest

from cmclab import (
    CellSet, GridGeometry, IntegrationFailure, MinCutProblem, PerturbationField,
    ProfileCurve, RadialFunction, RegionMask, UsageError, approximation_sequence,
    cell_weights, cmc_graph_residual, curve_from_samples, diagonal_wedge,
    evaluate_quanta, fit_decay_exponent, gamma_pm, has_interface_pinch,
    leaf_to_radial_graph, linearization_check, make_cone, mean_curvature_values,
    profile_mean_curvature, quadrant_grid, shoot_leaf, solve, weighted_minimize,
)


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
        assert c.points().shape == (40, 2)

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

    def test_is_simple_monotone_radius(self):
        c = arc_curve(0, 0, (3.0, 0.5), 0.4, 0.2, 1.0, 30)
        assert c.is_simple()

    def test_is_simple_detects_crossing(self):
        x = np.array([1.0, 2.0, 1.0, 2.0])
        y = np.array([1.0, 2.0, 2.0, 1.0])
        c = curve_from_samples(0, 0, x, y)
        assert not c.is_simple()

    def test_is_simple_hash_path_accepts_u_shape(self):
        x = np.array([1.0, 1.5, 2.5, 3.0])
        y = np.array([3.0, 2.0, 2.0, 3.0])
        c = curve_from_samples(0, 0, x, y)
        assert c.is_simple()


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

    def test_diagonal_ray_is_critical(self):
        t = np.linspace(1.0, 2.0, 60)
        d = 1.0 / math.sqrt(2.0)
        c = ProfileCurve(3, 3, t, t * d, t * d,
                         np.full_like(t, d), np.full_like(t, d))
        H = mean_curvature_values(c)
        assert np.nanmax(np.abs(H)) < 1e-15

    def test_pointwise_accessor(self):
        c = arc_curve(1, 1, (0.0, 0.0), 2.0, 0.15, math.pi / 2 - 0.15, 400)
        assert profile_mean_curvature(c, 7) == pytest.approx(1.5, abs=1e-12)
        with pytest.raises(UsageError, match="interior"):
            profile_mean_curvature(c, 0)
        with pytest.raises(UsageError, match="interior"):
            profile_mean_curvature(c, c.n_nodes - 1)


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
        with pytest.raises(UsageError, match="must be finite"):
            shoot_leaf(3, 3, 1.0, r_max=r_max)

    def test_start_at_axis_orthogonal(self, leaf33):
        assert leaf33.x[0] == pytest.approx(1.0, abs=1e-2)
        assert leaf33.y[0] == 0.0
        assert leaf33.y[1] > 0
        assert leaf33.ty[0] == pytest.approx(1.0, abs=1e-3)

    def test_reaches_exit_radius(self, leaf33):
        r = np.hypot(leaf33.x, leaf33.y)
        assert r.max() > 49.0

    def test_leaf_is_simple(self, leaf33):
        assert leaf33.is_simple()

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
        with pytest.raises(UsageError, match="integers"):
            weighted_minimize(1.5, 3, g, 0.0, wedge, 0.25)
        with pytest.raises(UsageError, match="half a cell"):
            weighted_minimize(3, 3, GridGeometry((8, 8), h=0.125), 0.0,
                              wedge, 0.25)
        with pytest.raises(UsageError, match="different grid"):
            weighted_minimize(3, 3, quadrant_grid(16), 0.0, wedge, 0.25)
        with pytest.raises(UsageError, match="radius"):
            weighted_minimize(3, 3, g, 0.0, wedge, -1.0)

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


class TestPerturbationField:
    def test_validation(self):
        with pytest.raises(UsageError, match=">= 0"):
            PerturbationField(-0.1, 1.0, 2.0)
        with pytest.raises(UsageError, match="r_lo < r_hi"):
            PerturbationField(0.1, 2.0, 1.0)
        with pytest.raises(UsageError, match="ramp"):
            PerturbationField(0.1, 1.0, 2.0, ramp=0.8)

    def test_profile_shape(self):
        f = PerturbationField(0.1, 1.0, 2.0, ramp=0.25)
        r = np.array([0.9, 1.125, 1.5, 2.1])
        d = f.displacement(r)
        assert d[0] == 0.0 and d[3] == 0.0
        assert d[1] == pytest.approx(0.05)
        assert d[2] == pytest.approx(0.1)

    def test_zero_magnitude(self):
        f = PerturbationField(0.0, 1.0, 2.0)
        assert np.all(f.displacement(np.linspace(0, 3, 50)) == 0.0)

    def test_default_ramp(self):
        f = PerturbationField(0.1, 1.0, 2.0)
        assert f.ramp == pytest.approx(0.25)


class TestPinchDetector:
    def test_checkerboard_pinches(self):
        g = GridGeometry((6, 6))
        X, Y = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
        assert has_interface_pinch(CellSet(g, (X + Y) % 2 == 0))

    def test_half_plane_clean(self):
        g = GridGeometry((12, 12))
        assert not has_interface_pinch(
            CellSet.from_predicate(g, lambda x, y: y < 6))

    def test_disk_clean(self):
        g = GridGeometry((16, 16))
        assert not has_interface_pinch(CellSet.from_predicate(
            g, lambda x, y: (x - 8) ** 2 + (y - 8) ** 2 < 25))

    def test_empty_clean(self):
        assert not has_interface_pinch(CellSet.empty(GridGeometry((8, 8))))


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
        assert not any(rep.singular_proxy_flag)
        assert rep.obstacle_radius == pytest.approx(0.5)
