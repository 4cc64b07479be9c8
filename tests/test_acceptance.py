"""Acceptance suite: ten end-to-end checks at fixed tolerances and time
budgets, one per test.  Each prints a single summary line on success; a
failure shows up as an ordinary pytest failure with the measured values."""

import time

import numpy as np
import pytest

from cmclab import (
    CellSet, GridGeometry, RadialFunction, approximation_sequence, brute_force,
    diagonal_wedge, fit_decay_exponent, gamma_pm, link_spectrum,
    linearization_check, lc_residual, make_cone, mean_curvature_values,
    perimeter, quadrant_grid, shoot_leaf, solve, split_perimeter,
    stencil_levels, stability, threshold_experiment, weighted_minimize,
    RegionMask,
)
from oracles import link_eigenvalues_oracle, unrestricted_steps
from support import random_small_problem

STABLE_PAIRS = [(2, 4), (3, 3), (3, 4), (4, 4)]
ALL_PAIRS = [(p, q) for p in range(1, 5) for q in range(p, 5)]


def report(num, text):
    print(f"[criterion {num:02d}] PASS: {text}")


def test_criterion_01():
    """Exact solver agrees with exhaustive enumeration on 200 random
    instances, half of them 3-D, across the lambda range."""
    rng = np.random.default_rng(411)
    t0 = time.perf_counter()
    for k in range(200):
        prob = random_small_problem(rng, d=2 if k < 100 else 3)
        got = solve(prob)
        want = brute_force(prob)
        assert got.energy_quanta == want.energy_quanta
        assert got.unique == want.unique
        assert np.array_equal(got.set_min.bits, want.set_min.bits)
        assert np.array_equal(got.set_max.bits, want.set_max.bits)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"200 instances matched enumeration in {elapsed:.2f}s")


def _perimeter_tables(stencil):
    """Per-mask perimeter of every subset of the 3x3 grid, as floats via the
    public function and as exact integers from raw cut-pair counts."""
    grid = GridGeometry((3, 3), stencil=stencil)
    masks = np.arange(512)
    bits = ((masks[:, None] >> np.arange(9)) & 1).astype(bool)
    bits = bits.reshape(512, 3, 3)

    per_float = np.array([
        perimeter(CellSet(grid, bits[m]), RegionMask.whole(grid))
        for m in range(512)])

    per_int = np.zeros(512, dtype=np.int64)
    for w, offsets in stencil_levels(2, stencil):
        w_int = round(w * (1 << 34))
        for dx, dy in offsets:
            a = bits[:, max(dx, 0):3 + min(dx, 0), max(dy, 0):3 + min(dy, 0)]
            b = bits[:, max(-dx, 0):3 - max(dx, 0), max(-dy, 0):3 - max(dy, 0)]
            cut = (a != b).sum(axis=(1, 2))
            per_int += cut.astype(np.int64) * w_int
    return per_float, per_int


def test_criterion_02():
    """Submodularity of the perimeter over every pair of subsets of the 3x3
    grid, checked in exact integer arithmetic and in floats."""
    t0 = time.perf_counter()
    masks = np.arange(512)
    inter = masks[:, None] & masks[None, :]
    union = masks[:, None] | masks[None, :]
    for stencil in ("face", "cc"):
        per_f, per_i = _perimeter_tables(stencil)
        lhs_i = per_i[inter] + per_i[union]
        rhs_i = per_i[:, None] + per_i[None, :]
        assert int((lhs_i > rhs_i).sum()) == 0
        lhs_f = per_f[inter] + per_f[union]
        rhs_f = per_f[:, None] + per_f[None, :]
        assert int((lhs_f > rhs_f).sum()) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, f"2 x 262144 subset pairs, zero violations, {elapsed:.2f}s")


def test_criterion_03():
    """Ball splitting of the boundary reassembles the full perimeter exactly
    on 1000 random sets."""
    rng = np.random.default_rng(734)
    t0 = time.perf_counter()
    for k in range(1000):
        h = float(2.0 ** (-(k % 3)))
        stencil = "cc" if k % 2 else "face"
        grid = GridGeometry((32, 32), h=h, stencil=stencil)
        D = CellSet(grid, rng.random((32, 32)) < 0.5)
        center = tuple(rng.uniform(8, 24, size=2) * h)
        r = float(rng.uniform(2, 7)) * h
        rep = split_perimeter(D, r, center)
        assert rep.per_inner + rep.per_outer + rep.per_interface \
            == rep.per_total
        assert rep.per_total == perimeter(D, RegionMask.whole(grid))
    elapsed = time.perf_counter() - t0
    report(3, f"1000 splittings reassembled exactly in {elapsed:.2f}s")


def test_criterion_04():
    """Obstacle filling threshold at r = 16: the half-plane data fill the
    upper disk at lambda = 2/r, because the discrete threshold there is
    lambda*_h = 1.57/r, and detach cleanly at lambda = 0.5/r.  lambda = 2/r
    is not a threshold in general: it does not fill at r = 32 or 64, where
    lambda*_h = 3.55/r (ROADMAP item 19)."""
    t0 = time.perf_counter()
    rows = threshold_experiment(16.0, 48, [2.0 / 16.0])
    t1 = time.perf_counter()
    assert t1 - t0 < 5.0
    assert rows[0].filled is True

    rows2 = threshold_experiment(16.0, 48, [0.5 / 16.0])
    t2 = time.perf_counter()
    assert t2 - t1 < 5.0
    assert rows2[0].filled is False
    bound = 0.05 * rows2[0].obstacle_circumference
    assert rows2[0].contact_excess <= bound
    report(4, f"filled at 0.125, detached at 0.03125 with excess "
              f"{rows2[0].contact_excess:.3g} <= {bound:.3g}, "
              f"{t2 - t0:.2f}s")


def test_criterion_05():
    """Stability verdicts across all multiplicity pairs up to 4, with the
    link ground state cross-checked by an independent product eigensolver."""
    for p, q in ALL_PAIRS:
        cone = make_cone(p, q)
        spectrum = link_spectrum(cone, 4)
        assert spectrum.eigenvalues[0] == -(p + q)
        assert stability(cone) == (p + q >= 6)
        ev = link_eigenvalues_oracle(p, q, 1)[0]
        assert abs(ev - (-(p + q))) <= 1e-2 * (p + q)
    assert stability(make_cone(3, 3)) is True
    assert stability(make_cone(1, 1)) is False
    assert stability(make_cone(2, 2)) is False
    report(5, "10 verdicts match the ground state; eigensolver within 1e-2")


def test_criterion_06():
    """Indicial exponents of stable cones satisfy the defining sum and
    product identities to near machine precision."""
    for p, q in STABLE_PAIRS:
        cone = make_cone(p, q)
        gm, gp = gamma_pm(cone)
        assert abs((gm + gp) - (cone.n - 2)) <= 1e-12
        lam1 = link_spectrum(cone, 1).eigenvalues[0]
        assert abs(gm * gp - (-lam1)) <= 1e-12
    assert gamma_pm(make_cone(3, 3)) == (2.0, 3.0)
    report(6, "sum and product identities hold to 1e-12 on 4 stable cones")


def test_criterion_07():
    """The radial Jacobi operator annihilates both pure indicial modes at
    second order under grid refinement."""
    cone = make_cone(3, 3)
    orders = []
    for power in gamma_pm(cone):
        res = [lc_residual(cone, RadialFunction.from_callable(
            lambda r, a=power: r ** -a, 1.0, 4.0, n)) for n in (64, 128, 256)]
        orders.append(np.log2(res[0] / res[1]))
        orders.append(np.log2(res[1] / res[2]))
    assert all(o >= 1.9 for o in orders)
    report(7, "refinement orders " + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_08():
    """Leaf shooting: profile equation residual, scaling covariance, and the
    decay mode of the graph over the cone."""
    t0 = time.perf_counter()
    cone = make_cone(3, 3)
    leaf = shoot_leaf(3, 3, 1.0)
    resid = np.nanmax(np.abs(mean_curvature_values(leaf)[2:-2]))
    assert resid <= 1e-6

    for alpha in (0.5, 2.0, 4.0):
        scaled = shoot_leaf(3, 3, alpha)
        m = min(scaled.n_nodes, leaf.n_nodes)
        rel = np.hypot(scaled.x[:m] - alpha * leaf.x[:m],
                       scaled.y[:m] - alpha * leaf.y[:m]) / (
            alpha * np.hypot(leaf.x[:m], leaf.y[:m]))
        assert rel.max() <= 1e-8

    gamma_fit, matched = fit_decay_exponent(leaf, cone)
    assert matched in ("gamma_minus", "gamma_plus")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(8, f"residual {resid:.3g}, covariance holds, decay mode "
              f"{matched} ({gamma_fit:.4f}), {elapsed:.2f}s")


def test_criterion_09():
    """Inward-perturbation runs on the 128-cell quadrant: every step set is
    nested, the perturbed minimizers converge, and the interface keeps off
    the origin."""
    t0 = time.perf_counter()
    g = quadrant_grid(128)
    h = g.h
    wedge = diagonal_wedge(g, 3, 3)
    runs = []
    for lam in (0.0, 0.2 / 0.5):
        base = weighted_minimize(3, 3, g, lam, wedge, 0.5).set_max
        rep = approximation_sequence(3, 3, lam, base,
                                     [8 * h, 4 * h, 2 * h, h], 0.5)
        runs.append((lam, rep))
        assert all(rep.inclusion_ok)
        assert all(rep.chain_ok)
        sym = rep.sym_diff_volume
        assert all(a > b for a, b in zip(sym, sym[1:]))
        assert all(d >= h for d in rep.min_origin_distance)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    # Each step solved only its band; the whole ball gives the same sets.
    for lam, rep in runs:
        assert rep.sets == unrestricted_steps(3, 3, lam, rep)
    report(9, f"both lambda runs nested and shrinking in {elapsed:.2f}s")


def _remainder_slope(p, q, eps_list):
    """Log-log slope of the max remainder ratio against the amplitude eps of
    the graph eps r^-2 over the (p, q) cone, on 8192 nodes with r in
    [1, 10]; also returns the ratios."""
    cone = make_cone(p, q)
    maxima = []
    for eps in eps_list:
        u = RadialFunction.from_callable(lambda r: 0.0 * r, 1.0, 10.0, 8192)
        v = RadialFunction.from_callable(lambda r, e=eps: e * r ** -2,
                                         1.0, 10.0, 8192)
        maxima.append(linearization_check(cone, u, v).max_ratio)
    slope = float(np.polyfit(np.log(eps_list), np.log(maxima), 1)[0])
    return slope, maxima


def test_criterion_10():
    """The remainder of the linearized graph operator is at most quadratic
    in the graph: its ratio to the graph's size falls like the first power
    of the amplitude on a generic cone, and like the square on a balanced
    one.

    On the stable generic cone C(2,4) in R^8 the first neglected term is
    quadratic, so the remainder ratio is proportional to the amplitude; the
    slope is fitted over 1e-2, 1e-3 and 1e-4 (measured 0.986 from
    4.410e-3, 4.680e-4, 4.707e-5).

    On the balanced cone C(3,3) the swap of the two axes maps the graph u
    to -u while flipping the chosen normal, so the graph curvature operator
    is odd: its even-order terms vanish, the first neglected term is cubic
    and the ratio falls like the square of the amplitude (measured slope
    2.000 from 3.326e-4, 2.995e-5, 3.328e-6 at 1e-2, 3e-3, 1e-3).

    `linearization_check` takes the curvature in a closed form that never
    forms the O(1/r) weight terms that cancel near the cone, so the
    remainder has no round-off floor at these amplitudes: the C(3,3) slope
    stays 2.000 down to 1e-5 (3.328e-8 at 1e-4, 3.328e-10 at 1e-5), and
    the C(2,4) ratio at 1e-6 is a tenth of that at 1e-5 (4.710e-7 against
    4.710e-6); `test_equivariant.py` pins both.  Both bands catch a wrong
    linearization: scaling the Jacobi coefficient A2 by 1.001 in L_C drops
    the slopes to 0.375 on C(2,4) and 0.176 on C(3,3).
    """
    generic, generic_ratios = _remainder_slope(2, 4, (1e-2, 1e-3, 1e-4))
    assert 0.8 <= generic <= 1.2, (generic, generic_ratios)
    balanced, balanced_ratios = _remainder_slope(3, 3, (1e-2, 3e-3, 1e-3))
    assert 1.8 <= balanced <= 2.2, (balanced, balanced_ratios)
    report(10, f"amplitude slope {generic:.3f} on C(2,4), {balanced:.3f} "
               f"on C(3,3); ratios "
               + ", ".join(f"{m:.3e}" for m in generic_ratios) + " and "
               + ", ".join(f"{m:.3e}" for m in balanced_ratios))
