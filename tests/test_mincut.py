import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import cmclab.mincut
from cmclab import (
    UsageError, NumericalError, CapacityOverflowError, GridGeometry, CellSet, RegionMask,
    MinCutProblem, quantum, evaluate, evaluate_quanta, solve, brute_force,
    threshold_experiment, convergence_experiment, problem_to_json,
    problem_from_json, result_to_json,
)
from support import random_small_problem


def half_plane_disk_problem(resolution, r, lam, h=1.0, stencil="cc"):
    """Half-plane data outside a centered free disk, as one instance."""
    grid = GridGeometry((resolution, resolution), h=h, stencil=stencil)
    c = ((resolution - 1) / 2.0 * h,) * 2
    ball = RegionMask.ball(grid, c, r)
    X, Y = grid.center_mesh()
    fixed_in = RegionMask(grid, ~ball.bits & (Y < c[1]))
    fixed_out = RegionMask(grid, ~ball.bits & (Y > c[1]))
    return MinCutProblem(grid, lam, fixed_in=fixed_in, fixed_out=fixed_out)


class TestProblemValidation:
    def test_quantum(self):
        assert quantum(GridGeometry((4, 4), h=1.0)) == 2.0**-20
        assert quantum(GridGeometry((4, 4, 4), h=0.5)) == 0.25 * 2.0**-20

    def test_rejects_bad_lambda(self):
        g = GridGeometry((3, 3))
        with pytest.raises(UsageError):
            MinCutProblem(g, float("inf"),
                          fixed_in=RegionMask.whole(g).invert(),
                          fixed_out=RegionMask.whole(g).invert())

    def test_rejects_overlapping_fixed(self):
        g = GridGeometry((3, 3))
        W = RegionMask.whole(g)
        with pytest.raises(UsageError):
            MinCutProblem(g, 0.0, fixed_in=W, fixed_out=W)

    def test_rejects_bad_weights(self):
        g = GridGeometry((3, 3))
        none = RegionMask.whole(g).invert()
        with pytest.raises(UsageError):
            MinCutProblem(g, 0.0, fixed_in=none, fixed_out=none,
                          cell_weight=np.zeros((3, 3)))
        with pytest.raises(UsageError):
            MinCutProblem(g, 0.0, fixed_in=none, fixed_out=none,
                          cell_weight=np.full((3, 3), np.nan))

    def test_rejects_incompatible_masks(self):
        g = GridGeometry((3, 3))
        other = GridGeometry((3, 3), h=2.0)
        with pytest.raises(UsageError):
            MinCutProblem(g, 0.0,
                          fixed_in=RegionMask.whole(other).invert(),
                          fixed_out=RegionMask.whole(g).invert())


class TestSolve:
    def test_matches_brute_force(self, rng):
        for _ in range(40):
            prob = random_small_problem(rng)
            got = solve(prob)
            want = brute_force(prob)
            assert got.energy_quanta == want.energy_quanta
            assert got.set_min == want.set_min
            assert got.set_max == want.set_max
            assert got.unique == want.unique

    def test_exact_tie_detected(self):
        # with h = 1 and a unit face stencil, an isolated free cell has cut
        # cost 4 quanta-blocks and volume gain lambda; lambda = 4 ties them
        g = GridGeometry((3, 3), h=1.0, stencil="face")
        bits = np.zeros((3, 3), dtype=bool)
        bits[1, 1] = True
        free = bits
        res = solve(MinCutProblem(
            g, 4.0,
            fixed_in=RegionMask(g, np.zeros((3, 3), dtype=bool)),
            fixed_out=RegionMask(g, ~free)))
        assert not res.unique
        assert res.set_min.count() == 0
        assert res.set_max.count() == 1
        assert bool(res.set_max.bits[1, 1])

    def test_all_fixed_shortcut(self, rng):
        g = GridGeometry((4, 4))
        top = RegionMask.from_predicate(g, lambda x, y: y > 1.5)
        res = solve(MinCutProblem(g, 1.0, fixed_in=top,
                                  fixed_out=top.invert()))
        assert res.unique
        assert np.array_equal(res.set_min.bits, top.bits)
        assert res.set_min == res.set_max

    def test_fixed_labels_respected(self, rng):
        for _ in range(10):
            prob = random_small_problem(rng)
            res = solve(prob)
            for D in (res.set_min, res.set_max):
                assert np.all(D.bits[prob.fixed_in.bits])
                assert not np.any(D.bits[prob.fixed_out.bits])

    def test_energy_consistency(self, rng):
        for _ in range(10):
            prob = random_small_problem(rng)
            res = solve(prob)
            assert evaluate_quanta(prob, res.set_min) == res.energy_quanta
            assert evaluate_quanta(prob, res.set_max) == res.energy_quanta
            assert evaluate(prob, res.set_min) == res.energy
            assert res.energy == res.energy_quanta * res.quantum

    def test_lambda_monotone_minimizers(self, rng):
        for _ in range(10):
            base = random_small_problem(rng)
            lams = sorted(rng.uniform(-2.0, 6.0, size=3))
            prev = None
            for lam in lams:
                prob = MinCutProblem(base.grid, float(lam),
                                     fixed_in=base.fixed_in,
                                     fixed_out=base.fixed_out,
                                     cell_weight=base.cell_weight,
                                     active_region=base.active_region)
                res = solve(prob)
                if prev is not None:
                    assert np.all(prev.set_min.bits <= res.set_min.bits)
                    assert np.all(prev.set_max.bits <= res.set_max.bits)
                prev = res

    def test_data_monotone_nesting(self, rng):
        for _ in range(10):
            prob = random_small_problem(rng)
            out_cells = np.argwhere(prob.fixed_out.bits)
            if len(out_cells) == 0:
                continue
            pick = tuple(out_cells[rng.integers(len(out_cells))])
            fin = prob.fixed_in.bits.copy()
            fout = prob.fixed_out.bits.copy()
            fout[pick] = False
            fin[pick] = True
            bigger = MinCutProblem(prob.grid, prob.lam,
                                   fixed_in=RegionMask(prob.grid, fin),
                                   fixed_out=RegionMask(prob.grid, fout),
                                   cell_weight=prob.cell_weight,
                                   active_region=prob.active_region)
            assert np.all(solve(prob).set_max.bits
                          <= solve(bigger).set_max.bits)

    def test_energy_recheck_catches_a_wrong_flow_value(self, rng,
                                                       monkeypatch):
        real = cmclab.mincut.maximum_flow

        def one_quantum_over(graph, s, t):
            res = real(graph, s, t)
            return SimpleNamespace(flow=res.flow,
                                   flow_value=res.flow_value + 1)

        monkeypatch.setattr(cmclab.mincut, "maximum_flow", one_quantum_over)
        with pytest.raises(NumericalError, match="energy bookkeeping"):
            solve(random_small_problem(rng))

    @pytest.mark.parametrize("run", [solve, brute_force],
                             ids=["solve", "brute_force"])
    @pytest.mark.parametrize("all_fixed", [True, False],
                             ids=["all-fixed", "free"])
    def test_energy_recheck_catches_a_wrong_fold(self, rng, monkeypatch,
                                                 run, all_fixed):
        # Every path re-evaluates its sets, the one with no free cell too.
        real = cmclab.mincut._linearized

        def one_quantum_over(problem):
            lin = real(problem)
            lin.const += 1
            return lin

        monkeypatch.setattr(cmclab.mincut, "_linearized", one_quantum_over)
        if all_fixed:
            g = GridGeometry((4, 4))
            top = RegionMask.from_predicate(g, lambda x, y: y > 1.5)
            prob = MinCutProblem(g, 1.0, fixed_in=top, fixed_out=top.invert())
        else:
            prob = random_small_problem(rng)
        with pytest.raises(NumericalError, match="energy bookkeeping"):
            run(prob)

    def test_fold_prices_every_labeling(self, rng):
        # The folded energy equals the energy of the assembled set for any
        # labels of the free cells, not only for the minimizers.
        for _ in range(30):
            prob = random_small_problem(rng)
            lin = cmclab.mincut._linearized(prob)
            m = lin.theta.shape[1]
            assert np.all(lin.theta.min(axis=0) == 0)
            for _ in range(8):
                x = rng.random(m) < 0.5
                bits = prob.fixed_in.bits.copy()
                bits[prob.free.bits] = x
                folded = (lin.const
                          + int(lin.theta[x.astype(int), np.arange(m)].sum())
                          + int(lin.ew[x[lin.ei] != x[lin.ej]].sum()))
                assert folded == evaluate_quanta(prob, CellSet(prob.grid,
                                                               bits))

    def test_capacity_overflow_guard(self):
        g = GridGeometry((32, 32))
        none = RegionMask.whole(g).invert()
        with pytest.raises(CapacityOverflowError):
            solve(MinCutProblem(g, 1e9, fixed_in=none, fixed_out=none))

    @pytest.mark.parametrize("lam,weight", [(1e300, 1.0), (1.0, 1e300),
                                            (0.0, 1e30)])
    def test_coefficients_past_int64_are_refused(self, lam, weight):
        # Refused before any integer cast, on every path through the
        # coefficients, so no energy sum wraps and numpy never warns.
        g = GridGeometry((3, 3))
        none = RegionMask.whole(g).invert()
        prob = MinCutProblem(g, lam, fixed_in=none, fixed_out=none,
                             cell_weight=np.full((3, 3), weight))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (solve, brute_force,
                        lambda pr: evaluate_quanta(pr, CellSet.empty(g))):
                with pytest.raises(CapacityOverflowError, match="2\\^62"):
                    run(prob)

    def test_brute_force_size_limit(self):
        g = GridGeometry((6, 6))
        none = RegionMask.whole(g).invert()
        with pytest.raises(UsageError):
            brute_force(MinCutProblem(g, 0.0, fixed_in=none, fixed_out=none))


class TestThreshold:
    def test_radius_gate(self):
        with pytest.raises(UsageError):
            threshold_experiment(4, 32, [0.1])

    def test_obstacle_must_fit(self):
        with pytest.raises(UsageError):
            threshold_experiment(16, 20, [0.1])

    def test_keep_sets(self):
        rows = threshold_experiment(8, 24, [0.0, 0.25])
        assert len(rows) == 2
        assert all(row.largest.grid.dims == (24, 24) for row in rows)
        assert rows[0].lam == 0.0
        assert rows[0].obstacle_circumference > 0

    def test_coarse_disk_against_brute_force(self):
        # small enough that the free disk fits the exhaustive budget
        for lam in (0.0, 0.8, 1.6):
            prob = half_plane_disk_problem(8, 2.2, lam)
            assert int(prob.free.bits.sum()) <= 24
            got = solve(prob)
            want = brute_force(prob)
            assert got.energy_quanta == want.energy_quanta
            assert got.set_min == want.set_min
            assert got.set_max == want.set_max

    def test_chord_at_lambda_zero(self):
        rows = threshold_experiment(8, 24, [0.0])
        g = rows[0].largest.grid
        _, Y = g.center_mesh()
        assert np.array_equal(rows[0].largest.bits, Y < (24 - 1) / 2.0)
        assert rows[0].filled is False
        assert rows[0].contact_excess == 0.0


class TestConvergence:
    def test_requires_shared_setup(self):
        p1 = half_plane_disk_problem(10, 3.0, 0.5)
        p2 = half_plane_disk_problem(12, 3.0, 0.5)
        with pytest.raises(UsageError):
            convergence_experiment([p1, p2])
        p3 = half_plane_disk_problem(10, 3.0, 0.7)
        with pytest.raises(UsageError):
            convergence_experiment([p1, p3])

    def test_reports_gaps_to_last(self):
        probs = [half_plane_disk_problem(12, r, 0.9) for r in (4.5, 4.0, 3.5)]
        rep = convergence_experiment(probs)
        assert len(rep.sym_diff_successive) == 2
        assert len(rep.sym_diff_to_limit) == 3
        assert rep.sym_diff_to_limit[-1] == 0.0
        assert len(rep.perimeters) == 3
        assert rep.perimeter_gaps[-1] == 0.0


class TestSerialization:
    def test_problem_round_trip(self, rng):
        for _ in range(8):
            prob = random_small_problem(rng)
            back = problem_from_json(problem_to_json(prob))
            assert back.grid.compatible(prob.grid)
            assert back.lam == prob.lam
            assert back.fixed_in == prob.fixed_in
            assert back.fixed_out == prob.fixed_out
            if prob.cell_weight is None:
                assert back.cell_weight is None
            else:
                assert np.array_equal(back.cell_weight, prob.cell_weight)
            if prob.active_region is None:
                assert back.active_region is None
            else:
                assert back.active_region == prob.active_region
            assert (solve(back).energy_quanta == solve(prob).energy_quanta)

    def test_result_document(self, rng):
        prob = random_small_problem(rng)
        res = solve(prob)
        doc = result_to_json(res)
        for key in ("schema_version", "energy", "energy_quanta", "quantum",
                    "unique", "flow_stats"):
            assert key in doc
        assert doc["energy_quanta"] == res.energy_quanta
