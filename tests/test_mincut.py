import math
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

import cmclab.mincut
from cmclab import (
    UsageError, NumericalError, CapacityOverflowError, GridGeometry, CellSet, RegionMask,
    MinCutProblem, QUANT_BITS, evaluate_quanta, solve, brute_force,
    threshold_experiment, result_to_json,
)
from cmclab.equivariant import _base_problem, diagonal_wedge, quadrant_grid
from oracles import (gathered_graph, independent_thresholds, unmerged_graph,
                     unmerged_solve)
from support import (INT32_MAX, count_arc_builds, count_flows,
                     forbid_wrapping, prune_flows, random_small_problem,
                     symmetric, traced_peak)


def half_plane_disk_problem(resolution, r, lam, h=1.0, stencil="cc"):
    """Half-plane data outside a centered free disk, as one instance."""
    grid = GridGeometry((resolution, resolution), h=h, stencil=stencil)
    c = ((resolution - 1) / 2.0 * h,) * 2
    ball = RegionMask.ball(grid, c, r)
    X, Y = grid.center_mesh()
    fixed_in = RegionMask(grid, ~ball.bits & (Y < c[1]))
    fixed_out = RegionMask(grid, ~ball.bits & (Y > c[1]))
    return MinCutProblem(grid, lam, fixed_in=fixed_in, fixed_out=fixed_out)


@pytest.fixture
def no_wrap(monkeypatch):
    """Fails the test if max-flow receives a graph that could wrap int32;
    the node counts of the graphs it receives, call by call."""
    return forbid_wrapping(monkeypatch)


class TestProblemValidation:
    def test_quantum(self):
        # One capacity unit is h^(d-1) / 2^20 of energy.
        for dims, h, want in (((4, 4), 1.0, 2.0**-20),
                              ((4, 4, 4), 0.5, 0.25 * 2.0**-20)):
            g = GridGeometry(dims, h=h)
            none = RegionMask.whole(g).invert()
            assert solve(MinCutProblem(g, 0.0, none, none)).quantum == want

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

    @pytest.mark.parametrize("lam", ["0.5", None, 1 + 2j, [0.5]],
                             ids=["str", "None", "complex", "list"])
    def test_rejects_a_lambda_that_is_not_real(self, lam):
        # These once raised TypeError from np.isfinite or float().
        g = GridGeometry((3, 3))
        none = RegionMask.whole(g).invert()
        with pytest.raises(UsageError, match="real number"):
            MinCutProblem(g, lam, fixed_in=none, fixed_out=none)

    def test_rejects_an_integer_past_the_float_range(self):
        g = GridGeometry((3, 3))
        none = RegionMask.whole(g).invert()
        with pytest.raises(UsageError,
                           match="finite real number, got <integer"):
            MinCutProblem(g, 10**400, fixed_in=none, fixed_out=none)

    def test_rejects_weights_of_another_size(self):
        # A 3x3 array once raised ValueError from reshape on a 4x4 grid.
        g = GridGeometry((4, 4))
        none = RegionMask.whole(g).invert()
        with pytest.raises(UsageError, match="9 values, the grid has 16"):
            MinCutProblem(g, 0.0, fixed_in=none, fixed_out=none,
                          cell_weight=np.ones((3, 3)))

    @pytest.mark.parametrize("weights,match", [
        (np.ones((3, 3)) * (1 + 1j), "real numbers, got dtype complex128"),
        (np.full((3, 3), "a"), "real numbers, got dtype <U1"),
        ([[1, 2, 3], [4, 5]], "rectangular array"),
    ], ids=["complex", "str", "ragged"])
    def test_rejects_weights_that_are_not_real_numbers(self, weights, match):
        # Complex weights once lost their imaginary part with only a
        # ComplexWarning; str and ragged ones raised a bare ValueError.
        g = GridGeometry((3, 3))
        none = RegionMask.whole(g).invert()
        with pytest.raises(UsageError, match=match):
            MinCutProblem(g, 0.0, fixed_in=none, fixed_out=none,
                          cell_weight=weights)

    def test_rejects_incompatible_masks(self):
        g = GridGeometry((3, 3))
        other = GridGeometry((3, 3), h=2.0)
        with pytest.raises(UsageError):
            MinCutProblem(g, 0.0,
                          fixed_in=RegionMask.whole(other).invert(),
                          fixed_out=RegionMask.whole(g).invert())


@pytest.mark.usefixtures("no_wrap")
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
                                     cell_weight=base.cell_weight)
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
                                   cell_weight=prob.cell_weight)
            assert np.all(solve(prob).set_max.bits
                          <= solve(bigger).set_max.bits)

    def test_restriction_around_the_largest_minimizer_is_exact(self, rng):
        # With M the largest minimizer and free cells A inside M and B
        # around it, fixing A in and the free cells off B out keeps M the
        # largest minimizer at the same energy: the lemma that lets each
        # approximation step solve only its band.
        for _ in range(40):
            prob = random_small_problem(rng)
            full = solve(prob)
            free = prob.free.bits
            M = full.set_max.bits
            A = M & free & (rng.random(free.shape) < 0.5)
            B = M | (free & (rng.random(free.shape) < 0.5))
            restricted = MinCutProblem(
                prob.grid, prob.lam,
                fixed_in=RegionMask(prob.grid, prob.fixed_in.bits | A),
                fixed_out=RegionMask(prob.grid,
                                     prob.fixed_out.bits | (free & ~B)),
                cell_weight=prob.cell_weight)
            got = solve(restricted)
            for want in (full, brute_force(prob), brute_force(restricted)):
                assert got.set_max == want.set_max
                assert got.energy_quanta == want.energy_quanta

    def test_lambda_sweep_restriction_is_exact(self, rng):
        # At strictly larger rounded gains every minimizer contains the
        # smaller lambda's largest minimizer, so fixing it in changes
        # neither extremal minimizer, the energy nor uniqueness: the lemma
        # that lets a threshold sweep solve each lambda from the last.
        for _ in range(20):
            base = random_small_problem(rng)
            prev = prev_gains = None
            for lam in sorted(rng.uniform(-2.0, 6.0, size=4)):
                prob = MinCutProblem(base.grid, float(lam),
                                     fixed_in=base.fixed_in,
                                     fixed_out=base.fixed_out,
                                     cell_weight=base.cell_weight)
                gains = cmclab.mincut._coefficients(prob)[1]
                if prev is None:
                    got = solve(prob)
                else:
                    assert np.all(gains > prev_gains)
                    got = solve(MinCutProblem(
                        base.grid, float(lam),
                        fixed_in=RegionMask(base.grid, prev.set_max.bits),
                        fixed_out=base.fixed_out,
                        cell_weight=base.cell_weight))
                for want in (solve(prob), brute_force(prob)):
                    assert got.set_min == want.set_min
                    assert got.set_max == want.set_max
                    assert got.energy_quanta == want.energy_quanta
                    assert got.unique == want.unique
                prev, prev_gains = got, gains

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

    def test_energy_recheck_covers_the_largest_minimizer(self, rng,
                                                         monkeypatch):
        # A sink-side search that reaches no free cell puts every free cell
        # in the largest minimizer; the re-check refuses that set whenever
        # it is not a minimizer, though the smallest one is right.
        real = cmclab.mincut.breadth_first_order

        def sink_blind(graph, start, **kwargs):
            order = real(graph, start, **kwargs)
            return order[:1] if start == graph.shape[0] - 1 else order

        checked = 0
        for _ in range(20):
            prob = random_small_problem(rng)
            all_in = CellSet(prob.grid, ~prob.fixed_out.bits)
            best = brute_force(prob).energy_quanta
            if evaluate_quanta(prob, all_in) == best:
                continue
            with monkeypatch.context() as mp:
                mp.setattr(cmclab.mincut, "breadth_first_order", sink_blind)
                with pytest.raises(NumericalError,
                                   match="energy bookkeeping"):
                    solve(prob)
            checked += 1
        assert checked

    @pytest.mark.parametrize("run", [solve, brute_force],
                             ids=["solve", "brute_force"])
    @pytest.mark.parametrize("all_fixed", [True, False],
                             ids=["all-fixed", "free"])
    def test_energy_recheck_catches_a_wrong_fold(self, rng, monkeypatch,
                                                 run, all_fixed):
        # Every path re-evaluates its sets, the one with no free cell too.
        real = cmclab.mincut._flow_graph

        def one_quantum_over(problem, node, m):
            graph, const, coeffs = real(problem, node, m)
            return graph, const + 1, coeffs

        monkeypatch.setattr(cmclab.mincut, "_flow_graph", one_quantum_over)
        if all_fixed:
            g = GridGeometry((4, 4))
            top = RegionMask.from_predicate(g, lambda x, y: y > 1.5)
            prob = MinCutProblem(g, 1.0, fixed_in=top, fixed_out=top.invert())
        else:
            prob = random_small_problem(rng)
        with pytest.raises(NumericalError, match="energy bookkeeping"):
            run(prob)

    def test_fold_prices_every_labeling(self, rng):
        # The flow graph's cut plus its constant equals the energy of the
        # assembled set for any labels of the free cells, not only for the
        # minimizers: with the free cells drawn at random, on the grid's
        # hull only, none of them and all of them.
        for _ in range(30):
            prob = random_small_problem(rng)
            g = prob.grid
            hull = np.ones(g.dims, dtype=bool)
            hull[(slice(1, -1),) * g.d] = False
            for free in (None, hull, np.zeros(g.dims, dtype=bool),
                         np.ones(g.dims, dtype=bool)):
                if free is not None:
                    up = rng.random(g.dims) < 0.5
                    prob = prob.relabeled(RegionMask(g, ~free & up),
                                          RegionMask(g, ~free & ~up))
                self.check_fold(rng, prob)

    @staticmethod
    def check_fold(rng, prob):
        graph, const, node, m = unmerged_graph(prob)
        assert m == np.count_nonzero(prob.free.bits)
        dense = graph.toarray()
        # No free node has both a source and a sink arc.
        assert not np.any((dense[m, :m] > 0) & (dense[:m, m + 1] > 0))
        for _ in range(8):
            x = rng.random(m) < 0.5
            # The source side: the source and the free nodes labeled 1.
            side = np.concatenate([x, [True, False]])
            # Through the node map, so any numbering of the free cells does.
            bits = side[node].reshape(prob.grid.dims)
            folded = const + int(dense[side][:, ~side].sum())
            assert folded == evaluate_quanta(prob, CellSet(prob.grid, bits))

    def test_lambda_past_int32_fills_the_whole_grid(self, no_wrap):
        # No fixed cell and no arc leaving the grid: every cell's gain,
        # 1e9 * 2^20 quanta, is a source arc past int32, and the whole grid
        # is the one minimizer, of energy -1024 gains.  Phase 1 shifts the
        # gains into int32 and finds no flow, as no arc enters the sink;
        # the residual clipped at 1, with one more node feeding the source,
        # then fits.
        g = GridGeometry((32, 32))
        none = RegionMask.whole(g).invert()
        res = solve(MinCutProblem(g, 1e9, fixed_in=none, fixed_out=none))
        assert no_wrap == [512 + 2, 512 + 3]    # the x flip's orbit graph
        assert res.unique
        assert res.set_min.bits.all()
        assert res.energy_quanta == -1024 * round(1e9 * 2**QUANT_BITS)
        assert res.flow_stats["flow_value"] == 0

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

    def test_cut_sums_past_int32_of_int32_capacities(self, no_wrap):
        # Weight 1536 makes every face arc 1.5 * 2^30 quanta, so the
        # capacities are held as int32, and the checkerboard labeling of
        # the 3 x 2 free cells cuts all 7 arcs between them, 10.5 * 2^30
        # quanta.  brute_force adds each labeling's cut in int64, and
        # solve, by capacity scaling, finds the same minimizers.
        g = GridGeometry((5, 4), h=1.0, stencil="face")
        ring = np.ones((5, 4), dtype=bool)
        ring[1:-1, 1:-1] = False
        fin = np.zeros((5, 4), dtype=bool)
        fin[:, 0] = True
        prob = MinCutProblem(g, 0.0, fixed_in=RegionMask(g, fin),
                             fixed_out=RegionMask(g, ring & ~fin),
                             cell_weight=np.full((5, 4), 1536.0))
        assert cmclab.mincut._coefficients(prob)[0].dtype == np.int32
        graph, _const, _node, m = unmerged_graph(prob)
        pairs = np.triu(graph.toarray()[:m, :m])
        assert pairs[pairs > 0].tolist() == [3 * 2**29] * 7
        want = brute_force(prob)
        got = solve(prob)
        assert len(no_wrap) > 1
        assert got.set_min == want.set_min
        assert got.set_max == want.set_max
        assert got.energy_quanta == want.energy_quanta
        assert got.unique == want.unique

    def test_cut_sums_past_int32_of_an_int32_graph(self, no_wrap):
        # Free cells of weight 1000 among fixed cells of weight 2^-20: the
        # arcs between free cells carry 1000 * 2^20 quanta, and no node
        # pays more to a terminal, so the graph is stored as int32; the
        # checkerboard labeling of the 3 x 2 free cells cuts 7 of those
        # arcs, past 2^31.  brute_force sums each cut in int64 and finds
        # the minimizers of solve, on the x flip's orbit graph, and of the
        # unmerged solve.
        g = GridGeometry((5, 4), h=1.0, stencil="face")
        ring = np.ones((5, 4), dtype=bool)
        ring[1:-1, 1:-1] = False
        fin = np.zeros((5, 4), dtype=bool)
        fin[:, 0] = True
        prob = MinCutProblem(g, 0.0, fixed_in=RegionMask(g, fin),
                             fixed_out=RegionMask(g, ring & ~fin),
                             cell_weight=np.where(ring, 2.0**-20, 1000.0))
        graph, _const, _node, m = unmerged_graph(prob)
        assert graph.dtype == np.int32
        pairs = np.triu(graph.toarray()[:m, :m])
        assert pairs[pairs > 0].tolist() == [1000 * 2**20] * 7
        want = brute_force(prob)
        for got in (solve(prob), unmerged_solve(prob)):
            assert got.set_min == want.set_min
            assert got.set_max == want.set_max
            assert got.energy_quanta == want.energy_quanta
            assert got.unique == want.unique


def reflections(dims):
    """Every axis flip and every swap of two equal-extent axes, by name."""
    for k in range(len(dims)):
        yield f"flip{k}", lambda a, k=k: np.flip(a, k)
    for i in range(len(dims)):
        for j in range(i + 1, len(dims)):
            if dims[i] == dims[j]:
                yield f"swap{i}{j}", lambda a, i=i, j=j: np.swapaxes(a, i, j)


def invariant_under(prob):
    """Names of the reflections that map fixed_in, fixed_out and the cell
    weights onto themselves."""
    arrays = [prob.fixed_in.bits, prob.fixed_out.bits]
    if prob.cell_weight is not None:
        arrays.append(prob.cell_weight)
    return [name for name, mirror in reflections(prob.grid.dims)
            if all(np.array_equal(a, mirror(a)) for a in arrays)]


def symmetrized(prob, mirror):
    """prob made invariant under mirror: fixed_in grows by its image,
    fixed_out shrinks to the cells whose image it also holds, and the
    weights add their image."""
    fin, fout = prob.fixed_in.bits, prob.fixed_out.bits
    w = prob.cell_weight
    return MinCutProblem(
        prob.grid, prob.lam,
        fixed_in=RegionMask(prob.grid, fin | mirror(fin)),
        fixed_out=RegionMask(prob.grid, fout & mirror(fout)),
        cell_weight=None if w is None else w + mirror(w))


@pytest.mark.usefixtures("no_wrap")
class TestMirrorMerge:
    # Each case: dimension, reflection, and the parity the reflected axis
    # extent must have; odd extents leave a fixed-point line of cells.
    CASES = [
        pytest.param(2, "flip0", 0, id="2d-flip0-even"),
        pytest.param(2, "flip0", 1, id="2d-flip0-odd"),
        pytest.param(2, "flip1", 0, id="2d-flip1-even"),
        pytest.param(2, "flip1", 1, id="2d-flip1-odd"),
        pytest.param(2, "swap01", None, id="2d-transpose"),
        pytest.param(3, "flip2", 1, id="3d-flip2-odd"),
        pytest.param(3, "swap02", None, id="3d-swap02"),
    ]

    @staticmethod
    def draw(rng, d, name, parity):
        """A random problem invariant under the named reflection and under
        no other, so the merge must take that one, with a free cell that
        the reflection moves."""
        while True:
            prob = random_small_problem(rng, d=d, max_free=12)
            dims = prob.grid.dims
            mirrors = dict(reflections(dims))
            if name not in mirrors:
                continue
            if parity is not None and dims[int(name[-1])] % 2 != parity:
                continue
            prob = symmetrized(prob, mirrors[name])
            flat = np.arange(prob.grid.ncells).reshape(dims)
            moved = prob.free.bits & (mirrors[name](flat) != flat)
            if invariant_under(prob) == [name] and moved.any():
                return prob, mirrors[name]

    # Families whose fixed-out cells lie toward the far end of one axis,
    # so the free cells are numbered backwards along it.
    REVERSED = [
        pytest.param(2, "flip0", 0, 1, id="2d-flip0-even-reversed-y"),
        pytest.param(2, "flip0", 1, 1, id="2d-flip0-odd-reversed-y"),
        pytest.param(3, "flip2", 1, 1, id="3d-flip2-odd-reversed-y"),
        pytest.param(3, "swap02", None, 0, id="3d-swap02-reversed-x"),
    ]

    @pytest.mark.parametrize("d,name,parity", CASES)
    def test_matches_unmerged_and_brute_force(self, rng, d, name, parity):
        for _ in range(12):
            prob, mirror = self.draw(rng, d, name, parity)
            got = solve(prob)
            for want in (unmerged_solve(prob), brute_force(prob)):
                assert got.set_min == want.set_min
                assert got.set_max == want.set_max
                assert got.energy_quanta == want.energy_quanta
                assert got.unique == want.unique
            # One flow node per orbit of free cells, plus the terminals.
            flat = np.arange(prob.grid.ncells).reshape(prob.grid.dims)
            orbits = np.count_nonzero(prob.free.bits & (flat <= mirror(flat)))
            assert got.flow_stats["nodes"] == orbits + 2

    @pytest.mark.parametrize("d,name,parity", CASES)
    def test_orbit_graph_is_the_contracted_unmerged_graph(self, rng, d, name,
                                                          parity):
        # The pairing itself, not only the minimizers: the orbit graph is
        # the unmerged graph with every free node mapped to its orbit,
        # arcs between the same two orbits summed and arcs inside one
        # orbit dropped, and its energy constant is the unmerged one.
        weighted = 0
        for _ in range(12):
            prob, _mirror = self.draw(rng, d, name, parity)
            weighted += prob.cell_weight is not None
            full, const, node, m = unmerged_graph(prob)
            orbit_node, k = cmclab.mincut._orbit_numbering(prob, node, m)
            assert k < m
            orbit, orbit_const, _coeffs = cmclab.mincut._flow_graph(
                prob, orbit_node, k)
            to_orbit = np.empty(m + 2, dtype=np.int64)
            to_orbit[node] = orbit_node
            to_orbit[m:] = k, k + 1
            contract = csr_matrix(
                (np.ones(m + 2, dtype=np.int64), (np.arange(m + 2), to_orbit)),
                shape=(m + 2, k + 2))
            want = (contract.T @ full @ contract).toarray()
            np.fill_diagonal(want, 0)
            assert np.array_equal(orbit.toarray(), want)
            assert np.count_nonzero(orbit.data) == np.count_nonzero(want)
            # Stored: the contracted arcs and their reverses, no more.
            both = symmetric(csr_matrix(want))
            assert np.array_equal(orbit.indptr, both.indptr)
            assert np.array_equal(orbit.indices, both.indices)
            assert orbit_const == const
        assert weighted

    @pytest.mark.parametrize("d,name,parity,axis", REVERSED)
    def test_matches_unmerged_and_brute_force_numbered_backwards(
            self, rng, d, name, parity, axis):
        # The orbit of a node pairs it with its own cell's mirror image,
        # whatever the numbering.  Each draw checked is numbered out of
        # raster order, and its largest minimizer splits the free cells, so
        # a wrong pairing has labels to get wrong.
        checked = 0
        for _ in range(3000):
            prob, mirror = self.draw(rng, d, name, parity)
            if cmclab.mincut._reversed_axis(prob.fixed_in.bits,
                                            prob.fixed_out.bits) != axis:
                continue
            free = prob.free.bits
            node = cmclab.mincut._node_numbering(prob)[0][free.ravel()]
            unmerged = unmerged_solve(prob)
            split = unmerged.set_max.bits[free]
            if not (np.any(np.diff(node) < 0) and split.any()
                    and not split.all()):
                continue
            got = solve(prob)
            for want in (unmerged, brute_force(prob)):
                assert got.set_min == want.set_min
                assert got.set_max == want.set_max
                assert got.energy_quanta == want.energy_quanta
                assert got.unique == want.unique
            flat = np.arange(prob.grid.ncells).reshape(prob.grid.dims)
            orbits = np.count_nonzero(prob.free.bits & (flat <= mirror(flat)))
            assert got.flow_stats["nodes"] == orbits + 2
            checked += 1
            if checked == 12:
                break
        assert checked == 12

    def test_tie_across_the_mirror_detected(self):
        # Two adjacent free cells swapped by the x flip, unit face stencil
        # with h = 1: one alone pays 4 - lambda, both 6 - 2 lambda, so at
        # lambda = 3 the empty set and the pair tie and one alone loses.
        g = GridGeometry((4, 3), h=1.0, stencil="face")
        free = np.zeros((4, 3), dtype=bool)
        free[1:3, 1] = True
        prob = MinCutProblem(g, 3.0, fixed_in=RegionMask(g, np.zeros_like(free)),
                             fixed_out=RegionMask(g, ~free))
        res = solve(prob)
        # One node for the pair; the arc inside it is dropped, and each
        # label costs the pair the same, so no arc is left.
        assert res.flow_stats["nodes"] == 3
        assert res.flow_stats["arcs"] == 0
        assert not res.unique
        assert res.set_min.count() == 0
        assert np.array_equal(res.set_max.bits, free)
        assert res.energy_quanta == 0

    def test_summed_arcs_past_int32_solve_on_the_orbit_graph(self,
                                                            no_wrap):
        # Weight 1500 on the free cells of the two middle columns, which
        # the x flip swaps, and flow from the fixed-in cells below them:
        # each vertical arc there carries 1500 * 2^20 quanta, inside int32,
        # but the two arcs between a pair of orbits sum past it.  The
        # orbit graph is solved by capacity scaling, with the unmerged
        # solve's result.
        g = GridGeometry((6, 5), h=1.0, stencil="face")
        ring = np.ones((6, 5), dtype=bool)
        ring[1:-1, 1:-1] = False
        w = np.ones((6, 5))
        w[2:4, 1:-1] = 1500.0
        fin = np.zeros((6, 5), dtype=bool)
        fin[2:4, 0] = True
        prob = MinCutProblem(g, 0.0, fixed_in=RegionMask(g, fin),
                             fixed_out=RegionMask(g, ring & ~fin),
                             cell_weight=w)
        got = solve(prob)
        assert got.flow_stats["nodes"] == 6 + 2
        assert no_wrap == [6 + 2, 6 + 3]
        for want in (unmerged_solve(prob), brute_force(prob)):
            assert got.set_min == want.set_min
            assert got.set_max == want.set_max
            assert got.energy_quanta == want.energy_quanta
            assert got.unique == want.unique

    def test_mirror_labels_with_asymmetric_weights_are_not_merged(self,
                                                                  rng):
        # Fixed labels alone do not make the energy symmetric: merging on
        # them would restrict the minimizers to symmetric sets.
        for _ in range(12):
            prob, _mirror = self.draw(rng, 2, "flip0", None)
            prob = MinCutProblem(prob.grid, prob.lam, prob.fixed_in,
                                 prob.fixed_out,
                                 cell_weight=rng.uniform(0.2, 3.0,
                                                         prob.grid.dims))
            got = solve(prob)
            m = int(np.count_nonzero(prob.free.bits))
            assert got.flow_stats["nodes"] == m + 2
            want = brute_force(prob)
            assert got.set_min == want.set_min
            assert got.set_max == want.set_max
            assert got.energy_quanta == want.energy_quanta

    def test_asymmetric_problem_is_not_merged(self, rng):
        for _ in range(20):
            prob = random_small_problem(rng)
            if invariant_under(prob):
                continue
            m = int(np.count_nonzero(prob.free.bits))
            assert solve(prob).flow_stats["nodes"] == m + 2


class TestNodeOrder:
    """The free cells are numbered in raster order, backwards along the
    axis on which the fixed-out cells' mean index lies farthest past the
    fixed-in cells'.  The numbering decides no result."""

    @staticmethod
    def axis(fixed_in, fixed_out):
        return cmclab.mincut._reversed_axis(np.asarray(fixed_in, dtype=bool),
                                            np.asarray(fixed_out, dtype=bool))

    def test_the_farthest_axis_decides_in_2d(self):
        a = np.zeros((5, 7), dtype=bool)
        low_y, high_y, low_x, high_x = a.copy(), a.copy(), a.copy(), a.copy()
        low_y[:, 0] = high_y[:, -1] = low_x[0] = high_x[-1] = True
        assert self.axis(low_y, high_y) == 1
        assert self.axis(high_y, low_y) is None
        assert self.axis(low_x, high_x) == 0
        assert self.axis(high_x, low_x) is None
        # The gap in y (6 cells) passes the gap in x (4 cells), whatever
        # the sign in x.
        corner_in, corner_out = a.copy(), a.copy()
        corner_in[4, 0] = corner_out[0, 6] = True
        assert self.axis(corner_in, corner_out) == 1
        assert self.axis(corner_out, corner_in) is None
        corner_in, corner_out = a.copy(), a.copy()
        corner_in[0, 6] = corner_out[3, 0] = True
        assert self.axis(corner_in, corner_out) is None

    def test_the_farthest_axis_decides_in_3d(self):
        a = np.zeros((3, 4, 5), dtype=bool)
        fin, fout = a.copy(), a.copy()
        fin[..., 0] = fout[..., -1] = True
        assert self.axis(fin, fout) == 2
        assert self.axis(fout, fin) is None
        # Gaps (+1, 0, -4) cells: axis 2 is farthest and points back.
        fin, fout = a.copy(), a.copy()
        fin[0, 1, 4] = fout[1, 1, 0] = True
        assert self.axis(fin, fout) is None
        # Gaps (+2, -1, +1) cells, means over two cells each.
        fin, fout = a.copy(), a.copy()
        fin[0, 2, 1] = fin[0, 2, 2] = True
        fout[2, 1, 2] = fout[2, 1, 3] = True
        assert self.axis(fin, fout) == 0

    def test_an_empty_label_set_reverses_nothing(self):
        for shape in ((4, 6), (3, 4, 5)):
            none = np.zeros(shape, dtype=bool)
            top = none.copy()
            top[..., -1] = True
            assert self.axis(none, top) is None
            assert self.axis(~top, none) is None
            assert self.axis(none, none) is None

    def test_a_tie_goes_to_the_lowest_axis(self):
        # Gaps equal to the bit, in whole cells and in fractions of one.
        a = np.zeros((6, 6), dtype=bool)
        fin, fout = a.copy(), a.copy()
        fin[0, 0] = fout[5, 5] = True
        assert self.axis(fin, fout) == 0
        fin, fout = a.copy(), a.copy()
        fin[5, 0] = fout[0, 5] = True     # gaps (-5, +5): axis 0, backward
        assert self.axis(fin, fout) is None
        fin, fout = a.copy(), a.copy()
        fin[0, 5] = fout[5, 0] = True     # gaps (+5, -5)
        assert self.axis(fin, fout) == 0
        # Three fixed-in cells against seven fixed-out: the gaps, 57/7 - 1
        # in x and 50/7 in y, are equal, though the first is the smaller
        # when each mean is a float.
        a = np.zeros((10, 10), dtype=bool)
        fin, fout = a.copy(), a.copy()
        fin[[0, 1, 2], 0] = True
        fout[[9, 9, 6, 8, 9, 7, 9], [4, 5, 7, 8, 8, 9, 9]] = True
        assert 57 / 7 - 1 < 50 / 7
        assert self.axis(fin, fout) == 0
        assert self.axis(fout, fin) is None
        b = np.zeros((3, 3, 3), dtype=bool)
        fin, fout = b.copy(), b.copy()
        fin[1, 0, 0] = fout[1, 2, 2] = True
        assert self.axis(fin, fout) == 1

    @staticmethod
    def numbered(prob, axis):
        """Whether the free nodes of prob run in raster order, backwards
        along axis (None: forwards along every axis)."""
        node, m = cmclab.mincut._node_numbering(prob)
        view = ((lambda a: a) if axis is None
                else (lambda a: np.flip(a, axis)))
        node = view(node.reshape(prob.grid.dims))
        free = view(prob.free.bits)
        return (np.array_equal(node[free], np.arange(m))
                and np.all(node[~free] == np.where(view(prob.fixed_in.bits),
                                                   m, m + 1)[~free]))

    @pytest.mark.parametrize("p,q,axis", [(3, 3, 1), (2, 4, None),
                                          (1, 5, None)])
    def test_order_of_the_weighted_base_problems(self, p, q, axis):
        # On (2,4) and (1,5) x decides, and their fixed-out cells already
        # lie first along it; (3,3)'s diagonal cells, fixed out, tip it to y.
        for n in (32, 64):
            g = quadrant_grid(n)
            prob = _base_problem(p, q, g, 0.0, diagonal_wedge(g, p, q),
                                 0.5)[0]
            assert self.axis(prob.fixed_in.bits, prob.fixed_out.bits) == axis
            assert self.numbered(prob, axis)

    def test_order_of_the_threshold_sweep(self, monkeypatch):
        # Fixed-out lies above the equator, so every solve of a sweep is
        # numbered backwards in y.
        real = cmclab.mincut._reversed_axis
        axes = []

        def spy(fixed_in, fixed_out):
            axes.append(real(fixed_in, fixed_out))
            return axes[-1]

        monkeypatch.setattr(cmclab.mincut, "_reversed_axis", spy)
        rows = threshold_experiment(8, 24, [0.0, 0.1, 0.3])
        assert axes == [1, 1, 1]
        assert not rows[0].filled and rows[-1].filled
        monkeypatch.undo()
        assert self.numbered(half_plane_disk_problem(24, 8, 0.0), 1)

    @pytest.mark.parametrize("lam", [0.0, 0.15, 0.2, 0.25, 0.5])
    def test_half_plane_matches_its_mirror_image(self, lam):
        # Fixed-out above the equator numbers the free cells backwards in
        # y, its y-mirror image forwards; both solve on the orbit graph of
        # the x flip, and every result field mirrors.
        prob = half_plane_disk_problem(20, 8, lam)
        g = prob.grid
        image = MinCutProblem(
            g, lam, fixed_in=RegionMask(g, np.flip(prob.fixed_in.bits, 1)),
            fixed_out=RegionMask(g, np.flip(prob.fixed_out.bits, 1)))
        assert self.numbered(prob, 1) and self.numbered(image, None)
        got, want = solve(prob), solve(image)
        assert got.set_min.bits.any() and not got.set_max.bits.all()
        assert np.array_equal(got.set_min.bits, np.flip(want.set_min.bits, 1))
        assert np.array_equal(got.set_max.bits, np.flip(want.set_max.bits, 1))
        assert got.energy_quanta == want.energy_quanta
        assert got.unique == want.unique
        assert got.flow_stats == want.flow_stats
        assert got.flow_stats["nodes"] < np.count_nonzero(prob.free.bits)


class TestFold:
    """The fold takes each arc's end cells from its offset's slices; the
    arc table holds the capacities alone."""

    @staticmethod
    def assert_gathered_graph(prob):
        # The oracle sums in int64; the fold stores its capacities as int32
        # exactly when every arc-pair sum is bounded inside int32.  The
        # fold's positive entries are the oracle's, and it stores exactly
        # the oracle's structure plus its transpose, zero where the oracle
        # has no arc.
        graph, const, node, _m = unmerged_graph(prob)
        want = gathered_graph(prob)
        positive = graph.copy()
        positive.eliminate_zeros()
        for got, exp in ((positive, want["graph"]),
                         (graph, symmetric(want["graph"]))):
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(exp, name)
                if name != "data":
                    assert a.dtype == b.dtype, name
                assert np.array_equal(a, b), name
        fits = 2 * int(want["graph"].data.max(initial=0)) <= 2**31 - 1
        assert graph.data.dtype == (np.int32 if fits else np.int64)
        assert node.dtype == want["node"].dtype
        assert np.array_equal(node, want["node"])
        assert const == want["const"]

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_gathered_fold(self, rng, d):
        stencils = set()
        for _ in range(24):
            prob = random_small_problem(rng, d=d)
            stencils.add(prob.grid.stencil)
            self.assert_gathered_graph(prob)
        assert stencils == {"face", "cc"}

    def test_matches_the_gathered_fold_on_the_quadrant_base_problem(self):
        g = quadrant_grid(64)
        prob, _band = _base_problem(3, 3, g, 0.0, diagonal_wedge(g, 3, 3),
                                    0.5)
        self.assert_gathered_graph(prob)

    # Weights of 0.5 to 2 keep every capacity inside int32, 2^12 times
    # that puts some past it.
    @pytest.mark.parametrize("d,stencil,scale,dtype", [
        (2, "face", 1.0, np.int32), (2, "cc", 1.0, np.int32),
        (3, "face", 1.0, np.int32), (3, "cc", 1.0, np.int32),
        (2, "cc", 2.0**12, np.int64)],
        ids=["2-face", "2-cc", "3-face", "3-cc", "2-cc-past-int32"])
    def test_arc_table_holds_only_the_capacities(self, rng, d, stencil,
                                                 scale, dtype):
        dims = (5, 4, 3)[:d]
        grid = GridGeometry(dims, stencil=stencil)
        none = RegionMask(grid, np.zeros(dims, dtype=bool))
        prob = MinCutProblem(
            grid, 0.5, none, none,
            cell_weight=scale * rng.uniform(0.5, 2.0, size=dims))
        arcs = sum(int(np.prod([n - abs(o) for n, o in zip(dims, off)]))
                   for _w, offsets in grid.levels() for off in offsets)
        arrays = [a for a in prob._arcs if isinstance(a, np.ndarray)]
        assert len(arrays) == 1
        assert arrays[0].dtype == dtype
        assert arrays[0].nbytes == np.dtype(dtype).itemsize * arcs

    # On unit face arcs, a cell weight w gives every capacity
    # ceil(w * 2^20) and lambda every gain rint(lambda * 2^20 * w).
    @pytest.mark.parametrize("w,lam,caps,gains", [
        ((2**31 - 1) / 2**20, 1.0, np.int32, np.int32),
        (2.0**11, 0.0, np.int64, np.int32),
        (1.0, (2**31 - 1) / 2**20, np.int32, np.int32),
        (1.0, -(2**31 - 1) / 2**20, np.int32, np.int32),
        (1.0, -2.0**11, np.int32, np.int64)],
        ids=["caps-at-int32-max", "caps-past-int32", "gains-at-int32-max",
             "gains-at-minus-int32-max", "gains-past-minus-int32-max"])
    def test_coefficients_are_int32_while_they_fit(self, w, lam, caps,
                                                    gains):
        g = GridGeometry((3, 3), stencil="face")
        none = RegionMask.whole(g).invert()
        prob = MinCutProblem(g, lam, none, none,
                             cell_weight=np.full((3, 3), w))
        got = cmclab.mincut._coefficients(prob)
        assert [a.dtype for a in got] == [caps, gains]
        assert abs(int(got[0].max())) == math.ceil(w * 2**QUANT_BITS)
        assert abs(int(got[1].max())) == abs(round(lam * w * 2**QUANT_BITS))

    @pytest.mark.parametrize("merged", [False, True])
    def test_no_fold_array_lives_through_max_flow(self, monkeypatch,
                                                  merged):
        # A spy holds weak references to the arrays of the full flow
        # graph, the fold's one product.  Max-flow of the band finds them
        # alive and apart from the band's sub-graph, as the band's residual
        # is written back into the graph's data array; max-flow of the
        # whole graph's residual finds each one handed to scipy itself, so
        # no copy of it, and no other fold array, lives beside it.  The
        # quadrant base problem is solved unmerged, the half-plane disk on
        # its orbit graph.
        names = ("data", "indices", "indptr")
        refs, seen = [], []
        real_graph = cmclab.mincut._flow_graph

        def spy(*args):
            graph, const, coeffs = real_graph(*args)
            refs.extend(weakref.ref(getattr(graph, a)) for a in names)
            return graph, const, coeffs

        monkeypatch.setattr(cmclab.mincut, "_flow_graph", spy)
        real_flow = cmclab.mincut.maximum_flow

        def flow(graph, s, t):
            seen.append([ref() is not None and np.shares_memory(
                ref(), getattr(graph, a)) for ref, a in zip(refs, names)])
            assert all(ref() is not None for ref in refs)
            return real_flow(graph, s, t)

        monkeypatch.setattr(cmclab.mincut, "maximum_flow", flow)
        if merged:
            prob = half_plane_disk_problem(24, 8, 0.1)
            band = prob.free
        else:
            g = quadrant_grid(64)
            prob, band = _base_problem(3, 3, g, 0.0,
                                       diagonal_wedge(g, 3, 3), 0.5)
        nodes = solve(prob, band).flow_stats["nodes"]
        assert (nodes < np.count_nonzero(prob.free.bits) + 2) == merged
        assert len(refs) == 3
        assert seen == [[False] * 3, [True] * 3]

    @pytest.mark.parametrize("config", ["base-solve", "plateau-sweep"])
    def test_max_flow_hands_scipy_the_int32_graph_itself(self, monkeypatch,
                                                         config):
        # Every graph these runs fold fits int32, so scipy receives each
        # graph _max_flow is given, not an int32 copy of an int64 graph.
        # Each is structurally symmetric, so scipy adds no reverse arc and
        # returns its flow on the graph's own indices and indptr.
        given, received = [], []
        real_max_flow = cmclab.mincut._max_flow

        def spy(graph, s, t):
            given.append(graph)
            return real_max_flow(graph, s, t)

        def flow(graph, s, t):
            both = symmetric(graph)
            res = real_flow(graph, s, t)
            received.append((
                graph.dtype, np.shares_memory(graph.data, given[-1].data),
                np.array_equal(both.indptr, graph.indptr)
                and np.array_equal(both.indices, graph.indices),
                np.array_equal(res.flow.indptr, graph.indptr)
                and np.array_equal(res.flow.indices, graph.indices)))
            return res

        real_flow = cmclab.mincut.maximum_flow
        monkeypatch.setattr(cmclab.mincut, "_max_flow", spy)
        monkeypatch.setattr(cmclab.mincut, "maximum_flow", flow)
        if config == "base-solve":
            g = quadrant_grid(256)
            solve(*_base_problem(3, 3, g, 0.0, diagonal_wedge(g, 3, 3), 0.5))
            assert len(given) == 2    # the band, then the whole residual
        else:
            threshold_experiment(64, 136, [4 / 64 * k / 7 for k in range(8)])
            assert len(given) == 8
        assert received == [(np.int32, True, True, True)] * len(given)

    def test_a_flow_on_another_structure_is_refused(self, monkeypatch):
        # A backend that returned its flow on other arcs than its graph's,
        # here without the arcs that carry none, would misalign the
        # elementwise residual: solve refuses it.
        dropped = prune_flows(monkeypatch)
        with pytest.raises(NumericalError, match="another structure"):
            solve(half_plane_disk_problem(24, 8, 0.1))
        assert dropped == [True]

    def test_band_residual_past_2_30_solves_in_one_call(self, no_wrap):
        # Free nodes 0 and 1 in the band, 2 outside it, source 3, sink 4;
        # every arc holds x, so 2x fits int32.  The band's flow x along
        # s -> 0 -> 1 -> t leaves the residual arc 1 -> 0 at 2x, past 2^30:
        # only its exact pair sum, 2x, keeps the second stage in one call.
        x = 2**30 - 1
        # The band's residual is written into the graph's own data array.
        rows, cols = [3, 0, 1, 1, 3, 2], [0, 1, 0, 4, 2, 4]
        got = []
        for dtype in (np.int32, np.int64):
            graph = symmetric(csr_matrix(
                (np.full(6, x, dtype=dtype), (rows, cols)), shape=(5, 5)))
            data = graph.data
            value = cmclab.mincut._band_residual(
                graph, np.array([True, True, False]))
            assert graph.data is data
            assert graph.dtype == dtype and graph.max() == 2 * x
            more, residual = cmclab.mincut._max_flow(graph, 3, 4)
            got.append((value + more, residual.toarray()))
        assert no_wrap == [4, 5] * 2
        assert got[0][0] == got[1][0] == 2 * x
        assert np.array_equal(got[0][1], got[1][1])

    def test_base_solve_memory_peak(self):
        # The n=256 weighted base solve with its band, arc build included:
        # 15.56 MB while the arc table also held flat end-cell indices and
        # the full flow graph outlived its band residual, 10.15 MB while
        # the capacities and node numbers were int64 and the fold's arrays
        # lived through max-flow, 7.15 MB while the int64 graph and its
        # int32 copy for scipy were both alive, 6.20 MB while each residual
        # was a sparse difference, 5.44 MB since.
        g = quadrant_grid(256)
        prob, band = _base_problem(3, 3, g, 0.0, diagonal_wedge(g, 3, 3),
                                   0.5)
        assert traced_peak(lambda: solve(prob, band)) < 6.0


@pytest.mark.usefixtures("no_wrap")
class TestRelabeled:
    """A problem derived by relabeled shares its parent's arcs and solves
    exactly like the same problem built afresh."""

    def check(self, monkeypatch, parent, fixed_in, fixed_out, lam):
        with monkeypatch.context() as mp:
            builds = count_arc_builds(mp)
            solve(parent)
            derived = parent.relabeled(RegionMask(parent.grid, fixed_in),
                                       RegionMask(parent.grid, fixed_out),
                                       lam=lam)
            got = solve(derived)
        assert len(builds) == 1
        fresh = MinCutProblem(parent.grid,
                              parent.lam if lam is None else lam,
                              RegionMask(parent.grid, fixed_in),
                              RegionMask(parent.grid, fixed_out),
                              cell_weight=parent.cell_weight)
        want = solve(fresh)
        assert got.flow_stats == want.flow_stats
        for w in (want, brute_force(derived), brute_force(fresh)):
            assert got.set_min == w.set_min
            assert got.set_max == w.set_max
            assert got.energy_quanta == w.energy_quanta
            assert got.unique == w.unique

    @staticmethod
    def new_lambda(rng, new_lam):
        return float(rng.uniform(-2.0, 6.0)) if new_lam else None

    @pytest.mark.parametrize("new_lam", [False, True],
                             ids=["same-lambda", "new-lambda"])
    def test_matches_fresh_and_brute_force(self, rng, monkeypatch, new_lam):
        for _ in range(25):
            prob = random_small_problem(rng)
            g = prob.grid
            k = int(rng.integers(0, min(16, g.ncells) + 1))
            free = (rng.permutation(g.ncells) < k).reshape(g.dims)
            up = rng.random(g.dims) < 0.5
            self.check(monkeypatch, prob, ~free & up, ~free & ~up,
                       self.new_lambda(rng, new_lam))

    @pytest.mark.parametrize("new_lam", [False, True],
                             ids=["same-lambda", "new-lambda"])
    @pytest.mark.parametrize("d,name,parity", TestMirrorMerge.CASES)
    def test_matches_on_the_orbit_graph(self, rng, monkeypatch, d, name,
                                        parity, new_lam):
        # Free cells fixed in mirror pairs keep the problem invariant, so
        # the derived problem is solved on the orbit graph too.
        for _ in range(6):
            prob, mirror = TestMirrorMerge.draw(rng, d, name, parity)
            dims = prob.grid.dims
            pick = prob.free.bits & (rng.random(dims) < 0.4)
            pick |= mirror(pick)
            r = rng.random(dims)
            up = r + mirror(r) < 1.0
            self.check(monkeypatch, prob, prob.fixed_in.bits | (pick & up),
                       prob.fixed_out.bits | (pick & ~up),
                       self.new_lambda(rng, new_lam))

    def test_a_problem_relabeled_before_its_first_solve_builds_its_own_arcs(
            self, rng, monkeypatch):
        # Only an arc table already built is shared: relabeling an unsolved
        # problem builds none, its first solve builds one, and the problems
        # relabeled from it afterwards share that one.
        prob = random_small_problem(rng)
        builds = count_arc_builds(monkeypatch)
        derived = prob.relabeled(prob.fixed_in, prob.fixed_out, lam=0.5)
        assert builds == [] and "_arcs" not in vars(derived)
        solve(derived)
        assert builds == [prob.grid.dims]
        assert "_arcs" not in vars(prob)
        again = derived.relabeled(prob.fixed_in, prob.fixed_out, lam=-0.5)
        solve(again)
        assert builds == [prob.grid.dims]
        assert again._arcs is derived._arcs

    def test_bad_labels_and_lambdas_are_refused(self, rng):
        prob = random_small_problem(rng)
        g = prob.grid
        whole, none = RegionMask.whole(g), RegionMask.whole(g).invert()
        elsewhere = RegionMask.whole(GridGeometry(g.dims, h=3 * g.h)).invert()
        with pytest.raises(UsageError, match="overlap"):
            prob.relabeled(whole, whole)
        with pytest.raises(UsageError, match="different grid"):
            prob.relabeled(elsewhere, none)
        with pytest.raises(UsageError, match="different grid"):
            prob.relabeled(none, elsewhere)
        for lam in ("0.5", 1 + 2j, float("nan"), 10**400):
            with pytest.raises(UsageError, match="lambda"):
                prob.relabeled(none, none, lam=lam)


@pytest.mark.usefixtures("no_wrap")
class TestBand:
    # Each kind maps (rng, problem) to the cells of the band.
    KINDS = {
        "empty": lambda rng, prob: np.zeros(prob.grid.dims, dtype=bool),
        "full": lambda rng, prob: np.ones(prob.grid.dims, dtype=bool),
        "random": lambda rng, prob: rng.random(prob.grid.dims) < 0.5,
        "fixed-only": lambda rng, prob: ~prob.free.bits,
        "random-and-fixed": lambda rng, prob: (
            ~prob.free.bits | (rng.random(prob.grid.dims) < 0.3)),
    }

    def check(self, monkeypatch, prob, bits):
        """solve from the band equals solve without it and brute_force,
        and runs max-flow twice exactly when the band holds a free cell."""
        want = solve(prob)
        with monkeypatch.context() as mp:
            calls = count_flows(mp)
            got = solve(prob, band=RegionMask(prob.grid, bits))
        assert len(calls) == (2 if (bits & prob.free.bits).any() else 1)
        assert got.flow_stats == want.flow_stats
        for w in (want, brute_force(prob)):
            assert got.set_min == w.set_min
            assert got.set_max == w.set_max
            assert got.energy_quanta == w.energy_quanta
            assert got.unique == w.unique

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_band_decides_nothing_on_random_problems(self, rng, monkeypatch,
                                                     kind):
        for _ in range(25):
            prob = random_small_problem(rng)
            self.check(monkeypatch, prob, self.KINDS[kind](rng, prob))

    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("d,name,parity", [
        pytest.param(2, "flip0", 1, id="2d-flip0-odd"),
        pytest.param(2, "swap01", None, id="2d-transpose"),
        pytest.param(3, "swap02", None, id="3d-swap02"),
    ])
    def test_band_decides_nothing_on_the_orbit_graph(self, rng, monkeypatch,
                                                     kind, d, name, parity):
        for _ in range(8):
            prob, _mirror = TestMirrorMerge.draw(rng, d, name, parity)
            self.check(monkeypatch, prob, self.KINDS[kind](rng, prob))

    @staticmethod
    def two_cell_problem(g, fin, w):
        """Free cells (1, 1) and (2, 1) of g under the face stencil with
        h = 1, fin fixed in, every other cell fixed out, weights w."""
        free = np.zeros(g.dims, dtype=bool)
        free[1:3, 1] = True
        return MinCutProblem(g, 0.0, fixed_in=RegionMask(g, fin),
                             fixed_out=RegionMask(g, ~free & ~fin),
                             cell_weight=w), RegionMask(g, free)

    def check_band_against_oracles(self, no_wrap, prob, band, calls):
        """solve from band makes the scipy calls listed, on graphs that fit
        int32, and gives the result of the cold solve, of the unmerged
        solve and of brute_force."""
        got = solve(prob, band=band)
        assert no_wrap == calls
        cold = solve(prob)
        assert got.flow_stats == cold.flow_stats
        for want in (cold, unmerged_solve(prob), brute_force(prob)):
            assert got.set_min == want.set_min
            assert got.set_max == want.set_max
            assert got.energy_quanta == want.energy_quanta
            assert got.unique == want.unique

    def test_paired_arcs_past_int32_solve_in_two_stages(self, no_wrap):
        # Weight 1500 on two adjacent free cells: the arc between them is
        # 1500 * 2^20 quanta, inside int32, but it and its reverse sum past
        # it, so a residual arc could too.  The band is used all the same:
        # each stage shifts the graph into int32, then solves its clipped
        # residual with one more node feeding the source.
        g = GridGeometry((5, 3), h=1.0, stencil="face")
        fin = np.zeros((5, 3), dtype=bool)
        fin[1:3, 0] = True
        w = np.ones((5, 3))
        w[1:3, 1] = 1500.0
        prob, band = self.two_cell_problem(g, fin, w)
        self.check_band_against_oracles(no_wrap, prob, band, [4, 5, 4, 5])

    def test_a_terminal_arc_past_2_30_solves_in_two_stages(self, no_wrap):
        # Weight 3000 on the fixed-in cell under free cell (1, 1): its
        # terminal arc is about 1500 * 2^20 quanta, past 2^30, but it has
        # no reverse, so every pair sum passes int32: each stage fits and
        # makes one call.
        g = GridGeometry((4, 3), h=1.0, stencil="face")
        fin = np.zeros((4, 3), dtype=bool)
        fin[1, 0] = True
        w = np.ones((4, 3))
        w[fin] = 3000.0
        prob, band = self.two_cell_problem(g, fin, w)
        graph, _const, _node, m = unmerged_graph(prob)
        dense = graph.toarray()
        assert 2**30 < max(dense[m].max(), dense[:, m + 1].max()) <= INT32_MAX
        assert dense[:m, :m].max() <= 2**30
        self.check_band_against_oracles(no_wrap, prob, band, [4, 4])

    def test_a_terminal_arc_past_int32_is_scaled_in_both_stages(self,
                                                                no_wrap):
        # Weight 6000 puts that terminal arc past int32, so each stage
        # shifts it into int32 and then solves its clipped residual.
        g = GridGeometry((4, 3), h=1.0, stencil="face")
        fin = np.zeros((4, 3), dtype=bool)
        fin[1, 0] = True
        w = np.ones((4, 3))
        w[fin] = 6000.0
        prob, band = self.two_cell_problem(g, fin, w)
        assert unmerged_graph(prob)[0].max() > INT32_MAX
        self.check_band_against_oracles(no_wrap, prob, band, [4, 5, 4, 5])

    def test_band_on_another_grid_is_refused(self, rng):
        prob = random_small_problem(rng)
        other = GridGeometry(prob.grid.dims, h=3 * prob.grid.h)
        with pytest.raises(UsageError, match="band"):
            solve(prob, band=RegionMask.whole(other))


def flow_graph(rows, cols, caps, n):
    """The int64 CSR capacity matrix of n nodes with arcs rows -> cols,
    every reverse arc stored."""
    return symmetric(csr_matrix(
        (np.asarray(caps, dtype=np.int64), (rows, cols)), shape=(n, n)))


def reach(graph, start):
    """The nodes breadth-first search reaches from start along the
    positive entries of graph, as a boolean mask."""
    graph = graph.tocsr(copy=True)
    graph.eliminate_zeros()
    mask = np.zeros(graph.shape[0], dtype=bool)
    mask[breadth_first_order(graph, start, directed=True,
                             return_predecessors=False)] = True
    return mask


def assert_on_the_structure_of(residual, graph):
    """residual is stored on graph's structure, and no entry is negative."""
    assert np.array_equal(residual.indptr, graph.indptr)
    assert np.array_equal(residual.indices, graph.indices)
    assert residual.data.min(initial=0) >= 0


def check_max_flow(graph, s, t):
    """_max_flow of graph, checked to return a maximum flow: its residual
    is stored on graph's structure with no negative entry, graph minus it
    is a skew-symmetric flow that is conserved off the terminals and
    carries the value out of s, and no positive residual path joins s to
    t.  Returns the value, the source-reachable set and the sink-reaching
    set."""
    value, residual = cmclab.mincut._max_flow(graph, s, t)
    residual = residual.astype(np.int64)
    assert_on_the_structure_of(residual, graph)
    flow = (graph - residual).toarray()
    assert np.array_equal(flow, -flow.T)
    out = flow.sum(axis=1)
    assert out[s] == value
    assert not np.delete(out, [s, t]).any()
    source_side = reach(residual, s)
    assert not source_side[t]
    return value, source_side, reach(residual.T.tocsr(), t)


@pytest.mark.usefixtures("no_wrap")
class TestMaxFlow:
    """_max_flow against its own unscaled solve and the flow axioms, on
    graphs whose capacities pass int32."""

    def test_scaled_capacities_keep_the_cuts(self, rng, no_wrap):
        # Scaling every capacity by 2^k scales every cut by 2^k, so the
        # flow value scales and the extremal minimum cuts stay.
        scaled = 0
        for _ in range(200):
            n = int(rng.integers(4, 12))
            arcs = int(rng.integers(n, 4 * n))
            rows, cols = rng.integers(0, n, (2, arcs))
            keep = rows != cols
            caps = rng.integers(1, 2**20, arcs)[keep]
            graph = flow_graph(rows[keep], cols[keep], caps, n)
            k = int(rng.integers(1, 18))
            value, src, snk = check_max_flow(graph, 0, n - 1)
            del no_wrap[:]
            got = check_max_flow(graph * 2**k, 0, n - 1)
            scaled += len(no_wrap) > 1
            assert got[0] == value << k
            assert np.array_equal(got[1], src)
            assert np.array_equal(got[2], snk)
        assert scaled > 50

    def test_the_clip_at_u_plus_1_binds(self, no_wrap):
        # s -> a carries 2^40, a -> t 5.  The 10-bit shift leaves a -> t
        # empty, so phase 1 finds no flow, U = 5, and s -> a is clipped to
        # 6 for phase 2, which feeds s from a fourth node by an arc of 6;
        # the residual returned carries s -> a's full capacity.
        graph = flow_graph([0, 1], [1, 2], [2**40, 5], 3)
        value, residual = cmclab.mincut._max_flow(graph, 0, 2)
        assert no_wrap == [3, 4]
        assert value == 5
        assert residual.toarray().tolist() == [[0, 2**40 - 5, 0],
                                               [5, 0, 0],
                                               [0, 5, 0]]
        check_max_flow(graph, 0, 2)

    def test_a_clipped_residual_is_scaled_again(self, no_wrap):
        # 16 parallel two-arc paths of 2^56 - 1: the terminal totals take a
        # 29-bit shift, whose remainders leave U = 16 (2^29 - 1), past
        # int32, so the clipped residual, fed from one more node by an arc
        # of U + 1, is shifted again, by 3 bits, and its clipped residual
        # fits.
        k = 16
        graph = flow_graph([k] * k + list(range(k)),
                           list(range(k)) + [k + 1] * k,
                           [2**56 - 1] * (2 * k), k + 2)
        value, src, snk = check_max_flow(graph, k, k + 1)
        assert no_wrap == [k + 2, k + 3, k + 3]
        assert value == k * (2**56 - 1)
        assert src.tolist() == [False] * k + [True, False]
        assert snk.tolist() == [False] * k + [False, True]

    def test_many_terminal_arcs_do_not_stall_the_scaling(self, no_wrap):
        # 50,000 paths s -> a_i -> b_i -> t of 2^40, 2^24 and 2^40: the
        # 25-bit shift empties every middle arc, so phase 1 finds no flow
        # and U = 50,000 * 2^24.  Clipped at U + 1, the terminal arcs still
        # total past 2^55: a shift set by them would be 25 bits again and
        # find no flow again, for ever.  The node feeding s holds the
        # terminal bound at U + 1, so the next shift is 9 bits, it carries
        # every path's flow, and the last round fits.
        n = 50000
        a, b, s, t = np.arange(n), n + np.arange(n), 2 * n, 2 * n + 1
        graph = flow_graph(np.concatenate([np.full(n, s), a, b]),
                           np.concatenate([a, b, np.full(n, t)]),
                           [2**40] * n + [2**24] * n + [2**40] * n,
                           2 * n + 2)
        value, residual = cmclab.mincut._max_flow(graph, s, t)
        assert no_wrap == [2 * n + 2, 2 * n + 3, 2 * n + 3]
        assert value == n * 2**24
        assert_on_the_structure_of(residual, graph)
        assert np.flatnonzero(reach(residual, s)).tolist() == [*a, s]
        assert np.flatnonzero(reach(residual.T.tocsr(), t)).tolist() == [
            *b, t]

    def test_an_int32_graph_past_int32_in_total_is_scaled(self, no_wrap):
        # 1,000 paths s -> a_i -> b_i -> t of 2^29, 2^24 and 2^29, stored
        # as int32: every arc-pair sum fits, but the terminal totals do
        # not, so the int32 graph is shifted 8 bits, and the clipped
        # residual fits.  Value and residual are those of its int64 copy.
        n = 1000
        a, b, s, t = np.arange(n), n + np.arange(n), 2 * n, 2 * n + 1
        graph = flow_graph(np.concatenate([np.full(n, s), a, b]),
                           np.concatenate([a, b, np.full(n, t)]),
                           [2**29] * n + [2**24] * n + [2**29] * n,
                           2 * n + 2)
        got = [cmclab.mincut._max_flow(g, s, t)
               for g in (graph.astype(np.int32), graph)]
        assert no_wrap == [2 * n + 2, 2 * n + 3] * 2
        assert got[0][0] == got[1][0] == n * 2**24
        assert np.array_equal(got[0][1].toarray(), got[1][1].toarray())
        check_max_flow(graph.astype(np.int32), s, t)

    @staticmethod
    def heavier(prob, k):
        """prob with every cell weight multiplied by 2^k."""
        w = (np.ones(prob.grid.dims) if prob.cell_weight is None
             else prob.cell_weight)
        return MinCutProblem(prob.grid, prob.lam, prob.fixed_in,
                             prob.fixed_out, cell_weight=w * 2.0**k)

    def test_weights_past_int32_match_brute_force(self, rng, no_wrap):
        # Weights of 2^14 to 2^30 put the capacities past int32, and the
        # orbit graphs' summed arcs with them, so every solve is scaled.
        draws = [random_small_problem(rng) for _ in range(30)]
        draws += [TestMirrorMerge.draw(rng, *case)[0] for case in
                  [(2, "flip0", 1), (2, "swap01", None), (3, "swap02", None)]
                  for _ in range(5)]
        for prob in draws:
            prob = self.heavier(prob, int(rng.integers(14, 31)))
            del no_wrap[:]
            got = solve(prob)
            assert len(no_wrap) > 1
            for want in (unmerged_solve(prob), brute_force(prob)):
                assert got.set_min == want.set_min
                assert got.set_max == want.set_max
                assert got.energy_quanta == want.energy_quanta
                assert got.unique == want.unique


class TestThreshold:
    def test_radius_gate(self):
        with pytest.raises(UsageError):
            threshold_experiment(4, 32, [0.1])

    def test_radius_must_be_a_real_number(self):
        # A string or None once raised TypeError from the r >= 8 check.
        for r in ("9", None, [9], 9 + 0j):
            with pytest.raises(UsageError, match="radius"):
                threshold_experiment(r, 24, [0.0])
        got, = threshold_experiment(np.float64(9.0), 24, [0.0])
        want, = threshold_experiment(9, 24, [0.0])
        assert got.largest == want.largest

    def test_obstacle_must_fit(self):
        with pytest.raises(UsageError):
            threshold_experiment(16, 20, [0.1])

    def test_resolution_must_be_an_integer(self):
        # A float resolution once centred the disk off the grid's middle,
        # a string one raised TypeError.
        for resolution in (24.9, 24.0, "24", None):
            with pytest.raises(UsageError, match="resolution"):
                threshold_experiment(9.7, resolution, [0.05])
        got, = threshold_experiment(9.7, np.int64(24), [0.05])
        want, = threshold_experiment(9.7, 24, [0.05])
        assert got.largest == want.largest
        assert got.contact_excess == want.contact_excess

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

    def test_every_cell_off_the_disk_is_labeled_at_odd_n(self):
        # At odd n the centre row lies on the equator; off the disk it is
        # fixed out with the upper half-plane.  It was once left free: at
        # lambda = 0.1 its 4 cells off the disk came out in the largest
        # minimizer, and at lambda = 0 the whole row did.
        rows = threshold_experiment(8, 21, [0.0, 0.1])
        g = rows[0].largest.grid
        _, Y = g.center_mesh()
        below = Y < 10.0
        off = ~RegionMask.ball(g, (10.0, 10.0), 8).bits
        assert np.array_equal(rows[0].largest.bits, below)
        assert np.array_equal(rows[1].largest.bits[off], below[off])
        assert rows[1].largest.bits[~off & ~below].any()

    @staticmethod
    def count_solves(monkeypatch):
        calls = []
        real = cmclab.mincut.solve

        def counted(problem):
            calls.append(problem.lam)
            return real(problem)

        monkeypatch.setattr(cmclab.mincut, "solve", counted)
        return calls

    def test_non_finite_lambda_is_refused_before_any_solve(self,
                                                           monkeypatch):
        calls = self.count_solves(monkeypatch)
        with pytest.raises(UsageError, match="finite"):
            threshold_experiment(8, 24, [0.1, float("nan")])
        assert calls == []

    def test_sweep_matches_independent_solves(self, rng, monkeypatch):
        # Negative lambdas, a duplicate, and 0.1 and 0.1 + 2^-24, which
        # round to the same gain of 104858 quanta, in shuffled order.
        lams = [-0.3, -0.05, 0.0, 0.1, 0.1 + 2**-24, 0.15, 0.25, 0.25, 0.6]
        lams = [lams[i] for i in rng.permutation(len(lams))]
        want = independent_thresholds(8, 24, lams)
        calls = self.count_solves(monkeypatch)
        got = threshold_experiment(8, 24, lams)
        assert len(calls) == len({np.rint(lam * 2**20) for lam in lams}) == 7
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.lam == w.lam
            assert g.filled == w.filled
            assert g.contact_excess == w.contact_excess
            assert g.obstacle_circumference == w.obstacle_circumference
            assert g.largest == w.largest


class TestSerialization:
    def test_result_document(self, rng):
        prob = random_small_problem(rng)
        res = solve(prob)
        doc = result_to_json(res)
        for key in ("schema_version", "energy", "energy_quanta", "quantum",
                    "unique", "flow_stats"):
            assert key in doc
        assert doc["energy_quanta"] == res.energy_quanta
