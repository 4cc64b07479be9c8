"""Shared builders for randomized solver instances and symmetric flow
graphs, spies on max-flow and on the arc build, and a traced memory
peak."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_matrix

import cmclab.mincut
from cmclab import GridGeometry, RegionMask, MinCutProblem

INT32_MAX = 2**31 - 1


def symmetric(graph):
    """The CSR capacity matrix graph with the reverse of every arc stored,
    an explicit zero where graph has none: its capacities and dtype kept,
    its indices sorted, the structure _max_flow requires."""
    coo = graph.tocoo()
    return csr_matrix(
        (np.concatenate([coo.data, np.zeros_like(coo.data)]),
         (np.concatenate([coo.row, coo.col]),
          np.concatenate([coo.col, coo.row]))),
        shape=graph.shape, dtype=graph.dtype)


def count_flows(monkeypatch):
    """The node counts of the graphs max-flow runs on, call by call."""
    calls = []
    real = cmclab.mincut.maximum_flow

    def counted(graph, s, t):
        calls.append(graph.shape[0])
        return real(graph, s, t)

    monkeypatch.setattr(cmclab.mincut, "maximum_flow", counted)
    return calls


def prune_flows(monkeypatch):
    """Make max-flow return each flow without its zero entries, so on
    another structure than its graph's.  Returns, call by call, whether
    that dropped an entry."""
    dropped = []
    real = cmclab.mincut.maximum_flow

    def pruned(graph, s, t):
        res = real(graph, s, t)
        flow = res.flow.copy()
        flow.eliminate_zeros()
        dropped.append(flow.nnz < res.flow.nnz)
        return SimpleNamespace(flow=flow, flow_value=res.flow_value)

    monkeypatch.setattr(cmclab.mincut, "maximum_flow", pruned)
    return dropped


def forbid_wrapping(monkeypatch):
    """Fail the test as soon as max-flow receives a graph that could wrap
    the backend's int32: capacities of another dtype, an arc-pair sum
    c(u, v) + c(v, u) past 2^31 - 1, or a smaller terminal total past it.
    Returns the node counts of the graphs max-flow runs on, call by call."""
    calls = []
    real = cmclab.mincut.maximum_flow

    def checked(graph, s, t):
        assert graph.dtype == np.int32, f"capacities of dtype {graph.dtype}"
        wide = graph.astype(np.int64)
        pair = int((wide + wide.T).max())
        assert pair <= INT32_MAX, f"arc-pair sum {pair} past int32"
        total = min(int(wide[[s]].sum()), int(wide[:, [t]].sum()))
        assert total <= INT32_MAX, f"terminal total {total} past int32"
        calls.append(graph.shape[0])
        return real(graph, s, t)

    monkeypatch.setattr(cmclab.mincut, "maximum_flow", checked)
    return calls


def count_arc_builds(monkeypatch):
    """The grid dims of the arc tables built, build by build."""
    calls = []
    real = cmclab.mincut._arc_table

    def counted(grid, cell_weight):
        calls.append(grid.dims)
        return real(grid, cell_weight)

    monkeypatch.setattr(cmclab.mincut, "_arc_table", counted)
    return calls


def traced_peak(fn):
    """The peak of the memory Python allocates while fn() runs, in MB
    (10^6 bytes), as tracemalloc counts it from the call on."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def random_small_problem(rng, d=None, max_free=16):
    """Random labeling instance with at most max_free free cells.

    Dimensions, spacing, stencil, fixed labels, lambda and cell weights are
    all drawn at random; every remaining cell is split between the two fixed
    masks so the free count stays below the brute force budget.  A coin and,
    when it hits, a per-cell vector are drawn and discarded where an energy
    region was once drawn, so every seed still yields the problems it did.
    """
    if d is None:
        d = int(rng.integers(2, 4))
    if d == 2:
        dims = tuple(int(v) for v in rng.integers(3, 6, size=2))
    else:
        dims = tuple(int(v) for v in rng.integers(2, 4, size=3))
    ncells = int(np.prod(dims))
    h = float(2.0 ** rng.integers(-3, 2))
    stencil = "cc" if rng.random() < 0.5 else "face"
    grid = GridGeometry(dims, h=h, stencil=stencil)

    n_free = int(rng.integers(1, min(max_free, ncells) + 1))
    order = rng.permutation(ncells)
    fin = np.zeros(ncells, dtype=bool)
    fout = np.zeros(ncells, dtype=bool)
    for idx in order[n_free:]:
        if rng.random() < 0.5:
            fin[idx] = True
        else:
            fout[idx] = True

    weights = None
    if rng.random() < 0.4:
        weights = rng.uniform(0.2, 3.0, size=dims)
    if rng.random() < 0.3:
        rng.random(ncells)

    return MinCutProblem(
        grid, float(rng.uniform(-2.0, 6.0)),
        fixed_in=RegionMask(grid, fin.reshape(dims)),
        fixed_out=RegionMask(grid, fout.reshape(dims)),
        cell_weight=weights)
