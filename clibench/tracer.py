"""Outside-in span tracer for the cmclab CLI.

The tracer wraps selected functions of the cmclab modules by rebinding module
attributes, so the package carries no tracing code of its own.  Every call of
a wrapped function becomes one span: name, start, end, parent and thread.  The
`cli.run_<subcommand>` spans are the roots.

Each thread keeps its own span stack.  A span opened on a thread whose stack
is empty (such as the pool worker of `plateau2d`) takes as parent the
innermost span open on the main thread, so work done in a pool lands under
the runner that submitted it.  Counts add up across threads under one lock.

A layer's self time is its span's duration minus the union of its child
spans' intervals, so overlapping children on two threads are not subtracted
twice.
"""

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Functions traced, per module.  The scipy entry points are traced as the
# cmclab module that calls them sees them.
TRACED = {
    "cmclab.cli": ("run_spectra", "run_plateau2d", "run_equivariant",
                   "run_leaf", "run_approx", "run_plot", "atomic_write"),
    "cmclab.grid": ("cellset_to_text", "read_cellset", "boundary_faces"),
    "cmclab.mincut": ("solve", "evaluate_quanta", "threshold_experiment",
                      "maximum_flow", "breadth_first_order"),
    "cmclab.cones": ("link_spectrum",),
    "cmclab.equivariant": ("approximation_sequence", "weighted_minimize",
                           "shoot_leaf", "solve_ivp", "mean_curvature_values"),
}

# Counts that must repeat exactly between two passes of one seed, besides
# the call count of every span name.
EXACT_COUNTS = ("mincut.free_cells", "mincut.arcs", "mincut.changed_cells",
                "mincut.chained_free_cells", "equivariant.leaf_nodes",
                "cli.atomic_write.bytes", "grid.cellset_to_text.bytes")


class Tracer:
    """Span and count recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index or None, thread]
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []
        self._last_solve = None    # (dims, set_max bits) of the last solve

    # ------------------------------------------------------------ spans

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def add(self, key, n):
        with self._lock:
            self.counts[key] += int(n)

    def wrap(self, fn, name, after=None):
        """fn traced as span `name`; after(tracer, args, result) records
        counts once fn has returned."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(self, args, result)
            return result
        return traced

    # ------------------------------------------------------ installation

    def install(self):
        """Rebind every cmclab module attribute (and dict entry, such as the
        CLI's runner table) that refers to a traced function."""
        by_id = {}
        for modname, attrs in TRACED.items():
            module = importlib.import_module(modname)
            short = modname.split(".", 1)[1]
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                name = f"{short}.{attr}"
                by_id[id(fn)] = (fn, self.wrap(fn, name, _AFTER.get(name)))
        for modname in sorted(sys.modules):
            if modname != "cmclab" and not modname.startswith("cmclab."):
                continue
            module = sys.modules[modname]
            for key, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, value, hit[1])
                elif isinstance(value, dict) and any(
                        id(v) in by_id and by_id[id(v)][0] is v
                        for v in value.values()):
                    table = {k: (by_id[id(v)][1]
                                 if id(v) in by_id and by_id[id(v)][0] is v
                                 else v)
                             for k, v in value.items()}
                    self._patch(module, key, value, table)
        return self

    def _patch(self, module, key, old, new):
        self._patches.append((module, key, old))
        setattr(module, key, new)

    def uninstall(self):
        while self._patches:
            module, key, old = self._patches.pop()
            setattr(module, key, old)


# ------------------------------------------------------------ count hooks

def _after_atomic_write(tracer, args, result):
    tracer.add("cli.atomic_write.bytes", len(args[1].encode("utf-8")))


def _after_cellset_to_text(tracer, args, result):
    tracer.add("grid.cellset_to_text.bytes", len(result.encode("utf-8")))


def _after_solve(tracer, args, result):
    """Graph size of one solve, and how many of its free cells changed label
    against the previous solve on the same grid (step or lambda order)."""
    problem = args[0]
    stats = result.flow_stats
    n_free = stats.get("free_cells", stats.get("nodes", 2) - 2)
    free = ~(problem.fixed_in.bits | problem.fixed_out.bits)
    bits = result.set_max.bits
    with tracer._lock:
        tracer.counts["mincut.free_cells"] += int(n_free)
        tracer.counts["mincut.arcs"] += int(stats.get("arcs", 0))
        last = tracer._last_solve
        if last is not None and last[0] == bits.shape:
            changed = np.count_nonzero((bits != last[1]) & free)
            tracer.counts["mincut.changed_cells"] += int(changed)
            tracer.counts["mincut.chained_free_cells"] += int(n_free)
        tracer._last_solve = (bits.shape, bits)


def _after_leaf(tracer, args, result):
    tracer.add("equivariant.leaf_nodes", result.n_nodes)


_AFTER = {
    "cli.atomic_write": _after_atomic_write,
    "grid.cellset_to_text": _after_cellset_to_text,
    "mincut.solve": _after_solve,
    "equivariant.shoot_leaf": _after_leaf,
}


# ---------------------------------------------------------------- summary

def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children = defaultdict(list)
    for _name, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, *_) in enumerate(spans):
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in children[i]]
        clipped = [(lo, hi) for lo, hi in clipped if hi > lo]
        out.append((end - start) - union_length(clipped))
    return out


def _has_ancestor(spans, index, predicate):
    parent = spans[index][3]
    while parent is not None:
        if predicate(spans[parent][0]):
            return True
        parent = spans[parent][3]
    return False


def summarize(tracer, pass_s):
    """Per-name calls, time and self time, the counts, and coverage shares.

    Time of a name sums its outermost spans only, so a recursive call is not
    counted twice.  pass_s is the traced pass's wall time.  The self times
    add up to the root spans' time while one thread works at a time; spans
    running at once on two threads push self_cover above 1.
    """
    spans = [list(s) for s in tracer.spans]
    now = time.perf_counter()
    for s in spans:
        if s[2] is None:
            s[2] = now
    selfs = self_times(spans)
    names = {}
    for i, (name, start, end, *_) in enumerate(spans):
        entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        if not _has_ancestor(spans, i, lambda n, name=name: n == name):
            entry["s"] += end - start
    root_s = sum(e - s for _n, s, e, p, *_ in spans if p is None)
    mincut_s = sum(
        e - s for i, (n, s, e, *_) in enumerate(spans)
        if n.startswith("mincut.")
        and not _has_ancestor(spans, i, lambda a: a.startswith("mincut.")))
    runner_self = sum(selfs[i] for i, s in enumerate(spans)
                      if s[0].startswith("cli.run_"))
    counts = dict(tracer.counts)
    chained = counts.get("mincut.chained_free_cells", 0)
    counts["mincut.useful_frac"] = (
        counts.get("mincut.changed_cells", 0) / chained if chained else 0.0)
    return {
        "names": names,
        "counts": counts,
        "pass_s": pass_s,
        "root_s": root_s,
        "self_cover": sum(selfs) / root_s if root_s else 0.0,
        "root_cover": root_s / pass_s if pass_s else 0.0,
        "mincut_share": mincut_s / pass_s if pass_s else 0.0,
        "cli_runner_self_share": runner_self / pass_s if pass_s else 0.0,
    }


def exact_counts(summary):
    """The numbers two traced passes of one seed must agree on exactly."""
    out = {f"{name}.calls": e["calls"]
           for name, e in summary["names"].items()}
    for key in EXACT_COUNTS + ("mincut.useful_frac",):
        out[key] = summary["counts"].get(key, 0)
    return out


def repeat_mismatches(summaries):
    """Keys whose exact counts differ between traced passes, sorted."""
    if len(summaries) < 2:
        return []
    first = exact_counts(summaries[0])
    bad = set()
    for other in summaries[1:]:
        cur = exact_counts(other)
        for key in set(first) | set(cur):
            if first.get(key) != cur.get(key):
                bad.add(key)
    return sorted(bad)
