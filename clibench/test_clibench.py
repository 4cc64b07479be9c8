"""Tests of the benchmark itself: the tracer, the workload checks, and the
run and spread helpers.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q clibench
"""

import json
import os
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run as bench  # noqa: E402
import spread  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from cmclab.cli import main as cli_main  # noqa: E402


def run_invocations(work_dir, workload, tracer=None):
    """Run a workload's invocations in-process in work_dir; returns rcs."""
    os.makedirs(work_dir, exist_ok=True)
    for name, text in workload.inputs.items():
        with open(os.path.join(work_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        if tracer is not None:
            tracer.install()
        try:
            return [cli_main(argv) for argv in workload.invocations]
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        os.chdir(cwd)


# ------------------------------------------------------------------ tracer

def test_self_time_subtracts_union_of_child_intervals():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 2],     # overlaps a, from another thread
        ["c", 8.0, 12.0, 0, 2],    # runs past the parent's end
        ["d", 2.0, 3.0, 1, 1],
    ]
    selfs = tracing.self_times(spans)
    # children cover [1, 6] and [8, 10] of the root: 7 of its 10 seconds
    assert selfs[0] == pytest.approx(3.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_span_on_fresh_thread_takes_main_thread_parent_and_counts_add():
    tr = tracing.Tracer()
    root = tr.open("cli.run_x")
    inner = tr.open("mincut.threshold_experiment")

    def worker():
        i = tr.open("mincut.solve")
        tr.add("mincut.arcs", 5)
        tr.close(i)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tr.close(inner)
    tr.close(root)
    solves = [s for s in tr.spans if s[0] == "mincut.solve"]
    assert len(solves) == 4
    assert all(s[3] == inner for s in solves)
    assert all(s[4] != threading.get_ident() for s in solves)
    assert tr.counts["mincut.arcs"] == 20


def test_pool_thread_solve_is_attributed_under_run_plateau2d(tmp_path,
                                                             monkeypatch):
    monkeypatch.setenv("CMC_LAB_THREADS", "2")
    tr = tracing.Tracer()
    wl = workloads.Workload("small", [[
        "plateau2d", "--radius", "8", "--resolution", "20",
        "--lambda", "0.0", "--lambda", "0.2", "--lambda", "0.5",
        "--outdir", "."]])
    assert run_invocations(str(tmp_path), wl, tr) == [0]
    names = [s[0] for s in tr.spans]
    runner = names.index("cli.run_plateau2d")
    solves = [i for i, n in enumerate(names) if n == "mincut.solve"]
    assert len(solves) == 3
    for i in solves:
        assert tr.spans[i][4] != threading.get_ident()
        parent = tr.spans[i][3]
        assert tr.spans[parent][0] == "mincut.threshold_experiment"
        assert tr.spans[parent][3] == runner
    summary = tracing.summarize(tr, tr.spans[runner][2] - tr.spans[runner][1])
    assert summary["names"]["mincut.solve"]["calls"] == 3
    # the patched runner table and module attributes are restored
    import cmclab.cli
    import cmclab.mincut
    assert cmclab.cli._RUNNERS["plateau2d"] is cmclab.cli.run_plateau2d
    assert not hasattr(cmclab.mincut.solve, "__wrapped__")


SMALL_APPROX = {"p": 3, "q": 3, "lambda": 0.0, "grid": {"n": 32, "box": 1.0},
                "t_list": [0.125, 0.0625]}


def test_artifacts_are_byte_identical_with_tracing_on(tmp_path):
    wl = workloads.Workload(
        "small",
        [["spectra", "--p", "3", "--q", "3", "--kmax", "40", "--outdir", "."],
         ["plateau2d", "--radius", "8", "--resolution", "20",
          "--lambda", "0.0", "--lambda", "0.5", "--outdir", "."],
         ["equivariant", "--p", "3", "--q", "3", "--grid-n", "32",
          "--lambda", "0.0", "--outdir", "."],
         ["approx", "--config", "cfg.json", "--outdir", "."],
         ["leaf", "--p", "3", "--q", "3", "--s0", "1.0", "--rmax", "4",
          "--csv", "leaf.csv"],
         ["plot", "--input", "leaf.csv", "--output", "leaf.svg"],
         ["plot", "--input", "approx_limit.csl", "--output", "limit.svg"]],
        inputs={"cfg.json": json.dumps(SMALL_APPROX)})
    work = str(tmp_path / "work")
    assert run_invocations(work, wl) == [0] * 7
    plain = bench.digests(work)
    shutil.rmtree(work)
    tr = tracing.Tracer()
    assert run_invocations(work, wl, tr) == [0] * 7
    assert bench.digests(work) == plain
    assert len(plain) == 14
    assert {s[0] for s in tr.spans if s[3] is None} == {
        "cli.run_spectra", "cli.run_plateau2d", "cli.run_equivariant",
        "cli.run_approx", "cli.run_leaf", "cli.run_plot"}
    # one thread at a time: the self times add up to the root spans
    summary = tracing.summarize(tr, 1.0)
    assert summary["self_cover"] == pytest.approx(1.0)


def test_repeat_mismatch_is_reported():
    def summary(free):
        return {"names": {"mincut.solve": {"calls": 6, "s": 1.0}},
                "counts": {"mincut.free_cells": free}}
    assert tracing.repeat_mismatches([summary(10), summary(10)]) == []
    assert tracing.repeat_mismatches([summary(10), summary(11)]) == [
        "mincut.free_cells"]


# ---------------------------------------------------------- workload checks

@pytest.fixture(scope="module")
def good_artifacts(tmp_path_factory):
    """Each workload's seed-0 pass, run once in-process."""
    out = {}
    for name, build in workloads.WORKLOADS.items():
        wl = build(0)
        work = str(tmp_path_factory.mktemp(name))
        rcs = run_invocations(work, wl)
        out[name] = (wl, work, rcs)
    return out


def edit_json(path, fn):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def edit_text(path, fn):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fn(text))


def swap(work, a, b):
    pa, pb = os.path.join(work, a), os.path.join(work, b)
    tmp = pa + ".swap"
    os.replace(pa, tmp)
    os.replace(pb, pa)
    os.replace(tmp, pb)


def shift_leaf_row(text):
    lines = text.split("\n")
    fields = lines[500].split(",")
    fields[0] = repr(float(fields[0]) * (1 + 1e-12))
    lines[500] = ",".join(fields)
    return "\n".join(lines)


def raise_leaf_residual(text):
    lines = text.split("\n")
    fields = lines[500].split(",")
    fields[3] = "0.001"
    lines[500] = ",".join(fields)
    return "\n".join(lines)


def set_item(key, index, value):
    def fn(doc):
        doc[key][index] = value
    return fn


BROKEN = {
    "approx chain_ok false": (
        "quadrant_approx", 0,
        lambda w: edit_json(os.path.join(w, "approx.json"),
                            set_item("chain_ok", 2, False))),
    "approx sym diff not decreasing": (
        "quadrant_approx", 0,
        lambda w: edit_json(os.path.join(w, "approx.json"),
                            set_item("sym_diff_volume", 3, 1.0))),
    "approx steps not nested": (
        "quadrant_approx", 0,
        lambda w: swap(w, "approx_step_00.csl", "approx_step_03.csl")),
    "approx step file missing": (
        "quadrant_approx", 0,
        lambda w: os.remove(os.path.join(w, "approx_step_01.csl"))),
    "approx svg without path": (
        "quadrant_approx", 1,
        lambda w: edit_text(os.path.join(w, "approx_limit.svg"),
                            lambda t: t.replace("<path", "<g"))),
    "sweep sets not nested": (
        "plateau_sweep", 0,
        lambda w: swap(w, "plateau2d_00.csl", "plateau2d_07.csl")),
    "sweep filled decreasing": (
        "plateau_sweep", 0,
        lambda w: edit_json(os.path.join(w, "plateau2d.json"),
                            lambda d: d["rows"][0].update(filled=True))),
    "sweep rows reordered": (
        "plateau_sweep", 0,
        lambda w: edit_json(os.path.join(w, "plateau2d.json"),
                            lambda d: d["rows"].reverse())),
    "leaf row off the grid": (
        "curve_io", 0,
        lambda w: edit_text(os.path.join(w, "leaf.csv"), shift_leaf_row)),
    "leaf residual too large": (
        "curve_io", 0,
        lambda w: edit_text(os.path.join(w, "leaf.csv"),
                            raise_leaf_residual)),
    "leaf header wrong": (
        "curve_io", 0,
        lambda w: edit_text(os.path.join(w, "leaf.csv"),
                            lambda t: "s,x,y\n" + t.split("\n", 1)[1])),
    "leaf svg not xml": (
        "curve_io", 1,
        lambda w: edit_text(os.path.join(w, "leaf.svg"), lambda t: t[:-8])),
    "spectra lambda1 wrong": (
        "curve_io", 2,
        lambda w: edit_json(os.path.join(w, "spectra_p3_q3.json"),
                            lambda d: d.update(lambda1=-5.0))),
    "equivariant energy wrong": (
        "curve_io", 3,
        lambda w: edit_json(os.path.join(w, "equivariant.json"),
                            lambda d: d["result"].update(
                                energy_quanta=d["result"]["energy_quanta"]
                                + 1))),
}


def test_good_artifacts_pass_every_check(good_artifacts):
    for name, (wl, work, rcs) in good_artifacts.items():
        assert wl.check(work, rcs) == [None] * len(wl.invocations), name


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_each_check_rejects_a_broken_artifact(case, good_artifacts, tmp_path):
    name, index, breaker = BROKEN[case]
    wl, good, rcs = good_artifacts[name]
    work = str(tmp_path / "work")
    shutil.copytree(good, work)
    breaker(work)
    failures = wl.check(work, rcs)
    assert failures[index] is not None
    assert all(f is None for i, f in enumerate(failures) if i != index)


def test_nonzero_exit_fails_its_invocation_only(good_artifacts):
    wl, work, rcs = good_artifacts["curve_io"]
    failures = wl.check(work, [0, 0, 2, 0])
    assert failures == [None, None, "exit status 2", None,
                        "exit status None"]


def test_seed_zero_is_the_reference_and_seeds_keep_work_size():
    q = workloads.quadrant_approx(0)
    assert json.loads(q.inputs["approx_config.json"])["t_list"] == [
        1 / 16, 1 / 32, 1 / 64, 1 / 128]
    assert workloads.curve_io(0).invocations[0][6] == "1.0"
    assert workloads.plateau_sweep(0).invocations[0][-1] == "0.0625"
    for seed in range(1, 20):
        for build in workloads.WORKLOADS.values():
            a, b, ref = build(seed), build(seed), build(0)
            assert a.invocations == b.invocations and a.inputs == b.inputs
            assert len(a.invocations) == len(ref.invocations)
        factor = workloads._factor(seed)
        assert abs(factor - 1.0) <= workloads.SEED_SPREAD


# ------------------------------------------------------ run and spread

def test_parse_importtime_counts_submodules_of_a_package_without_a_line():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy.spatial._kd",
        "import time:        25 |         25 |       scipy.spatial.distance",
        "import time:       100 |        175 |     scipy.optimize",
        "import time:        10 |        485 | cmclab.cli",
    ])
    t = bench.parse_importtime(text)
    assert t["numpy"] == pytest.approx(300e-6)
    assert t["scipy.spatial"] == pytest.approx(75e-6)
    assert t["cmclab.cli"] == pytest.approx(485e-6)
    assert t["scipy.sparse"] == 0.0


def test_pass_tail_has_ten_passes_beyond_it():
    assert spread.tail(list(range(10))) is None
    pct, value, beyond = spread.tail(list(range(1, 21)))
    assert (pct, value, beyond) == (50.0, 10, 10)
    assert spread.parse_seeds("0-2,7") == [0, 1, 2, 7]


def test_run_has_a_rule_for_every_metric_benchmark_json_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    imports = {m: 0.0 for m in bench.IMPORT_MODULES}
    names = bench.metric_units(True)
    assert list(bench.layer_metrics(names, [], [], imports)) == list(names)
    with pytest.raises(KeyError):
        bench.layer_metrics(["mincut.no_such_span.s"], [], [], imports)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "clibench",
                    ignore=shutil.ignore_patterns("_run", "__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", "curve_io",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
