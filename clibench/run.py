"""Benchmark of the cmclab command line, one fresh process per pass.

Usage, from the root of a checkout:

    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass is one fresh Python process that imports cmclab.cli once and runs the
workload's CLI invocations in order through cmclab.cli.main(argv), in an
emptied work directory.  One closed loop drives the passes, one at a time,
for S seconds.  CMC_LAB_THREADS is removed from the pass environment, so a
pass runs the main thread plus plateau2d's one pool worker.

With --trace 0 the run reports, as medians over its passes:
  setup_s      spawning the pass process until `import cmclab.cli` returns;
  wall_s       `import cmclab.cli` returning until the last invocation
               returns;
  peak_rss_mb  the pass process's maximum RSS, from os.wait4.
With --trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the outside-in tracer (tracer.py), the tracing
overhead, and import times from `python -X importtime`.  The metric names
and units come from BENCHMARK.json.  The trace's coverage shares go to the
record, not the result line.

Every pass's artifacts are checked (workloads.py); an invocation fails when
it exits non-zero or its check fails.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  A
record of every pass, a host-drift probe taken before and after the passes,
and masked sha256 digests of the artifacts go to clibench/_run/records/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(BENCH_DIR, "_run")
WORK_DIR = os.path.join(RUN_DIR, "work")
RECORD_DIR = os.path.join(RUN_DIR, "records")
CHILD = os.path.join(BENCH_DIR, "pass_child.py")

PASS_TIMEOUT_S = 120.0
# No pass starts after this much time since launch, so a run ends well
# inside 180 seconds.
LAUNCH_LIMIT_S = 150.0
IMPORT_REPEATS = 3
IMPORT_MODULES = ("cmclab.cli", "numpy", "scipy.sparse", "scipy.integrate",
                  "scipy.interpolate", "scipy.ndimage", "scipy.spatial")
IMPORT_METRICS = {f"import.{m.replace('cmclab.cli', 'cmclab_cli')}_s": m
                  for m in IMPORT_MODULES}
WORK_MASK = b"<workdir>"

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
# Shares of the traced pass, recorded to check the trace's coverage and
# contrast; not metrics.
DIAGNOSTICS = ("root_cover", "self_cover", "mincut_share",
               "cli_runner_self_share")


class ProgramMissing(Exception):
    """The checkout does not hold an importable cmclab under src/."""


def metric_units(trace):
    """{name: unit} of the metrics a run reports, in BENCHMARK.json's order:
    its end_to_end list with trace off, its per_layer list with trace on."""
    if not os.path.isfile(BENCHMARK_JSON):
        raise ProgramMissing(f"no {BENCHMARK_JSON}")
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def child_env():
    env = dict(os.environ)
    env.pop("CMC_LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def verify_program(env):
    """Import cmclab.cli once from src/, which also compiles its bytecode,
    and make sure no other installed copy answered."""
    if not os.path.isfile(os.path.join(SRC, "cmclab", "cli.py")):
        raise ProgramMissing(f"no cmclab package under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, cmclab.cli; print(os.path.realpath(cmclab.__file__))"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise ProgramMissing(f"import cmclab.cli failed:\n{proc.stderr}")
    found = proc.stdout.strip()
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise ProgramMissing(f"cmclab imported from {found}, not from {SRC}")


def host_info():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def drift_probe():
    """Seconds for a fixed pure-Python loop and a fixed numpy loop.  Not a
    metric: it tells a slow host phase from a slow program."""
    import numpy as np
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    python_s = time.perf_counter() - t
    a = np.random.default_rng(0).random(1 << 18)
    t = time.perf_counter()
    for _ in range(40):
        np.sort(a)
    return {"python_loop_s": python_s,
            "numpy_loop_s": time.perf_counter() - t}


def parse_importtime(text):
    """Cumulative seconds per module of IMPORT_MODULES from -X importtime
    output.  A module's time is the sum over its outermost lines (itself or
    a submodule not nested under another line of it), so a package whose
    own line is missing, because another import pulled it in partway,
    still counts its submodules."""
    lines = []
    for line in text.splitlines():
        parts = line.partition("import time:")[2].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        lines.append((len(parts[2]) - len(parts[2].lstrip()),
                      int(parts[1]), name))

    def under(name, module):
        return name == module or name.startswith(module + ".")

    out = {m: 0.0 for m in IMPORT_MODULES}
    ancestors = []
    # A module's line follows its submodules' lines, so walk backwards.
    for level, cumulative, name in reversed(lines):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        for m in IMPORT_MODULES:
            if under(name, m) and not any(under(a, m) for _l, a in ancestors):
                out[m] += cumulative / 1e6
        ancestors.append((level, name))
    return out


def import_times(env, repeats=IMPORT_REPEATS):
    """Median cumulative import time per module over fresh processes."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cmclab.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        for m, seconds in parse_importtime(proc.stderr).items():
            samples[m].append(seconds)
    return {m: statistics.median(v) for m, v in samples.items()}


def _reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _wait(proc, timeout):
    """Reap proc with os.wait4; kill it past the timeout.  Returns
    (rusage, timed_out)."""
    deadline = time.monotonic() + timeout
    timed_out = False
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return rusage, timed_out
        if not timed_out and time.monotonic() > deadline:
            proc.kill()
            timed_out = True
        time.sleep(0.01)


def digests(work_dir):
    """sha256 of every artifact, with the absolute work directory masked
    because JSON artifacts echo output_dir."""
    masks = {os.path.realpath(work_dir).encode(),
             os.path.abspath(work_dir).encode()}
    out = {}
    for name in sorted(os.listdir(work_dir)):
        with open(os.path.join(work_dir, name), "rb") as fh:
            data = fh.read()
        for mask in masks:
            data = data.replace(mask, WORK_MASK)
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def run_pass(workload, env, trace):
    """One pass in a fresh process, then its checks.  Returns the record."""
    _reset_dir(WORK_DIR)
    for name, text in workload.inputs.items():
        with open(os.path.join(WORK_DIR, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    spec_path = os.path.join(RUN_DIR, "spec.json")
    result_path = os.path.join(RUN_DIR, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"invocations": workload.invocations, "trace": trace}, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    err_path = os.path.join(RUN_DIR, "stderr.txt")
    with open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path,
                                 result_path], cwd=WORK_DIR, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        rusage, timed_out = _wait(proc, PASS_TIMEOUT_S)
    result = None
    if proc.returncode == 0 and os.path.exists(result_path):
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
    rcs = result["rcs"] if result else []
    t_check = time.monotonic()
    failures = workload.check(WORK_DIR, rcs)
    check_s = time.monotonic() - t_check
    record = {
        "trace": trace,
        "timed_out": timed_out,
        "returncode": proc.returncode,
        "setup_s": result["t_import"] - t_spawn if result else None,
        "wall_s": result["t_end"] - result["t_import"] if result else None,
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        "user_s": rusage.ru_utime,
        "sys_s": rusage.ru_stime,
        "check_s": check_s,
        "failures": failures,
        "digests": digests(WORK_DIR),
        "summary": result["trace"] if result else None,
    }
    if any(failures):
        with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
            record["stderr"] = fh.read()[-4000:]
        if result:
            record["errors"] = result["errors"]
    return record


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3 if values else (None,) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(names, traced, untraced, imports):
    """Values of the per-layer metrics `names` from the summaries of the
    traced passes.  A name without a rule here raises KeyError."""
    summaries = [p["summary"] for p in traced if p["summary"]]
    traced_wall = _median([p["wall_s"] for p in traced
                           if p["wall_s"] is not None])
    untraced_wall = _median([p["wall_s"] for p in untraced
                             if p["wall_s"] is not None])
    spans = {f"{m}.{f}".partition("cmclab.")[2]
             for m, funcs in tracer.TRACED.items() for f in funcs}
    counts = set(tracer.EXACT_COUNTS) | {"mincut.useful_frac"}
    values = {}
    for name in names:
        head, _, kind = name.rpartition(".")
        if name in IMPORT_METRICS:
            values[name] = imports[IMPORT_METRICS[name]]
        elif name == "trace.pass_s":
            values[name] = traced_wall
        elif name == "trace.overhead_s":
            values[name] = traced_wall - untraced_wall
        elif head in spans and kind in ("s", "self_s"):
            values[name] = _median(
                [s["names"].get(head, {}).get(kind, 0.0) for s in summaries])
        elif head in spans and kind == "calls":
            # counts repeat exactly, or the run is reported not correct
            values[name] = summaries[0]["names"].get(head, {}).get(
                "calls", 0) if summaries else 0
        elif name in counts:
            values[name] = (summaries[0]["counts"].get(name, 0)
                            if summaries else 0)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return values


def diagnostics(traced):
    """Median coverage and contrast shares of the traced passes."""
    summaries = [p["summary"] for p in traced if p["summary"]]
    return {key: _median([s[key] for s in summaries]) for key in DIAGNOSTICS}


def run(workload_name, seed, seconds, trace):
    """Drive the passes; returns (result line dict, record dict)."""
    import workloads

    t_launch = time.monotonic()
    units = metric_units(trace)
    env = child_env()
    os.makedirs(RECORD_DIR, exist_ok=True)
    verify_program(env)
    sys.path.insert(0, SRC)     # the checks read artifacts with cmclab
    workload = workloads.WORKLOADS[workload_name](seed)
    imports = import_times(env) if trace else None
    probe_before = drift_probe()

    passes = []
    t_begin = time.monotonic()
    while True:
        passes.append(run_pass(workload, env, trace and len(passes) % 2 == 1))
        now = time.monotonic()
        if passes[-1]["timed_out"] or now - t_launch > LAUNCH_LIMIT_S:
            break
        n_traced = sum(p["trace"] for p in passes)
        if now - t_begin >= seconds and (not trace or n_traced >= 2):
            break
    t_measured = time.monotonic() - t_begin
    probe_after = drift_probe()

    attempted = len(passes) * len(workload.invocations)
    failed = sum(f is not None for p in passes for f in p["failures"])
    timed = [p for p in passes if p["wall_s"] is not None]
    traced = [p for p in timed if p["trace"]]
    untraced = [p for p in timed if not p["trace"]]
    mismatches = []
    if trace:
        mismatches = tracer.repeat_mismatches(
            [p["summary"] for p in traced])
        values = layer_metrics(units, traced, untraced, imports)
    else:
        values = {name: _median([p[name] for p in timed]) for name in units}
    correct = (bool(timed) and failed == 0 and not mismatches
               and (not trace or len(traced) >= 2))
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    first_digests = passes[0]["digests"]
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "measured_s": t_measured, "host": host_info(),
        "drift_probe": {"before": probe_before, "after": probe_after},
        "invocations": workload.invocations,
        "passes": [{k: v for k, v in p.items() if k != "digests"}
                   for p in passes],
        "digests": first_digests,
        "digests_stable": all(p["digests"] == first_digests
                              for p in passes),
        "repeat_mismatches": mismatches,
        "quartiles": {name: quartiles([p[name] for p in untraced])
                      for name in metric_units(False)},
        "imports": imports,
        "diagnostics": diagnostics(traced) if trace else None,
        "result": line,
    }
    return line, record


def record_path(workload, seed, trace):
    return os.path.join(RECORD_DIR,
                        f"{workload}_seed{seed}_trace{int(trace)}.json")


def report(line, record):
    """Human summary lines; the result line itself is printed last."""
    passes = record["passes"]
    print(f"clibench {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])}: {len(passes)} passes in "
          f"{record['measured_s']:.1f} s, {line['attempted']} invocations, "
          f"{line['failed']} failed")
    for name, (q1, q2, q3) in record["quartiles"].items():
        if q2 is not None:
            print(f"  {name:12s} median {q2:.4f}  quartiles {q1:.4f} "
                  f"{q3:.4f}")
    probe = record["drift_probe"]
    print("  drift probe python/numpy s: before "
          f"{probe['before']['python_loop_s']:.4f}/"
          f"{probe['before']['numpy_loop_s']:.4f} after "
          f"{probe['after']['python_loop_s']:.4f}/"
          f"{probe['after']['numpy_loop_s']:.4f}")
    for i, p in enumerate(passes):
        for j, f in enumerate(p["failures"]):
            if f is not None:
                print(f"  pass {i} invocation {j} failed: {f}")
    if record["diagnostics"]:
        print("  trace shares of pass time: " + ", ".join(
            f"{k} {v:.3f}" for k, v in record["diagnostics"].items()))
    if record["repeat_mismatches"]:
        print(f"  traced counts differ between passes: "
              f"{', '.join(record['repeat_mismatches'])}")
    if not record["digests_stable"]:
        print("  artifact digests differ between passes")
    path = record_path(record["workload"], record["seed"], record["trace"])
    print(f"  record: {os.path.relpath(path, ROOT)}")


def main(argv=None):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, record = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except ProgramMissing as e:
        print(f"clibench: {e}", file=sys.stderr)
        return 2
    with open(record_path(args.workload, args.seed, args.trace), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(line, record)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
