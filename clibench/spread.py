"""Run-to-run spread of the end-to-end metrics, for proving steadiness and
setting bounds.

Usage, from the root of a checkout:

    python3 clibench/spread.py --workload NAME [--workload NAME ...]
        --seeds 0-9 --seconds S

Runs clibench/run.py once per seed, one run after another.  For each
end-to-end metric it prints the median over the runs, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance over
the median, next to the metric's bound from BENCHMARK.json; a spread at or
above a third of the bound is flagged.  It also pools the pass times of all
runs and prints the tail: the highest percentile with at least ten passes
beyond it, and how many passes there were.  Last it prints the median of the
runs' host-drift probes, so a set measured in a slow host phase shows.  The
summary is written to clibench/_run/records/spread_<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench


def parse_seeds(text):
    """'0-9' or '0,3,5' into a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def tail(values):
    """(percentile, value, passes beyond it) for the highest percentile that
    has at least ten values beyond it, or None with fewer than 11 values."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, ordered[k - 1], n - k


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def bounds():
    path = os.path.join(bench.ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def run_seeds(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=bench.ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(bench.record_path(workload, seed, 0), "r",
                  encoding="utf-8") as fh:
            record = json.load(fh)
        runs.append({"seed": seed, "line": line,
                     "passes": [p for p in record["passes"]
                                if p["wall_s"] is not None],
                     "drift_probe": record["drift_probe"]})
        print(f"  seed {seed}: correct={line['correct']} "
              f"failed={line['failed']}/{line['attempted']} "
              + " ".join(f"{k}={v['value']:.4f}"
                         for k, v in line["metrics"].items()), flush=True)
    return runs


def summarize(runs, bound):
    out = {"runs": len(runs),
           "all_correct": all(r["line"]["correct"] for r in runs),
           "metrics": {}, "pass_tail": {}}
    for name in bench.metric_units(False):
        values = [r["line"]["metrics"][name]["value"] for r in runs]
        entry = spread(values)
        entry["bound"] = bound.get(name)
        out["metrics"][name] = entry
        pooled = [p[name] for r in runs for p in r["passes"]]
        t = tail(pooled)
        out["pass_tail"][name] = {
            "passes": len(pooled),
            "median": statistics.median(pooled),
            "percentile": t and t[0], "value": t and t[1],
            "beyond": t and t[2]}
    out["drift_probe"] = {
        key: statistics.median(r["drift_probe"][when][key] for r in runs
                               for when in ("before", "after"))
        for key in ("python_loop_s", "numpy_loop_s")}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 3:
        parser.error("need at least 3 seeds for quartiles")
    bound = bounds()
    for workload in args.workload:
        print(f"{workload}: {len(seeds)} runs of {args.seconds:g} s",
              flush=True)
        summary = summarize(run_seeds(workload, seeds, args.seconds), bound)
        for name, m in summary["metrics"].items():
            b = m["bound"]
            flag = ("" if b is None else
                    " (over the bound)" if m["iqr_over_median"] >= b else
                    " (over a third of the bound)"
                    if m["iqr_over_median"] >= b / 3 else "")
            print(f"  {name:12s} median {m['median']:.4f} quartiles "
                  f"{m['q1']:.4f} {m['q3']:.4f} spread "
                  f"{m['iqr_over_median']:.4f} bound {b}{flag}")
        for name, t in summary["pass_tail"].items():
            tail_text = ("fewer than 11 passes" if t["percentile"] is None
                         else f"p{t['percentile']:.1f} {t['value']:.4f} "
                              f"with {t['beyond']} beyond")
            print(f"  {name:12s} pooled {t['passes']} passes: median "
                  f"{t['median']:.4f}, {tail_text}")
        probe = summary["drift_probe"]
        print(f"  drift probe medians: python {probe['python_loop_s']:.4f} s,"
              f" numpy {probe['numpy_loop_s']:.4f} s")
        print(f"  all runs correct: {summary['all_correct']}")
        path = os.path.join(bench.RECORD_DIR, f"spread_{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
