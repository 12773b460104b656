#!/usr/bin/env python3
"""Records one trajectory entry: sets of runs of every gated workload.

    python3 perfbench/trajectory.py [--sets 2] [--seeds 10] [--first-seed 101] [--append]

Runs `perfbench/run.py` once per seed for each workload in BENCHMARK.json,
and repeats that whole set `--sets` times with the same seeds. For each
set it prints, per end-to-end metric, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (interquartile
range over the median) beside the metric's bound; for each later set,
how far each median moved from the first set's, in the metric's worse
direction, beside the same bound. With `--append` the entry is added to
perfbench/trajectory.json. Exits non-zero if a run fails, a spread
exceeds its bound, or a median got worse than the first set's by more
than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} failed")
    lines = done.stdout.splitlines()
    context = next(json.loads(l[len("# context "):]) for l in lines
                   if l.startswith("# context "))
    return context, json.loads(lines[-1])


def summarize(bench, values):
    """Median, quartiles and spread of each end-to-end metric of one set."""
    summary = {}
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        summary[metric["name"]] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": round(spread, 4), "bound": metric["bound"],
            "within": spread <= metric["bound"]}
    return summary


def compare(bench, first, later):
    """How far each median of a later set is worse than the first set's."""
    out = {}
    for metric in bench["end_to_end"]:
        a, b = first[metric["name"]]["median"], later[metric["name"]]["median"]
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        out[metric["name"]] = {"first_median": a, "median": b,
                               "worse_by": round(worse, 4), "bound": metric["bound"],
                               "within": worse <= metric["bound"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    entry = {"date": time.strftime("%Y-%m-%d"), "run_seconds": bench["run_seconds"],
             "seeds": seeds, "sets": [], "across_sets": []}
    ok = True
    for k in range(args.sets):
        workloads = {}
        for workload in [w["name"] for w in bench["workloads"]]:
            values, failed = {}, 0
            for seed in seeds:
                context, result = run(workload, seed, bench["run_seconds"])
                failed += result["failed"]
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"set {k + 1} {workload} seed {seed}: " + ", ".join(
                    f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
            entry.update(commit=context["commit"], host_cores=context["host_cores"],
                         fleet=context["fleet"], durability=context["durability"])
            summary = summarize(bench, values)
            for name, m in summary.items():
                ok &= m["within"]
                print(f"  set {k + 1} {workload:13s} {name:20s} median {m['median']:10.4g} "
                      f"spread {m['spread']:.3f} bound {m['bound']}"
                      f"{'' if m['within'] else '  OVER'}")
            workloads[workload] = {"failed_operations": failed, **summary}
        entry["sets"].append({"workloads": workloads})
        if k > 0:
            first = entry["sets"][0]["workloads"]
            across = {w: compare(bench, first[w], workloads[w]) for w in workloads}
            for w, metrics in across.items():
                for name, m in metrics.items():
                    ok &= m["within"]
                    print(f"  set {k + 1} vs set 1 {w:13s} {name:20s} "
                          f"worse by {m['worse_by']:+.3f} bound {m['bound']}"
                          f"{'' if m['within'] else '  OVER'}")
            entry["across_sets"].append({"set": k + 1, "against": 1, "workloads": across})
    if args.append:
        path = os.path.join(HERE, "trajectory.json")
        trajectory = []
        if os.path.exists(path):
            with open(path) as f:
                trajectory = json.load(f)
        trajectory.append(entry)
        with open(path, "w") as f:
            json.dump(trajectory, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
