#!/usr/bin/env python3
"""Repeat bench_e2e runs and summarize their spread, or compare two builds.

Spread (one build):

    python3 bench/e2e/repeat.py --runs 5 [--workloads single_link,...]

runs every workload N times, seed i on repetition i (1-based), alternating the
workload order between repetitions, and prints for each metric its median,
quartiles and spread: (q3 - q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4). A metric whose spread exceeds its bound
in BENCHMARK.json is flagged; one above a third of its bound is marked
unsteady.

Compare (two build directories, each holding a built bench_e2e binary):

    python3 bench/e2e/repeat.py --runs 10 --compare PARENT_DIR CHANGE_DIR

runs parent and change pair by pair on the same seed, alternating which side
goes first, and prints per metric both medians and quartiles, the change in
median, and wins out of pairs (ties count for neither side). It marks a gain
when the change wins at least 9 of 10 pairs and the medians differ by more
than the parent's own quartile distance, and a regression when the change's
median is worse by more than the metric's bound.

Every run measures BENCHMARK.json's run_seconds. Without --compare the runs
go through bench/e2e/run.py, which builds the current checkout first. Run
from the repository root. No dependencies.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics.setdefault(m["name"], m)
    return spec, metrics


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"repeat.py: {' '.join(args)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"repeat.py: {' '.join(args)} failed a correctness gate")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def fmt(v):
    return f"{v:.6g}"


def summarize(workload, runs, metrics):
    print(f"\n== {workload}: {len(runs)} runs")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>7}  flag")
    flagged = 0
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, med, q3 = quartiles(values)
        s = spread(values)
        bound = metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            if s > bound:
                flag = "SPREAD > BOUND"
                flagged += 1
            elif s > bound / 3:
                flag = "unsteady (> bound/3)"
        print(f"{name:36} {fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} "
              f"{s:8.2%} {'' if bound is None else f'{bound:.1%}':>7}  "
              f"{flag}")
    return flagged


def compare(workload, pairs, metrics):
    print(f"\n== {workload}: {len(pairs)} pairs (parent vs change)")
    print(f"{'metric':36} {'parent':>12} {'change':>12} {'delta':>8} "
          f"{'wins':>7}  verdict")
    for name in pairs[0][0]:
        better = metrics.get(name, {}).get("better", "lower")
        bound = metrics.get(name, {}).get("bound")
        sign = 1.0 if better == "higher" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        p1, pm, p3 = quartiles(parent)
        _, cm, _ = quartiles(change)
        delta = (cm - pm) / abs(pm) if pm else 0.0
        verdict = ""
        if wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
            verdict = "gain"
        elif bound is not None and -sign * delta > bound:
            verdict = "REGRESSION"
        print(f"{name:36} {fmt(pm):>12} {fmt(cm):>12} {delta:8.2%} "
              f"{wins:>3}/{len(pairs):<3}  {verdict}")


def main():
    spec, metrics = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    if args.compare:
        sides = [[str(Path(d).resolve() / "bench_e2e")] for d in args.compare]
    else:
        sides = [[sys.executable, str(HERE / "run.py")]]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = 1 + i
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            got = [None] * len(sides)
            for k in (range(len(sides)) if i % 2 == 0
                      else reversed(range(len(sides)))):
                got[k] = run_once(sides[k], w, seed, spec["run_seconds"])
            results[w].append(got)
            print(f"repeat.py: {w} seed {seed} done", file=sys.stderr)

    flagged = 0
    for w in workloads:
        if args.compare:
            compare(w, results[w], metrics)
        else:
            flagged += summarize(w, [r[0] for r in results[w]], metrics)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
