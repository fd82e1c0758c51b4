#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range as a share of the median)
against its bound in BENCHMARK.json. With --sets 2 it runs a second set on
the next seeds and reports how far each metric's median moved in its worse
direction between the sets, also against the bound.

    python3 perfbench/spread.py --workloads pb-truncated sampled-warm \\
        --seeds 10 --first-seed 100 [--sets 2] [--out runs.json]

Run from the repository root. Spreads at or above a third of the bound are
flagged; setup_s is reported but exempt from that check, as it is compared
by median only. Shifts at or above the bound are flagged for every metric.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(argv, capture_output=True, text=True, check=False)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n"
                 f"{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    digest = next((l for l in lines if l.startswith("digest:")), "")
    return json.loads(lines[-1]), digest


def run_set(bench, workload, seeds):
    runs = []
    for seed in seeds:
        res, digest = run(bench["command"], workload, seed, bench["run_seconds"])
        runs.append({"seed": seed, "digest": digest, **res})
        print(f"{workload} seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()), flush=True)
    return runs


def summarize(workload, k, runs, bounds):
    """Print one set's spreads; return (medians, ok)."""
    ok = all(r["correct"] and not r["failed"] for r in runs)
    print(f"--- {workload} set {k}: {len(runs)} seeds")
    medians = {}
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        medians[name] = med
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- >= bound/3"
        ok = ok and not flag
        print(f"  {name:<20} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:6.3f} bound {bound}{flag}")
    return medians, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    results = {}
    ok = True
    sets = []
    for k in range(args.sets):
        first = args.first_seed + k * args.seeds
        seeds = list(range(first, first + args.seeds))
        medians = {}
        for w in workloads:
            runs = run_set(bench, w, seeds)
            results.setdefault(w, []).append(runs)
            medians[w], set_ok = summarize(w, k + 1, runs, bounds)
            ok = ok and set_ok
        sets.append(medians)
    if len(sets) == 2:
        print("--- median shift, set 2 against set 1 (positive = worse)")
        for w in workloads:
            for name, bound in bounds.items():
                a, b = sets[0][w][name], sets[1][w][name]
                worse = (b - a) if better[name] == "lower" else (a - b)
                shift = worse / a if a else float("inf")
                flag = "  <-- >= bound" if shift >= bound else ""
                ok = ok and not flag
                print(f"  {w:<14} {name:<20} {a:<12.6g} -> {b:<12.6g} "
                      f"shift {shift:+7.3f} bound {bound}{flag}")
    if args.out:
        json.dump(results, open(args.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
