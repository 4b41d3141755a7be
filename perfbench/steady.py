#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same build.

    python3 perfbench/steady.py

Run from the repository root. Each of two sets runs every workload of
BENCHMARK.json ten times, each run in a fresh process with its own seed
(set k uses seeds k*1000+1 .. k*1000+10), through perfbench/run.py with
the run length from BENCHMARK.json. For every end-to-end metric on
every workload it prints each set's median and quartiles, the spread
(interquartile distance over the median) and whether the sets agree
within the metric's bound: every spread within the bound, the second
set's median not worse than the first's by more than the bound, and the
same share of failed operations in both sets. Exits 1 when they do not
agree or a run fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    # results[workload][set] = list of result objects
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = (s + 1) * 1000 + i + 1
                result = run_once(w, seed, bench["run_seconds"])
                results[w][s].append(result)
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)

    agree = True
    print()
    print(f"{'workload':14} {'metric':14} {'set':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        shares = [sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs) for runs in results[w]]
        if any(s != shares[0] for s in shares):
            agree = False
            print(f"{w}: failed shares differ between sets: {shares}")
        if not all(r["correct"] for runs in results[w] for r in runs):
            agree = False
            print(f"{w}: a run reported incorrect output")
        for name, spec in bounds.items():
            sets = [summarize([r["metrics"][name]["value"] for r in runs])
                    for runs in results[w]]
            bound = spec["bound"]
            lower = spec["better"] == "lower"
            first = sets[0]["median"]
            for k, stats in enumerate(sets):
                notes = []
                if stats["spread"] > bound:
                    notes.append("spread over bound")
                if k > 0:
                    worse = ((stats["median"] - first) / first if lower
                             else (first - stats["median"]) / first)
                    if worse > bound:
                        notes.append(f"median {worse:+.1%} worse")
                ok = not notes
                agree = agree and ok
                print(f"{w:14} {name:14} {k + 1:>3} {stats['median']:11.5g} "
                      f"{stats['q1']:11.5g} {stats['q3']:11.5g} "
                      f"{stats['spread']:7.2%} {bound:6.2f}  "
                      f"{'ok' if ok else '; '.join(notes)}")
    print("\nsets agree within the bounds" if agree
          else "\nsets DO NOT agree within the bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
