#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of one build.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Run it from the repository root. Every run lasts BENCHMARK.json's
run_seconds. For every run index i it runs each workload once for set A
(seed i) and once for set B (seed runs+i), so slow phases of the host hit
both sets alike. For each workload and end-to-end metric it prints each set's
median and quartiles, the spread (IQR / median) and whether the sets agree
within the metric's bound from BENCHMARK.json:

  * each set's spread is within the bound, and
  * set B's median differs from set A's by at most the bound, either way.

"steady" marks spreads under a third of the bound, the margin the benchmark
aims for. Exits 1 if any metric disagrees or any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace=0):
    """One benchmark run; returns its JSON result (raises on failure)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed ops")
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values = {(w, s): {} for w in workloads for s in "AB"}
    for i in range(args.runs):
        for w in workloads:
            for s, seed in (("A", 1 + i), ("B", 1 + args.runs + i)):
                result = run_once(spec, w, seed)
                for name, metric in result["metrics"].items():
                    values[(w, s)].setdefault(name, []).append(metric["value"])
                print(f"run {i + 1}/{args.runs} {w} set {s} seed {seed}: " +
                      " ".join(f"{k}={v['value']:.6g}"
                               for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':<12} {'metric':<16} {'set':<3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {s: summarize(values[(w, s)][name]) for s in "AB"}
            for s in "AB":
                median, q1, q3, spread = stats[s]
                if spread > bound:
                    verdict, ok = "TOO WIDE", False
                else:
                    verdict = "steady" if spread < bound / 3 else "within bound"
                print(f"{w:<12} {name:<16} {s:<3} {median:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.2%} {bound:6.2f} {verdict}")
            shift = (stats["B"][0] - stats["A"][0]) / stats["A"][0]
            agree = abs(shift) <= bound
            ok = ok and agree
            print(f"{w:<12} {name:<16} B vs A median: {shift:+.2%} "
                  f"({'agree' if agree else 'DISAGREE'})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
