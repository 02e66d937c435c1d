#!/usr/bin/env python3
"""Exact-count check: counts that must repeat between same-seed traced runs.

    python3 perfbench/exact_counts.py [--seed N] [--workloads a,b]

Run it from the repository root. Runs each workload's traced run twice with
one seed and fails (exit 1) if any count below differs: the simulator and the
update layer are deterministic, so a difference means nondeterminism, not
noise.
"""
import argparse
import sys

from steadiness import load_spec, run_once

EXACT = {
    "fleet_solve": ["fleet.makespan_cycles", "fleet.messages",
                    "fleet.comm_bytes", "sim.cycles_per_op",
                    "sim.instructions_per_op", "sim.dram_bytes_per_op",
                    "sim_ms_per_op", "fleet.makespan_vs_k1"],
    "update_mix": ["update.rows_releveled", "serve.epoch_swaps",
                   "update.cone_fraction", "update.delta_log_bytes"],
}


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(EXACT))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        first, second = (run_once(spec, workload, args.seed, trace=1)["metrics"]
                         for _ in range(2))
        for name in EXACT[workload]:
            a, b = first[name]["value"], second[name]["value"]
            same = a == b
            ok = ok and same
            print(f"{workload:<12} {name:<26} {a!r:>24} {b!r:>24} "
                  f"{'same' if same else 'DIFFERENT'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
