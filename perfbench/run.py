#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 30 --trace 0

Run it from the repository root. The first call configures and builds the
library and the binary (Release) under .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr. A traced run
(--trace 1) also writes its Chrome trace to .bench_build/traces/.

The binary's last stdout line is the JSON result. It is checked against the
metric lists in BENCHMARK.json and printed only if it matches; any failure
exits nonzero.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "perfbench")


def arg_value(args, flag):
    for i, arg in enumerate(args):
        if arg == flag and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return None


def check_result(line, traced):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        wanted = {m["name"]: m["unit"]
                  for m in spec["per_layer" if traced else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != wanted:
            fail("metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(wanted) - set(got))}, "
                 f"extra {sorted(set(got) - set(wanted))}, units "
                 f"{sorted(k for k in got if k in wanted and got[k] != wanted[k])}")


def main():
    args = sys.argv[1:]
    binary = build()
    traced = arg_value(args, "--trace") == "1"
    if traced and arg_value(args, "--trace-out") is None:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        name = f"{arg_value(args, '--workload')}-seed{arg_value(args, '--seed')}.json"
        args += ["--trace-out", os.path.join(traces, name)]
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}", proc.returncode or 1)
    check_result(lines[-1], traced)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
