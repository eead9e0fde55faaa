#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark from source into .bench_build/perfbench
(the first run configures and compiles; later runs only check the build is
current), runs the benchmark's self-tests, then one workload. The workload's
report goes to standard output; its last line is one JSON object with the
keys correct, attempted, failed and metrics. The metrics are the end-to-end
set of BENCHMARK.json with --trace 0 and its per-layer set with --trace 1.
A traced run also writes its spans to .bench_build/perfbench/spans-*.json.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
# A run must end within 180 s; the first one also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr, keeping stdout for
    the report."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    started = time.monotonic()
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], BUILD_TIMEOUT_S)
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    run_logged(["cmake", "--build", BUILD, "-j", "4"], remaining)
    run_logged([BUILD / "perfbench_tests"], 60)


def load_contract():
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    contract = load_contract()
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build()

    spans = BUILD / f"spans-{args.workload}-{args.seed}.json"
    cmd = [BUILD / "perfbench", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"workload {args.workload} printed no result "
             f"(exit {proc.returncode})")

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} missing or not in {spec['unit']}")
        if "bound" in spec and not got["value"] > 0:
            fail(f"end-to-end metric {spec['name']} is {got['value']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
