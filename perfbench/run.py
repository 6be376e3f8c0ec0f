#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

<name> is lora_sweep, stream_concurrent, serve_mix or ota_fleet; "all" runs
the four in turn and prints every metric by name and unit.

The first run configures and builds perfbench/ (the simulator libraries
from src/ plus the benchmark program) under $CARGO_TARGET_DIR, or
.bench_build/ when that is unset; later runs rebuild only what changed.
The benchmark's stdout is passed through; its last line is the result
JSON. Traced runs also write <workload>.layers.txt and
<workload>.trace.json (Chrome/Perfetto) under <build dir>/perfbench/out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("lora_sweep", "stream_concurrent", "serve_mix", "ota_fleet")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, what):
    """Run a build step with its output on stderr; fail on a non-zero exit."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode})")


def build(bench_dir, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [bench_dir]:
            shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", jobs], "build")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, args, out_dir):
    """Run one workload; return its informational lines and result."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"{workload} exited with {proc.returncode}")

    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload}: last line is not JSON")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        fail("metrics differ from BENCHMARK.json: " +
             str(sorted(set(result["metrics"]) ^ expected)))
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=4,
                        help="worker threads (digests must not depend on it)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.threads < 1:
        fail("--seed must be >= 0, --seconds > 0 and --threads >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are not next to perfbench/")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(bench_dir, build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload != "all":
        lines, result = run_workload(binary, args.workload, args, out_dir)
        for line in lines:
            print(line)
        print(json.dumps(result, separators=(",", ":")))
        return

    # Every workload in turn: each metric printed by name and unit, then
    # one combined result whose metric names carry the workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run_workload(binary, workload, args, out_dir)
        for line in lines:
            print(line)
        for name, m in result["metrics"].items():
            print(f"{workload:18} {name:38} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined, separators=(",", ":")))


if __name__ == "__main__":
    main()
