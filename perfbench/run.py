#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library sources in src/ plus the sbk_perfbench program) as
a Release build under $CARGO_TARGET_DIR (default .bench_build); later
calls only rebuild what changed. Build output goes to stderr.

sbk_perfbench's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. This script checks it against
BENCHMARK.json (every end-to-end metric with --trace 0, every per-layer
metric with --trace 1, with the listed units) and prints it as its own
last line; any mismatch, build failure or sbk_perfbench failure exits non-zero
without printing a result.
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
# A run may take up to 180 s; keep sbk_perfbench a margin below that.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(build_dir), "--parallel", jobs,
                       "--target", "sbk_perfbench"],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "sbk_perfbench"


def validate(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(wanted) - set(got))}, unlisted "
             f"{sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        if got[name].get("unit") != unit:
            fail(f"{name} has unit {got[name].get('unit')}, expected {unit}")
        if not isinstance(got[name].get("value"), (int, float)):
            fail(f"{name} has no numeric value")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir / "perfbench")
    trace_out = build_dir / "perfbench" / (
        f"trace-{args.workload}-seed{args.seed}.json")
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}"]
    if args.trace:
        command.append(f"--trace-out={trace_out}")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"sbk_perfbench did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"sbk_perfbench exited with code {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("sbk_perfbench's last line is not JSON")
    validate(result, spec, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
