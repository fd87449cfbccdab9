#!/usr/bin/env bash
# Regenerates every golden output file (tests/golden/*.txt) from a build
# of the current tree: re-runs each ctest entry labelled `golden` with
# -DUPDATE=ON, which writes the filtered output instead of comparing it.
# Commit the regenerated files with the change that moved the outputs;
# their diff is the evidence of what moved.
#
# Usage: scripts/update_golden.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" -L golden --show-only=json-v1 | python3 -c '
import json, subprocess, sys

for test in json.load(sys.stdin)["tests"]:
    cmd = test["command"]
    subprocess.run(cmd[:1] + ["-DUPDATE=ON"] + cmd[1:], check=True)
'
