#!/usr/bin/env bash
# Perf-regression harness: build the Release tree, run the micro_perf
# google-benchmark suite with JSON output into
# <build-dir>/BENCH_micro.json, and compare it against the
# BENCH_micro.json baseline committed at HEAD. A gate run leaves the
# committed baseline untouched, whatever its gates decide.
#
# Usage: scripts/bench.sh [--no-compare] [build-dir]
#
#   --no-compare   Re-baseline: skip the baseline diff and copy the fresh
#                  run over BENCH_micro.json at the repo root (run,
#                  inspect, then commit the new BENCH_micro.json). The
#                  overhead and footprint gates still run.
#
# Environment:
#   BENCH_TOLERANCE   Allowed fractional slowdown before a benchmark is
#                     flagged as a regression (default 0.30 — generous,
#                     because CI boxes and laptops are noisy).
#   BENCH_MIN_TIME    --benchmark_min_time value (default 0.1).
#
# Exit status is non-zero if any benchmark present in both the baseline
# and the fresh run slowed down by more than BENCH_TOLERANCE, or if the
# k=48 scale_smoke footprint gate (peak RSS / wall time) fails.
#
# A baseline recorded from a debug build is not comparable to a Release
# run (every ratio would read as a huge "improvement", masking real
# regressions), so such baselines are rejected: the comparison is
# skipped with a loud warning instead of gating on garbage. Fresh
# recordings get the build tree's CMAKE_BUILD_TYPE stamped into the
# JSON as context.sbk_build_type; for baselines predating that stamp
# the check falls back to google-benchmark's own
# context.library_build_type (which here reflects the *system*
# benchmark library and reads "debug" even under -O2 — hence the
# explicit stamp).
set -euo pipefail
cd "$(dirname "$0")/.."

REBASELINE=0
if [ "${1:-}" = "--no-compare" ]; then
  REBASELINE=1
  shift
fi
COMPARE=$((1 - REBASELINE))

BUILD="${1:-build-bench}"
TOL="${BENCH_TOLERANCE:-0.30}"
MIN_TIME="${BENCH_MIN_TIME:-0.1}"

cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD" --target micro_perf

FRESH="$BUILD/BENCH_micro.json"
BASE="$BUILD/BENCH_micro.base.json"
"$BUILD"/bench/micro_perf \
  --benchmark_format=json \
  --benchmark_min_time="$MIN_TIME" \
  >"$FRESH"

# Stamp the recording with the build tree's actual CMAKE_BUILD_TYPE so
# the debug-baseline rejection below can trust future baselines.
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt")
python3 - "$BUILD_TYPE" "$FRESH" <<'EOF'
import json, sys
path = sys.argv[2]
with open(path) as f:
    doc = json.load(f)
doc["context"]["sbk_build_type"] = (sys.argv[1] or "unknown").lower()
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF

if [ "$COMPARE" = 1 ]; then
  if ! git show HEAD:BENCH_micro.json >"$BASE" 2>/dev/null; then
    echo "bench.sh: no committed BENCH_micro.json baseline at HEAD;" \
         "skipping comparison" >&2
    COMPARE=0
  fi
fi

if [ "$COMPARE" = 1 ]; then
  BASE_BUILD_TYPE=$(python3 -c 'import json, sys
ctx = json.load(open(sys.argv[1])).get("context", {})
print(ctx.get("sbk_build_type",
              ctx.get("library_build_type", "unknown")).lower())' \
    "$BASE")
  if [ "$BASE_BUILD_TYPE" = "debug" ]; then
    echo "bench.sh: *** WARNING *** committed BENCH_micro.json was" \
         "recorded from a DEBUG build; its timings are not comparable" \
         "to this Release run. Skipping the regression gate." \
         "Re-baseline with scripts/bench.sh --no-compare and commit the" \
         "refreshed BENCH_micro.json." >&2
    COMPARE=0
  fi
fi

STATUS=0
if [ "$COMPARE" = 1 ]; then
  python3 - "$TOL" "$BASE" "$FRESH" <<'EOF' || STATUS=$?
import json, sys

tol = float(sys.argv[1])
with open(sys.argv[2]) as f:
    base = {b["name"]: b for b in json.load(f)["benchmarks"]}
with open(sys.argv[3]) as f:
    fresh = {b["name"]: b for b in json.load(f)["benchmarks"]}

regressions = []
for name, b in fresh.items():
    old = base.get(name)
    if old is None:
        print(f"  new       {name}: {b['real_time']:.0f} {b['time_unit']}")
        continue
    ratio = b["real_time"] / old["real_time"] if old["real_time"] else 1.0
    tag = "ok"
    if ratio > 1.0 + tol:
        tag = "REGRESSED"
        regressions.append((name, ratio))
    elif ratio < 1.0 / (1.0 + tol):
        tag = "improved"
    print(f"  {tag:9s} {name}: {old['real_time']:.0f} -> "
          f"{b['real_time']:.0f} {b['time_unit']} ({ratio:.2f}x)")
for name in base:
    if name not in fresh:
        print(f"  missing   {name}: present in baseline, absent in run")

if regressions:
    print(f"bench.sh: {len(regressions)} benchmark(s) regressed beyond "
          f"{tol:.0%} tolerance:", file=sys.stderr)
    for name, ratio in regressions:
        print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
    sys.exit(1)
print("bench.sh: no regressions beyond tolerance")
EOF
fi

# Disabled-observability overhead gate: the same fluid-sim workload with
# a disabled recorder and sampler attached must stay within the
# regression tolerance of the untouched run (the hooks are supposed to
# cost one branch each).
python3 - "$TOL" "$FRESH" <<'EOF' || STATUS=$?
import json, sys

tol = float(sys.argv[1])
with open(sys.argv[2]) as f:
    fresh = {b["name"]: b for b in json.load(f)["benchmarks"]}
ref = fresh.get("BM_FluidSimCoflowTrace/60")
dis = fresh.get("BM_FlightRecorderDisabled/60")
if ref is None or dis is None:
    print("bench.sh: recorder-overhead pair not present; skipping gate")
    sys.exit(0)
ratio = dis["real_time"] / ref["real_time"] if ref["real_time"] else 1.0
print(f"bench.sh: disabled-recorder overhead {ratio:.2f}x of baseline "
      f"workload (tolerance {1.0 + tol:.2f}x)")
if ratio > 1.0 + tol:
    print("bench.sh: disabled flight recorder adds measurable overhead",
          file=sys.stderr)
    sys.exit(1)
EOF

# SLO-engine overhead gate: the full service-ingest workload with the
# live SLO engine enabled (streaming histogram per message, burn-rate
# windows at batch boundaries, periodic health snapshots) must stay
# within the regression tolerance of the engine-off run. A disabled
# engine costs one branch per message (the flight-recorder gate style),
# so the engine-off run doubles as the zero-overhead reference.
python3 - "$TOL" "$FRESH" <<'EOF' || STATUS=$?
import json, sys

tol = float(sys.argv[1])
with open(sys.argv[2]) as f:
    fresh = {b["name"]: b for b in json.load(f)["benchmarks"]}
ref = fresh.get("BM_ServiceIngest")
slo = fresh.get("BM_ServiceIngestSloEnabled")
if ref is None or slo is None:
    print("bench.sh: slo-overhead pair not present; skipping gate")
    sys.exit(0)
ratio = slo["real_time"] / ref["real_time"] if ref["real_time"] else 1.0
print(f"bench.sh: slo-enabled ingest {ratio:.2f}x of engine-off run "
      f"(tolerance {1.0 + tol:.2f}x)")
if ratio > 1.0 + tol:
    print("bench.sh: live SLO engine adds measurable ingest overhead",
          file=sys.stderr)
    sys.exit(1)
EOF

# Peak-RSS footprint gate: the k=48 failure storm must stay inside the
# committed memory and wall-time budgets (see check.sh --scale-smoke for
# the budget rationale). A/B identity is skipped here — it is a
# correctness property owned by ctest and check.sh, not a perf gate.
cmake --build "$BUILD" --target scale_smoke
if ! "$BUILD"/examples/scale_smoke 48 --storm-pods=48 --per-pod=64 \
    --max-rss-mb=256 --max-seconds=60 --skip-ab; then
  echo "bench.sh: scale_smoke footprint gate failed" >&2
  STATUS=1
fi

if [ "$REBASELINE" = 1 ]; then
  cp "$FRESH" BENCH_micro.json
  echo "bench.sh: re-baselined BENCH_micro.json from $FRESH"
fi
exit "$STATUS"
