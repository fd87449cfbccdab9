#!/usr/bin/env bash
# Full local verification: configure, build, run every test, then run
# every experiment harness (the micro-benchmarks in reduced mode).
#
# Usage: scripts/check.sh [--tsan | --asan | --bench-smoke | --chaos-smoke |
#        --trace-smoke | --baselines-smoke | --scale-smoke |
#        --service-smoke | --failover-smoke | --slo-smoke] [build-dir]
#
#   --tsan         Configure a ThreadSanitizer build (-DSBK_SANITIZE=thread,
#                  default dir build-tsan) and run the concurrency-heavy
#                  sweep, service and trace suites under it instead of
#                  the full harness sweep (trace_test holds the
#                  all-sinks chaos sweep at 1/4/8 threads).
#   --asan         Configure an ASan+UBSan build
#                  (-DSBK_SANITIZE=address,undefined, default dir
#                  build-asan) and run the fault-injection, control-plane,
#                  simulator, detector, routing, baselines, fabric,
#                  leaf-spine, circuit-switch, two-level-table, table-walk,
#                  service, incremental max-min, property, observability,
#                  trace and util suites under it — the chaos paths exercise
#                  the allocation-heavy
#                  recovery machinery that ASan watches best, the event
#                  queue indexes its slot arena through a free list, the
#                  fluid simulator swap-erases per-slot flow lists and
#                  keeps indexed finish-time heaps and a tombstoned
#                  active set (driven under both max-min modes by the
#                  incremental max-min and fluid-conservation suites),
#                  the routers build structural paths by index, both
#                  fabrics run the shared device pool's fail-over and
#                  pool return under the §4.3 table walker, the fabric
#                  grounds link faults and lists the switch devices the
#                  repair crew walks, the service dispatch path
#                  drives both, and the observability and trace suites
#                  drive the telemetry sampler, the recorder's ring and
#                  scenario-ordered merge, and the observed chaos soak.
#                  The util suite grows and wraps the ring buffer,
#                  relocates the flat key map and feeds the CLI parsers
#                  untrusted argv.
#   --bench-smoke  Build the Release tree (default dir build-bench) and run
#                  micro_perf for a handful of iterations per benchmark —
#                  a fast "do the benchmarks still run" check, not a
#                  measurement. For real numbers use scripts/bench.sh.
#   --chaos-smoke  Build examples/chaos_soak and run a fixed-seed 50-
#                  scenario soak (deterministic, ~1 s); exits non-zero on
#                  any invariant violation. Then a 20-scenario soak with
#                  every observer at once (--slo --health --trace): its
#                  SLO line must name the p95 objective that the default
#                  5% error budget implies, its trace must pass the
#                  Perfetto schema check, every scenario track of the
#                  trace must carry "telemetry" counters for all six
#                  chaos probes, and its health log must hold one
#                  snapshot per scenario.
#   --baselines-smoke
#                  Build examples/baseline_matrix and race all five
#                  protection strategies (ShareBackup, F10, ECMP+global
#                  reroute, SPIDER, backup rules) through a small
#                  fixed-seed churn + coflow run, export the comparison
#                  CSV, and validate its schema. baseline_matrix itself
#                  exits non-zero if any strategy ever returned an
#                  invalid or dead path.
#   --scale-smoke  Build examples/scale_smoke (Release) and run the
#                  datacenter-scale gate: first an A/B check that the
#                  incremental max-min allocator reproduces the full
#                  re-solve bit-for-bit, then a k=48 fat-tree failure
#                  storm (27,648 hosts, 3,072 flows) whose peak RSS and
#                  wall time are asserted against committed budgets.
#   --service-smoke
#                  Build examples/service_soak (Release) and run the
#                  always-on controller service gate: a 100k+-report
#                  stream replayed through the ControllerService with
#                  throughput, p99 decision-latency, and peak-RSS
#                  bounds asserted, plus a cross-thread determinism
#                  check (inline / 1 / 8 producer threads must produce
#                  bit-identical fingerprints). Then build and run
#                  tests/alloc_test in the same tree: once warm, the
#                  service's dispatch path may make at most 0.25 heap
#                  allocations per processed message.
#   --failover-smoke
#                  Build examples/service_soak + sbk_trace (Release) and
#                  run the replicated-service chaos soak across all three
#                  scripted cluster scenarios (primary-crash,
#                  crash-during-election, total-death): zero lost failure
#                  reports across failovers, an empty headless backlog,
#                  every bounded headless window inside the election
#                  bound, and bit-identical fingerprints across
#                  inline/1/8 producer threads. The primary-crash run's
#                  trace is digested with `sbk_trace service` and must
#                  show the failovers. Also runs (reduced) in the default
#                  full-verification matrix.
#   --slo-smoke    Build examples/service_soak + sbk_trace (Release) and
#                  run the live SLO engine gates: a healthy run must
#                  raise zero burn-rate alerts and emit a health
#                  snapshot whose Prometheus text exposition passes a
#                  dependency-free validator; a scripted primary-crash
#                  run must breach the availability objective within one
#                  window of every cluster crash, clear every breach,
#                  stay bit-identical across inline/1/4/8 producers, and
#                  its trace must digest through `sbk_trace slo`. Also
#                  runs (reduced) in the default full-verification
#                  matrix.
#   --trace-smoke  Build examples/failure_drill + sbk_trace, record the
#                  drill into a flight-recorder trace, run `sbk_trace
#                  check` on it (schema, named events, non-negative
#                  durations, monotone recovery spans, no recovery
#                  before injection; non-zero exit on any failure) and
#                  validate the Perfetto trace_event JSON against a
#                  minimal schema. Also runs in the default
#                  full-verification matrix.
set -euo pipefail
cd "$(dirname "$0")/.."

# Configures build directory $1 (further arguments are passed to cmake).
# A fresh directory gets Ninja when it is installed; one configured
# before keeps its generator, which cmake refuses to switch (the tier-1
# `cmake -B build -S .` sets up build/ with Unix Makefiles).
configure() {
  local BUILD="$1"
  shift
  if [ -f "$BUILD/CMakeCache.txt" ] || ! command -v ninja >/dev/null; then
    cmake -B "$BUILD" -S . "$@"
  else
    cmake -B "$BUILD" -S . -G Ninja "$@"
  fi
}

run_trace_smoke() {
  local BUILD="$1"
  "$BUILD"/examples/failure_drill "$BUILD/recovery_timeline.csv" \
    "$BUILD/drill_trace.json" >/dev/null
  "$BUILD"/examples/sbk_trace check "$BUILD/drill_trace.json"
  "$BUILD"/examples/sbk_trace summary "$BUILD/drill_trace.json" >/dev/null
  check_trace_schema "$BUILD/drill_trace.json" trace-smoke
}

# Minimal Perfetto trace_event schema check of one trace JSON, which
# must also carry exported recovery spans.
check_trace_schema() {
  python3 - "$1" "$2" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents missing or empty"
for e in events:
    assert {"name", "cat", "ph", "pid", "tid", "ts"} <= e.keys(), \
        f"event missing required keys: {e}"
    assert e["ph"] in ("X", "i", "C"), f"unknown phase: {e}"
    if e["ph"] == "X":
        assert e.get("dur", -1) >= 0, f"span without duration: {e}"
assert any(e["cat"] == "recovery" for e in events), \
    "no recovery spans exported into the trace"
print(f"{sys.argv[2]}: Perfetto JSON OK ({len(events)} events)")
EOF
}

run_failover_smoke() {
  local BUILD="$1" REPEATS="$2"
  # The three scripted cluster scenarios; every run asserts the failover
  # gates (nothing lost, empty headless backlog, bounded windows) and
  # cross-thread fingerprint identity with crash messages in the stream.
  local s
  for s in primary-crash crash-during-election total-death; do
    "$BUILD"/examples/service_soak --replicas=3 --scenario="$s" \
      --repeats="$REPEATS" --min-reports=1000 --verify-threads \
      --trace="$BUILD/failover_trace_$s.json" >/dev/null
    echo "failover-smoke: scenario $s clean"
  done
  # The primary-crash trace must carry the failover story end to end.
  local digest
  digest="$("$BUILD"/examples/sbk_trace service \
    "$BUILD/failover_trace_primary-crash.json")"
  echo "$digest"
  echo "$digest" | grep -q "failovers" \
    || { echo "failover-smoke: no failover digest in trace" >&2; exit 1; }
}

run_slo_smoke() {
  local BUILD="$1" REPEATS="$2"
  # Healthy single-controller run: the live engine must stay quiet (the
  # soak itself exits non-zero on a false burn alert via slo_quiet_ok)
  # and the final health snapshot must be a well-formed Prometheus text
  # exposition — validated below without any client library.
  "$BUILD"/examples/service_soak --slo --health="$BUILD/health.prom" \
    >/dev/null
  python3 - "$BUILD/health.prom" <<'EOF'
import re, sys

name_re = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
label_re = re.compile(
    r'\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\}$')
types = {}
samples = 0
with open(sys.argv[1]) as f:
    for lineno, raw in enumerate(f, 1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            assert len(parts) == 4 and name_re.match(parts[2]), \
                f"line {lineno}: malformed HELP: {line}"
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            assert len(parts) == 4 and name_re.match(parts[2]), \
                f"line {lineno}: malformed TYPE: {line}"
            assert parts[3] in ("counter", "gauge", "histogram", "summary",
                                "untyped"), \
                f"line {lineno}: unknown type {parts[3]}"
            assert parts[2] not in types, \
                f"line {lineno}: duplicate TYPE for {parts[2]}"
            types[parts[2]] = parts[3]
            continue
        assert not line.startswith("#"), f"line {lineno}: stray comment"
        body, _, value = line.rpartition(" ")
        float(value)  # raises on a malformed sample value
        name, brace, labels = body.partition("{")
        assert name_re.match(name), f"line {lineno}: bad metric name {name}"
        if brace:
            assert label_re.match(brace + labels), \
                f"line {lineno}: malformed labels: {line}"
        family = name
        for t, suffix in (("counter", "_total"), ("counter", "_count")):
            if types.get(family) is None and family.endswith(suffix):
                family = family[: -len(suffix)]
        assert name in types or family in types, \
            f"line {lineno}: sample {name} has no TYPE declaration"
        samples += 1
assert types and samples, "exposition is empty"
assert any(t == "counter" for t in types.values()), "no counters exposed"
assert any(n.startswith("sbk_slo_") for n in types), "no sbk_slo_* families"
print(f"slo-smoke: Prometheus exposition OK "
      f"({len(types)} families, {samples} samples)")
EOF
  # Scripted failover: the soak's own gates assert a breach within one
  # window of every scripted cluster crash (slo_detect_ok), that every
  # breach clears (slo_clear_ok), and — with --verify-threads — that the
  # alert timeline and snapshot log are bit-identical across inline and
  # 1/4/8 producer threads. The trace must digest through `sbk_trace
  # slo` with at least one BREACH row.
  "$BUILD"/examples/service_soak --replicas=3 --scenario=primary-crash \
    --repeats="$REPEATS" --min-reports=1000 --slo --verify-threads \
    --trace="$BUILD/slo_trace.json" >/dev/null
  local digest
  digest="$("$BUILD"/examples/sbk_trace slo "$BUILD/slo_trace.json")"
  echo "$digest" | grep -q "BREACH" \
    || { echo "slo-smoke: no breach rows in slo digest" >&2; exit 1; }
  echo "slo-smoke: alert timeline digested ($(
    echo "$digest" | grep -c "BREACH") breach rows)"
}

TSAN=0
ASAN=0
BENCH_SMOKE=0
CHAOS_SMOKE=0
TRACE_SMOKE=0
BASELINES_SMOKE=0
SCALE_SMOKE=0
SERVICE_SMOKE=0
FAILOVER_SMOKE=0
SLO_SMOKE=0
if [ "${1:-}" = "--tsan" ]; then
  TSAN=1
  shift
elif [ "${1:-}" = "--asan" ]; then
  ASAN=1
  shift
elif [ "${1:-}" = "--bench-smoke" ]; then
  BENCH_SMOKE=1
  shift
elif [ "${1:-}" = "--chaos-smoke" ]; then
  CHAOS_SMOKE=1
  shift
elif [ "${1:-}" = "--trace-smoke" ]; then
  TRACE_SMOKE=1
  shift
elif [ "${1:-}" = "--baselines-smoke" ]; then
  BASELINES_SMOKE=1
  shift
elif [ "${1:-}" = "--scale-smoke" ]; then
  SCALE_SMOKE=1
  shift
elif [ "${1:-}" = "--service-smoke" ]; then
  SERVICE_SMOKE=1
  shift
elif [ "${1:-}" = "--failover-smoke" ]; then
  FAILOVER_SMOKE=1
  shift
elif [ "${1:-}" = "--slo-smoke" ]; then
  SLO_SMOKE=1
  shift
fi

if [ "$SLO_SMOKE" = 1 ]; then
  BUILD="${1:-build-bench}"
  configure "$BUILD" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD" --target service_soak sbk_trace
  run_slo_smoke "$BUILD" 30
  echo "slo-smoke: live SLO engine quiet when healthy, alerting on" \
    "scripted crashes, thread-invariant"
  exit 0
fi

if [ "$FAILOVER_SMOKE" = 1 ]; then
  BUILD="${1:-build-bench}"
  configure "$BUILD" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD" --target service_soak sbk_trace
  run_failover_smoke "$BUILD" 30
  echo "failover-smoke: replicated service survived all cluster scenarios"
  exit 0
fi

if [ "$SERVICE_SMOKE" = 1 ]; then
  BUILD="${1:-build-bench}"
  configure "$BUILD" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD" --target service_soak alloc_test
  # Gates: >= 100k failure reports processed (the stream carries
  # ~107k), >= 50k messages/s of wall throughput (the Release build
  # sustains several hundred k/s, so this only trips on an
  # order-of-magnitude regression), virtual p99 decision latency under
  # 50 ms (measured ~13 ms with the default saturation knobs), and
  # peak RSS under 256 MB (measured ~26 MB — bounded queues and the
  # capped audit log keep an always-on service flat). --verify-threads
  # re-runs the soak inline and with 1 and 8 producers and fails unless
  # every fingerprint is bit-identical.
  "$BUILD"/examples/service_soak --verify-threads \
    --min-reports=100000 --min-throughput=50000 \
    --max-p99-ms=50 --max-rss-mb=256
  "$BUILD"/tests/alloc_test
  echo "service-smoke: sustained report stream within gates," \
    "bit-identical across thread counts, allocation-free dispatch"
  exit 0
fi

if [ "$SCALE_SMOKE" = 1 ]; then
  BUILD="${1:-build-bench}"
  configure "$BUILD" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD" --target scale_smoke
  # Committed budgets: the k=48 storm peaks near 25 MB and well under a
  # second on a developer box (flat CSR adjacency + incremental
  # dirty-component solves), so these bounds only trip on an
  # order-of-magnitude blowup — an accidental return to per-event full
  # re-solves or hashed fabric state — never on machine noise.
  "$BUILD"/examples/scale_smoke 48 --storm-pods=48 --per-pod=64 \
    --max-rss-mb=256 --max-seconds=60
  echo "scale-smoke: k=48 failure storm within memory and time budgets"
  exit 0
fi

if [ "$BASELINES_SMOKE" = 1 ]; then
  BUILD="${1:-build-baselines}"
  configure "$BUILD"
  cmake --build "$BUILD" --target baseline_matrix
  # Fixed master seed: the matrix is bit-identical across runs and
  # thread counts, so any change here is a real behavior change.
  "$BUILD"/examples/baseline_matrix 4 1 8 1 0 \
    --csv="$BUILD/baseline_matrix.csv"
  python3 - "$BUILD/baseline_matrix.csv" <<'EOF'
import csv, sys

expected_header = ["strategy", "recovery_latency_s", "packet_loss",
                   "cct_slowdown", "table_entries", "table_per_switch",
                   "flows_probed", "flows_lost", "backup_fallback_frac"]
expected_strategies = ["sharebackup", "f10", "ecmp+global-reroute",
                       "spider-protect", "backup-rules"]
with open(sys.argv[1]) as f:
    reader = csv.DictReader(f)
    assert reader.fieldnames == expected_header, \
        f"unexpected header: {reader.fieldnames}"
    rows = list(reader)
assert [r["strategy"] for r in rows] == expected_strategies, \
    f"unexpected strategy rows: {[r['strategy'] for r in rows]}"
for r in rows:
    assert float(r["recovery_latency_s"]) > 0, f"no latency model: {r}"
    assert 0 <= float(r["packet_loss"]) <= 1, f"loss out of range: {r}"
    assert float(r["cct_slowdown"]) >= 1, f"slowdown below 1: {r}"
    assert int(r["flows_lost"]) <= int(r["flows_probed"]), f"bad tally: {r}"
by_name = {r["strategy"]: r for r in rows}
assert float(by_name["sharebackup"]["packet_loss"]) == 0, \
    "ShareBackup must leave no residual blackholes"
for proactive in ("sharebackup", "spider-protect", "backup-rules"):
    assert int(by_name[proactive]["table_entries"]) > 0, \
        f"{proactive} should pre-install table state"
for reactive in ("f10", "ecmp+global-reroute"):
    assert int(by_name[reactive]["table_entries"]) == 0, \
        f"{reactive} pre-installs nothing"
print(f"baselines-smoke: comparison CSV OK ({len(rows)} strategies)")
EOF
  echo "baselines-smoke: 5-strategy matrix clean"
  exit 0
fi

if [ "$TRACE_SMOKE" = 1 ]; then
  BUILD="${1:-build-trace}"
  configure "$BUILD"
  cmake --build "$BUILD" --target failure_drill sbk_trace
  run_trace_smoke "$BUILD"
  exit 0
fi

if [ "$BENCH_SMOKE" = 1 ]; then
  BUILD="${1:-build-bench}"
  configure "$BUILD" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD" --target micro_perf
  "$BUILD"/bench/micro_perf --benchmark_min_time=0.01
  echo "bench-smoke: micro_perf ran all benchmarks"
  exit 0
fi

if [ "$CHAOS_SMOKE" = 1 ]; then
  BUILD="${1:-build-chaos}"
  configure "$BUILD"
  cmake --build "$BUILD" --target chaos_soak
  # Fixed master seed: the soak is bit-identical across runs and thread
  # counts, so a violation here is a regression, never flakiness.
  "$BUILD"/examples/chaos_soak 50 1
  echo "chaos-smoke: 50 scenarios clean"
  # Every observer on one soak: they combine, and each output is whole.
  "$BUILD"/examples/chaos_soak 20 1 --slo \
    --health="$BUILD/chaos_health.json" --trace="$BUILD/chaos_trace.json" \
    | tee "$BUILD/chaos_observed.txt"
  grep -q "^slo: recovery_latency p95 < " "$BUILD/chaos_observed.txt" \
    || { echo "chaos-smoke: slo line does not name the p95 objective" >&2
         exit 1; }
  check_trace_schema "$BUILD/chaos_trace.json" chaos-smoke
  python3 - "$BUILD/chaos_trace.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
probes = {"queue.pending", "fabric.spare_pool", "net.live_link_frac",
          "controller.pending_diagnosis", "controller.pending_recoveries",
          "plane.reports_buffered"}
series = {}
for e in events:
    if e["cat"] == "telemetry":
        assert e["ph"] == "C", f"telemetry event is not a counter: {e}"
        series.setdefault(e["pid"], set()).add(e["name"])
tracks = sorted({e["pid"] for e in events})
assert tracks == list(range(20)), f"want one track per scenario: {tracks}"
for track in tracks:
    assert series.get(track) == probes, \
        f"track {track} telemetry series: {sorted(series.get(track, ()))}"
print(f"chaos-smoke: {len(tracks)} tracks carry all {len(probes)}"
      " telemetry series")
EOF
  python3 - "$BUILD/chaos_health.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    snaps = json.load(f)
tracks = [s["track"] for s in snaps]
assert tracks == list(range(20)), f"want one snapshot per scenario: {tracks}"
print(f"chaos-smoke: {len(snaps)} health snapshots, one per scenario")
EOF
  exit 0
fi

if [ "$ASAN" = 1 ]; then
  BUILD="${1:-build-asan}"
  configure "$BUILD" -DSBK_SANITIZE=address,undefined
  cmake --build "$BUILD" --target faultinject_test control_plane_test \
    sim_test control_test routing_test baselines_test fabric_test \
    leaf_spine_test circuit_switch_test two_level_test \
    table_forwarding_test service_test incremental_max_min_test \
    property_test obs_test trace_test util_test
  "$BUILD"/tests/faultinject_test
  "$BUILD"/tests/control_plane_test
  "$BUILD"/tests/sim_test
  "$BUILD"/tests/control_test
  "$BUILD"/tests/routing_test
  "$BUILD"/tests/baselines_test
  "$BUILD"/tests/fabric_test
  "$BUILD"/tests/leaf_spine_test
  "$BUILD"/tests/circuit_switch_test
  "$BUILD"/tests/two_level_test
  "$BUILD"/tests/table_forwarding_test
  "$BUILD"/tests/service_test
  "$BUILD"/tests/incremental_max_min_test
  "$BUILD"/tests/property_test
  "$BUILD"/tests/obs_test
  "$BUILD"/tests/trace_test
  "$BUILD"/tests/util_test
  echo "asan: faultinject_test + control_plane_test + sim_test +" \
    "control_test + routing_test + baselines_test + fabric_test +" \
    "leaf_spine_test + circuit_switch_test + two_level_test +" \
    "table_forwarding_test + service_test + incremental_max_min_test +" \
    "property_test + obs_test + trace_test + util_test clean"
  exit 0
fi

if [ "$TSAN" = 1 ]; then
  BUILD="${1:-build-tsan}"
  configure "$BUILD" -DSBK_SANITIZE=thread
  cmake --build "$BUILD" --target sweep_test service_test trace_test
  # Run the sweep/thread-pool suite directly: it is the code that owns
  # all cross-thread state, and TSan halts with a non-zero exit on the
  # first data race. The service suite adds the ingress-queue
  # producer/consumer machinery and the replicated-service failover
  # tests (multi-threaded submission across controller crashes); the
  # trace suite runs the observed chaos sweep with every sink at 4 and
  # 8 threads.
  "$BUILD"/tests/sweep_test
  "$BUILD"/tests/service_test
  "$BUILD"/tests/trace_test
  echo "tsan: sweep_test + service_test + trace_test clean"
  exit 0
fi

BUILD="${1:-build}"
configure "$BUILD"
cmake --build "$BUILD"
ctest --test-dir "$BUILD" --output-on-failure

# Trace smoke: the failure drill must run clean (it exits non-zero
# itself when an incident's spans run backwards, start before its
# injection, lack the injection or detection stage, or disagree with
# the §5.3 latency model), and its flight-recorder trace must pass
# `sbk_trace check` and the Perfetto schema check. The timeline CSV's
# bytes are pinned by the golden_failure_drill ctest entry.
run_trace_smoke "$BUILD"

# Failover smoke (reduced): the replicated service must survive every
# scripted cluster scenario without losing a report, and the trace must
# digest the failovers. The standalone --failover-smoke mode runs the
# same gates at Release scale.
run_failover_smoke "$BUILD" 10

# SLO smoke (reduced): the live engine must stay quiet on a healthy run,
# alert on scripted crashes, and expose a valid Prometheus snapshot. The
# standalone --slo-smoke mode runs the same gates at Release scale.
run_slo_smoke "$BUILD" 10

for b in "$BUILD"/bench/*; do
  # Harness binaries only: CMakeFiles/ is a directory, and directories
  # pass -x.
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "=== $name ==="
  if [ "$name" = micro_perf ]; then
    "$b" --benchmark_min_time=0.05
  else
    "$b"
  fi
done
