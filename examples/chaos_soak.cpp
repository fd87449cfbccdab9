// Chaos soak driver: randomized control-plane fault schedules across
// many seeds, with end-of-run robustness invariants checked per
// scenario. Exits non-zero when any invariant is violated, so CI can
// gate on it.
//
//   chaos_soak [scenarios] [master_seed] [k] [backups] [threads]
//              [--trace=out.json] [--slo] [--health=out.json]
//
// Defaults: 200 scenarios, seed 1, k=4 fat-tree, 1 backup per group,
// auto threads. A failing seed reproduces exactly with
// run_chaos_scenario (see src/faultinject/chaos_soak.hpp).
//
// --trace records a flight-recorder trace of every scenario (one
// Perfetto track per scenario index) viewable in chrome://tracing or
// ui.perfetto.dev. Each track also carries the scenario's telemetry:
// six probe series sampled every 10 ms as "telemetry" counters, which
// `sbk_trace incidents` windows around each recovery incident.
//
// --slo evaluates a recovery-latency SLO per scenario (paper target:
// sub-millisecond recovery) with burn-rate alerting, prints the merged
// attainment/alert totals, and --health=FILE dumps the end-state
// health snapshots as a JSON array (implies --slo). The observers
// combine: with --slo and --trace the SLO monitor's instants land in
// the trace too.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "faultinject/chaos_soak.hpp"
#include "util/cli.hpp"

namespace {

int usage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "chaos_soak: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: chaos_soak [scenarios] [master_seed] [k] [backups]"
               " [threads]\n"
               "                  [--trace=out.json] [--slo]"
               " [--health=out.json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const sbk::cli::ParseResult args = sbk::cli::parse_args(
      argc, argv,
      {{"trace", true}, {"slo", false}, {"health", true}},
      /*max_positional=*/5);
  if (!args.ok()) return usage(args.error);

  sbk::faultinject::ChaosSoakConfig cfg;
  const std::string trace_path = args.value_of("trace").value_or("");
  const bool slo = args.has("slo") || args.has("health");
  const std::string health_path = args.value_of("health").value_or("");
  auto arg = [&args](std::size_t i, long long fallback,
                     std::optional<long long>& slot) {
    if (args.positional.size() <= i) { slot = fallback; return; }
    slot = sbk::cli::parse_int(args.positional[i]);
  };
  std::optional<long long> scenarios, seed, k, backups, threads;
  arg(0, 200, scenarios);
  arg(1, 1, seed);
  arg(2, 4, k);
  arg(3, 1, backups);
  arg(4, 0, threads);
  if (!scenarios || !seed || !k || !backups || !threads) {
    return usage("positional arguments must be integers");
  }
  cfg.scenarios = static_cast<std::size_t>(*scenarios);
  cfg.master_seed = static_cast<std::uint64_t>(*seed);
  cfg.k = static_cast<int>(*k);
  cfg.backups_per_group = static_cast<int>(*backups);
  cfg.threads = static_cast<std::size_t>(*threads);
  std::cout << "running " << cfg.scenarios << " chaos scenarios (seed "
            << cfg.master_seed << ", k=" << cfg.k << ", n="
            << cfg.backups_per_group << ")...\n";
  // The merged recorder is big enough to keep every scenario's events
  // (the per-scenario rings already bound each contribution); its
  // storage is reserved only on the first merged event.
  sbk::obs::FlightRecorder trace(
      /*enabled=*/true, sbk::obs::FlightRecorder::kDefaultCapacity *
                            std::max<std::size_t>(cfg.scenarios, 1));
  sbk::obs::slo::SloMonitor monitor = sbk::faultinject::make_chaos_slo();
  sbk::obs::slo::HealthLog health;
  sbk::sweep::ObservedSinks sinks;
  if (!trace_path.empty()) sinks.trace = &trace;
  if (slo) {
    sinks.slo = &monitor;
    sinks.health = &health;
  }
  const sbk::faultinject::ChaosSoakReport report =
      sbk::faultinject::run_chaos_soak(cfg, sinks);

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    trace.write_trace_json(out);
    if (!out.good()) {
      std::cerr << "failed to write trace to " << trace_path << "\n";
      return 2;
    }
    std::cout << "wrote " << trace.events().size() << " trace events to "
              << trace_path << " (load in chrome://tracing)\n";
  }
  if (slo) {
    // The objective's quantile is the one its error budget implies: a
    // 5% budget lets 5% of recoveries exceed the bound, a p95 objective.
    namespace fi = sbk::faultinject;
    std::cout << "slo: recovery_latency p"
              << 100.0 * (1.0 - fi::kRecoveryBudget) << " < "
              << fi::kRecoveryLatencyBound * 1e3 << " ms-equivalent"
              << " (budget " << fi::kRecoveryBudget << "): attainment "
              << monitor.attainment(0) << " over "
              << monitor.good_total(0) + monitor.bad_total(0)
              << " recoveries, " << monitor.breach_count(0) << " breaches, "
              << monitor.clear_count(0) << " clears, "
              << monitor.alerts().size() << " alert events\n";
  }
  if (!health_path.empty()) {
    std::ofstream out(health_path);
    health.write_json(out);
    if (!out.good()) {
      std::cerr << "failed to write health snapshots to " << health_path
                << "\n";
      return 2;
    }
    std::cout << "wrote " << health.size() << " health snapshots to "
              << health_path << "\n";
  }
  std::cout << report.summary();
  return report.clean() ? 0 : 1;
}
