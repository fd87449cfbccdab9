// sbk_perfbench: the repository benchmark (see perfbench/DESIGN.md).
//
//   sbk_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--trace-out=FILE]
//
// Runs one workload at one seed for S seconds, checks its outputs, and
// prints as its last stdout line one JSON object with the keys correct,
// attempted, failed and metrics. --trace=0 reports the end-to-end
// metrics; --trace=1 reports the per-layer metrics of every workload
// (layers a workload does not exercise read 0) and writes the span
// table to FILE. perfbench/run.py builds this binary and is the entry
// point; it also validates the result against BENCHMARK.json.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace pb = sbk::perfbench;

namespace {

/// Every per-layer metric with its unit, as listed in BENCHMARK.json
/// (run.py checks the two agree). A traced run reports all of them;
/// those of layers its workload does not exercise read 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayer[] = {
    {"trace.wall_s", "s"},
    {"trace.items", "count"},
    {"trace.unattributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"bench.check_s", "s"},
    {"faultinject.plan_s", "s"},
    {"faultinject.stream_s", "s"},
    {"sharebackup.fabric_build_s", "s"},
    {"service.build_s", "s"},
    {"control.dispatch_s", "s"},
    {"control.dispatch_count.node_report", "count"},
    {"control.dispatch_ns.node_report", "ns"},
    {"control.dispatch_count.link_report", "count"},
    {"control.dispatch_ns.link_report", "ns"},
    {"control.dispatch_count.probe", "count"},
    {"control.dispatch_ns.probe", "ns"},
    {"control.dispatch_count.operator", "count"},
    {"control.dispatch_ns.operator", "ns"},
    {"control.dispatch_count.cluster", "count"},
    {"control.dispatch_ns.cluster", "ns"},
    {"control.cluster_s", "s"},
    {"control.settle_s", "s"},
    {"obs.publish_s", "s"},
    {"obs.health_s", "s"},
    {"service.ingress_self_s", "s"},
    {"service.batches", "count"},
    {"service.stale_frac", "frac"},
    {"service.replayed_reports", "count"},
    {"service.shed_probes", "count"},
    {"control.failovers", "count"},
    {"control.retries", "count"},
    {"service.virtual_decision_p50_ms", "ms"},
    {"service.virtual_decision_p99_ms", "ms"},
    {"control.plane_build_s", "s"},
    {"faultinject.arm_s", "s"},
    {"faultinject.verify_s", "s"},
    {"sim.queue_run_s", "s"},
    {"sim.queue_events", "count"},
    {"sim.queue_ns_per_event", "ns"},
    {"routing.race_s", "s"},
    {"routing.route_calls.global_reroute", "count"},
    {"routing.route_ns.global_reroute", "ns"},
    {"routing.route_calls.f10", "count"},
    {"routing.route_ns.f10", "ns"},
    {"routing.route_calls.spider", "count"},
    {"routing.route_ns.spider", "ns"},
    {"routing.route_calls.backup_rules", "count"},
    {"routing.route_ns.backup_rules", "ns"},
    {"control.retries_per_failover", "frac"},
    {"control.reports_lost", "count"},
    {"control.reports_buffered", "count"},
    {"workload.trace_gen_s", "s"},
    {"sim.baseline_s", "s"},
    {"topo.build_s", "s"},
    {"routing.build_s", "s"},
    {"sim.fluid_self_s", "s"},
    {"net.actions_s", "s"},
    {"sim.allocation_rounds", "count"},
    {"sim.ns_per_allocation_round", "ns"},
    {"sim.recompute_skip_frac", "frac"},
};

int usage(const std::string& error) {
  std::fprintf(stderr, "sbk_perfbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: sbk_perfbench --workload=service-torrent|chaos-sweep|"
               "fig1c-reroute\n"
               "                     --seed=N --seconds=S --trace=0|1 "
               "[--trace-out=FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const sbk::cli::ParseResult args = sbk::cli::parse_args(
      argc, argv,
      {{"workload", true},
       {"seed", true},
       {"seconds", true},
       {"trace", true},
       {"trace-out", true}},
      /*max_positional=*/0);
  if (!args.ok()) return usage(args.error);
  const auto seed = sbk::cli::parse_int(args.value_of("seed").value_or(""));
  const auto seconds =
      sbk::cli::parse_double(args.value_of("seconds").value_or(""));
  const auto trace = sbk::cli::parse_int(args.value_of("trace").value_or(""));
  if (!args.has("workload") || !seed || *seed < 0 || !seconds ||
      *seconds <= 0.0 || *seconds > 600.0 || !trace ||
      (*trace != 0 && *trace != 1)) {
    return usage("--workload, --seed >= 0, --seconds in (0, 600] and "
                 "--trace 0|1 are required");
  }
  if (std::string(SBK_PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "sbk_perfbench: refusing to measure a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 SBK_PERFBENCH_BUILD_TYPE);
    return 2;
  }

  pb::Options opt;
  opt.workload = *args.value_of("workload");
  opt.seed = static_cast<std::uint64_t>(*seed);
  opt.seconds = *seconds;
  opt.trace = *trace == 1;
  opt.trace_out = args.value_of("trace-out").value_or("");

  pb::Outcome (*run)(const pb::Options&) = nullptr;
  if (opt.workload == "service-torrent") run = pb::run_service_torrent;
  if (opt.workload == "chaos-sweep") run = pb::run_chaos_sweep;
  if (opt.workload == "fig1c-reroute") run = pb::run_fig1c_reroute;
  if (run == nullptr) return usage("unknown workload " + opt.workload);

  // The soaks trip the watchdog by design; its per-trip WARN lines are
  // not benchmark output.
  sbk::Log::set_level(sbk::LogLevel::kError);
  std::cout << "stamp: " << pb::stamp_json(opt) << "\n";
  pb::Outcome out = run(opt);

  std::map<std::string, pb::Metric> metrics;
  for (const pb::Metric& m : out.metrics) metrics[m.name] = m;
  if (opt.trace) {
    for (const LayerMetric& m : kPerLayer) {
      if (!metrics.contains(m.name)) metrics[m.name] = {m.name, 0.0, m.unit};
    }
  }

  std::string json = "{\"correct\": ";
  json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(num, sizeof num, "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
