// Trace tool: generate, inspect, and replay coflow traces in the
// library's text format (aligned with the public coflow-benchmark
// layout), so externally produced traces can drive the simulators.
//
//   $ ./build/examples/trace_tool gen  /tmp/trace.txt --racks=32 --coflows=50
//   $ ./build/examples/trace_tool info /tmp/trace.txt
//   $ ./build/examples/trace_tool run  /tmp/trace.txt --k=8
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "routing/ecmp.hpp"
#include "sim/fluid_sim.hpp"
#include "topo/fat_tree.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "workload/coflow_gen.hpp"
#include "workload/trace_io.hpp"

using namespace sbk;

namespace {

int cmd_gen(const std::string& path, const cli::IntFlags& flags) {
  workload::CoflowWorkloadParams wp;
  wp.racks = static_cast<int>(flags.get("racks"));
  wp.coflows = static_cast<std::size_t>(flags.get("coflows"));
  wp.duration = static_cast<double>(flags.get("duration"));
  Rng rng(static_cast<std::uint64_t>(flags.get("seed")));
  auto trace = workload::generate_coflows(wp, rng);
  workload::save_trace(path, wp.racks, trace);
  std::printf("wrote %zu coflows over %d racks to %s\n", trace.size(),
              wp.racks, path.c_str());
  return 0;
}

int cmd_info(const std::string& path) {
  workload::ParsedTrace parsed = workload::load_trace(path);
  Summary widths, bytes, arrivals;
  for (const auto& c : parsed.coflows) {
    widths.add(static_cast<double>(c.width()));
    bytes.add(c.total_bytes());
    arrivals.add(c.arrival);
  }
  std::printf("trace %s: %d racks, %zu coflows\n", path.c_str(),
              parsed.racks, parsed.coflows.size());
  if (parsed.coflows.empty()) return 0;
  std::printf("  arrival span: %.2fs .. %.2fs\n", arrivals.min(),
              arrivals.max());
  std::printf("  width (flows): p50 %.0f, p90 %.0f, max %.0f\n",
              widths.median(), widths.percentile(90), widths.max());
  std::printf("  bytes: p50 %.2f MB, p90 %.2f MB, max %.2f GB, total "
              "%.2f GB\n",
              bytes.median() / 1e6, bytes.percentile(90) / 1e6,
              bytes.max() / 1e9, bytes.sum() / 1e9);
  return 0;
}

int cmd_run(const std::string& path, const cli::IntFlags& flags) {
  workload::ParsedTrace parsed = workload::load_trace(path);
  const int k = static_cast<int>(flags.get("k"));
  topo::FatTreeParams ftp{.k = k};
  ftp.hosts_per_edge = 1;
  ftp.host_link_capacity = 10.0 * (k / 2);
  topo::FatTree ft(ftp);
  if (parsed.racks > ft.host_count()) {
    std::fprintf(stderr,
                 "trace has %d racks but a k=%d rack-level fat-tree only has "
                 "%d; pass a larger --k\n",
                 parsed.racks, k, ft.host_count());
    return 1;
  }
  auto flows = workload::expand_to_flows(ft, parsed.coflows);
  routing::EcmpRouter router(ft, 1);
  sim::SimConfig cfg;
  cfg.unit_bytes_per_second = 1.25e9;
  sim::FluidSimulator simulator(ft.network(), router, cfg);
  simulator.add_flows(flows);
  auto results = simulator.run();

  Summary cct;
  std::size_t incomplete = 0;
  for (const auto& c : sim::aggregate_coflows(results)) {
    if (c.all_completed) {
      cct.add(c.cct());
    } else {
      ++incomplete;
    }
  }
  std::printf("replayed %zu flows on a k=%d rack fat-tree (ECMP, 10:1)\n",
              flows.size(), k);
  std::printf("  CCT: p50 %.3fs, p90 %.3fs, p99 %.3fs, max %.3fs; "
              "incomplete coflows: %zu\n",
              cct.median(), cct.percentile(90), cct.percentile(99),
              cct.max(), incomplete);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc >= 3 ? argv[1] : "";
  std::vector<cli::IntFlag> declared;
  if (cmd == "gen") {
    declared = {{"racks", 32}, {"coflows", 50}, {"duration", 60}, {"seed", 1}};
  } else if (cmd == "run") {
    declared = {{"k", 8}};
  } else if (cmd != "info") {
    std::fprintf(stderr,
                 "usage: %s gen|info|run <trace-file> [--racks= --coflows= "
                 "--duration= --seed= --k=]\n",
                 argv[0]);
    return 2;
  }
  const std::string path = argv[2];
  const std::optional<cli::IntFlags> flags = cli::parse_int_flags(
      argc, argv, declared, /*max_positional=*/2, cmd + " <trace-file>");
  if (!flags.has_value()) return 2;
  try {
    if (cmd == "gen") return cmd_gen(path, *flags);
    if (cmd == "run") return cmd_run(path, *flags);
    return cmd_info(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
