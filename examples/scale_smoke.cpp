// Datacenter-scale smoke gate for the incremental max-min path.
//
//   scale_smoke [k] [--storm-pods=N] [--per-pod=N]
//               [--max-rss-mb=X] [--max-seconds=X] [--skip-ab] [--json=out]
//
// Two phases:
//   1. A/B identity (k=8): the same pod-local capacity-storm scenario is
//      simulated with the incremental allocator off and on; every
//      FlowResult must match bit-for-bit. --skip-ab disables the phase.
//   2. Scale storm (default k=48, 27,648 hosts): builds the fat-tree,
//      routes pod-local hotspot flows, and drives a drain/restore storm
//      through FluidSimulator with the incremental allocator. Peak RSS
//      (getrusage) and wall time are measured and, when --max-rss-mb /
//      --max-seconds are given, gated.
//
// Both phases require the storm to re-solve: more allocation rounds than
// storm actions, i.e. every drain and restore re-rates live flows.
// A JSON summary goes to stdout (and to --json=FILE when given); the
// exit code is 0 only when the A/B phase matched and every gate held,
// so check.sh --scale-smoke can fail CI on a memory or time regression.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "routing/ecmp.hpp"
#include "sim/fluid_sim.hpp"
#include "topo/fat_tree.hpp"
#include "util/cli.hpp"
#include "util/rss.hpp"

namespace {

int usage(const std::string& error) {
  if (!error.empty()) {
    std::fprintf(stderr, "scale_smoke: %s\n", error.c_str());
  }
  std::fprintf(stderr,
               "usage: scale_smoke [k] [--storm-pods=N] [--per-pod=N]\n"
               "                   [--max-rss-mb=X] [--max-seconds=X]\n"
               "                   [--skip-ab] [--json=out.json]\n");
  return 2;
}

struct StormRun {
  std::vector<sbk::sim::FlowResult> results;
  std::size_t allocation_rounds = 0;
};

/// Pod-local hotspot storm scenario: `per_pod` flows out of each storm
/// pod's first host, plus one capacity drain/restore pair per storm pod
/// on that host's uplink. Pod p drains at t = 1 + p and restores at
/// 1.5 + p; its flows start at 0.5 + p and need 1 to 2 seconds of their
/// fair share, so every one of them is live across both actions, and
/// their sizes differ, so they finish at different events.
StormRun run_storm(sbk::topo::FatTree& ft, sbk::routing::EcmpRouter& router,
                   int storm_pods, int per_pod, bool incremental) {
  namespace sim = sbk::sim;
  namespace net = sbk::net;
  const int hosts_per_pod = ft.host_count() / ft.pods();
  sim::SimConfig cfg;
  cfg.incremental_max_min = incremental;
  sim::FluidSimulator simulator(ft.network(), router, cfg);
  std::uint64_t id = 0;
  for (int p = 0; p < storm_pods; ++p) {
    const net::NodeId src = ft.host(p * hosts_per_pod);
    for (int f = 0; f < per_pod; ++f) {
      sim::FlowSpec fs;
      fs.id = id++;
      fs.src = src;
      fs.dst = ft.host(p * hosts_per_pod + 1 + f % (hosts_per_pod - 1));
      fs.bytes =
          cfg.unit_bytes_per_second * (per_pod + f) / (per_pod * per_pod);
      fs.start = 0.5 + p;
      fs.coflow = static_cast<sim::CoflowId>(p);
      simulator.add_flow(fs);
    }
    const net::LinkId up =
        *ft.network().find_link(src, ft.edge_of_host(src));
    const double cap = ft.network().link(up).capacity;
    simulator.at(1.0 + p, [up](net::Network& n) {
      n.set_link_capacity(up, 0.25);
    });
    simulator.at(1.5 + p, [up, cap](net::Network& n) {
      n.set_link_capacity(up, cap);
    });
  }
  StormRun run;
  run.results = simulator.run();
  run.allocation_rounds = simulator.allocation_rounds();
  return run;
}

/// Phase 1: bit-identical FlowResults with the allocator off and on.
bool ab_identity_holds(std::string& detail) {
  sbk::topo::FatTree ft(sbk::topo::FatTreeParams{.k = 8});
  sbk::routing::EcmpRouter router(ft);
  constexpr int kStormPods = 8;
  const StormRun full_run = run_storm(ft, router, kStormPods, /*per_pod=*/12,
                                      /*incremental=*/false);
  const StormRun incr_run = run_storm(ft, router, kStormPods, /*per_pod=*/12,
                                      /*incremental=*/true);
  if (incr_run.allocation_rounds <= 2 * kStormPods) {
    detail = "the storm re-solved nothing";
    return false;
  }
  const auto& full = full_run.results;
  const auto& incr = incr_run.results;
  if (full.size() != incr.size()) {
    detail = "result count mismatch";
    return false;
  }
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i].spec.id != incr[i].spec.id ||
        full[i].outcome != incr[i].outcome ||
        full[i].finish != incr[i].finish ||
        full[i].bytes_remaining != incr[i].bytes_remaining) {
      std::ostringstream os;
      os << "flow " << full[i].spec.id << " diverges (finish "
         << full[i].finish << " vs " << incr[i].finish << ")";
      detail = os.str();
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const sbk::cli::ParseResult args = sbk::cli::parse_args(
      argc, argv,
      {{"storm-pods", true},
       {"per-pod", true},
       {"max-rss-mb", true},
       {"max-seconds", true},
       {"skip-ab", false},
       {"json", true}},
      /*max_positional=*/1);
  if (!args.ok()) return usage(args.error);

  long long k = 48;
  if (!args.positional.empty()) {
    const auto parsed = sbk::cli::parse_int(args.positional[0]);
    if (!parsed || *parsed < 4 || *parsed % 2 != 0) {
      return usage("k must be an even integer >= 4");
    }
    k = *parsed;
  }
  auto int_flag = [&args](const char* name, long long fallback)
      -> std::optional<long long> {
    const auto text = args.value_of(name);
    if (!text) return fallback;
    return sbk::cli::parse_int(*text);
  };
  auto double_flag = [&args](const char* name, double fallback)
      -> std::optional<double> {
    const auto text = args.value_of(name);
    if (!text) return fallback;
    return sbk::cli::parse_double(*text);
  };
  const auto storm_pods = int_flag("storm-pods", 12);
  const auto per_pod = int_flag("per-pod", 32);
  const auto max_rss_mb = double_flag("max-rss-mb", 0.0);   // 0 = no gate
  const auto max_seconds = double_flag("max-seconds", 0.0); // 0 = no gate
  if (!storm_pods || !per_pod || !max_rss_mb || !max_seconds) {
    return usage("flag values must be numeric");
  }
  if (*storm_pods < 1 || *storm_pods > k || *per_pod < 1) {
    return usage("--storm-pods must be in [1, k] and --per-pod >= 1");
  }

  // Phase 1: A/B identity at small scale.
  bool ab_ok = true;
  std::string ab_detail;
  if (!args.has("skip-ab")) {
    ab_ok = ab_identity_holds(ab_detail);
    if (!ab_ok) {
      std::fprintf(stderr, "scale_smoke: A/B identity FAILED: %s\n",
                   ab_detail.c_str());
    }
  }

  // Phase 2: the scale storm, timed end to end (build + route + sim —
  // that is the cost a sweep pays per scenario).
  const auto t0 = std::chrono::steady_clock::now();
  sbk::topo::FatTree ft(
      sbk::topo::FatTreeParams{.k = static_cast<int>(k)});
  sbk::routing::EcmpRouter router(ft);
  const StormRun storm =
      run_storm(ft, router, static_cast<int>(*storm_pods),
                static_cast<int>(*per_pod), /*incremental=*/true);
  const auto& results = storm.results;
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const double rss_mb = sbk::util::peak_rss_mb();

  std::size_t finished = 0;
  for (const auto& r : results) {
    if (r.outcome == sbk::sim::FlowOutcome::kCompleted) ++finished;
  }

  const bool rss_ok = *max_rss_mb <= 0.0 || rss_mb <= *max_rss_mb;
  const bool time_ok = *max_seconds <= 0.0 || wall_seconds <= *max_seconds;
  const bool resolved =
      storm.allocation_rounds > static_cast<std::size_t>(2 * *storm_pods);
  const bool pass = ab_ok && rss_ok && time_ok && resolved &&
                    finished == results.size() && !results.empty();

  std::ostringstream json;
  json << "{\"k\":" << k << ",\"hosts\":" << ft.host_count()
       << ",\"links\":" << ft.network().link_count()
       << ",\"flows\":" << results.size() << ",\"finished\":" << finished
       << ",\"storm_events\":" << 2 * *storm_pods
       << ",\"allocation_rounds\":" << storm.allocation_rounds
       << ",\"wall_seconds\":" << wall_seconds
       << ",\"peak_rss_mb\":" << rss_mb
       << ",\"ab_identical\":" << (ab_ok ? "true" : "false")
       << ",\"gate_max_rss_mb\":" << *max_rss_mb
       << ",\"gate_max_seconds\":" << *max_seconds
       << ",\"pass\":" << (pass ? "true" : "false") << "}";
  std::cout << json.str() << "\n";
  if (const auto path = args.value_of("json")) {
    std::ofstream out(*path);
    out << json.str() << "\n";
  }

  if (!resolved) {
    std::fprintf(stderr,
                 "scale_smoke: %zu allocation rounds for %lld storm actions: "
                 "the storm re-solved nothing\n",
                 storm.allocation_rounds, 2 * *storm_pods);
  }
  if (!rss_ok) {
    std::fprintf(stderr,
                 "scale_smoke: peak RSS %.1f MB exceeds budget %.1f MB\n",
                 rss_mb, *max_rss_mb);
  }
  if (!time_ok) {
    std::fprintf(stderr,
                 "scale_smoke: wall time %.2f s exceeds budget %.2f s\n",
                 wall_seconds, *max_seconds);
  }
  return pass ? 0 : 1;
}
