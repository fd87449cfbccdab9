// Ablation A1 — simulation-model sensitivity: the same single-failure
// scenario evaluated under three network models:
//
//   * fluid, global max-min fairness (ideal congestion control);
//   * fluid, per-link equal share (TCP-under-ECMP approximation);
//   * packet-level with the TCP-Reno-like transport (the paper's class
//     of simulator; 200 ms RTO floor).
//
// The paper's orders-of-magnitude CCT slowdowns come from transport
// dynamics (timeouts during blackholes and congestion), which fluid
// models compress. This bench quantifies that: who shows how much
// slowdown for the *same* failure.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "bench_util.hpp"
#include "pktsim/packet_sim.hpp"
#include "routing/global_reroute.hpp"
#include "sim/fluid_sim.hpp"
#include "topo/fat_tree.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "workload/coflow_gen.hpp"

using namespace sbk;

namespace {

constexpr double kUnitBps = 1.25e8;  // 1 unit = 1 Gbps (small testbed)

topo::FatTreeParams testbed(int k) {
  topo::FatTreeParams p{.k = k};
  p.hosts_per_edge = 1;
  p.host_link_capacity = 4.0 * (k / 2);
  return p;
}

std::vector<sim::FlowSpec> burst_workload(const topo::FatTree& ft) {
  workload::CoflowWorkloadParams wp;
  wp.racks = ft.host_count();
  wp.coflows = 60;
  wp.duration = 2.0;             // a dense 2-second burst window
  wp.reducer_bytes_xm = 2e5;     // 200 KB scale: many latency-bound coflows
  wp.reducer_bytes_cap = 2e7;    // 20 MB elephants
  Rng rng(515);
  return workload::expand_to_flows(ft, workload::generate_coflows(wp, rng));
}

std::map<sim::CoflowId, double> ccts_of(
    const std::vector<sim::FlowResult>& results) {
  std::map<sim::CoflowId, double> out;
  for (const auto& c : sim::aggregate_coflows(results)) {
    if (c.all_completed && c.cct() > 0.0) out[c.id] = c.cct();
  }
  return out;
}

struct ModelRow {
  const char* model;
  Summary slowdown;
  std::size_t unfinished = 0;
};

void print_row(const ModelRow& r) {
  std::printf("%-28s n=%4zu  p50=%7.2f  p90=%7.2f  p99=%8.2f  max=%9.2f  "
              "unfinished=%zu\n",
              r.model, r.slowdown.count(), r.slowdown.percentile(50),
              r.slowdown.percentile(90), r.slowdown.percentile(99),
              r.slowdown.max(), r.unfinished);
  bench::csv_row({r.model, bench::fmt(r.slowdown.percentile(50)),
                  bench::fmt(r.slowdown.percentile(90)),
                  bench::fmt(r.slowdown.percentile(99)),
                  bench::fmt(r.slowdown.max())});
}

void collect(const std::map<sim::CoflowId, double>& healthy,
             const std::map<sim::CoflowId, double>& failed, ModelRow& row) {
  for (const auto& [id, base] : healthy) {
    auto it = failed.find(id);
    if (it == failed.end()) {
      ++row.unfinished;
    } else {
      row.slowdown.add(it->second / base);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<cli::IntFlags> flags =
      cli::parse_int_flags(argc, argv, {{"k", 4}});
  if (!flags.has_value()) return 2;
  const int k = static_cast<int>(flags->get("k"));
  bench::banner("A1 / ablation — fluid vs packet-level failure impact",
                "Identical trace + single edge-switch failure (100 ms "
                "outage) under three network models.");

  // The failure: an edge switch (one rack) down for 100 ms mid-burst —
  // short enough that every model completes, long enough to bite.
  const Seconds fail_at = 0.5;
  const Seconds repair_at = 0.6;

  auto scenario = [&](auto& simulator, net::NodeId victim) {
    simulator.at(fail_at, [victim](net::Network& n) { n.fail_node(victim); });
    simulator.at(repair_at,
                 [victim](net::Network& n) { n.restore_node(victim); });
  };

  ModelRow maxmin{"fluid max-min", {}, 0};
  ModelRow equal{"fluid equal-share", {}, 0};
  ModelRow packet{"packet-level (RTO 200ms)", {}, 0};

  // --- fluid runs ----------------------------------------------------------
  for (ModelRow* row : {&maxmin, &equal}) {
    sim::SimConfig cfg;
    cfg.unit_bytes_per_second = kUnitBps;
    cfg.allocation = row == &maxmin
                         ? sim::AllocationModel::kMaxMinFair
                         : sim::AllocationModel::kPerLinkEqualShare;
    topo::FatTree ft(testbed(k));
    auto flows = burst_workload(ft);
    routing::EcmpWithGlobalRerouteRouter router(ft, 1);
    std::map<sim::CoflowId, double> healthy, failed;
    {
      sim::FluidSimulator s(ft.network(), router, cfg);
      s.add_flows(flows);
      healthy = ccts_of(s.run());
    }
    {
      sim::FluidSimulator s(ft.network(), router, cfg);
      s.add_flows(flows);
      scenario(s, ft.edge(0, 0));
      failed = ccts_of(s.run());
    }
    collect(healthy, failed, *row);
  }

  // --- packet-level run ------------------------------------------------------
  {
    pktsim::PktSimConfig cfg;
    cfg.unit_bytes_per_second = kUnitBps;
    topo::FatTree ft(testbed(k));
    auto flows = burst_workload(ft);
    routing::EcmpWithGlobalRerouteRouter router(ft, 1);
    std::map<sim::CoflowId, double> healthy, failed;
    {
      pktsim::PacketSimulator s(ft.network(), router, cfg);
      s.add_flows(flows);
      healthy = ccts_of(s.run());
    }
    {
      pktsim::PacketSimulator s(ft.network(), router, cfg);
      s.add_flows(flows);
      scenario(s, ft.edge(0, 0));
      failed = ccts_of(s.run());
      std::printf("packet-level transport during failure: %zu timeouts, "
                  "%zu fast retransmits, %zu dead-element drops\n\n",
                  s.stats().timeouts, s.stats().fast_retransmits,
                  s.stats().drops_dead_element);
    }
    collect(healthy, failed, packet);
  }

  std::printf("CCT slowdown (failed / healthy), all coflows:\n");
  print_row(maxmin);
  print_row(equal);
  print_row(packet);
  std::printf(
      "\nReading: the fluid models bound the slowdown by the lost capacity\n"
      "ratio; the packet model adds RTO stalls — affected small coflows\n"
      "pay >= 200 ms against ~ms baselines, reproducing the paper's\n"
      "orders-of-magnitude tail even for sub-partition outages.\n");
  return 0;
}
