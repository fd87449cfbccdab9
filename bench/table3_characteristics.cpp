// Experiment E6 — Table 3: performance characteristics of the compared
// architectures, measured (not asserted) from the simulator:
//
//   * bandwidth loss:   aggregate all-to-all max-min throughput in the
//                       failed state vs healthy;
//   * path dilation:    hop counts of recovered paths vs healthy;
//   * upstream repair:  does any flow's path deviate from its healthy
//                       path at a switch NOT adjacent to the failure?
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "bench_workload.hpp"
#include "control/controller.hpp"
#include "routing/ecmp.hpp"
#include "routing/f10.hpp"
#include "routing/generic_ecmp.hpp"
#include "routing/global_reroute.hpp"
#include "sharebackup/fabric.hpp"
#include "sim/max_min.hpp"
#include "topo/one_to_one.hpp"
#include "util/cli.hpp"

using namespace sbk;

namespace {

struct Characteristics {
  double throughput_ratio = 1.0;   // failed / healthy
  double max_dilation_hops = 0.0;  // extra hops vs healthy, worst flow
  bool upstream_repair = false;
  std::size_t unreachable = 0;
};

double aggregate_throughput(const topo::FatTree& ft,
                            const std::vector<net::Path>& paths) {
  std::vector<sim::Demand> demands;
  for (const net::Path& p : paths) {
    if (!p.empty()) demands.push_back(sim::Demand{p.directed_links(ft.network())});
  }
  auto rates = sim::max_min_rates(ft.network(), demands);
  double total = 0.0;
  for (double r : rates) total += r;
  return total;
}

std::vector<net::Path> route_all_pairs(const topo::FatTree& ft,
                                       routing::Router& router) {
  std::vector<net::Path> out;
  std::uint64_t id = 0;
  for (int i = 0; i < ft.host_count(); ++i) {
    for (int j = 0; j < ft.host_count(); ++j) {
      if (i == j) continue;
      out.push_back(
          router.route(ft.network(), ft.host(i), ft.host(j), id++, nullptr));
    }
  }
  return out;
}

/// First node where the two paths diverge, if any.
bool deviates_upstream(const net::Network& net, const net::Path& before,
                       const net::Path& after, net::NodeId failed_node) {
  if (after.empty() || before.nodes == after.nodes) return false;
  std::size_t i = 0;
  while (i < before.nodes.size() && i < after.nodes.size() &&
         before.nodes[i] == after.nodes[i]) {
    ++i;
  }
  if (i == 0) return true;  // diverged at the very source
  net::NodeId pivot = after.nodes[i - 1];  // last common node, which chose
  // Adjacent to the failure => local decision, not upstream repair.
  return !net.find_link(pivot, failed_node).has_value();
}

Characteristics measure(topo::FatTree& ft, routing::Router& router,
                        net::NodeId failed_node) {
  Characteristics ch;
  auto before = route_all_pairs(ft, router);
  double base = aggregate_throughput(ft, before);
  ft.network().fail_node(failed_node);
  auto after = route_all_pairs(ft, router);
  ch.throughput_ratio = aggregate_throughput(ft, after) / base;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i].empty()) continue;
    if (after[i].empty()) {
      // Skip pairs that touch the failed element's dead hosts.
      ++ch.unreachable;
      continue;
    }
    ch.max_dilation_hops = std::max(
        ch.max_dilation_hops,
        static_cast<double>(after[i].hops()) -
            static_cast<double>(before[i].hops()));
    if (deviates_upstream(ft.network(), before[i], after[i], failed_node)) {
      ch.upstream_repair = true;
    }
  }
  ft.network().clear_failures();
  return ch;
}

void print_row(const char* arch, const Characteristics& ch) {
  std::printf("%-14s | %14s | %11s | %15s\n", arch,
              ch.throughput_ratio > 0.9999 ? "none" :
                  bench::fmt_pct(1.0 - ch.throughput_ratio).c_str(),
              ch.max_dilation_hops <= 0.0 ? "none"
                  : ("+" + bench::fmt(ch.max_dilation_hops, 2) + " hops").c_str(),
              ch.upstream_repair ? "required" : "not required");
  bench::csv_row({arch, bench::fmt(1.0 - ch.throughput_ratio),
                  bench::fmt(ch.max_dilation_hops),
                  ch.upstream_repair ? "yes" : "no"});
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<cli::IntFlags> flags =
      cli::parse_int_flags(argc, argv, {{"k", 8}});
  if (!flags.has_value()) return 2;
  const int k = static_cast<int>(flags->get("k"));
  bench::banner("E6 / Table 3 — performance characteristics, measured",
                "Single aggregation-switch failure on a k=" +
                    std::to_string(k) +
                    " rack fat-tree; all-to-all max-min throughput.");

  std::printf("%-14s | %14s | %11s | %15s\n", "architecture",
              "bandwidth loss", "dilation", "upstream repair");
  std::printf("---------------+----------------+-------------+---------------"
              "-\n");

  {  // fat-tree: ECMP + global optimal rerouting of affected flows.
    topo::FatTree ft(bench::paper_fat_tree(k));
    routing::EcmpWithGlobalRerouteRouter router(ft, 2);
    print_row("fat-tree", measure(ft, router, ft.agg(0, 0)));
  }
  {  // F10 local rerouting on the AB tree.
    topo::FatTree ft(bench::paper_fat_tree(k, topo::Wiring::kAb));
    routing::F10Router router(ft, 2);
    print_row("F10", measure(ft, router, ft.agg(0, 0)));
  }
  {  // 1:1 backup: shadow activation also restores everything — at 4x
     // the network's cost (see E4/E5).
    topo::OneToOneBackup arch(bench::paper_fat_tree(k));
    const topo::FatTree& ft = arch.fat_tree();
    routing::GenericEcmpRouter router(2);

    auto route_pairs = [&] {
      std::vector<net::Path> out;
      std::uint64_t id = 0;
      for (int i = 0; i < ft.host_count(); ++i) {
        for (int j = 0; j < ft.host_count(); ++j) {
          if (i != j) {
            out.push_back(router.route(arch.network(), ft.host(i),
                                       ft.host(j), id++, nullptr));
          }
        }
      }
      return out;
    };
    auto before = route_pairs();
    double base = aggregate_throughput(ft, before);
    net::NodeId victim = ft.agg(0, 0);
    arch.network().fail_node(victim);
    net::NodeId shadow = arch.activate_shadow(victim);

    // The 1:1 failover is transparent: traffic that addressed the failed
    // switch now flows through its shadow over the mesh — the path is
    // the same modulo the substituted hop. Build `after` by substitution
    // and verify it is live (which is exactly what the mesh guarantees).
    auto after = before;
    for (net::Path& p : after) {
      for (std::size_t i = 0; i < p.nodes.size(); ++i) {
        if (p.nodes[i] != victim) continue;
        p.nodes[i] = shadow;
        p.links[i - 1] =
            *arch.network().find_link(p.nodes[i - 1], shadow);
        p.links[i] = *arch.network().find_link(shadow, p.nodes[i + 1]);
      }
      if (!net::is_live_path(arch.network(), p)) p = net::Path{};
    }
    Characteristics ch;
    ch.throughput_ratio = aggregate_throughput(ft, after) / base;
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (after[i].empty()) {
        ch.upstream_repair = true;  // substitution failed: would reroute
        continue;
      }
      ch.max_dilation_hops = std::max(
          ch.max_dilation_hops, static_cast<double>(after[i].hops()) -
                                    static_cast<double>(before[i].hops()));
    }
    print_row("1:1 backup", ch);
  }
  {  // ShareBackup: recover first, then measure — topology is identical.
    sharebackup::FabricParams fp;
    fp.fat_tree = bench::paper_fat_tree(k);
    sharebackup::Fabric fabric(fp);
    control::Controller ctrl(fabric, control::ControllerConfig{});
    topo::FatTree& ft = fabric.fat_tree();
    routing::EcmpWithGlobalRerouteRouter router(ft, 2);

    auto before = route_all_pairs(ft, router);
    double base = aggregate_throughput(ft, before);
    topo::SwitchPosition pos{topo::Layer::kAgg, 0, 0};
    ft.network().fail_node(fabric.node_at(pos));
    bool ok = ctrl.on_switch_failure(pos).recovered;
    auto after = route_all_pairs(ft, router);
    Characteristics ch;
    ch.throughput_ratio = aggregate_throughput(ft, after) / base;
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (after[i].nodes != before[i].nodes) ch.upstream_repair = true;
      ch.max_dilation_hops = std::max(
          ch.max_dilation_hops, static_cast<double>(after[i].hops()) -
                                    static_cast<double>(before[i].hops()));
    }
    print_row(ok ? "ShareBackup" : "ShareBackup(!)", ch);
  }

  std::printf(
      "\nPaper's Table 3: ShareBackup is the only architecture with no\n"
      "bandwidth loss, no path dilation, and no upstream repair. Fat-tree\n"
      "loses bandwidth and repairs upstream; F10 loses bandwidth and\n"
      "dilates paths (but repairs locally).\n");
  return 0;
}
