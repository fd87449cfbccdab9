// Experiment E1 — Figure 1(a): percentage of *flows* affected by node and
// link failures, versus the number of concurrent failures, on a k=16
// rack-level fat-tree (128 racks, 10:1 oversubscribed) with ECMP routing.
// A flow is affected if its path traverses a failed switch or link.
#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "bench_workload.hpp"
#include "routing/ecmp.hpp"
#include "sim/failure_analysis.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

using namespace sbk;

int main(int argc, char** argv) {
  const std::optional<cli::IntFlags> flags = cli::parse_int_flags(
      argc, argv, {{"k", 16}, {"coflows", 250}, {"trials", 30}});
  if (!flags.has_value()) return 2;
  const int k = static_cast<int>(flags->get("k"));
  const auto coflows = static_cast<std::size_t>(flags->get("coflows"));
  const auto trials = static_cast<std::size_t>(flags->get("trials"));

  bench::banner(
      "E1 / Figure 1(a) — % of flows affected by failures",
      "k=" + std::to_string(k) + " rack-level fat-tree, 10:1 oversubscribed, "
      "ECMP; mean over " + std::to_string(trials) + " random failure draws.");

  topo::FatTree ft(bench::paper_fat_tree(k));
  routing::EcmpRouter router(ft, /*salt=*/1);
  auto flows = bench::make_flows(ft, coflows, 300.0, /*seed=*/20170001);
  auto snapshot = sim::route_snapshot(ft.network(), router, flows);
  std::printf("workload: %zu coflows -> %zu flows on %d racks\n\n", coflows,
              snapshot.size(), ft.host_count());

  std::printf("%-10s %18s %18s\n", "failures", "node-failure %flows",
              "link-failure %flows");
  Rng rng(99);
  for (std::size_t f : {1u, 2u, 4u, 8u, 16u, 32u}) {
    Summary node_frac, link_frac;
    for (std::size_t t = 0; t < trials; ++t) {
      auto nodes = sim::random_switch_failures(ft.network(), f, rng);
      node_frac.add(sim::measure_impact(snapshot, nodes).flow_fraction());
      auto links = sim::random_fabric_link_failures(ft.network(), f, rng);
      link_frac.add(sim::measure_impact(snapshot, links).flow_fraction());
    }
    std::printf("%-10zu %18s %18s\n", f,
                bench::fmt_pct(node_frac.mean()).c_str(),
                bench::fmt_pct(link_frac.mean()).c_str());
    bench::csv_row({std::to_string(f), bench::fmt(node_frac.mean()),
                    bench::fmt(link_frac.mean())});
  }
  std::printf("\nPaper's shape: single-failure flow impact is small (a few "
              "percent),\ngrowing roughly linearly with failure count; node "
              "failures hit more\nflows than link failures.\n");
  return 0;
}
