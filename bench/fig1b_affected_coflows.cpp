// Experiment E2 — Figure 1(b): percentage of *coflows* affected by node
// and link failures, and the amplification over the flow-level impact
// (the paper reports 3.3x-90x, with 29.6% / 17% of coflows affected by a
// single node / link failure).
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
      "E2 / Figure 1(b) — % of coflows affected by failures",
      "Same setup as E1; a coflow is affected if any of its flows is.");

  topo::FatTree ft(bench::paper_fat_tree(k));
  routing::EcmpRouter router(ft, 1);
  auto flows = bench::make_flows(ft, coflows, 300.0, 20170001);
  auto snapshot = sim::route_snapshot(ft.network(), router, flows);

  std::printf("%-9s | %12s %12s %7s | %12s %12s %7s\n", "", "node:flows",
              "coflows", "amp", "link:flows", "coflows", "amp");
  Rng rng(99);
  for (std::size_t f : {1u, 2u, 4u, 8u, 16u, 32u}) {
    Summary nf, nc, lf, lc;
    for (std::size_t t = 0; t < trials; ++t) {
      auto nodes = sim::random_switch_failures(ft.network(), f, rng);
      auto ni = sim::measure_impact(snapshot, nodes);
      nf.add(ni.flow_fraction());
      nc.add(ni.coflow_fraction());
      auto links = sim::random_fabric_link_failures(ft.network(), f, rng);
      auto li = sim::measure_impact(snapshot, links);
      lf.add(li.flow_fraction());
      lc.add(li.coflow_fraction());
    }
    double node_amp = nf.mean() > 0 ? nc.mean() / nf.mean() : 0.0;
    double link_amp = lf.mean() > 0 ? lc.mean() / lf.mean() : 0.0;
    std::printf("%-9zu | %12s %12s %6.1fx | %12s %12s %6.1fx\n", f,
                bench::fmt_pct(nf.mean()).c_str(),
                bench::fmt_pct(nc.mean()).c_str(), node_amp,
                bench::fmt_pct(lf.mean()).c_str(),
                bench::fmt_pct(lc.mean()).c_str(), link_amp);
    bench::csv_row({std::to_string(f), bench::fmt(nf.mean()),
                    bench::fmt(nc.mean()), bench::fmt(node_amp),
                    bench::fmt(lf.mean()), bench::fmt(lc.mean()),
                    bench::fmt(link_amp)});
  }
  std::printf(
      "\nPaper's shape: coflow impact is amplified several-fold over flow\n"
      "impact (3.3x-90x in the paper); a single node failure touches tens\n"
      "of percent of coflows (29.6%% in the paper; trace-dependent), a\n"
      "single link failure somewhat fewer (17%% in the paper); the coflow\n"
      "curves rise steeply at small failure counts.\n");
  return 0;
}
