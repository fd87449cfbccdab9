// Experiment E8 — §5.3: recovery-latency comparison. Two parts:
//   1. the analytic component model (detection + notification + decision
//      + reconfiguration) for ShareBackup (crosspoint / 2D-MEMS), F10 /
//      Aspen local rerouting, and fat-tree global rerouting;
//   2. a discrete-event measurement: crash a switch at random phases
//      against the keep-alive detector and measure injected-to-recovered
//      time through the actual controller.
#include <cstdio>
#include <optional>

#include "bench_util.hpp"
#include "control/controller.hpp"
#include "control/failure_detector.hpp"
#include "control/recovery_latency.hpp"
#include "sharebackup/fabric.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace sbk;

int main(int argc, char** argv) {
  const std::optional<cli::IntFlags> flags =
      cli::parse_int_flags(argc, argv, {{"samples", 200}});
  if (!flags.has_value()) return 2;
  const auto samples = static_cast<std::size_t>(flags->get("samples"));
  bench::banner("E8 / §5.3 — recovery latency",
                "Component model + DES measurement (1 ms probes, 3-miss "
                "detection, sub-ms control channels).");

  control::LatencyModelParams p;
  std::printf("%-24s %12s %12s %12s %14s %12s\n", "scheme", "detect",
              "notify", "decide", "reconfigure", "total");
  for (const auto& b : control::latency_comparison(p)) {
    std::printf("%-24s %9.3f ms %9.3f ms %9.3f ms %11.6f ms %9.3f ms\n",
                b.scheme.c_str(), b.detection * 1e3, b.notification * 1e3,
                b.decision * 1e3, b.reconfiguration * 1e3, b.total() * 1e3);
    bench::csv_row({b.scheme, bench::fmt(b.detection, 6),
                    bench::fmt(b.notification, 6), bench::fmt(b.decision, 6),
                    bench::fmt(b.reconfiguration, 6),
                    bench::fmt(b.total(), 6)});
  }

  // --- DES measurement ----------------------------------------------------
  std::printf("\nMeasured end-to-end (crash -> keep-alive misses -> "
              "controller -> circuits), %zu random crash phases:\n",
              samples);
  Summary measured;
  Rng rng(3);
  for (std::size_t s = 0; s < samples; ++s) {
    sharebackup::FabricParams fp;
    fp.fat_tree.k = 4;
    fp.backups_per_group = 1;
    sharebackup::Fabric fabric(fp);
    control::Controller ctrl(fabric, control::ControllerConfig{});
    sim::EventQueue q;
    control::FailureDetector det(q, fabric.network(),
                                 control::DetectorConfig{});
    topo::SwitchPosition pos{topo::Layer::kCore, -1,
                             static_cast<int>(rng.uniform_index(4))};
    net::NodeId victim = fabric.node_at(pos);
    Seconds crash = rng.uniform_real(0.001, 0.002);
    Seconds recovered_at = -1.0;
    det.on_node_failure([&](net::NodeId, Seconds t) {
      auto out = ctrl.on_switch_failure(pos);
      if (out.recovered) recovered_at = t + out.control_latency;
    });
    det.watch_node(victim, 0.05);
    q.schedule_at(crash, [&] { fabric.network().fail_node(victim); });
    q.run();
    if (recovered_at > 0) measured.add((recovered_at - crash) * 1e3);
  }
  std::printf("  recovery time: mean %.3f ms, p50 %.3f ms, p99 %.3f ms, "
              "max %.3f ms\n",
              measured.mean(), measured.median(), measured.percentile(99),
              measured.max());
  bench::csv_row({"measured-ms", bench::fmt(measured.mean()),
                  bench::fmt(measured.median()),
                  bench::fmt(measured.percentile(99)),
                  bench::fmt(measured.max())});
  std::printf(
      "\nPaper's claim: detection dominates for every scheme (same probing\n"
      "interval), and ShareBackup's post-detection work (sub-ms control\n"
      "messages + 70 ns / 40 us circuit reset) keeps it as fast as F10 and\n"
      "Aspen Tree local rerouting, which must install a ~1 ms SDN rule.\n");
  return 0;
}
