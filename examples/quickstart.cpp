// Quickstart: build a ShareBackup fabric, kill a switch, watch a backup
// take its place through circuit reconfiguration, and verify the network
// is whole again — the library's core loop in ~80 lines.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "control/controller.hpp"
#include "net/algo.hpp"
#include "sharebackup/fabric.hpp"

using namespace sbk;

int main() {
  // A k=6 fat-tree (54 hosts) with n=1 shared backup per failure group.
  sharebackup::FabricParams params;
  params.fat_tree.k = 6;
  params.backups_per_group = 1;
  params.technology = sharebackup::CircuitTechnology::kElectricalCrosspoint;
  sharebackup::Fabric fabric(params);

  auto census = fabric.census();
  std::printf("ShareBackup fabric: k=%d, n=%d\n", fabric.k(), fabric.n());
  std::printf("  %d hosts, %zu packet switches (%zu of them backups)\n",
              fabric.fat_tree().host_count(), fabric.switch_device_count(),
              census.backup_switches);
  std::printf("  %zu circuit switches across %zu failure groups\n\n",
              census.circuit_switches, census.failure_groups);

  control::Controller controller(fabric, control::ControllerConfig{});

  // Aggregation switch (pod 2, index 1) dies.
  topo::SwitchPosition pos{topo::Layer::kAgg, 2, 1};
  net::NodeId node = fabric.node_at(pos);
  std::printf("Failing %s (served by %s)...\n",
              fabric.network().node(node).name.c_str(),
              fabric.device(fabric.device_at(pos)).name.c_str());
  fabric.network().fail_node(node);
  std::printf("  network now has %zu failed node(s); connected components: "
              "%zu\n",
              fabric.network().failed_node_count(),
              net::live_component_count(fabric.network()));

  // The controller allocates a backup and reconfigures the circuits.
  control::RecoveryOutcome outcome = controller.on_switch_failure(pos);
  if (!outcome.recovered) {
    std::printf("recovery failed: %s\n", outcome.detail);
    return 1;
  }
  const auto& report = outcome.failovers.front();
  std::printf("\nRecovered: %s -> %s\n",
              fabric.device(report.failed_device).name.c_str(),
              fabric.device(report.replacement).name.c_str());
  std::printf("  %zu circuit switches reconfigured in parallel "
              "(%.0f ns each)\n",
              report.circuit_switches_touched,
              report.reconfiguration_latency * 1e9);
  std::printf("  control-path latency: %.0f us; end-to-end (incl. "
              "detection): %.2f ms\n",
              outcome.control_latency * 1e6,
              controller.end_to_end_recovery_latency() * 1e3);

  std::printf("  failed node restored: %s; components: %zu\n",
              fabric.network().node_failed(node) ? "no" : "yes",
              net::live_component_count(fabric.network()));

  // The realized circuits again form exactly the fat-tree adjacency.
  fabric.check_invariants();
  std::printf("  realized circuit adjacency matches the fat-tree: %s\n",
              fabric.realized_adjacency().size() ==
                      fabric.network().link_count()
                  ? "yes"
                  : "no");

  // The pulled switch is repaired later and becomes the group's backup.
  controller.on_device_repaired(report.failed_device);
  std::printf("\nRepaired %s; it is now the group's spare "
              "(roles stay fluid, no switch-back).\n",
              fabric.device(report.failed_device).name.c_str());
  return 0;
}
