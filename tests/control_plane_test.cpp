// Tests for the assembled control plane: detection-to-recovery wiring,
// background diagnosis scheduling, cluster gating, non-uniform failure
// groups, and repeated-failure handling at one position (re-armed
// detectors).
#include <gtest/gtest.h>

#include <algorithm>

#include "control/control_plane.hpp"
#include "net/algo.hpp"
#include "routing/table_forwarding.hpp"

namespace sbk::control {
namespace {

using sharebackup::DeviceState;
using sharebackup::Fabric;
using sharebackup::FabricParams;
using sharebackup::InterfaceRef;
using topo::Layer;
using topo::SwitchPosition;

FabricParams fp(int k, int n) {
  FabricParams p;
  p.fat_tree.k = k;
  p.backups_per_group = n;
  return p;
}

TEST(ControlPlane, NodeFailureRecoversEndToEnd) {
  Fabric fabric(fp(6, 1));
  sim::EventQueue q;
  ControlPlane plane(fabric, q, ControlPlaneConfig{});
  plane.start(0.1);

  net::NodeId victim = fabric.fat_tree().core(3);
  Seconds recovered_at = -1.0;
  plane.on_recovery([&](const RecoveryOutcome& out, Seconds t) {
    if (out.recovered) recovered_at = t;
  });
  q.schedule_at(0.010, [&] { fabric.network().fail_node(victim); });
  q.run();
  EXPECT_GT(recovered_at, 0.010);
  EXPECT_LT(recovered_at, 0.020);
  EXPECT_FALSE(fabric.network().node_failed(victim));
}

TEST(ControlPlane, NonUniformFabricRecoversCoreFailureEndToEnd) {
  // §6 per-layer provisioning with a layer override above
  // backups_per_group: the plane reads each group's pool from the
  // fabric, so it builds and recovers like on a uniform fabric.
  FabricParams p = fp(4, 1);
  p.backups_core = 2;
  Fabric fabric(p);
  sim::EventQueue q;
  ControlPlane plane(fabric, q, ControlPlaneConfig{});
  plane.start(0.1);

  const SwitchPosition pos{Layer::kCore, -1, 1};
  const net::NodeId victim = fabric.node_at(pos);
  const sharebackup::DeviceUid spare = fabric.spares(Layer::kCore, 1).front();
  q.schedule_at(0.010, [&] { fabric.network().fail_node(victim); });
  q.run();
  EXPECT_FALSE(fabric.network().node_failed(victim));
  EXPECT_EQ(plane.controller().stats().failovers, 1u);
  EXPECT_EQ(fabric.device_at(pos), spare);
  EXPECT_EQ(fabric.spares(Layer::kCore, 1).size(), 1u);
  fabric.check_invariants();
  // Every host pair forwards again, through the recovered core too.
  const topo::FatTree& ft = fabric.fat_tree();
  routing::TableForwarding fwd(ft);
  bool crossed = false;
  for (int i = 0; i < ft.host_count(); ++i) {
    for (int j = 0; j < ft.host_count(); ++j) {
      const auto r = fwd.walk(ft.host(i), ft.host(j));
      EXPECT_TRUE(r.delivered) << i << " -> " << j;
      crossed |= std::find(r.path.nodes.begin(), r.path.nodes.end(),
                           victim) != r.path.nodes.end();
    }
  }
  EXPECT_TRUE(crossed);
}

TEST(ControlPlane, LinkFailureDiagnosedInBackground) {
  Fabric fabric(fp(6, 1));
  sim::EventQueue q;
  ControlPlaneConfig cfg;
  cfg.diagnosis_delay = 0.05;
  ControlPlane plane(fabric, q, cfg);
  plane.start(0.5);

  net::NodeId edge = fabric.fat_tree().edge(1, 0);
  net::NodeId agg = fabric.fat_tree().agg(1, 1);
  net::LinkId link = *fabric.network().find_link(edge, agg);
  std::size_t cs = fabric.cs_of_link(link);
  q.schedule_at(0.02, [&] {
    auto dev = fabric.device_at(*fabric.position_of_node(edge));
    fabric.set_interface_health({dev, cs}, false);
    fabric.network().fail_link(link);
  });
  q.run();
  EXPECT_FALSE(fabric.network().link_failed(link));
  // Diagnosis ran via the scheduled background job: the agg side is back
  // in its pool, the faulty edge device is out.
  EXPECT_EQ(plane.controller().pending_diagnosis(), 0u);
  EXPECT_EQ(plane.controller().stats().switches_exonerated, 1u);
  EXPECT_EQ(fabric.spares(Layer::kAgg, 1).size(), 1u);
  fabric.check_invariants();
}

TEST(ControlPlane, RepeatedFailuresAtSamePositionAreReDetected) {
  // Position fails, recovers, and the *replacement* fails later: the
  // re-armed keep-alive detector must catch the second failure too.
  Fabric fabric(fp(6, 2));
  sim::EventQueue q;
  ControlPlane plane(fabric, q, ControlPlaneConfig{});
  plane.start(0.2);

  SwitchPosition pos{Layer::kAgg, 0, 0};
  net::NodeId node = fabric.node_at(pos);
  int recoveries = 0;
  plane.on_recovery([&](const RecoveryOutcome& out, Seconds) {
    if (out.recovered && !out.failovers.empty()) ++recoveries;
  });
  q.schedule_at(0.010, [&] { fabric.network().fail_node(node); });
  q.schedule_at(0.100, [&] { fabric.network().fail_node(node); });
  q.run();
  EXPECT_EQ(recoveries, 2);
  EXPECT_TRUE(fabric.spares(Layer::kAgg, 0).empty());
  EXPECT_FALSE(fabric.network().node_failed(node));
}

TEST(ControlPlane, ReportsBufferedDuringElectionReplayToNewPrimary) {
  // A report that lands in an election window is buffered and replayed
  // once the new primary is elected.
  Fabric fabric(fp(4, 1));
  sim::EventQueue q;
  ControlPlaneConfig cfg;
  cfg.cluster_members = 2;
  cfg.cluster.election_duration = 0.050;
  ControlPlane plane(fabric, q, cfg);
  plane.start(0.5);

  // Kill only the primary: member 0 stays alive and wins the election.
  q.schedule_at(0.01, [&] { plane.cluster()->fail_member(1); });
  net::NodeId victim = fabric.fat_tree().core(0);
  Seconds recovered_at = -1.0;
  plane.on_recovery([&](const RecoveryOutcome& out, Seconds t) {
    if (out.recovered && !out.failovers.empty()) recovered_at = t;
  });
  q.schedule_at(0.015, [&] { fabric.network().fail_node(victim); });
  q.run();
  EXPECT_GE(plane.reports_buffered(), 1u);
  EXPECT_EQ(plane.reports_replayed(), plane.reports_buffered());
  EXPECT_FALSE(fabric.network().node_failed(victim));
  EXPECT_EQ(plane.controller().stats().failovers, 1u);
  // Recovery happened at the election-completion timestamp, not before.
  EXPECT_GT(recovered_at, 0.015);
}

TEST(ControlPlane, TotalClusterDeathBuffersUntilMemberRepaired) {
  // The satellite regression: every controller dies, a network failure
  // arrives while headless, then one member is repaired. The repaired
  // member must restart heartbeats, win an election, and receive the
  // buffered report — the failure recovers and available() is true.
  Fabric fabric(fp(4, 1));
  sim::EventQueue q;
  ControlPlaneConfig cfg;
  cfg.cluster_members = 3;
  ControlPlane plane(fabric, q, cfg);
  plane.start(1.0);

  q.schedule_at(0.01, [&] {
    plane.cluster()->fail_member(0);
    plane.cluster()->fail_member(1);
    plane.cluster()->fail_member(2);
  });
  net::NodeId victim = fabric.fat_tree().core(1);
  q.schedule_at(0.05, [&] { fabric.network().fail_node(victim); });
  q.schedule_at(0.30, [&] { plane.cluster()->repair_member(0); });
  q.run();
  EXPECT_TRUE(plane.cluster()->available());
  EXPECT_EQ(plane.cluster()->primary(), std::optional<std::size_t>(0));
  EXPECT_GE(plane.reports_buffered(), 1u);
  EXPECT_EQ(plane.reports_replayed(), plane.reports_buffered());
  EXPECT_FALSE(fabric.network().node_failed(victim));
  EXPECT_EQ(plane.controller().stats().failovers, 1u);
}

TEST(ControlPlane, SingleControllerModeWorksWithoutCluster) {
  Fabric fabric(fp(4, 1));
  sim::EventQueue q;
  ControlPlaneConfig cfg;
  cfg.cluster_members = 0;
  ControlPlane plane(fabric, q, cfg);
  EXPECT_EQ(plane.cluster(), nullptr);
  plane.start(0.1);
  net::NodeId victim = fabric.fat_tree().edge(0, 0);
  const sharebackup::DeviceUid spare = fabric.spares(Layer::kEdge, 0).front();
  q.schedule_at(0.01, [&] { fabric.network().fail_node(victim); });
  q.run();
  EXPECT_FALSE(fabric.network().node_failed(victim));
  EXPECT_EQ(plane.controller().stats().failovers, 1u);
  // The spare serves the position without a cluster too, and the
  // rack under it forwards on its group's preloaded table.
  EXPECT_EQ(fabric.device_at(*fabric.position_of_node(victim)), spare);
  routing::TableForwarding fwd(fabric.fat_tree());
  EXPECT_TRUE(fwd.walk(fabric.fat_tree().host(0, 0, 0),
                       fabric.fat_tree().host(3, 1, 1))
                  .delivered);
}

}  // namespace
}  // namespace sbk::control
