// Soak test: one minute of simulated operations on a k=8 fabric with the
// complete control plane (keep-alive + link-probe detection, replicated
// controllers, table mirroring, background diagnosis) under a compressed
// failure storm — node failures, interface-rooted link failures, and a
// repair crew. Ends with the network whole and every invariant intact.
#include <gtest/gtest.h>

#include "control/control_plane.hpp"
#include "net/algo.hpp"
#include "util/rng.hpp"

namespace sbk {
namespace {

using control::ControlPlane;
using control::ControlPlaneConfig;
using sharebackup::DeviceState;
using sharebackup::Fabric;
using sharebackup::FabricParams;
using topo::Layer;

TEST(Soak, OneMinuteFailureStormFullControlPlane) {
  FabricParams fp;
  fp.fat_tree.k = 8;
  fp.backups_per_group = 2;
  Fabric fabric(fp);
  sim::EventQueue q;

  ControlPlaneConfig cfg;
  cfg.detector.probe_interval = milliseconds(50);  // coarse: soak scale
  cfg.detector.miss_threshold = 2;
  cfg.diagnosis_delay = 0.5;
  ControlPlane plane(fabric, q, cfg);

  const Seconds horizon = 60.0;
  plane.start(horizon);

  std::size_t recoveries = 0;
  plane.on_recovery([&](const control::RecoveryOutcome& out, Seconds) {
    if (out.recovered && !out.failovers.empty()) ++recoveries;
  });

  // Failure storm: every ~2 s something breaks; repairs follow 5 s later.
  Rng rng(777);
  const int k = 8;
  Seconds t = 1.0;
  std::size_t injected = 0;
  while (t < horizon - 10.0) {
    t += rng.exponential(0.5);  // mean 2 s between events
    ++injected;
    if (rng.bernoulli(0.6)) {
      // Node failure at a random position.
      topo::SwitchPosition pos;
      double layer = rng.uniform_real(0.0, 1.0);
      if (layer < 0.4) {
        pos = {Layer::kEdge, static_cast<int>(rng.uniform_index(k)),
               static_cast<int>(rng.uniform_index(4))};
      } else if (layer < 0.8) {
        pos = {Layer::kAgg, static_cast<int>(rng.uniform_index(k)),
               static_cast<int>(rng.uniform_index(4))};
      } else {
        pos = {Layer::kCore, -1, static_cast<int>(rng.uniform_index(16))};
      }
      q.schedule_at(t, [&fabric, pos] {
        net::NodeId node = fabric.node_at(pos);
        if (!fabric.network().node_failed(node)) {
          fabric.network().fail_node(node);
        }
      });
    } else {
      // Link failure rooted at a random endpoint interface.
      int pod = static_cast<int>(rng.uniform_index(k));
      int e = static_cast<int>(rng.uniform_index(4));
      int a = static_cast<int>(rng.uniform_index(4));
      bool edge_side = rng.bernoulli(0.5);
      q.schedule_at(t, [&fabric, pod, e, a, edge_side] {
        net::NodeId en = fabric.fat_tree().edge(pod, e);
        net::NodeId an = fabric.fat_tree().agg(pod, a);
        auto link = fabric.network().find_link(en, an);
        if (fabric.network().link_failed(*link)) return;
        std::size_t cs = fabric.cs_of_link(*link);
        net::NodeId culprit = edge_side ? en : an;
        auto pos = fabric.position_of_node(culprit);
        if (fabric.network().node_failed(culprit)) return;
        fabric.set_interface_health({fabric.device_at(*pos), cs}, false);
        fabric.network().fail_link(*link);
      });
    }
    // Repair crew pass 5 s later: fix every out-of-service device.
    q.schedule_at(t + 5.0, [&fabric, &plane] {
      for (sharebackup::DeviceUid d = 0; d < fabric.switch_device_count();
           ++d) {
        if (fabric.device_state(d) == DeviceState::kOut) {
          plane.controller().on_device_repaired(d);
        }
      }
    });
  }

  q.run();

  // Drain any last diagnosis and repairs.
  plane.controller().run_pending_diagnosis();
  for (sharebackup::DeviceUid d = 0; d < fabric.switch_device_count(); ++d) {
    if (fabric.device_state(d) == DeviceState::kOut) {
      plane.controller().on_device_repaired(d);
    }
  }

  // The storm actually happened and was handled. Transient pool
  // exhaustion is legitimate under this intensity; what matters is that
  // every parked recovery was retried once repairs replenished the pools.
  EXPECT_GT(injected, 15u);
  EXPECT_GT(recoveries, 10u);
  EXPECT_EQ(plane.reports_replayed(), plane.reports_buffered());
  EXPECT_EQ(plane.controller().pending_recoveries(), 0u);

  // End state: whole and consistent.
  fabric.check_invariants();
  EXPECT_EQ(fabric.network().failed_node_count(), 0u);
  EXPECT_EQ(fabric.network().failed_link_count(), 0u);
  EXPECT_EQ(net::live_component_count(fabric.network()), 1u);
  EXPECT_EQ(fabric.realized_adjacency().size(),
            fabric.network().link_count());
}

}  // namespace
}  // namespace sbk
