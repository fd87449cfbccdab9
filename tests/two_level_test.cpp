// Tests for the two-level routing tables and live impersonation (§4.3):
// table sizes, lookups, and — the crucial property — forwarding over
// the preloaded group tables is invariant when backups take over
// positions, fabric- or controller-driven.
#include <gtest/gtest.h>

#include "control/controller.hpp"
#include "routing/table_forwarding.hpp"
#include "routing/two_level.hpp"
#include "sharebackup/fabric.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sbk::routing {
namespace {

using topo::Layer;
using topo::SwitchPosition;

TEST(TwoLevelTable, PrefixPrecedesSuffixAndLongestMatchWins) {
  TwoLevelTable t;
  t.add_prefix(kNoVlan, 2, -1, -1, 10);
  t.add_prefix(kNoVlan, 2, 1, -1, 11);
  t.add_suffix(kNoVlan, 0, 99);

  EXPECT_EQ(t.lookup(HostAddr{2, 1, 0}, kNoVlan), 11);  // longest prefix
  EXPECT_EQ(t.lookup(HostAddr{2, 0, 0}, kNoVlan), 10);
  EXPECT_EQ(t.lookup(HostAddr{3, 0, 0}, kNoVlan), 99);  // suffix fallback
  EXPECT_EQ(t.lookup(HostAddr{3, 0, 1}, kNoVlan), std::nullopt);
}

TEST(TwoLevelTable, VlanGatingAndRequireTagMatch) {
  TwoLevelTable t;
  t.add_suffix(kNoVlan, 0, 1);  // in-bound style (untagged)
  t.add_suffix(2, 0, 7);        // out-bound style, VLAN 2

  // Untagged lookup never sees tagged entries.
  EXPECT_EQ(t.lookup(HostAddr{0, 0, 0}, kNoVlan), 1);
  // Tagged lookup with require_tag_match skips untagged entries.
  EXPECT_EQ(t.lookup(HostAddr{0, 0, 0}, 2, /*require_tag_match=*/true), 7);
  EXPECT_EQ(t.lookup(HostAddr{0, 0, 0}, 3, /*require_tag_match=*/true),
            std::nullopt);
}

TEST(TwoLevelTable, RejectsDegenerateEntries) {
  TwoLevelTable t;
  EXPECT_THROW(t.add_prefix(kNoVlan, -1, -1, -1, 1), sbk::ContractViolation);
  EXPECT_THROW(t.add_suffix(kNoVlan, 0, -1), sbk::ContractViolation);
}

TEST(TableBuilder, SizesMatchPaperFormulas) {
  for (int k : {4, 8, 16, 48, 64}) {
    TwoLevelTableBuilder b(k);
    const int half = k / 2;
    EXPECT_EQ(b.edge_table(0, 0).size(), static_cast<std::size_t>(k));
    EXPECT_EQ(b.agg_table(0).size(), static_cast<std::size_t>(k));
    EXPECT_EQ(b.core_table().size(), static_cast<std::size_t>(k));
    // Combined edge table: k/2 in-bound + k^2/4 out-bound (§4.3).
    TwoLevelTable combined = b.combined_edge_table(0);
    EXPECT_EQ(combined.size(), static_cast<std::size_t>(half + half * half));
  }
}

TEST(TableBuilder, CombinedTableAtK64Holds1056Entries) {
  // The paper's headline TCAM number: 1056 entries for k = 64.
  TwoLevelTableBuilder b(64);
  EXPECT_EQ(b.combined_edge_table(0).size(), 1056u);
}

TEST(TableBuilder, CombinedEqualsMergeOfEdgeTables) {
  TwoLevelTableBuilder b(8);
  TwoLevelTable merged;
  for (int e = 0; e < 4; ++e) merged.merge(b.edge_table(2, e));
  TwoLevelTable combined = b.combined_edge_table(2);
  EXPECT_EQ(merged.size(), combined.size());
  // Same lookups on a sample of keys.
  for (int vlan = 0; vlan < 4; ++vlan) {
    for (int h = 0; h < 4; ++h) {
      EXPECT_EQ(merged.lookup(HostAddr{0, 0, h}, vlan, true),
                combined.lookup(HostAddr{0, 0, h}, vlan, true));
      EXPECT_EQ(merged.lookup(HostAddr{0, 0, h}, kNoVlan),
                combined.lookup(HostAddr{0, 0, h}, kNoVlan));
    }
  }
}

sharebackup::FabricParams fabric_params(int k, int n) {
  sharebackup::FabricParams p;
  p.fat_tree.k = k;
  p.backups_per_group = n;
  return p;
}

class ForwardingAllPairs : public ::testing::TestWithParam<int> {};

TEST_P(ForwardingAllPairs, EveryHostPairDeliversWithCorrectHopCount) {
  const int k = GetParam();
  const int half = k / 2;
  sharebackup::Fabric fabric(fabric_params(k, /*n=*/1));
  const topo::FatTree& ft = fabric.fat_tree();
  TableForwarding fwd(ft);
  for (int sp = 0; sp < k; ++sp) {
    for (int se = 0; se < half; ++se) {
      for (int sh = 0; sh < half; ++sh) {
        for (int dp = 0; dp < k; ++dp) {
          for (int de = 0; de < half; ++de) {
            for (int dh = 0; dh < half; ++dh) {
              if (sp == dp && se == de && sh == dh) continue;
              auto r = fwd.walk(ft.host(sp, se, sh), ft.host(dp, de, dh));
              ASSERT_TRUE(r.delivered)
                  << sp << ',' << se << ',' << sh << " -> " << dp << ','
                  << de << ',' << dh;
              const std::size_t switch_hops = r.path.nodes.size() - 2;
              if (sp != dp) {
                EXPECT_EQ(switch_hops, 5u);
              } else {
                // Intra-pod traffic turns around at an agg; intra-edge
                // traffic also bounces via an agg in this model (§4.3
                // keeps only k/2 shared in-bound entries).
                EXPECT_EQ(switch_hops, 3u);
              }
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, ForwardingAllPairs, ::testing::Values(4, 6));

TEST(Impersonation, FailoverPreservesForwardingExactly) {
  sharebackup::Fabric fabric(fabric_params(6, 2));
  const topo::FatTree& ft = fabric.fat_tree();
  TableForwarding fwd(ft);

  // Record baseline paths for a sample of inter- and intra-pod pairs.
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  for (int i = 0; i < 3; ++i) {
    pairs.push_back({ft.host(0, i, 0), ft.host(3, (i + 1) % 3, 2)});
    pairs.push_back({ft.host(2, 0, i), ft.host(2, 2, (i + 2) % 3)});
    pairs.push_back({ft.host(5, i, i), ft.host(1, 0, 0)});
  }
  std::vector<net::Path> baseline;
  for (auto [s, d] : pairs) {
    auto r = fwd.walk(s, d);
    ASSERT_TRUE(r.delivered);
    baseline.push_back(r.path);
  }

  // Fail over a mix of positions on every layer.
  for (SwitchPosition pos : {SwitchPosition{Layer::kEdge, 0, 1},
                             SwitchPosition{Layer::kAgg, 3, 0},
                             SwitchPosition{Layer::kCore, -1, 4},
                             SwitchPosition{Layer::kEdge, 2, 2}}) {
    ASSERT_TRUE(fabric.fail_over(pos).has_value());
  }
  fabric.check_invariants();

  // The spares forward on their group's preloaded table: same paths.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    auto r = fwd.walk(pairs[i].first, pairs[i].second);
    ASSERT_TRUE(r.delivered);
    EXPECT_EQ(r.path, baseline[i]) << "pair " << i;
  }
}

TEST(Impersonation, ReplacementDeviceServesPositionWithGroupTable) {
  sharebackup::Fabric fabric(fabric_params(8, 1));
  control::Controller ctrl(fabric, control::ControllerConfig{});
  const topo::FatTree& ft = fabric.fat_tree();
  TableForwarding fwd(ft);
  const SwitchPosition pos{Layer::kEdge, 2, 1};
  const net::NodeId src = ft.host(2, 1, 0);
  const net::NodeId dst = ft.host(5, 3, 2);
  const auto baseline = fwd.walk(src, dst);
  ASSERT_TRUE(baseline.delivered);

  const sharebackup::DeviceUid before = fabric.device_at(pos);
  const auto spares = fabric.spares(Layer::kEdge, 2);
  ASSERT_EQ(spares.size(), 1u);
  fabric.network().fail_node(fabric.node_at(pos));
  EXPECT_FALSE(fwd.walk(src, dst).delivered);  // tables never reroute
  auto o = ctrl.on_switch_failure(pos);
  ASSERT_TRUE(o.recovered);
  EXPECT_EQ(o.failovers[0].failed_device, before);

  const sharebackup::DeviceUid after = fabric.device_at(pos);
  EXPECT_NE(after, before);
  EXPECT_EQ(after, spares[0]);
  EXPECT_EQ(fabric.device(after).layer, Layer::kEdge);
  EXPECT_EQ(fabric.position_of_device(after), pos);
  EXPECT_FALSE(fabric.position_of_device(before).has_value());
  // The spare forwards on the pod's preloaded combined edge table, so
  // the packet takes the very path the failed device gave it.
  auto r = fwd.walk(src, dst);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.path, baseline.path);
}

TEST(Impersonation, PoolExhaustionAndReturn) {
  sharebackup::Fabric fabric(fabric_params(4, 1));
  const SwitchPosition a{Layer::kAgg, 0, 0};
  const SwitchPosition b{Layer::kAgg, 0, 1};
  auto f1 = fabric.fail_over(a);
  ASSERT_TRUE(f1.has_value());
  EXPECT_FALSE(fabric.fail_over(b).has_value());  // pool exhausted (n=1)
  fabric.return_to_pool(f1->failed_device);
  auto f2 = fabric.fail_over(b);
  ASSERT_TRUE(f2.has_value());  // repaired device reused
  EXPECT_EQ(f2->replacement, f1->failed_device);
  EXPECT_EQ(fabric.device_at(b), f1->failed_device);
  fabric.check_invariants();
}

TEST(Impersonation, CoreGroupFailoverUsesOwnGroupSpares) {
  sharebackup::Fabric fabric(fabric_params(8, 1));
  // Cores 1, 5, 9, 13 are group 1 (k/2 = 4).
  auto spares_before = fabric.spares(Layer::kCore, 1);
  ASSERT_EQ(spares_before.size(), 1u);
  auto f = fabric.fail_over({Layer::kCore, -1, 9});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->replacement, spares_before[0]);
  EXPECT_EQ(fabric.device_at({Layer::kCore, -1, 9}), spares_before[0]);
  EXPECT_TRUE(fabric.spares(Layer::kCore, 1).empty());
  EXPECT_EQ(fabric.spares(Layer::kCore, 0).size(), 1u);  // untouched
}

TEST(Impersonation, RandomizedFailoverChurnKeepsAllPairsDelivering) {
  const int k = 4;
  const int half = k / 2;
  sharebackup::Fabric fabric(fabric_params(k, 2));
  const topo::FatTree& ft = fabric.fat_tree();
  TableForwarding fwd(ft);
  Rng rng(2024);

  std::vector<SwitchPosition> positions;
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < half; ++j) {
      positions.push_back({Layer::kEdge, pod, j});
      positions.push_back({Layer::kAgg, pod, j});
    }
  }
  for (int c = 0; c < half * half; ++c) {
    positions.push_back({Layer::kCore, -1, c});
  }

  std::vector<sharebackup::DeviceUid> replaced;
  for (int round = 0; round < 40; ++round) {
    if (!replaced.empty() && rng.bernoulli(0.5)) {
      std::size_t i = rng.uniform_index(replaced.size());
      fabric.return_to_pool(replaced[i]);
      replaced.erase(replaced.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      auto pos = positions[rng.uniform_index(positions.size())];
      if (auto f = fabric.fail_over(pos)) replaced.push_back(f->failed_device);
    }
    fabric.check_invariants();
    // Spot-check delivery across pods and within one pod each round.
    ASSERT_TRUE(fwd.walk(ft.host(0, 0, 0), ft.host(3, 1, 1)).delivered)
        << "round " << round;
    ASSERT_TRUE(fwd.walk(ft.host(2, 1, 0), ft.host(2, 0, 1)).delivered)
        << "round " << round;
  }
}

TEST(Impersonation, ForwardingInvariantUnderControllerChurn) {
  // Controller-driven failovers and repairs in random order: after
  // every step the walked paths are byte-for-byte the baseline ones.
  const int k = 6;
  sharebackup::Fabric fabric(fabric_params(k, 2));
  control::Controller ctrl(fabric, control::ControllerConfig{});
  const topo::FatTree& ft = fabric.fat_tree();
  TableForwarding fwd(ft);

  const std::vector<std::pair<net::NodeId, net::NodeId>> pairs = {
      {ft.host(0, 0, 0), ft.host(5, 2, 1)},
      {ft.host(3, 1, 2), ft.host(3, 2, 0)},
      {ft.host(1, 0, 0), ft.host(4, 1, 1)}};
  std::vector<net::Path> baseline;
  for (auto [s, d] : pairs) {
    auto r = fwd.walk(s, d);
    ASSERT_TRUE(r.delivered);
    baseline.push_back(r.path);
  }

  Rng rng(606);
  std::vector<sharebackup::DeviceUid> out;
  for (int step = 0; step < 60; ++step) {
    ctrl.set_time(step * 10.0);
    if (!out.empty() && rng.bernoulli(0.4)) {
      ctrl.on_device_repaired(out.back());
      out.pop_back();
    } else {
      SwitchPosition pos;
      double layer = rng.uniform_real(0.0, 1.0);
      if (layer < 0.4) {
        pos = {Layer::kEdge, static_cast<int>(rng.uniform_index(k)),
               static_cast<int>(rng.uniform_index(3))};
      } else if (layer < 0.8) {
        pos = {Layer::kAgg, static_cast<int>(rng.uniform_index(k)),
               static_cast<int>(rng.uniform_index(3))};
      } else {
        pos = {Layer::kCore, -1, static_cast<int>(rng.uniform_index(9))};
      }
      net::NodeId node = fabric.node_at(pos);
      if (fabric.network().node_failed(node)) continue;
      fabric.network().fail_node(node);
      auto o = ctrl.on_switch_failure(pos);
      if (o.recovered) {
        out.push_back(o.failovers[0].failed_device);
      } else {
        fabric.network().restore_node(node);
      }
    }
    fabric.check_invariants();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      auto r = fwd.walk(pairs[i].first, pairs[i].second);
      ASSERT_TRUE(r.delivered) << "step " << step;
      EXPECT_EQ(r.path, baseline[i]) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace sbk::routing
