// Tests for the §6 generalization: sharable backup on a leaf-spine
// network. Wiring invariants, failover semantics, group partitioning,
// and end-to-end routing through generic ECMP.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/algo.hpp"
#include "routing/generic_ecmp.hpp"
#include "sharebackup/leaf_spine.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sbk::sharebackup {
namespace {

LeafSpineParams params(int leaves, int spines, int hosts, int group, int n) {
  LeafSpineParams p;
  p.leaves = leaves;
  p.spines = spines;
  p.hosts_per_leaf = hosts;
  p.group_size = group;
  p.backups_per_group = n;
  return p;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> link_pairs(
    const net::Network& net) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const net::Link& l =
        net.link(net::LinkId(static_cast<net::LinkId::value_type>(i)));
    out.emplace_back(std::min(l.a.value(), l.b.value()),
                     std::max(l.a.value(), l.b.value()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> realized(
    const LeafSpineFabric& f) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (auto [a, b] : f.realized_adjacency()) {
    out.emplace_back(std::min(a.value(), b.value()),
                     std::max(a.value(), b.value()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class LeafSpineWiring
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(LeafSpineWiring, DefaultCircuitsRealizeTheLeafSpine) {
  auto [L, S, H, G, n] = GetParam();
  LeafSpineFabric fabric(params(L, S, H, G, n));
  EXPECT_EQ(fabric.network().link_count(),
            static_cast<std::size_t>(L * H + L * S));
  EXPECT_EQ(realized(fabric), link_pairs(fabric.network()));
  fabric.check_invariants();
  // Circuit switch count: per leaf group H (layer 1) + per group pair G.
  auto c = fabric.census();
  EXPECT_EQ(c.circuit_switches,
            static_cast<std::size_t>((L / G) * H + (L / G) * (S / G) * G));
  EXPECT_EQ(c.failure_groups, static_cast<std::size_t>(L / G + S / G));
  EXPECT_EQ(c.backup_switches, c.failure_groups * static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LeafSpineWiring,
    ::testing::Values(std::tuple{8, 4, 4, 4, 1}, std::tuple{6, 6, 2, 3, 2},
                      std::tuple{4, 2, 3, 2, 1}, std::tuple{8, 8, 1, 4, 0}));

TEST(LeafSpine, RejectsBadPartitioning) {
  EXPECT_THROW(LeafSpineFabric(params(7, 4, 2, 4, 1)),
               sbk::ContractViolation);
  EXPECT_THROW(LeafSpineFabric(params(8, 5, 2, 4, 1)),
               sbk::ContractViolation);
}

TEST(LeafSpine, HostPairsHaveOnePathPerSpine) {
  LeafSpineFabric fabric(params(8, 4, 2, 4, 1));
  auto paths = net::all_shortest_paths(fabric.network(), fabric.host(0),
                                       fabric.host(15));
  EXPECT_EQ(paths.size(), 4u);  // one per spine
  for (const auto& p : paths) EXPECT_EQ(p.hops(), 4u);
}

TEST(LeafSpine, LeafFailoverRestoresTheRack) {
  LeafSpineFabric fabric(params(8, 4, 4, 4, 1));
  LsPosition pos{LsTier::kLeaf, 5};
  net::NodeId leaf = fabric.node_at(pos);
  fabric.network().fail_node(leaf);
  EXPECT_FALSE(net::reachable(fabric.network(), fabric.host(5 * 4),
                              fabric.host(0)));

  auto report = fabric.fail_over(pos);
  ASSERT_TRUE(report.has_value());
  // Leaf attaches H layer-1 switches + S layer-2 switches (one per
  // spine-group column x G rotations it appears in... = S).
  EXPECT_EQ(report->circuit_switches_touched, 4u + 4u);
  EXPECT_FALSE(fabric.network().node_failed(leaf));
  EXPECT_TRUE(net::reachable(fabric.network(), fabric.host(5 * 4),
                             fabric.host(0)));
  EXPECT_EQ(realized(fabric), link_pairs(fabric.network()));
  fabric.check_invariants();
}

TEST(LeafSpine, SpineFailoverTouchesEveryLeafGroupColumn) {
  LeafSpineFabric fabric(params(8, 4, 2, 4, 2));
  LsPosition pos{LsTier::kSpine, 1};
  fabric.network().fail_node(fabric.node_at(pos));
  auto report = fabric.fail_over(pos);
  ASSERT_TRUE(report.has_value());
  // A spine holds one circuit on each switch of its group's column:
  // (L/G) leaf-group columns x G rotation switches = L = 8 circuits.
  EXPECT_EQ(report->circuit_switches_touched, static_cast<std::size_t>(8));
  EXPECT_EQ(realized(fabric), link_pairs(fabric.network()));
  fabric.check_invariants();
}

TEST(LeafSpine, GroupsExhaustIndependently) {
  LeafSpineFabric fabric(params(8, 4, 2, 4, 1));
  // Leaf group 0: leaves 0..3; group 1: leaves 4..7.
  ASSERT_TRUE(fabric.fail_over({LsTier::kLeaf, 0}).has_value());
  EXPECT_FALSE(fabric.fail_over({LsTier::kLeaf, 1}).has_value());
  ASSERT_TRUE(fabric.fail_over({LsTier::kLeaf, 4}).has_value());
  // Spine pool independent from leaf pools.
  ASSERT_TRUE(fabric.fail_over({LsTier::kSpine, 0}).has_value());
  fabric.check_invariants();
}

TEST(LeafSpine, RepairedDevicesRotateBackAsSpares) {
  LeafSpineFabric fabric(params(4, 2, 3, 2, 1));
  auto r1 = fabric.fail_over({LsTier::kSpine, 0});
  ASSERT_TRUE(r1.has_value());
  EXPECT_FALSE(fabric.fail_over({LsTier::kSpine, 1}).has_value());
  fabric.return_to_pool(r1->failed_device);
  auto r2 = fabric.fail_over({LsTier::kSpine, 1});
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->replacement, r1->failed_device);
  EXPECT_EQ(realized(fabric), link_pairs(fabric.network()));
}

TEST(LeafSpine, RepeatedPoolReturnIsANoOp) {
  // A retried or duplicated return command must not corrupt the pool,
  // exactly as on the fat-tree fabric.
  LeafSpineFabric fabric(params(4, 2, 3, 2, 1));
  auto r = fabric.fail_over({LsTier::kLeaf, 1});
  ASSERT_TRUE(r.has_value());
  fabric.return_to_pool(r->failed_device);
  fabric.return_to_pool(r->failed_device);
  EXPECT_EQ(fabric.device_state(r->failed_device), DeviceState::kSpare);
  EXPECT_EQ(fabric.spares(LsTier::kLeaf, 0),
            std::vector<DeviceUid>{r->failed_device});
  fabric.check_invariants();
}

TEST(LeafSpine, ChurnKeepsRoutingAlive) {
  LeafSpineFabric fabric(params(8, 4, 2, 4, 2));
  routing::GenericEcmpRouter router(5);
  Rng rng(321);
  std::vector<DeviceUid> out;
  for (int round = 0; round < 40; ++round) {
    if (!out.empty() && rng.bernoulli(0.45)) {
      fabric.return_to_pool(out.back());
      out.pop_back();
    } else {
      LsPosition pos = rng.bernoulli(0.5)
                           ? LsPosition{LsTier::kLeaf,
                                        static_cast<int>(rng.uniform_index(8))}
                           : LsPosition{LsTier::kSpine,
                                        static_cast<int>(rng.uniform_index(4))};
      net::NodeId node = fabric.node_at(pos);
      fabric.network().fail_node(node);
      auto r = fabric.fail_over(pos);
      if (r.has_value()) {
        out.push_back(r->failed_device);
      } else {
        fabric.network().restore_node(node);
      }
    }
    fabric.check_invariants();
    net::Path p = router.route(fabric.network(), fabric.host(0),
                               fabric.host(15), round, nullptr);
    ASSERT_FALSE(p.empty()) << "round " << round;
    EXPECT_TRUE(net::is_live_path(fabric.network(), p));
  }
  EXPECT_EQ(realized(fabric), link_pairs(fabric.network()));
}

}  // namespace
}  // namespace sbk::sharebackup
