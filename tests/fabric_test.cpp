// Property and unit tests for the ShareBackup fabric: wiring invariants
// (§3 / Fig. 3), failover mechanics, circuit tracing, and the structural
// census behind the Table 2 cost terms.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "net/algo.hpp"
#include "sharebackup/fabric.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sbk::sharebackup {
namespace {

FabricParams params(int k, int n) {
  FabricParams p;
  p.fat_tree.k = k;
  p.backups_per_group = n;
  return p;
}

/// Sorted (min,max) node-id pairs of the fat-tree's links.
std::vector<std::pair<std::uint32_t, std::uint32_t>> link_pairs(
    const net::Network& net) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    const net::Link& l = net.link(net::LinkId(
        static_cast<net::LinkId::value_type>(i)));
    out.emplace_back(std::min(l.a.value(), l.b.value()),
                     std::max(l.a.value(), l.b.value()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> realized_pairs(
    const Fabric& fabric) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (auto [a, b] : fabric.realized_adjacency()) {
    out.emplace_back(std::min(a.value(), b.value()),
                     std::max(a.value(), b.value()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class FabricWiring : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FabricWiring, DefaultCircuitsRealizeExactlyTheFatTree) {
  auto [k, n] = GetParam();
  Fabric fabric(params(k, n));
  EXPECT_EQ(realized_pairs(fabric), link_pairs(fabric.network()));
}

TEST_P(FabricWiring, FailureGroupMembersShareCircuitSwitchesWithOneLinkEach) {
  auto [k, n] = GetParam();
  Fabric fabric(params(k, n));
  const int half = k / 2;

  // For every failure group: every member device (in-service and spare
  // alike) is cabled once to every circuit switch of the group's span.
  auto check_layer = [&](topo::Layer layer, int groups) {
    for (int g = 0; g < groups; ++g) {
      std::vector<DeviceUid> members;
      for (int slot = 0; slot < half; ++slot) {
        topo::SwitchPosition pos{layer, layer == topo::Layer::kCore ? -1 : g,
                                 layer == topo::Layer::kCore
                                     ? slot * half + g
                                     : slot};
        members.push_back(fabric.device_at(pos));
      }
      auto spares = fabric.spares(layer, g);
      members.insert(members.end(), spares.begin(), spares.end());

      // All members must attach the same multiset of circuit switches.
      std::vector<std::size_t> reference;
      for (const auto& dp : fabric.ports_of_device(members[0])) {
        reference.push_back(dp.cs);
      }
      std::sort(reference.begin(), reference.end());
      EXPECT_TRUE(std::adjacent_find(reference.begin(), reference.end()) ==
                  reference.end())
          << "device cabled twice to one circuit switch";
      for (DeviceUid m : members) {
        std::vector<std::size_t> mine;
        for (const auto& dp : fabric.ports_of_device(m)) mine.push_back(dp.cs);
        std::sort(mine.begin(), mine.end());
        EXPECT_EQ(mine, reference);
      }
    }
  };
  check_layer(topo::Layer::kEdge, k);
  check_layer(topo::Layer::kAgg, k);
  check_layer(topo::Layer::kCore, half);
}

TEST_P(FabricWiring, CensusMatchesPaperFormulas) {
  auto [k, n] = GetParam();
  Fabric fabric(params(k, n));
  Fabric::Census c = fabric.census();
  const int half = k / 2;
  // 5k/2 failure groups, n backups each (§5.2).
  EXPECT_EQ(c.failure_groups, static_cast<std::size_t>(5 * k / 2));
  EXPECT_EQ(c.backup_switches, static_cast<std::size_t>(5 * k * n / 2));
  // 3 sets of k/2 circuit switches per pod.
  EXPECT_EQ(c.circuit_switches, static_cast<std::size_t>(3 * k * half));
  // Physical ports: 2*(k/2+n) device ports + 2 side ports per switch.
  EXPECT_EQ(c.circuit_switch_physical_ports,
            c.circuit_switches * static_cast<std::size_t>(k + 2 * n + 2));
  // Each backup edge/agg switch runs k cables, each backup core k; total
  // 5/2 k^2 n cable ends = 5/4 k^2 n whole-link equivalents (§5.2).
  EXPECT_EQ(c.backup_device_cables,
            static_cast<std::size_t>(5 * k * k * n / 2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FabricWiring,
                         ::testing::Values(std::pair{4, 1}, std::pair{6, 1},
                                           std::pair{6, 2}, std::pair{8, 3}));

TEST(Fabric, RejectsAbWiring) {
  FabricParams p = params(4, 1);
  p.fat_tree.wiring = topo::Wiring::kAb;
  EXPECT_THROW(Fabric{p}, sbk::ContractViolation);
}

TEST(Fabric, FailoverRestoresNodeAndPreservesAdjacency) {
  Fabric fabric(params(6, 1));
  topo::SwitchPosition pos{topo::Layer::kAgg, 2, 1};
  net::NodeId node = fabric.node_at(pos);
  DeviceUid before = fabric.device_at(pos);

  fabric.network().fail_node(node);
  auto baseline = link_pairs(fabric.network());

  auto report = fabric.fail_over(pos);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->failed_device, before);
  EXPECT_NE(report->replacement, before);
  EXPECT_FALSE(fabric.network().node_failed(node));
  EXPECT_EQ(fabric.device_state(before), DeviceState::kOut);
  EXPECT_EQ(fabric.device_state(report->replacement),
            DeviceState::kInService);

  // The packet topology is unchanged and fully realized by circuits.
  EXPECT_EQ(link_pairs(fabric.network()), baseline);
  EXPECT_EQ(realized_pairs(fabric), baseline);
  fabric.check_invariants();

  // An agg switch touches layer-2 and layer-3 circuit switches: k/2 each.
  EXPECT_EQ(report->circuit_switches_touched, 6u);
}

TEST(Fabric, FailoverTouchesExpectedCircuitSwitchCountsPerLayer) {
  Fabric fabric(params(6, 1));
  auto edge = fabric.fail_over({topo::Layer::kEdge, 0, 0});
  ASSERT_TRUE(edge.has_value());
  // hosts_per_edge (=3) layer-1 switches + k/2 (=3) layer-2 switches.
  EXPECT_EQ(edge->circuit_switches_touched, 6u);
  auto core = fabric.fail_over({topo::Layer::kCore, -1, 4});
  ASSERT_TRUE(core.has_value());
  // One layer-3 switch per pod.
  EXPECT_EQ(core->circuit_switches_touched, 6u);
  fabric.check_invariants();
}

TEST(Fabric, PoolExhaustionReturnsNullopt) {
  Fabric fabric(params(4, 1));
  ASSERT_TRUE(fabric.fail_over({topo::Layer::kEdge, 0, 0}).has_value());
  EXPECT_FALSE(fabric.fail_over({topo::Layer::kEdge, 0, 1}).has_value());
  // Other groups unaffected.
  EXPECT_TRUE(fabric.fail_over({topo::Layer::kEdge, 1, 0}).has_value());
}

TEST(Fabric, RepairedDeviceRejoinsPoolAndServesAgain) {
  Fabric fabric(params(4, 1));
  topo::SwitchPosition a{topo::Layer::kCore, -1, 0};
  topo::SwitchPosition b{topo::Layer::kCore, -1, 2};  // same group (0 mod 2)
  auto f1 = fabric.fail_over(a);
  ASSERT_TRUE(f1.has_value());
  EXPECT_FALSE(fabric.fail_over(b).has_value());
  fabric.return_to_pool(f1->failed_device);
  auto f2 = fabric.fail_over(b);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->replacement, f1->failed_device);
  fabric.check_invariants();
  // And the topology is still exactly the fat-tree.
  EXPECT_EQ(realized_pairs(fabric), link_pairs(fabric.network()));
}

TEST(Fabric, ChainedFailoversAcrossLayersKeepNetworkConnected) {
  Fabric fabric(params(6, 2));
  sbk::Rng rng(99);
  std::vector<topo::SwitchPosition> positions;
  for (int pod = 0; pod < 6; ++pod) {
    for (int j = 0; j < 3; ++j) {
      positions.push_back({topo::Layer::kEdge, pod, j});
      positions.push_back({topo::Layer::kAgg, pod, j});
    }
  }
  for (int c = 0; c < 9; ++c) positions.push_back({topo::Layer::kCore, -1, c});

  std::vector<DeviceUid> out;
  for (int round = 0; round < 60; ++round) {
    if (!out.empty() && rng.bernoulli(0.4)) {
      std::size_t i = rng.uniform_index(out.size());
      fabric.return_to_pool(out[i]);
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      auto pos = positions[rng.uniform_index(positions.size())];
      net::NodeId node = fabric.node_at(pos);
      fabric.network().fail_node(node);
      auto r = fabric.fail_over(pos);
      if (r.has_value()) {
        out.push_back(r->failed_device);
      } else {
        fabric.network().restore_node(node);  // unrecoverable: undo
      }
    }
  }
  fabric.check_invariants();
  EXPECT_EQ(realized_pairs(fabric), link_pairs(fabric.network()));
  EXPECT_EQ(net::live_component_count(fabric.network()), 1u);
}

TEST(Fabric, CsOfLinkIdentifiesTheRealizingSwitch) {
  Fabric fabric(params(6, 1));
  const net::Network& net = fabric.network();
  // Every link's claimed circuit switch actually holds a matched circuit
  // between the two endpoint devices.
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    net::LinkId link(static_cast<net::LinkId::value_type>(i));
    std::size_t cs = fabric.cs_of_link(link);
    const net::Link& l = net.link(link);
    auto dev_of = [&](net::NodeId node) {
      if (net.node(node).kind == net::NodeKind::kHost) {
        return fabric.device_of_host(node);
      }
      return fabric.device_at(*fabric.position_of_node(node));
    };
    DeviceUid da = dev_of(l.a);
    DeviceUid db = dev_of(l.b);
    const CircuitSwitch& sw = fabric.circuit_switch(cs);
    auto pa = sw.port_of_device(da);
    auto pb = sw.port_of_device(db);
    ASSERT_TRUE(pa.has_value() && pb.has_value()) << sw.name();
    EXPECT_EQ(sw.peer(*pa), *pb) << sw.name();
  }
}

TEST(Fabric, TraceCircuitFollowsRingCables) {
  Fabric fabric(params(6, 1));
  // Take an offline pair: fail over edge (0,0); its device's ports are
  // now free; connect one through the ring and trace.
  auto r = fabric.fail_over({topo::Layer::kEdge, 0, 0});
  ASSERT_TRUE(r.has_value());
  DeviceUid dev = r->failed_device;

  std::size_t cs = fabric.cs_index(2, 0, 0);
  std::size_t cs_next = fabric.cs_index(2, 0, 1);
  CircuitSwitch& sw = fabric.circuit_switch(cs);
  CircuitSwitch& nsw = fabric.circuit_switch(cs_next);

  int p = fabric.device_port_on(dev, cs);
  int side = sw.port(PortClass::kSideRight);
  int nside = nsw.port(PortClass::kSideLeft);
  int target = fabric.device_port_on(dev, cs_next);
  ASSERT_FALSE(sw.is_matched(p));
  ASSERT_FALSE(nsw.is_matched(target));

  sw.connect(p, side);
  nsw.connect(nside, target);
  auto endpoint = fabric.trace_circuit(cs, p);
  ASSERT_TRUE(endpoint.has_value());
  EXPECT_EQ(endpoint->device, dev);
  EXPECT_EQ(endpoint->cs, cs_next);

  // Probe semantics: healthy by default, broken when either end is bad.
  EXPECT_TRUE(fabric.probe(InterfaceRef{dev, cs}));
  fabric.set_interface_health(InterfaceRef{dev, cs_next}, false);
  EXPECT_FALSE(fabric.probe(InterfaceRef{dev, cs}));
  fabric.heal_device(dev);
  EXPECT_TRUE(fabric.probe(InterfaceRef{dev, cs}));

  sw.disconnect(p);
  nsw.disconnect(nside);
}

TEST(Fabric, TraceCircuitDeadEnds) {
  Fabric fabric(params(4, 1));
  auto r = fabric.fail_over({topo::Layer::kAgg, 0, 0});
  ASSERT_TRUE(r.has_value());
  DeviceUid dev = r->failed_device;
  std::size_t cs = fabric.cs_index(3, 0, 0);
  int p = fabric.device_port_on(dev, cs);
  // Unmatched port: open circuit.
  EXPECT_FALSE(fabric.trace_circuit(cs, p).has_value());
  EXPECT_FALSE(fabric.probe(InterfaceRef{dev, cs}));
}

TEST(Fabric, RackModeBuildsWithSingleLayer1Switch) {
  FabricParams p = params(4, 1);
  p.fat_tree.hosts_per_edge = 1;
  p.fat_tree.host_link_capacity = 20.0;
  Fabric fabric(p);
  // Layer-1: 1 per pod; layers 2-3: k/2 = 2 per pod.
  EXPECT_EQ(fabric.circuit_switch_count(),
            static_cast<std::size_t>(4 * (1 + 2 + 2)));
  EXPECT_EQ(realized_pairs(fabric), link_pairs(fabric.network()));
  auto r = fabric.fail_over({topo::Layer::kEdge, 0, 0});
  ASSERT_TRUE(r.has_value());
  // 1 layer-1 + 2 layer-2 switches.
  EXPECT_EQ(r->circuit_switches_touched, 3u);
  EXPECT_EQ(realized_pairs(fabric), link_pairs(fabric.network()));
}

TEST(Fabric, NonUniformBackupProvisioning) {
  // §6: more backup on critical devices, less on unimportant ones. Give
  // edge groups 2 backups (a dead edge kills a rack), aggs 1, cores 0.
  FabricParams p = params(6, 1);
  p.backups_edge = 2;
  p.backups_agg = 1;
  p.backups_core = 0;
  Fabric fabric(p);
  EXPECT_EQ(fabric.spares(topo::Layer::kEdge, 0).size(), 2u);
  EXPECT_EQ(fabric.spares(topo::Layer::kAgg, 0).size(), 1u);
  EXPECT_TRUE(fabric.spares(topo::Layer::kCore, 0).empty());

  // Default wiring still realizes the exact fat-tree.
  EXPECT_EQ(realized_pairs(fabric), link_pairs(fabric.network()));
  fabric.check_invariants();

  // Edge group absorbs two failures; core groups none.
  EXPECT_TRUE(fabric.fail_over({topo::Layer::kEdge, 0, 0}).has_value());
  EXPECT_TRUE(fabric.fail_over({topo::Layer::kEdge, 0, 1}).has_value());
  EXPECT_FALSE(fabric.fail_over({topo::Layer::kEdge, 0, 2}).has_value());
  EXPECT_FALSE(fabric.fail_over({topo::Layer::kCore, -1, 0}).has_value());
  fabric.check_invariants();
  EXPECT_EQ(realized_pairs(fabric), link_pairs(fabric.network()));

  // Census reflects the asymmetric pools: k*(2+1) + (k/2)*0 backups.
  EXPECT_EQ(fabric.census().backup_switches, static_cast<std::size_t>(6 * 3));
}

TEST(Fabric, AsymmetricCircuitSwitchPortBudget) {
  FabricParams p = params(4, 1);
  p.backups_edge = 3;
  p.backups_agg = 1;
  p.backups_core = 0;
  Fabric fabric(p);
  // Layer-2 switches: south (edge side) 3 backups, north (agg side) 1.
  const CircuitSwitch& l2 = fabric.circuit_switch(fabric.cs_index(2, 0, 0));
  EXPECT_EQ(l2.south_backups(), 3);
  EXPECT_EQ(l2.north_backups(), 1);
  EXPECT_EQ(l2.port_count(), 2 * 2 + 3 + 1 + 2);
  // Layer-3: south (agg) 1, north (core) 0.
  const CircuitSwitch& l3 = fabric.circuit_switch(fabric.cs_index(3, 0, 0));
  EXPECT_EQ(l3.south_backups(), 1);
  EXPECT_EQ(l3.north_backups(), 0);
}

TEST(Fabric, ScaleSweepK16EveryPositionFailsOverAndReturns) {
  // Production-scale smoke: k=16 (320 switch positions, 384 circuit
  // switches). Every position fails over once and the replaced device is
  // repaired back; invariants and realized adjacency hold throughout
  // spot-checks and at the end.
  Fabric fabric(params(16, 1));
  const int k = 16;
  std::vector<topo::SwitchPosition> positions;
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < 8; ++j) {
      positions.push_back({topo::Layer::kEdge, pod, j});
      positions.push_back({topo::Layer::kAgg, pod, j});
    }
  }
  for (int c = 0; c < 64; ++c) positions.push_back({topo::Layer::kCore, -1, c});
  ASSERT_EQ(positions.size(), 320u);

  std::size_t i = 0;
  for (const auto& pos : positions) {
    fabric.network().fail_node(fabric.node_at(pos));
    auto r = fabric.fail_over(pos);
    ASSERT_TRUE(r.has_value());
    fabric.return_to_pool(r->failed_device);
    if (++i % 64 == 0) fabric.check_invariants();
  }
  fabric.check_invariants();
  EXPECT_EQ(realized_pairs(fabric), link_pairs(fabric.network()));
  EXPECT_EQ(net::live_component_count(fabric.network()), 1u);
}

TEST(Fabric, PositionDeviceRoundTrip) {
  Fabric fabric(params(6, 1));
  for (int pod = 0; pod < 6; ++pod) {
    for (int j = 0; j < 3; ++j) {
      for (topo::Layer layer : {topo::Layer::kEdge, topo::Layer::kAgg}) {
        topo::SwitchPosition pos{layer, pod, j};
        DeviceUid dev = fabric.device_at(pos);
        auto back = fabric.position_of_device(dev);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, pos);
      }
    }
  }
  for (int c = 0; c < 9; ++c) {
    topo::SwitchPosition pos{topo::Layer::kCore, -1, c};
    auto back = fabric.position_of_device(fabric.device_at(pos));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, pos);
  }
  // Spares serve no position.
  auto spares = fabric.spares(topo::Layer::kEdge, 0);
  ASSERT_FALSE(spares.empty());
  EXPECT_FALSE(fabric.position_of_device(spares[0]).has_value());
}

TEST(Fabric, InterfaceHealthRejectsOutOfRangeCircuitSwitchIds) {
  // The interface-health map keys on (device, cs) packed into 64 bits.
  // cs is a std::size_t: before the checked packing, a cs of 2^32 + 5
  // silently aliased (device + 1, 5) and flipped the health of an
  // unrelated device's interface. Now it is a contract violation.
  Fabric fabric(params(4, 1));
  const InterfaceRef adversarial{DeviceUid{1},
                                 (std::size_t{1} << 32) + 5};
  EXPECT_THROW(fabric.set_interface_health(adversarial, false),
               ContractViolation);
  EXPECT_THROW((void)fabric.interface_healthy(adversarial),
               ContractViolation);
  // In-range ids keep working and stay isolated per device.
  const InterfaceRef fine{DeviceUid{1}, 0};
  fabric.set_interface_health(fine, false);
  EXPECT_FALSE(fabric.interface_healthy(fine));
  EXPECT_TRUE(fabric.interface_healthy(InterfaceRef{DeviceUid{2}, 0}));
  fabric.set_interface_health(fine, true);
  EXPECT_TRUE(fabric.interface_healthy(fine));
}

/// Every broken interface in the fabric, hosts included.
std::vector<InterfaceRef> broken_interfaces(const Fabric& fabric) {
  std::vector<InterfaceRef> out;
  const std::size_t devices = fabric.switch_device_count() +
                              static_cast<std::size_t>(
                                  fabric.fat_tree().host_count());
  for (DeviceUid uid = 0; uid < devices; ++uid) {
    for (const Fabric::DevicePort& dp : fabric.ports_of_device(uid)) {
      if (!fabric.interface_healthy({uid, dp.cs})) out.push_back({uid, dp.cs});
    }
  }
  return out;
}

TEST(Fabric, GroundLinkFailureBreaksOnlyTheCulpritInterface) {
  Fabric fabric(params(4, 1));
  net::Network& net = fabric.network();
  const net::NodeId edge = fabric.fat_tree().edge(1, 0);
  const net::NodeId agg = fabric.fat_tree().agg(1, 1);
  const net::LinkId link = *net.find_link(edge, agg);
  const std::size_t cs = fabric.cs_of_link(link);
  // The culprit is whatever device serves the position now, so a
  // failover first moves the fault onto the replacement.
  const auto replaced = fabric.fail_over(*fabric.position_of_node(agg));
  ASSERT_TRUE(replaced.has_value());

  EXPECT_TRUE(fabric.ground_link_failure(link, agg));
  EXPECT_TRUE(net.link_failed(link));
  EXPECT_EQ(broken_interfaces(fabric),
            (std::vector<InterfaceRef>{{replaced->replacement, cs}}));
  fabric.check_invariants();

  // A link that is already down is refused and nothing changes.
  EXPECT_FALSE(fabric.ground_link_failure(link, edge));
  EXPECT_EQ(broken_interfaces(fabric).size(), 1u);

  // So is a healthy link with either endpoint down.
  const net::NodeId agg0 = fabric.fat_tree().agg(1, 0);
  const net::LinkId other = *net.find_link(edge, agg0);
  for (net::NodeId down : {edge, agg0}) {
    net.fail_node(down);
    EXPECT_FALSE(fabric.ground_link_failure(other, agg0));
    EXPECT_FALSE(fabric.ground_link_failure(other, edge));
    net.restore_node(down);
  }
  EXPECT_FALSE(net.link_failed(other));
  EXPECT_EQ(broken_interfaces(fabric).size(), 1u);

  // The culprit must be an endpoint of the link.
  EXPECT_THROW(fabric.ground_link_failure(other, agg), ContractViolation);
}

TEST(Fabric, GroundLinkFailureOnAHostNic) {
  Fabric fabric(params(4, 1));
  const net::NodeId host = fabric.fat_tree().host(2, 1, 0);
  const net::LinkId link = fabric.fat_tree().host_link(host);
  EXPECT_TRUE(fabric.ground_link_failure(link, host));
  EXPECT_TRUE(fabric.network().link_failed(link));
  EXPECT_EQ(broken_interfaces(fabric),
            (std::vector<InterfaceRef>{
                {fabric.device_of_host(host), fabric.cs_of_link(link)}}));
}

TEST(Fabric, SwitchDevicesListsPositionsThenSparesGroupByGroup) {
  // The list the repair crew walks, as each driver built it by hand
  // before the fabric owned it.
  auto driver_built = [](const Fabric& fabric) {
    std::vector<DeviceUid> out;
    for (net::NodeId sw : fabric.fat_tree().all_switches()) {
      out.push_back(fabric.device_at(*fabric.position_of_node(sw)));
    }
    for (topo::Layer layer :
         {topo::Layer::kEdge, topo::Layer::kAgg, topo::Layer::kCore}) {
      for (int g = 0; g < topo::failure_group_count(fabric.k(), layer);
           ++g) {
        for (DeviceUid uid : fabric.spares(layer, g)) out.push_back(uid);
      }
    }
    return out;
  };
  struct Backups {
    int edge, agg, core;
  };
  for (int k : {4, 6, 8}) {
    for (Backups b : {Backups{-1, -1, -1}, Backups{2, 1, 0},
                      Backups{0, 3, 2}}) {
      FabricParams p = params(k, 1);
      p.backups_edge = b.edge;
      p.backups_agg = b.agg;
      p.backups_core = b.core;
      Fabric fabric(p);
      const std::vector<DeviceUid>& list = fabric.switch_devices();
      EXPECT_EQ(list, driver_built(fabric)) << "k=" << k;
      // Every switch device once, but not in uid order: uids interleave
      // each group's spares with its positions.
      std::vector<DeviceUid> sorted = list;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(sorted.size(), fabric.switch_device_count());
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        EXPECT_EQ(sorted[i], static_cast<DeviceUid>(i));
      }
      EXPECT_FALSE(std::is_sorted(list.begin(), list.end())) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace sbk::sharebackup
