#include "sharebackup/leaf_spine.hpp"

#include "util/assert.hpp"

namespace sbk::sharebackup {

namespace {
std::string ls_cs_name(int layer, int a, int b, int m) {
  return "LCS[" + std::to_string(layer) + ',' + std::to_string(a) + ',' +
         std::to_string(b) + ',' + std::to_string(m) + ']';
}
}  // namespace

LeafSpineFabric::LeafSpineFabric(const LeafSpineParams& params)
    : params_(params) {
  const int L = params_.leaves;
  const int S = params_.spines;
  const int H = params_.hosts_per_leaf;
  const int G = params_.group_size;
  const int n = params_.backups_per_group;
  SBK_EXPECTS_MSG(L > 0 && S > 0 && H > 0 && G > 0 && n >= 0,
                  "leaf-spine parameters must be positive");
  SBK_EXPECTS_MSG(L % G == 0 && S % G == 0,
                  "leaves and spines must partition into groups of G");

  // --- packet network: positions ------------------------------------------
  for (int i = 0; i < L; ++i) {
    leaves_.push_back(net_.add_node(net::NodeKind::kEdgeSwitch,
                                    "LEAF" + std::to_string(i), i / G, i % G));
  }
  for (int i = 0; i < S; ++i) {
    spines_.push_back(net_.add_node(net::NodeKind::kCoreSwitch,
                                    "SPINE" + std::to_string(i), -1, i));
  }
  for (int i = 0; i < L * H; ++i) {
    hosts_.push_back(
        net_.add_node(net::NodeKind::kHost, "LH" + std::to_string(i),
                      (i / H) / G, i));
  }
  for (int i = 0; i < L * H; ++i) {
    net_.add_link(hosts_[static_cast<std::size_t>(i)],
                  leaves_[static_cast<std::size_t>(i / H)],
                  params_.host_link_capacity);
  }
  for (int l = 0; l < L; ++l) {
    for (int s = 0; s < S; ++s) {
      net_.add_link(leaves_[static_cast<std::size_t>(l)],
                    spines_[static_cast<std::size_t>(s)],
                    params_.fabric_link_capacity);
    }
  }

  // --- devices ----------------------------------------------------------------
  const int leaf_grp_count = L / G;
  const int spine_grp_count = S / G;
  for (int g = 0; g < leaf_grp_count; ++g) {
    pool_.add_group(topo::Layer::kEdge, g, G, n, "leaf");
  }
  for (int g = 0; g < spine_grp_count; ++g) {
    pool_.add_group(topo::Layer::kCore, g, G, n, "spine");
  }
  for (int i = 0; i < L * H; ++i) {
    host_device_.push_back(pool_.add_host("LSHOST-" + std::to_string(i)));
  }

  // --- circuit switches ----------------------------------------------------
  // Layer 1: per leaf group, H switches (host slot m of each member).
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    for (int m = 0; m < H; ++m) {
      pool_.add_circuit_switch(ls_cs_name(1, lg, 0, m), G, n, n);
    }
  }
  // Layer 2: per (leaf group, spine group) pair, G switches.
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    for (int sg = 0; sg < spine_grp_count; ++sg) {
      for (int m = 0; m < G; ++m) {
        pool_.add_circuit_switch(ls_cs_name(2, lg, sg, m), G, n, n);
      }
    }
  }

  // Interface indexing: leaf device — 0..H-1 down, H..H+S-1 up
  // (uplink index = sg*G + m); spine device — one interface per leaf
  // group column it meets, index = lg*G + m.
  auto at = [](const std::vector<DeviceUid>& devices, int i) {
    return devices[static_cast<std::size_t>(i)];
  };
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    const DevicePool::Group& grp =
        pool_.group(group_index(LsTier::kLeaf, lg));
    for (int m = 0; m < H; ++m) {
      std::size_t cs = cs_layer1(lg, m);
      for (int a = 0; a < G; ++a) {
        int host_index = (lg * G + a) * H + m;
        pool_.attach(cs, PortClass::kSouthRegular, a,
                     at(host_device_, host_index), 0);
        pool_.attach(cs, PortClass::kNorthRegular, a, at(grp.assigned, a), m);
      }
      for (int b = 0; b < n; ++b) {
        pool_.attach(cs, PortClass::kNorthBackup, b, at(grp.spare, b), m);
      }
    }
  }
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    const DevicePool::Group& lgrp =
        pool_.group(group_index(LsTier::kLeaf, lg));
    for (int sg = 0; sg < spine_grp_count; ++sg) {
      const DevicePool::Group& sgrp =
          pool_.group(group_index(LsTier::kSpine, sg));
      for (int m = 0; m < G; ++m) {
        std::size_t cs = cs_layer2(lg, sg, m);
        for (int a = 0; a < G; ++a) {
          pool_.attach(cs, PortClass::kSouthRegular, a, at(lgrp.assigned, a),
                       H + sg * G + m);
        }
        for (int b = 0; b < n; ++b) {
          pool_.attach(cs, PortClass::kSouthBackup, b, at(lgrp.spare, b),
                       H + sg * G + m);
        }
        for (int a = 0; a < G; ++a) {
          pool_.attach(cs, PortClass::kNorthRegular, a, at(sgrp.assigned, a),
                       lg * G + m);
        }
        for (int b = 0; b < n; ++b) {
          pool_.attach(cs, PortClass::kNorthBackup, b, at(sgrp.spare, b),
                       lg * G + m);
        }
      }
    }
  }

  // Side rings: layer-1 rows per leaf group; layer-2 rows per group pair.
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    pool_.ring(cs_layer1(lg, 0), H);
    for (int sg = 0; sg < spine_grp_count; ++sg) {
      pool_.ring(cs_layer2(lg, sg, 0), G);
    }
  }

  // --- default matchings ------------------------------------------------------
  for (int lg = 0; lg < leaf_grp_count; ++lg) {
    for (int m = 0; m < H; ++m) {
      CircuitSwitch& sw = pool_.circuit_switch(cs_layer1(lg, m));
      for (int a = 0; a < G; ++a) {
        sw.connect(sw.port(PortClass::kSouthRegular, a),
                   sw.port(PortClass::kNorthRegular, a));
      }
    }
    for (int sg = 0; sg < spine_grp_count; ++sg) {
      for (int m = 0; m < G; ++m) {
        CircuitSwitch& sw = pool_.circuit_switch(cs_layer2(lg, sg, m));
        for (int a = 0; a < G; ++a) {
          sw.connect(sw.port(PortClass::kSouthRegular, a),
                     sw.port(PortClass::kNorthRegular, (a + m) % G));
        }
      }
    }
  }
  check_invariants();
}

std::size_t LeafSpineFabric::group_index(LsTier tier, int id) const {
  const int leaf_groups = params_.leaves / params_.group_size;
  if (tier == LsTier::kLeaf) {
    SBK_EXPECTS(id >= 0 && id < leaf_groups);
    return static_cast<std::size_t>(id);
  }
  SBK_EXPECTS(id >= 0 && id < params_.spines / params_.group_size);
  return static_cast<std::size_t>(leaf_groups + id);
}

std::size_t LeafSpineFabric::cs_layer1(int leaf_group, int m) const {
  SBK_EXPECTS(leaf_group >= 0 &&
              leaf_group < params_.leaves / params_.group_size);
  SBK_EXPECTS(m >= 0 && m < params_.hosts_per_leaf);
  return static_cast<std::size_t>(leaf_group) * params_.hosts_per_leaf + m;
}

std::size_t LeafSpineFabric::cs_layer2(int leaf_group, int spine_group,
                                       int m) const {
  const int leaf_grp_count = params_.leaves / params_.group_size;
  const int spine_grp_count = params_.spines / params_.group_size;
  SBK_EXPECTS(leaf_group >= 0 && leaf_group < leaf_grp_count);
  SBK_EXPECTS(spine_group >= 0 && spine_group < spine_grp_count);
  SBK_EXPECTS(m >= 0 && m < params_.group_size);
  std::size_t layer1 = static_cast<std::size_t>(leaf_grp_count) *
                       params_.hosts_per_leaf;
  return layer1 +
         (static_cast<std::size_t>(leaf_group) * spine_grp_count +
          spine_group) *
             params_.group_size +
         m;
}

net::NodeId LeafSpineFabric::host(int i) const {
  SBK_EXPECTS(i >= 0 && i < host_count());
  return hosts_[static_cast<std::size_t>(i)];
}

net::NodeId LeafSpineFabric::leaf(int i) const {
  SBK_EXPECTS(i >= 0 && i < params_.leaves);
  return leaves_[static_cast<std::size_t>(i)];
}

net::NodeId LeafSpineFabric::spine(int i) const {
  SBK_EXPECTS(i >= 0 && i < params_.spines);
  return spines_[static_cast<std::size_t>(i)];
}

net::NodeId LeafSpineFabric::node_at(LsPosition pos) const {
  return pos.tier == LsTier::kLeaf ? leaf(pos.index) : spine(pos.index);
}

int LeafSpineFabric::group_of(LsPosition pos) const {
  return pos.index / params_.group_size;
}

DeviceUid LeafSpineFabric::device_at(LsPosition pos) const {
  const DevicePool::Group& g =
      pool_.group(group_index(pos.tier, group_of(pos)));
  return g.assigned[static_cast<std::size_t>(pos.index % params_.group_size)];
}

std::vector<DeviceUid> LeafSpineFabric::spares(LsTier tier, int grp) const {
  return pool_.group(group_index(tier, grp)).spare;
}

std::optional<LeafSpineFabric::FailoverReport> LeafSpineFabric::fail_over(
    LsPosition pos) {
  std::optional<DevicePool::Swap> swap = pool_.fail_over(
      group_index(pos.tier, group_of(pos)), pos.index % params_.group_size);
  if (!swap.has_value()) return std::nullopt;
  net_.restore_node(node_at(pos));
  return FailoverReport{pos, swap->failed, swap->replacement,
                        swap->circuit_switches_touched,
                        reconfiguration_latency(params_.technology)};
}

std::vector<std::pair<net::NodeId, net::NodeId>>
LeafSpineFabric::realized_adjacency() const {
  return pool_.realized_adjacency(
      [this](DeviceUid uid) -> std::optional<net::NodeId> {
        const PhysicalDevice& d = pool_.device(uid);
        if (d.is_host) return hosts_[uid - host_device_.front()];
        std::optional<int> slot = pool_.slot_of(uid);
        if (!slot.has_value()) return std::nullopt;
        const int index = d.group * params_.group_size + *slot;
        return d.layer == topo::Layer::kEdge ? leaf(index) : spine(index);
      });
}

LeafSpineFabric::Census LeafSpineFabric::census() const {
  Census c;
  c.circuit_switches = pool_.circuit_switch_count();
  c.failure_groups = pool_.group_count();
  c.backup_switches =
      c.failure_groups * static_cast<std::size_t>(params_.backups_per_group);
  return c;
}

}  // namespace sbk::sharebackup
