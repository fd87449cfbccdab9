// Sharable backup beyond fat-tree (§6): "most data center network
// architectures have symmetric structures. Sharable backup is thus
// readily applicable to these networks, with different plans for
// partitioning failure groups."
//
// This module applies the ShareBackup building block to a two-tier
// leaf-spine (folded Clos) network:
//
//   * L leaf switches, S spine switches, complete bipartite between
//     them; H hosts per leaf;
//   * leaves are partitioned into groups of G, spines into groups of G;
//     each group shares n backup switches;
//   * layer-1 circuit switches sit between hosts and each leaf group
//     (H switches per group; straight-through wiring), exactly the
//     fat-tree building block of Fig. 3(a);
//   * layer-2 circuit switches sit on each (leaf-group x spine-group)
//     pair: G switches with the rotational wiring of Fig. 3(b), giving
//     every leaf one link to every spine;
//   * side ports chain each circuit-switch row into a ring, as in the
//     fat-tree fabric.
//
// Failover semantics are identical to sharebackup::Fabric, because both
// run the same DevicePool: network nodes are logical positions; a
// failover re-points the failed device's circuits at a spare and
// restores the position. This class adds the leaf-spine wiring and the
// position -> (group, slot) map.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/ids.hpp"
#include "net/network.hpp"
#include "sharebackup/circuit_switch.hpp"
#include "sharebackup/device_pool.hpp"
#include "util/time.hpp"

namespace sbk::sharebackup {

struct LeafSpineParams {
  int leaves = 8;
  int spines = 4;
  int hosts_per_leaf = 4;
  int group_size = 4;        ///< G: leaves/spines per failure group
  int backups_per_group = 1; ///< n
  double host_link_capacity = 1.0;
  double fabric_link_capacity = 1.0;
  CircuitTechnology technology = CircuitTechnology::kElectricalCrosspoint;
};

/// Which tier a leaf-spine position lives on.
enum class LsTier : std::uint8_t { kLeaf, kSpine };

/// A logical position: tier + global switch index.
struct LsPosition {
  LsTier tier = LsTier::kLeaf;
  int index = 0;

  friend constexpr bool operator==(LsPosition, LsPosition) noexcept = default;
};

class LeafSpineFabric {
 public:
  explicit LeafSpineFabric(const LeafSpineParams& params);

  [[nodiscard]] const LeafSpineParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] net::Network& network() noexcept { return net_; }
  [[nodiscard]] const net::Network& network() const noexcept { return net_; }

  [[nodiscard]] net::NodeId host(int i) const;
  [[nodiscard]] net::NodeId leaf(int i) const;
  [[nodiscard]] net::NodeId spine(int i) const;
  [[nodiscard]] int host_count() const noexcept {
    return params_.leaves * params_.hosts_per_leaf;
  }
  [[nodiscard]] net::NodeId node_at(LsPosition pos) const;

  // --- devices ---------------------------------------------------------------
  [[nodiscard]] DeviceUid device_at(LsPosition pos) const;
  [[nodiscard]] DeviceState device_state(DeviceUid uid) const {
    return pool_.state(uid);
  }
  [[nodiscard]] std::vector<DeviceUid> spares(LsTier tier, int group) const;
  [[nodiscard]] int group_of(LsPosition pos) const;

  // --- failover ----------------------------------------------------------------
  struct FailoverReport {
    LsPosition position;
    DeviceUid failed_device = kNoDeviceUid;
    DeviceUid replacement = kNoDeviceUid;
    std::size_t circuit_switches_touched = 0;
    Seconds reconfiguration_latency = 0.0;
  };
  [[nodiscard]] std::optional<FailoverReport> fail_over(LsPosition pos);
  /// Idempotent, like Fabric::return_to_pool.
  void return_to_pool(DeviceUid uid) { pool_.return_to_pool(uid); }

  // --- structure -------------------------------------------------------------
  [[nodiscard]] std::size_t circuit_switch_count() const noexcept {
    return pool_.circuit_switch_count();
  }
  [[nodiscard]] const CircuitSwitch& circuit_switch(std::size_t idx) const {
    return pool_.circuit_switch(idx);
  }
  /// Packet adjacency realized by the current matchings (must equal the
  /// leaf-spine link set in any consistent state).
  [[nodiscard]] std::vector<std::pair<net::NodeId, net::NodeId>>
  realized_adjacency() const;
  void check_invariants() const { pool_.check_invariants(); }

  struct Census {
    std::size_t backup_switches = 0;
    std::size_t circuit_switches = 0;
    std::size_t failure_groups = 0;
  };
  [[nodiscard]] Census census() const;

 private:
  /// Pool index of a failure group: leaf groups, then spine groups.
  [[nodiscard]] std::size_t group_index(LsTier tier, int id) const;
  [[nodiscard]] std::size_t cs_layer1(int leaf_group, int m) const;
  [[nodiscard]] std::size_t cs_layer2(int leaf_group, int spine_group,
                                      int m) const;

  LeafSpineParams params_;
  net::Network net_;
  std::vector<net::NodeId> hosts_;
  std::vector<net::NodeId> leaves_;
  std::vector<net::NodeId> spines_;
  /// Leaves are kEdge devices and spines kCore devices of the pool.
  DevicePool pool_;
  std::vector<DeviceUid> host_device_;
};

}  // namespace sbk::sharebackup
