// The failure-group pool both ShareBackup fabrics run (§3): the physical
// devices and their cables to the circuit switches, the failure groups
// whose members share n backups, and the two moves between roles —
// fail-over (the group's first spare takes over a slot and inherits its
// circuits) and pool return (a repaired or exonerated device joins the
// back of its group's spare list; "replaced switches become backups").
//
// A fabric builds the pool with its own wiring and maps its positions
// to (group, slot); which device serves which position is recorded here
// and nowhere else. Every member of a group preloads the group's routing
// table (§4.3), so this assignment is all the state a failover changes.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/ids.hpp"
#include "sharebackup/circuit_switch.hpp"
#include "sharebackup/device.hpp"
#include "util/assert.hpp"

namespace sbk::sharebackup {

class DevicePool {
 public:
  /// One cable end of a device: the circuit switch and its port there.
  struct DevicePort {
    std::size_t cs;
    int port;
  };
  /// A failure group: the devices serving its slots and its backups,
  /// each either an idle spare or out of service.
  struct Group {
    std::vector<DeviceUid> assigned;  ///< by slot
    std::vector<DeviceUid> spare;     ///< fail-over takes the front
    std::vector<DeviceUid> out;       ///< awaiting repair or exoneration
    int backups = 0;                  ///< n = |spare| + |out|
  };
  /// What one fail-over changed.
  struct Swap {
    DeviceUid failed = kNoDeviceUid;
    DeviceUid replacement = kNoDeviceUid;
    /// Circuit switches whose matching changed.
    std::size_t circuit_switches_touched = 0;
  };

  // --- building -------------------------------------------------------------
  /// Adds failure group `id` of `layer` at the next group index:
  /// `slots` in-service devices SW-<tag>-<id>-<slot>, then `backups`
  /// spares BS-<tag>-<id>-<b>.
  void add_group(topo::Layer layer, int id, int slots, int backups,
                 const std::string& tag);
  /// Adds a host: a device that has cables but never fails over.
  DeviceUid add_host(std::string name);
  /// Adds a circuit switch at the next circuit-switch index.
  void add_circuit_switch(std::string name, int regular_per_side,
                          int south_backups, int north_backups);
  /// Cables interface `iface` of `dev` to port `slot` of class `cls` on
  /// circuit switch `cs`.
  void attach(std::size_t cs, PortClass cls, int slot, DeviceUid dev,
              int iface);
  /// Chains circuit switches first .. first+count-1 into a side-port
  /// ring (Fig. 4); fewer than two switches make no ring.
  void ring(std::size_t first, int count);

  // --- state ----------------------------------------------------------------
  [[nodiscard]] std::size_t device_count() const noexcept {
    return devices_.size();
  }
  [[nodiscard]] const PhysicalDevice& device(DeviceUid uid) const {
    SBK_EXPECTS(uid < devices_.size());
    return devices_[uid];
  }
  [[nodiscard]] DeviceState state(DeviceUid uid) const {
    SBK_EXPECTS(uid < state_.size());
    return state_[uid];
  }
  [[nodiscard]] const std::vector<DevicePort>& ports(DeviceUid uid) const {
    SBK_EXPECTS(uid < ports_.size());
    return ports_[uid];
  }
  /// The device's port on circuit switch `cs` (it must be cabled there).
  [[nodiscard]] int port_on(DeviceUid uid, std::size_t cs) const;
  [[nodiscard]] std::size_t group_count() const noexcept {
    return groups_.size();
  }
  [[nodiscard]] const Group& group(std::size_t g) const {
    SBK_EXPECTS(g < groups_.size());
    return groups_[g];
  }
  /// Slot an in-service device serves in its group; nullopt for hosts
  /// and for devices not in service.
  [[nodiscard]] std::optional<int> slot_of(DeviceUid uid) const;
  /// Spares pooled across all groups.
  [[nodiscard]] std::size_t spare_count() const;

  [[nodiscard]] std::size_t circuit_switch_count() const noexcept {
    return switches_.size();
  }
  [[nodiscard]] const CircuitSwitch& circuit_switch(std::size_t idx) const {
    SBK_EXPECTS(idx < switches_.size());
    return switches_[idx];
  }
  [[nodiscard]] CircuitSwitch& circuit_switch(std::size_t idx) {
    SBK_EXPECTS(idx < switches_.size());
    return switches_[idx];
  }

  // --- role changes ---------------------------------------------------------
  /// Replaces the device at `slot` of group `g` with the group's first
  /// spare: every live circuit of the failed device is re-pointed at the
  /// spare's port on the same circuit switch. The failed device goes out
  /// of service. Returns nullopt when the group has no spare.
  [[nodiscard]] std::optional<Swap> fail_over(std::size_t g, int slot);
  /// Moves an out-of-service device to the back of its group's spare
  /// list. Idempotent: returns false, changing nothing, when the device
  /// already is a spare, so a retried or duplicated command cannot
  /// corrupt the pool.
  bool return_to_pool(DeviceUid uid);

  // --- checks ---------------------------------------------------------------
  /// Packet-layer adjacency realized by the current matchings: for every
  /// circuit joining two device interfaces, the pair of nodes `node_of`
  /// maps the devices to (a device it maps to nullopt adds no pair).
  [[nodiscard]] std::vector<std::pair<net::NodeId, net::NodeId>>
  realized_adjacency(
      const std::function<std::optional<net::NodeId>(DeviceUid)>& node_of)
      const;
  /// Matchings are consistent and every group's bookkeeping agrees with
  /// the device states: assigned devices in service, spares idle with no
  /// live circuit, out-of-service devices out, and |spare| + |out| = n.
  /// Throws ContractViolation on breakage.
  void check_invariants() const;

 private:
  DeviceUid add_device(bool is_host, topo::Layer layer, int id,
                       std::string name);

  std::vector<PhysicalDevice> devices_;
  std::vector<DeviceState> state_;
  std::vector<std::vector<DevicePort>> ports_;
  /// Index into groups_ per device; unused for hosts.
  std::vector<std::size_t> group_of_;
  std::vector<Group> groups_;
  std::vector<CircuitSwitch> switches_;
};

}  // namespace sbk::sharebackup
