// The ShareBackup fabric (§3): a plain-wired fat-tree whose adjacent
// layers are joined through small circuit switches, with n shared backup
// switches per failure group.
//
// Modeling choices (see DESIGN.md):
//   * The packet Network contains one node per *logical position* (hosts,
//     edge/agg/core slots). Physical devices — including backups — are
//     tracked by the fabric, not as graph nodes; a failover re-points the
//     circuits of a position from the failed device to a spare, after
//     which the position node is healthy again with its original links.
//     This matches the paper exactly: the backup impersonates the failed
//     switch, and the packet topology after recovery is indistinguishable
//     from the pre-failure topology.
//   * Circuit switches carry fixed cables to physical devices; the
//     reconfigurable state is the per-switch port matching.
//   * Default matchings realize the fat-tree adjacency:
//       layer 1 (host-edge):  straight-through (south j <-> north j);
//       layer 2 (edge-agg):   rotation by the switch index m
//                             (south e <-> north (e+m) mod k/2), which
//                             yields the complete bipartite pod wiring;
//       layer 3 (agg-core):   straight-through, with the m-th switch of a
//                             pod serving the cores ≡ m (mod k/2).
//   * Interface health is ground truth for fault injection and offline
//     diagnosis: an interface is the (device, circuit switch) cable end.
//   * Devices, cables, failure groups, fail-over and pool return live in
//     the DevicePool shared with the leaf-spine fabric; this class adds
//     the fat-tree wiring and the position -> (group, slot) map.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/ids.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sharebackup/circuit_switch.hpp"
#include "sharebackup/device_pool.hpp"
#include "topo/fat_tree.hpp"
#include "topo/position.hpp"
#include "util/keys.hpp"
#include "util/time.hpp"

namespace sbk::sharebackup {

using topo::Layer;
using topo::SwitchPosition;

struct FabricParams {
  topo::FatTreeParams fat_tree;  ///< wiring must be Wiring::kPlain
  int backups_per_group = 1;     ///< the paper's n
  /// Non-uniform failure groups (§6: "more backup on critical devices,
  /// less on unimportant ones"): per-layer overrides of n; -1 means use
  /// backups_per_group. Circuit switches are sized for the largest n in
  /// the layers they serve.
  int backups_edge = -1;
  int backups_agg = -1;
  int backups_core = -1;
  CircuitTechnology technology = CircuitTechnology::kElectricalCrosspoint;

  [[nodiscard]] int backups_for(Layer layer) const {
    switch (layer) {
      case Layer::kEdge: return backups_edge >= 0 ? backups_edge : backups_per_group;
      case Layer::kAgg: return backups_agg >= 0 ? backups_agg : backups_per_group;
      case Layer::kCore: return backups_core >= 0 ? backups_core : backups_per_group;
    }
    return backups_per_group;
  }
};

/// Identifies one device interface (= one cable end at a circuit switch).
struct InterfaceRef {
  DeviceUid device = kNoDeviceUid;
  std::size_t cs = 0;  ///< global circuit-switch index

  friend constexpr bool operator==(InterfaceRef, InterfaceRef) noexcept =
      default;
};

class Fabric {
 public:
  explicit Fabric(const FabricParams& params);

  // --- topology access ----------------------------------------------------
  [[nodiscard]] const topo::FatTree& fat_tree() const noexcept { return ft_; }
  [[nodiscard]] topo::FatTree& fat_tree() noexcept { return ft_; }
  [[nodiscard]] const net::Network& network() const noexcept {
    return ft_.network();
  }
  [[nodiscard]] net::Network& network() noexcept { return ft_.network(); }
  [[nodiscard]] int k() const noexcept { return ft_.k(); }
  [[nodiscard]] int half_k() const noexcept { return ft_.half_k(); }
  [[nodiscard]] int n() const noexcept { return params_.backups_per_group; }
  [[nodiscard]] CircuitTechnology technology() const noexcept {
    return params_.technology;
  }

  // --- positions and devices ------------------------------------------------
  [[nodiscard]] net::NodeId node_at(SwitchPosition pos) const;
  [[nodiscard]] std::optional<SwitchPosition> position_of_node(
      net::NodeId node) const {
    const net::Node& n = network().node(node);
    switch (n.kind) {
      case net::NodeKind::kEdgeSwitch:
        return SwitchPosition{Layer::kEdge, n.pod, n.index};
      case net::NodeKind::kAggSwitch:
        return SwitchPosition{Layer::kAgg, n.pod, n.index};
      case net::NodeKind::kCoreSwitch:
        return SwitchPosition{Layer::kCore, -1, n.index};
      case net::NodeKind::kHost:
        return std::nullopt;
    }
    SBK_UNREACHABLE("bad node kind");
  }
  [[nodiscard]] DeviceUid device_at(SwitchPosition pos) const {
    const DevicePool::Group& g =
        pool_.group(group_index(pos.layer, topo::failure_group_of(k(), pos)));
    return g.assigned[static_cast<std::size_t>(topo::group_slot_of(k(), pos))];
  }
  [[nodiscard]] const PhysicalDevice& device(DeviceUid uid) const {
    return pool_.device(uid);
  }
  [[nodiscard]] DeviceState device_state(DeviceUid uid) const {
    return pool_.state(uid);
  }
  [[nodiscard]] std::vector<DeviceUid> spares(Layer layer, int group) const;
  [[nodiscard]] std::size_t switch_device_count() const noexcept {
    return switch_devices_.size();
  }
  /// Every switch device, the closed set that failovers permute: each
  /// position's device at construction, in fat_tree().all_switches()
  /// order, then the edge, agg and core spares, group by group. The
  /// repair crew walks it in this order, which decides repair order and
  /// so which spare each later failover takes.
  [[nodiscard]] const std::vector<DeviceUid>& switch_devices()
      const noexcept {
    return switch_devices_;
  }
  /// Position currently served by an in-service device.
  [[nodiscard]] std::optional<SwitchPosition> position_of_device(
      DeviceUid uid) const;
  /// Physical device representing a host node (hosts never fail over).
  [[nodiscard]] DeviceUid device_of_host(net::NodeId host) const;

  // --- circuit switches ---------------------------------------------------
  [[nodiscard]] std::size_t circuit_switch_count() const noexcept {
    return pool_.circuit_switch_count();
  }
  [[nodiscard]] const CircuitSwitch& circuit_switch(std::size_t idx) const;
  [[nodiscard]] CircuitSwitch& circuit_switch(std::size_t idx);
  /// Global index of circuit switch CS_{cs_layer, pod, m}; cs_layer is the
  /// paper's l in {1,2,3}. For layer 1, m ranges over hosts_per_edge; for
  /// layers 2-3 over k/2.
  [[nodiscard]] std::size_t cs_index(int cs_layer, int pod, int m) const;
  /// Circuit switches a device is cabled to, with its port on each.
  using DevicePort = DevicePool::DevicePort;
  [[nodiscard]] const std::vector<DevicePort>& ports_of_device(
      DeviceUid uid) const;

  // --- interface health (ground truth for fault injection) -----------------
  [[nodiscard]] bool interface_healthy(InterfaceRef iface) const;
  void set_interface_health(InterfaceRef iface, bool healthy);
  /// Heals every interface of a device (models repair).
  void heal_device(DeviceUid uid);
  /// Grounds a link failure in a broken interface (§4.1-4.2: offline
  /// diagnosis later pins it on one endpoint): breaks the `culprit`
  /// endpoint's interface on the link's circuit switch (the device now
  /// serving a switch position, or a host's NIC) and fails the link.
  /// Does nothing and returns false when the link or either endpoint is
  /// already down. `culprit` must be an endpoint of `link`.
  bool ground_link_failure(net::LinkId link, net::NodeId culprit);
  /// True iff every interface of the device is healthy. The controller
  /// verifies a replacement with this after reconfiguration: a spare can
  /// be dead-on-arrival, in which case the failover must cascade to the
  /// next spare instead of declaring the position recovered.
  [[nodiscard]] bool device_interfaces_healthy(DeviceUid uid) const;

  // --- failover -------------------------------------------------------------
  struct FailoverReport {
    SwitchPosition position;
    DeviceUid failed_device = kNoDeviceUid;
    DeviceUid replacement = kNoDeviceUid;
    /// Circuit switches whose matching changed (reconfigured in parallel).
    std::size_t circuit_switches_touched = 0;
    /// Physical-layer latency of the reconfiguration (per technology; the
    /// switches reconfigure concurrently).
    Seconds reconfiguration_latency = 0.0;
  };

  /// Replaces the device at `pos` with a spare of its failure group.
  /// Rewrites the circuit matchings and marks the position node healthy
  /// (its links are served by fresh hardware). Returns nullopt when the
  /// group's pool is exhausted. The replaced device becomes kOut.
  [[nodiscard]] std::optional<FailoverReport> fail_over(SwitchPosition pos);

  /// Puts an out-of-service device back into the spare pool (after repair
  /// or exoneration) — the paper's "replaced switches become backups".
  /// Idempotent: returning a device that is already a spare is a no-op,
  /// so a retried/duplicated control command cannot corrupt the pool.
  void return_to_pool(DeviceUid uid);

  /// Counters fabric.{failovers,circuit_reconfigurations,pool_returns}
  /// and gauge fabric.spare_pool (total spares across groups, seeded at
  /// attach time and tracked incrementally). Pass nullptr to detach. The
  /// registry must outlive the fabric.
  void attach_metrics(obs::MetricsRegistry* metrics);

  /// Spares currently pooled across all failure groups (the telemetry
  /// backup-pool-occupancy probe).
  [[nodiscard]] std::size_t total_spares() const;

  /// Instants for failovers / pool returns plus a "fabric.spare_pool"
  /// counter track, timestamped with set_trace_time() (the fabric has no
  /// clock of its own; the controller forwards its own time through
  /// set_time()). Pass nullptr to detach; must outlive the fabric.
  void attach_recorder(obs::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }
  void set_trace_time(Seconds now) noexcept { trace_now_ = now; }

  // --- circuit tracing / probing (offline diagnosis support) ---------------
  /// Follows the circuit starting at `port` of switch `cs` through
  /// matchings and side-ring cables until it terminates at a device
  /// interface or dead-ends. Bounded by the ring length.
  [[nodiscard]] std::optional<InterfaceRef> trace_circuit(std::size_t cs,
                                                          int port) const;
  /// True iff a test message injected at `from` comes back on the circuit
  /// — i.e. the circuit terminates at some interface and both end
  /// interfaces are healthy. `from` must be matched.
  [[nodiscard]] bool probe(InterfaceRef from) const;
  /// The device's port on the given circuit switch (it must be cabled).
  [[nodiscard]] int device_port_on(DeviceUid uid, std::size_t cs) const;
  /// The circuit switch through which a packet-layer link is realized
  /// (derived structurally from the endpoints' positions).
  [[nodiscard]] std::size_t cs_of_link(net::LinkId link) const;

  // --- structural census (validated against the Table 2 formulas) ----------
  struct Census {
    std::size_t backup_switches = 0;
    std::size_t circuit_switches = 0;
    std::size_t circuit_switch_physical_ports = 0;
    std::size_t backup_device_cables = 0;  ///< backup-switch-to-CS cables
    std::size_t failure_groups = 0;
  };
  [[nodiscard]] Census census() const;

  /// Packet-layer adjacency realized by the current circuit matchings:
  /// pairs of Network nodes whose positions' devices are circuit-joined.
  /// In any consistent state this equals the fat-tree link set (property
  /// test).
  [[nodiscard]] std::vector<std::pair<net::NodeId, net::NodeId>>
  realized_adjacency() const;

  /// Cross-checks internal invariants (matching consistency, assignment
  /// bijectivity, spare accounting). Throws ContractViolation on breakage.
  void check_invariants() const;

 private:
  void build_devices();
  void build_circuit_switches();
  void wire_defaults();
  /// Pool index of a failure group: edge groups by pod, then agg groups
  /// by pod, then core groups.
  [[nodiscard]] std::size_t group_index(Layer layer, int id) const {
    SBK_EXPECTS(id >= 0 && id < topo::failure_group_count(k(), layer));
    const std::size_t pods = static_cast<std::size_t>(k());
    switch (layer) {
      case Layer::kEdge: return static_cast<std::size_t>(id);
      case Layer::kAgg: return pods + static_cast<std::size_t>(id);
      case Layer::kCore: return 2 * pods + static_cast<std::size_t>(id);
    }
    SBK_UNREACHABLE("bad layer");
  }
  // iface.cs is a std::size_t: packing it unmasked into the low word
  // would let a cs >= 2^32 bleed into the device word and alias another
  // interface's health entry, so the checked pack is load-bearing here.
  [[nodiscard]] static std::uint64_t iface_key(InterfaceRef iface) {
    return util::pack_pair_key(iface.device, iface.cs);
  }

  FabricParams params_;
  topo::FatTree ft_;
  DevicePool pool_;
  std::size_t cs_layer1_per_pod_ = 0;
  /// Per-cabled-port unhealthy flags, parallel to pool_.ports() (same
  /// device and port indexing). Probing storms during recovery hit this
  /// once per cable end, so it is flat; devices hold a handful of ports
  /// and a linear cs scan stays in one cache line.
  std::vector<std::vector<std::uint8_t>> iface_unhealthy_;
  /// Marks on (device, cs) pairs with no cable between them — reachable
  /// through the public API, vanishingly rare in practice (fault
  /// injectors mark cabled ends). Linear scan, usually empty.
  std::vector<std::uint64_t> uncabled_unhealthy_;
  std::vector<DeviceUid> switch_devices_;  ///< see switch_devices()
  /// Host device uid per global host index (hosts attach to layer-1 CS).
  std::vector<DeviceUid> host_device_;
  obs::Counter* m_failovers_ = nullptr;
  obs::Counter* m_reconfigurations_ = nullptr;
  obs::Counter* m_pool_returns_ = nullptr;
  obs::Gauge* m_spare_pool_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  Seconds trace_now_ = 0.0;
};

}  // namespace sbk::sharebackup
