// Model of the small circuit switches ShareBackup inserts between
// adjacent layers (§3). Electrically these are crosspoint or 2D-MEMS
// switches; we model each as a nonblocking any-to-any crossbar over its
// physical ports with a configurable partial matching.
//
// Port budget per switch (paper notation: a (k/2+n+2) x (k/2+n+2)
// crossbar): on the south (lower-layer) side k/2 regular + n backup
// ports, on the north (upper-layer) side the same, plus 2 side ports
// that chain the k/2 circuit switches of a pod layer into a ring for
// offline diagnosis (Fig. 4).
//
// Reconfiguration latency constants are the ones the paper cites:
// 70 ns for electrical crosspoint switches (XFabric) and 40 us for
// 2D-MEMS optical switches (§5.3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace sbk::sharebackup {

/// Implementation technology; selects the reconfiguration latency and
/// the per-port cost used by the cost model.
enum class CircuitTechnology : std::uint8_t {
  kElectricalCrosspoint,  ///< 70 ns reconfiguration, $3/port
  kOpticalMems2D,         ///< 40 us reconfiguration, $10/port
};

[[nodiscard]] constexpr Seconds reconfiguration_latency(
    CircuitTechnology tech) noexcept {
  return tech == CircuitTechnology::kElectricalCrosspoint
             ? nanoseconds(70)
             : microseconds(40);
}

/// Port classification.
enum class PortClass : std::uint8_t {
  kSouthRegular,
  kSouthBackup,
  kNorthRegular,
  kNorthBackup,
  kSideLeft,
  kSideRight,
};

[[nodiscard]] constexpr bool is_side(PortClass c) noexcept {
  return c == PortClass::kSideLeft || c == PortClass::kSideRight;
}

/// What a port's external cable is plugged into.
struct Attachment {
  enum class Kind : std::uint8_t { kNone, kDeviceInterface, kSidePeer };
  Kind kind = Kind::kNone;
  /// kDeviceInterface: the physical device uid + which of the device's
  /// interfaces this cable serves (e.g. an edge switch's m-th uplink).
  std::uint32_t device = 0;
  int interface_index = 0;
  /// kSidePeer: the neighboring circuit switch in the ring + its port.
  int peer_cs = -1;
  int peer_port = -1;
};

/// One circuit switch. Ports are dense indices; the matching is a
/// partial involution without fixed points over them.
class CircuitSwitch {
 public:
  /// Symmetric backup ports on both sides.
  CircuitSwitch(std::string name, int regular_per_side, int backups_per_side);
  /// Asymmetric backup ports (non-uniform failure groups, §6: the two
  /// layers joined by this switch may provision different n).
  CircuitSwitch(std::string name, int regular_per_side, int south_backups,
                int north_backups);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int port_count() const noexcept {
    return static_cast<int>(class_.size());
  }
  [[nodiscard]] int regular_per_side() const noexcept { return regular_; }
  [[nodiscard]] int south_backups() const noexcept { return south_backups_; }
  [[nodiscard]] int north_backups() const noexcept { return north_backups_; }

  /// Port index of a given class + slot (slot ignored for side ports).
  [[nodiscard]] int port(PortClass cls, int slot = 0) const;
  [[nodiscard]] PortClass port_class(int port) const;
  [[nodiscard]] int port_slot(int port) const;

  // --- external cabling (fixed at build time) ----------------------------
  void attach_device(int port, std::uint32_t device, int interface_index);
  void attach_side(int port, int peer_cs, int peer_port);
  [[nodiscard]] const Attachment& attachment(int port) const;
  /// Port attached to the given device's cable, if any.
  [[nodiscard]] std::optional<int> port_of_device(std::uint32_t device) const;

  // --- matching (reconfigurable) ------------------------------------------
  /// Connects two free, distinct ports. Counts one reconfiguration.
  void connect(int a, int b);
  /// Tears down the circuit at `port` (no-op allowed? no: port must be
  /// matched). Counts one reconfiguration.
  void disconnect(int port);
  [[nodiscard]] std::optional<int> peer(int port) const {
    SBK_EXPECTS(port >= 0 && port < port_count());
    const int q = match_[static_cast<std::size_t>(port)];
    if (q == -1) return std::nullopt;
    return q;
  }
  [[nodiscard]] bool is_matched(int port) const {
    SBK_EXPECTS(port >= 0 && port < port_count());
    return match_[static_cast<std::size_t>(port)] != -1;
  }

  /// Number of connect/disconnect operations performed so far.
  [[nodiscard]] std::size_t reconfigurations() const noexcept {
    return reconfigurations_;
  }
  [[nodiscard]] std::size_t active_circuits() const;

  /// Verifies the matching is a partial involution without fixed points.
  [[nodiscard]] bool matching_is_consistent() const;

 private:
  std::string name_;
  int regular_;
  int south_backups_;
  int north_backups_;
  std::vector<PortClass> class_;
  std::vector<int> slot_;
  std::vector<Attachment> attach_;
  std::vector<int> match_;  // -1 = free
  std::size_t reconfigurations_ = 0;
};

}  // namespace sbk::sharebackup
