#include "sharebackup/circuit_switch.hpp"

#include <algorithm>

namespace sbk::sharebackup {

CircuitSwitch::CircuitSwitch(std::string name, int regular_per_side,
                             int backups_per_side)
    : CircuitSwitch(std::move(name), regular_per_side, backups_per_side,
                    backups_per_side) {}

CircuitSwitch::CircuitSwitch(std::string name, int regular_per_side,
                             int south_backups, int north_backups)
    : name_(std::move(name)), regular_(regular_per_side),
      south_backups_(south_backups), north_backups_(north_backups) {
  SBK_EXPECTS(regular_ > 0);
  SBK_EXPECTS(south_backups_ >= 0 && north_backups_ >= 0);
  auto add = [this](PortClass cls, int slot) {
    class_.push_back(cls);
    slot_.push_back(slot);
  };
  for (int s = 0; s < regular_; ++s) add(PortClass::kSouthRegular, s);
  for (int s = 0; s < south_backups_; ++s) add(PortClass::kSouthBackup, s);
  for (int s = 0; s < regular_; ++s) add(PortClass::kNorthRegular, s);
  for (int s = 0; s < north_backups_; ++s) add(PortClass::kNorthBackup, s);
  add(PortClass::kSideLeft, 0);
  add(PortClass::kSideRight, 0);
  attach_.resize(class_.size());
  match_.assign(class_.size(), -1);
}

int CircuitSwitch::port(PortClass cls, int slot) const {
  switch (cls) {
    case PortClass::kSouthRegular:
      SBK_EXPECTS(slot >= 0 && slot < regular_);
      return slot;
    case PortClass::kSouthBackup:
      SBK_EXPECTS(slot >= 0 && slot < south_backups_);
      return regular_ + slot;
    case PortClass::kNorthRegular:
      SBK_EXPECTS(slot >= 0 && slot < regular_);
      return regular_ + south_backups_ + slot;
    case PortClass::kNorthBackup:
      SBK_EXPECTS(slot >= 0 && slot < north_backups_);
      return 2 * regular_ + south_backups_ + slot;
    case PortClass::kSideLeft:
      return 2 * regular_ + south_backups_ + north_backups_;
    case PortClass::kSideRight:
      return 2 * regular_ + south_backups_ + north_backups_ + 1;
  }
  SBK_UNREACHABLE("bad port class");
  return -1;
}

PortClass CircuitSwitch::port_class(int p) const {
  SBK_EXPECTS(p >= 0 && p < port_count());
  return class_[static_cast<std::size_t>(p)];
}

int CircuitSwitch::port_slot(int p) const {
  SBK_EXPECTS(p >= 0 && p < port_count());
  return slot_[static_cast<std::size_t>(p)];
}

void CircuitSwitch::attach_device(int p, std::uint32_t device,
                                  int interface_index) {
  SBK_EXPECTS(p >= 0 && p < port_count());
  SBK_EXPECTS_MSG(!is_side(class_[static_cast<std::size_t>(p)]),
                  "side ports carry ring cables, not device cables");
  Attachment& a = attach_[static_cast<std::size_t>(p)];
  SBK_EXPECTS_MSG(a.kind == Attachment::Kind::kNone,
                  "port already cabled");
  a.kind = Attachment::Kind::kDeviceInterface;
  a.device = device;
  a.interface_index = interface_index;
}

void CircuitSwitch::attach_side(int p, int peer_cs, int peer_port) {
  SBK_EXPECTS(p >= 0 && p < port_count());
  SBK_EXPECTS_MSG(is_side(class_[static_cast<std::size_t>(p)]),
                  "only side ports carry ring cables");
  Attachment& a = attach_[static_cast<std::size_t>(p)];
  SBK_EXPECTS_MSG(a.kind == Attachment::Kind::kNone, "port already cabled");
  a.kind = Attachment::Kind::kSidePeer;
  a.peer_cs = peer_cs;
  a.peer_port = peer_port;
}

const Attachment& CircuitSwitch::attachment(int p) const {
  SBK_EXPECTS(p >= 0 && p < port_count());
  return attach_[static_cast<std::size_t>(p)];
}

std::optional<int> CircuitSwitch::port_of_device(std::uint32_t device) const {
  for (int p = 0; p < port_count(); ++p) {
    const Attachment& a = attach_[static_cast<std::size_t>(p)];
    if (a.kind == Attachment::Kind::kDeviceInterface && a.device == device) {
      return p;
    }
  }
  return std::nullopt;
}

void CircuitSwitch::connect(int a, int b) {
  SBK_EXPECTS(a >= 0 && a < port_count() && b >= 0 && b < port_count());
  SBK_EXPECTS_MSG(a != b, "cannot loop a port back to itself");
  SBK_EXPECTS_MSG(match_[static_cast<std::size_t>(a)] == -1 &&
                      match_[static_cast<std::size_t>(b)] == -1,
                  "both ports must be free");
  match_[static_cast<std::size_t>(a)] = b;
  match_[static_cast<std::size_t>(b)] = a;
  ++reconfigurations_;
}

void CircuitSwitch::disconnect(int p) {
  SBK_EXPECTS(p >= 0 && p < port_count());
  int q = match_[static_cast<std::size_t>(p)];
  SBK_EXPECTS_MSG(q != -1, "port is not matched");
  match_[static_cast<std::size_t>(p)] = -1;
  match_[static_cast<std::size_t>(q)] = -1;
  ++reconfigurations_;
}

std::size_t CircuitSwitch::active_circuits() const {
  std::size_t matched = static_cast<std::size_t>(
      std::count_if(match_.begin(), match_.end(),
                    [](int m) { return m != -1; }));
  return matched / 2;
}

bool CircuitSwitch::matching_is_consistent() const {
  for (int p = 0; p < port_count(); ++p) {
    int q = match_[static_cast<std::size_t>(p)];
    if (q == -1) continue;
    if (q == p) return false;
    if (q < 0 || q >= port_count()) return false;
    if (match_[static_cast<std::size_t>(q)] != p) return false;
  }
  return true;
}

}  // namespace sbk::sharebackup
