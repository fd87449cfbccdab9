#include "sharebackup/device_pool.hpp"

#include <algorithm>

namespace sbk::sharebackup {

DeviceUid DevicePool::add_device(bool is_host, topo::Layer layer, int id,
                                 std::string name) {
  DeviceUid uid = static_cast<DeviceUid>(devices_.size());
  devices_.push_back(PhysicalDevice{uid, is_host, layer, id, std::move(name)});
  state_.push_back(DeviceState::kInService);
  ports_.emplace_back();
  group_of_.push_back(groups_.size());
  return uid;
}

void DevicePool::add_group(topo::Layer layer, int id, int slots, int backups,
                           const std::string& tag) {
  SBK_EXPECTS(slots > 0 && backups >= 0);
  const std::string family = tag + '-' + std::to_string(id) + '-';
  Group g;
  g.backups = backups;
  for (int s = 0; s < slots; ++s) {
    g.assigned.push_back(
        add_device(false, layer, id, "SW-" + family + std::to_string(s)));
  }
  for (int b = 0; b < backups; ++b) {
    DeviceUid uid =
        add_device(false, layer, id, "BS-" + family + std::to_string(b));
    state_[uid] = DeviceState::kSpare;
    g.spare.push_back(uid);
  }
  groups_.push_back(std::move(g));
}

DeviceUid DevicePool::add_host(std::string name) {
  return add_device(true, topo::Layer::kEdge, -1, std::move(name));
}

void DevicePool::add_circuit_switch(std::string name, int regular_per_side,
                                    int south_backups, int north_backups) {
  switches_.emplace_back(std::move(name), regular_per_side, south_backups,
                         north_backups);
}

void DevicePool::attach(std::size_t cs, PortClass cls, int slot,
                        DeviceUid dev, int iface) {
  CircuitSwitch& sw = circuit_switch(cs);
  int port = sw.port(cls, slot);
  sw.attach_device(port, dev, iface);
  ports_[dev].push_back(DevicePort{cs, port});
}

void DevicePool::ring(std::size_t first, int count) {
  if (count < 2) return;  // a ring needs at least two members
  for (int m = 0; m < count; ++m) {
    std::size_t a = first + static_cast<std::size_t>(m);
    std::size_t b = first + static_cast<std::size_t>((m + 1) % count);
    int right = circuit_switch(a).port(PortClass::kSideRight);
    int left = circuit_switch(b).port(PortClass::kSideLeft);
    switches_[a].attach_side(right, static_cast<int>(b), left);
    switches_[b].attach_side(left, static_cast<int>(a), right);
  }
}

int DevicePool::port_on(DeviceUid uid, std::size_t cs) const {
  for (const DevicePort& dp : ports(uid)) {
    if (dp.cs == cs) return dp.port;
  }
  SBK_EXPECTS_MSG(false, "device is not cabled to that circuit switch");
  return -1;
}

std::optional<int> DevicePool::slot_of(DeviceUid uid) const {
  if (device(uid).is_host || state_[uid] != DeviceState::kInService) {
    return std::nullopt;
  }
  const std::vector<DeviceUid>& assigned = groups_[group_of_[uid]].assigned;
  auto it = std::find(assigned.begin(), assigned.end(), uid);
  if (it == assigned.end()) return std::nullopt;
  return static_cast<int>(it - assigned.begin());
}

std::size_t DevicePool::spare_count() const {
  std::size_t total = 0;
  for (const Group& g : groups_) total += g.spare.size();
  return total;
}

std::optional<DevicePool::Swap> DevicePool::fail_over(std::size_t g,
                                                      int slot) {
  SBK_EXPECTS(g < groups_.size());
  Group& grp = groups_[g];
  if (grp.spare.empty()) return std::nullopt;
  Swap swap;
  swap.failed = grp.assigned[static_cast<std::size_t>(slot)];
  swap.replacement = grp.spare.front();
  grp.spare.erase(grp.spare.begin());

  for (const DevicePort& dp : ports_[swap.failed]) {
    CircuitSwitch& sw = switches_[dp.cs];
    std::optional<int> peer = sw.peer(dp.port);
    if (!peer.has_value()) continue;
    int spare_port = port_on(swap.replacement, dp.cs);
    SBK_ASSERT_MSG(!sw.is_matched(spare_port),
                   "spare device ports must be idle before failover");
    sw.disconnect(dp.port);
    sw.connect(spare_port, *peer);
    ++swap.circuit_switches_touched;
  }

  grp.assigned[static_cast<std::size_t>(slot)] = swap.replacement;
  grp.out.push_back(swap.failed);
  state_[swap.failed] = DeviceState::kOut;
  state_[swap.replacement] = DeviceState::kInService;
  return swap;
}

bool DevicePool::return_to_pool(DeviceUid uid) {
  if (state(uid) == DeviceState::kSpare) return false;  // idempotent
  SBK_EXPECTS_MSG(state_[uid] == DeviceState::kOut,
                  "only out-of-service devices can return to the pool");
  Group& g = groups_[group_of_[uid]];
  auto it = std::find(g.out.begin(), g.out.end(), uid);
  SBK_ASSERT(it != g.out.end());
  g.out.erase(it);
  g.spare.push_back(uid);
  state_[uid] = DeviceState::kSpare;
  return true;
}

std::vector<std::pair<net::NodeId, net::NodeId>>
DevicePool::realized_adjacency(
    const std::function<std::optional<net::NodeId>(DeviceUid)>& node_of)
    const {
  std::vector<std::pair<net::NodeId, net::NodeId>> out;
  for (const CircuitSwitch& sw : switches_) {
    for (int p = 0; p < sw.port_count(); ++p) {
      std::optional<int> q = sw.peer(p);
      if (!q.has_value() || *q < p) continue;  // count each circuit once
      const Attachment& pa = sw.attachment(p);
      const Attachment& qa = sw.attachment(*q);
      if (pa.kind != Attachment::Kind::kDeviceInterface ||
          qa.kind != Attachment::Kind::kDeviceInterface) {
        continue;  // diagnosis circuits through side ports are not links
      }
      std::optional<net::NodeId> a = node_of(pa.device);
      std::optional<net::NodeId> b = node_of(qa.device);
      if (a.has_value() && b.has_value()) out.emplace_back(*a, *b);
    }
  }
  return out;
}

void DevicePool::check_invariants() const {
  for (const CircuitSwitch& sw : switches_) {
    SBK_ENSURES(sw.matching_is_consistent());
  }
  for (const Group& g : groups_) {
    for (DeviceUid uid : g.assigned) {
      SBK_ENSURES(state_[uid] == DeviceState::kInService);
    }
    for (DeviceUid uid : g.spare) {
      SBK_ENSURES(state_[uid] == DeviceState::kSpare);
      // Spare devices must hold no live circuits.
      for (const DevicePort& dp : ports_[uid]) {
        SBK_ENSURES(!switches_[dp.cs].is_matched(dp.port));
      }
    }
    for (DeviceUid uid : g.out) {
      SBK_ENSURES(state_[uid] == DeviceState::kOut);
    }
    SBK_ENSURES(g.spare.size() + g.out.size() ==
                static_cast<std::size_t>(g.backups));
  }
}

}  // namespace sbk::sharebackup
