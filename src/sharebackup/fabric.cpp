#include "sharebackup/fabric.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace sbk::sharebackup {

namespace {
std::string cs_name(int cs_layer, int pod, int m) {
  return "CS[" + std::to_string(cs_layer) + ',' + std::to_string(pod) + ',' +
         std::to_string(m) + ']';
}
}  // namespace

Fabric::Fabric(const FabricParams& params)
    : params_(params), ft_(params.fat_tree) {
  SBK_EXPECTS_MSG(params_.fat_tree.wiring == topo::Wiring::kPlain,
                  "ShareBackup builds on the plain-wired fat-tree");
  SBK_EXPECTS(params_.backups_per_group >= 0);
  build_devices();
  build_circuit_switches();
  wire_defaults();
  for (net::NodeId sw : ft_.all_switches()) {
    switch_devices_.push_back(device_at(*position_of_node(sw)));
  }
  for (const std::vector<Group>* groups :
       {&edge_groups_, &agg_groups_, &core_groups_}) {
    for (const Group& g : *groups) {
      switch_devices_.insert(switch_devices_.end(), g.spare.begin(),
                             g.spare.end());
    }
  }
  check_invariants();
}

DeviceUid Fabric::new_device(bool is_host, Layer layer, int grp,
                             std::string name) {
  DeviceUid uid = static_cast<DeviceUid>(devices_.size());
  devices_.push_back(PhysicalDevice{uid, is_host, layer, grp, std::move(name)});
  device_state_.push_back(DeviceState::kInService);
  device_ports_.emplace_back();
  iface_unhealthy_.emplace_back();
  return uid;
}

void Fabric::build_devices() {
  const int k = ft_.k();
  const int half = ft_.half_k();

  auto build_group = [&](Layer layer, int id, const char* tag) {
    const int n = params_.backups_for(layer);
    Group g;
    g.layer = layer;
    g.id = id;
    for (int s = 0; s < half; ++s) {
      DeviceUid uid = new_device(false, layer, id,
                                 std::string("SW-") + tag + '-' +
                                     std::to_string(id) + '-' +
                                     std::to_string(s));
      g.assigned.push_back(uid);
    }
    for (int b = 0; b < n; ++b) {
      DeviceUid uid = new_device(false, layer, id,
                                 std::string("BS-") + tag + '-' +
                                     std::to_string(id) + '-' +
                                     std::to_string(b));
      device_state_[uid] = DeviceState::kSpare;
      g.spare.push_back(uid);
    }
    return g;
  };

  for (int pod = 0; pod < k; ++pod) {
    edge_groups_.push_back(build_group(Layer::kEdge, pod, "edge"));
  }
  for (int pod = 0; pod < k; ++pod) {
    agg_groups_.push_back(build_group(Layer::kAgg, pod, "agg"));
  }
  for (int u = 0; u < half; ++u) {
    core_groups_.push_back(build_group(Layer::kCore, u, "core"));
  }

  // Hosts as (non-replaceable) devices so layer-1 cables have endpoints.
  host_device_.reserve(static_cast<std::size_t>(ft_.host_count()));
  for (int h = 0; h < ft_.host_count(); ++h) {
    host_device_.push_back(
        new_device(true, Layer::kEdge, -1, "HOST-" + std::to_string(h)));
  }
}

std::size_t Fabric::cs_index(int cs_layer, int pod, int m) const {
  const int k = ft_.k();
  const int half = ft_.half_k();
  const int hpe = static_cast<int>(cs_layer1_per_pod_);
  SBK_EXPECTS(pod >= 0 && pod < k);
  switch (cs_layer) {
    case 1:
      SBK_EXPECTS(m >= 0 && m < hpe);
      return static_cast<std::size_t>(pod) * hpe + m;
    case 2:
      SBK_EXPECTS(m >= 0 && m < half);
      return static_cast<std::size_t>(k) * hpe +
             static_cast<std::size_t>(pod) * half + m;
    case 3:
      SBK_EXPECTS(m >= 0 && m < half);
      return static_cast<std::size_t>(k) * hpe +
             static_cast<std::size_t>(k) * half +
             static_cast<std::size_t>(pod) * half + m;
    default:
      SBK_UNREACHABLE("circuit-switch layer must be 1, 2, or 3");
  }
}

void Fabric::register_port(DeviceUid dev, std::size_t cs, int port) {
  device_ports_[dev].push_back(DevicePort{cs, port});
  iface_unhealthy_[dev].push_back(0);
}

void Fabric::build_circuit_switches() {
  const int k = ft_.k();
  const int half = ft_.half_k();
  const int hpe = ft_.hosts_per_edge();
  const int n_edge = params_.backups_for(Layer::kEdge);
  const int n_agg = params_.backups_for(Layer::kAgg);
  const int n_core = params_.backups_for(Layer::kCore);
  cs_layer1_per_pod_ = static_cast<std::size_t>(hpe);

  // Interface index conventions per device:
  //   edge:  0..hpe-1 down (one per layer-1 CS), hpe..hpe+half-1 up;
  //   agg:   0..half-1 down, half..k-1 up;
  //   core:  0..k-1, one per pod;
  //   host:  0 (single NIC).
  switches_.reserve(static_cast<std::size_t>(k) * (hpe + 2 * half));
  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < hpe; ++m) {
      // South side: hosts (no backups exist, ports kept for symmetry).
      switches_.emplace_back(cs_name(1, pod, m), half, n_edge, n_edge);
    }
  }
  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < half; ++m) {
      switches_.emplace_back(cs_name(2, pod, m), half, n_edge, n_agg);
    }
  }
  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < half; ++m) {
      switches_.emplace_back(cs_name(3, pod, m), half, n_agg, n_core);
    }
  }

  auto attach = [&](std::size_t cs, PortClass cls, int slot, DeviceUid dev,
                    int iface) {
    CircuitSwitch& sw = switches_[cs];
    int port = sw.port(cls, slot);
    sw.attach_device(port, dev, iface);
    register_port(dev, cs, port);
  };

  for (int pod = 0; pod < k; ++pod) {
    Group& eg = edge_groups_[static_cast<std::size_t>(pod)];
    Group& ag = agg_groups_[static_cast<std::size_t>(pod)];

    // Layer 1: hosts (south) <-> edge switches (north).
    for (int m = 0; m < hpe; ++m) {
      std::size_t cs = cs_index(1, pod, m);
      eg.circuit_switches.push_back(cs);
      for (int j = 0; j < half; ++j) {
        int host_global = (pod * half + j) * hpe + m;
        attach(cs, PortClass::kSouthRegular, j,
               host_device_[static_cast<std::size_t>(host_global)], 0);
        attach(cs, PortClass::kNorthRegular, j, eg.assigned[static_cast<std::size_t>(j)], m);
      }
      for (int b = 0; b < n_edge; ++b) {
        attach(cs, PortClass::kNorthBackup, b, eg.spare[static_cast<std::size_t>(b)], m);
      }
      // South backup ports stay uncabled: there are no backup hosts.
    }

    // Layer 2: edges (south) <-> aggs (north).
    for (int m = 0; m < half; ++m) {
      std::size_t cs = cs_index(2, pod, m);
      eg.circuit_switches.push_back(cs);
      ag.circuit_switches.push_back(cs);
      for (int e = 0; e < half; ++e) {
        attach(cs, PortClass::kSouthRegular, e, eg.assigned[static_cast<std::size_t>(e)],
               hpe + m);
      }
      for (int b = 0; b < n_edge; ++b) {
        attach(cs, PortClass::kSouthBackup, b, eg.spare[static_cast<std::size_t>(b)],
               hpe + m);
      }
      for (int a = 0; a < half; ++a) {
        attach(cs, PortClass::kNorthRegular, a, ag.assigned[static_cast<std::size_t>(a)], m);
      }
      for (int b = 0; b < n_agg; ++b) {
        attach(cs, PortClass::kNorthBackup, b, ag.spare[static_cast<std::size_t>(b)], m);
      }
    }

    // Layer 3: aggs (south) <-> cores (north). The m-th switch serves the
    // core failure group m (cores ≡ m mod k/2).
    for (int m = 0; m < half; ++m) {
      std::size_t cs = cs_index(3, pod, m);
      ag.circuit_switches.push_back(cs);
      Group& cg = core_groups_[static_cast<std::size_t>(m)];
      cg.circuit_switches.push_back(cs);
      for (int a = 0; a < half; ++a) {
        attach(cs, PortClass::kSouthRegular, a, ag.assigned[static_cast<std::size_t>(a)],
               half + m);
      }
      for (int b = 0; b < n_agg; ++b) {
        attach(cs, PortClass::kSouthBackup, b, ag.spare[static_cast<std::size_t>(b)],
               half + m);
      }
      for (int r = 0; r < half; ++r) {
        attach(cs, PortClass::kNorthRegular, r, cg.assigned[static_cast<std::size_t>(r)],
               pod);
      }
      for (int b = 0; b < n_core; ++b) {
        attach(cs, PortClass::kNorthBackup, b, cg.spare[static_cast<std::size_t>(b)],
               pod);
      }
    }
  }

  // Side-port rings: chain the circuit switches of each (layer, pod).
  auto chain = [&](int cs_layer, int pod, int count) {
    if (count < 2) return;  // a ring needs at least two members
    for (int m = 0; m < count; ++m) {
      std::size_t a = cs_index(cs_layer, pod, m);
      std::size_t b = cs_index(cs_layer, pod, (m + 1) % count);
      int right = switches_[a].port(PortClass::kSideRight);
      int left = switches_[b].port(PortClass::kSideLeft);
      switches_[a].attach_side(right, static_cast<int>(b), left);
      switches_[b].attach_side(left, static_cast<int>(a), right);
    }
  };
  for (int pod = 0; pod < k; ++pod) {
    chain(1, pod, hpe);
    chain(2, pod, half);
    chain(3, pod, half);
  }
}

void Fabric::wire_defaults() {
  const int k = ft_.k();
  const int half = ft_.half_k();
  const int hpe = ft_.hosts_per_edge();

  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < hpe; ++m) {
      CircuitSwitch& sw = switches_[cs_index(1, pod, m)];
      for (int j = 0; j < half; ++j) {
        sw.connect(sw.port(PortClass::kSouthRegular, j),
                   sw.port(PortClass::kNorthRegular, j));
      }
    }
    for (int m = 0; m < half; ++m) {
      CircuitSwitch& sw = switches_[cs_index(2, pod, m)];
      for (int e = 0; e < half; ++e) {
        // Rotation by m realizes the complete bipartite pod wiring.
        sw.connect(sw.port(PortClass::kSouthRegular, e),
                   sw.port(PortClass::kNorthRegular, (e + m) % half));
      }
    }
    for (int m = 0; m < half; ++m) {
      CircuitSwitch& sw = switches_[cs_index(3, pod, m)];
      for (int a = 0; a < half; ++a) {
        sw.connect(sw.port(PortClass::kSouthRegular, a),
                   sw.port(PortClass::kNorthRegular, a));
      }
    }
  }
}

net::NodeId Fabric::node_at(SwitchPosition pos) const {
  switch (pos.layer) {
    case Layer::kEdge: return ft_.edge(pos.pod, pos.index);
    case Layer::kAgg: return ft_.agg(pos.pod, pos.index);
    case Layer::kCore: return ft_.core(pos.index);
  }
  SBK_UNREACHABLE("bad layer");
}

std::optional<SwitchPosition> Fabric::position_of_node(
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

Fabric::Group& Fabric::group(Layer layer, int id) {
  switch (layer) {
    case Layer::kEdge:
      SBK_EXPECTS(id >= 0 &&
                  static_cast<std::size_t>(id) < edge_groups_.size());
      return edge_groups_[static_cast<std::size_t>(id)];
    case Layer::kAgg:
      SBK_EXPECTS(id >= 0 &&
                  static_cast<std::size_t>(id) < agg_groups_.size());
      return agg_groups_[static_cast<std::size_t>(id)];
    case Layer::kCore:
      SBK_EXPECTS(id >= 0 &&
                  static_cast<std::size_t>(id) < core_groups_.size());
      return core_groups_[static_cast<std::size_t>(id)];
  }
  SBK_UNREACHABLE("bad layer");
}

const Fabric::Group& Fabric::group(Layer layer, int id) const {
  return const_cast<Fabric*>(this)->group(layer, id);
}

DeviceUid Fabric::device_at(SwitchPosition pos) const {
  const Group& g = group(pos.layer, topo::failure_group_of(k(), pos));
  return g.assigned[static_cast<std::size_t>(topo::group_slot_of(k(), pos))];
}

const PhysicalDevice& Fabric::device(DeviceUid uid) const {
  SBK_EXPECTS(uid < devices_.size());
  return devices_[uid];
}

DeviceState Fabric::device_state(DeviceUid uid) const {
  SBK_EXPECTS(uid < device_state_.size());
  return device_state_[uid];
}

std::vector<DeviceUid> Fabric::spares(Layer layer, int grp) const {
  return group(layer, grp).spare;
}

std::optional<SwitchPosition> Fabric::position_of_device(
    DeviceUid uid) const {
  SBK_EXPECTS(uid < devices_.size());
  const PhysicalDevice& d = devices_[uid];
  if (d.is_host || device_state_[uid] != DeviceState::kInService) {
    return std::nullopt;
  }
  const Group& g = group(d.layer, d.group);
  for (std::size_t slot = 0; slot < g.assigned.size(); ++slot) {
    if (g.assigned[slot] != uid) continue;
    switch (d.layer) {
      case Layer::kEdge:
      case Layer::kAgg:
        return SwitchPosition{d.layer, d.group, static_cast<int>(slot)};
      case Layer::kCore:
        return SwitchPosition{d.layer, -1,
                              static_cast<int>(slot) * half_k() + d.group};
    }
  }
  return std::nullopt;
}

DeviceUid Fabric::device_of_host(net::NodeId host) const {
  int global = ft_.host_global_index(host);
  return host_device_[static_cast<std::size_t>(global)];
}

const CircuitSwitch& Fabric::circuit_switch(std::size_t idx) const {
  SBK_EXPECTS(idx < switches_.size());
  return switches_[idx];
}

CircuitSwitch& Fabric::circuit_switch(std::size_t idx) {
  SBK_EXPECTS(idx < switches_.size());
  return switches_[idx];
}

const std::vector<Fabric::DevicePort>& Fabric::ports_of_device(
    DeviceUid uid) const {
  SBK_EXPECTS(uid < device_ports_.size());
  return device_ports_[uid];
}

bool Fabric::interface_healthy(InterfaceRef iface) const {
  // iface_key's checked pack is still the contract gate for oversized
  // cs values (see the header note), even though the flat storage no
  // longer consumes the key for cabled ports.
  const std::uint64_t key = iface_key(iface);
  if (iface.device < device_ports_.size()) {
    const std::vector<DevicePort>& ports = device_ports_[iface.device];
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (ports[i].cs == iface.cs) return !iface_unhealthy_[iface.device][i];
    }
  }
  return std::find(uncabled_unhealthy_.begin(), uncabled_unhealthy_.end(),
                   key) == uncabled_unhealthy_.end();
}

void Fabric::set_interface_health(InterfaceRef iface, bool healthy) {
  SBK_EXPECTS(iface.device < devices_.size());
  SBK_EXPECTS(iface.cs < switches_.size());
  const std::vector<DevicePort>& ports = device_ports_[iface.device];
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (ports[i].cs == iface.cs) {
      iface_unhealthy_[iface.device][i] = healthy ? 0 : 1;
      return;
    }
  }
  const std::uint64_t key = iface_key(iface);
  auto it = std::find(uncabled_unhealthy_.begin(), uncabled_unhealthy_.end(),
                      key);
  if (healthy) {
    if (it != uncabled_unhealthy_.end()) uncabled_unhealthy_.erase(it);
  } else if (it == uncabled_unhealthy_.end()) {
    uncabled_unhealthy_.push_back(key);
  }
}

bool Fabric::ground_link_failure(net::LinkId link, net::NodeId culprit) {
  net::Network& net = network();
  const net::Link& l = net.link(link);
  SBK_EXPECTS_MSG(culprit == l.a || culprit == l.b,
                  "the culprit must be an endpoint of the link");
  if (net.link_failed(link) || net.node_failed(l.a) || net.node_failed(l.b)) {
    return false;
  }
  const std::optional<SwitchPosition> pos = position_of_node(culprit);
  const DeviceUid dev =
      pos.has_value() ? device_at(*pos) : device_of_host(culprit);
  set_interface_health({dev, cs_of_link(link)}, false);
  net.fail_link(link);
  return true;
}

void Fabric::heal_device(DeviceUid uid) {
  for (const DevicePort& dp : ports_of_device(uid)) {
    set_interface_health(InterfaceRef{uid, dp.cs}, true);
  }
}

bool Fabric::device_interfaces_healthy(DeviceUid uid) const {
  for (const DevicePort& dp : ports_of_device(uid)) {
    if (!interface_healthy(InterfaceRef{uid, dp.cs})) return false;
  }
  return true;
}

std::size_t Fabric::total_spares() const {
  std::size_t total = 0;
  for (const std::vector<Group>* groups :
       {&edge_groups_, &agg_groups_, &core_groups_}) {
    for (const Group& g : *groups) total += g.spare.size();
  }
  return total;
}

void Fabric::attach_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_failovers_ = m_reconfigurations_ = m_pool_returns_ = nullptr;
    m_spare_pool_ = nullptr;
    return;
  }
  m_failovers_ = &metrics->counter("fabric.failovers");
  m_reconfigurations_ = &metrics->counter("fabric.circuit_reconfigurations");
  m_pool_returns_ = &metrics->counter("fabric.pool_returns");
  m_spare_pool_ = &metrics->gauge("fabric.spare_pool");
  m_spare_pool_->set(static_cast<double>(total_spares()));
}

std::optional<Fabric::FailoverReport> Fabric::fail_over(SwitchPosition pos) {
  Group& g = group(pos.layer, topo::failure_group_of(k(), pos));
  if (g.spare.empty()) return std::nullopt;
  std::size_t slot = static_cast<std::size_t>(topo::group_slot_of(k(), pos));
  DeviceUid failed = g.assigned[slot];
  DeviceUid spare = g.spare.front();
  g.spare.erase(g.spare.begin());

  FailoverReport report;
  report.position = pos;
  report.failed_device = failed;
  report.replacement = spare;

  for (const DevicePort& dp : device_ports_[failed]) {
    CircuitSwitch& sw = switches_[dp.cs];
    std::optional<int> peer = sw.peer(dp.port);
    if (!peer.has_value()) continue;
    int spare_port = device_port_on(spare, dp.cs);
    SBK_ASSERT_MSG(!sw.is_matched(spare_port),
                   "spare device ports must be idle before failover");
    sw.disconnect(dp.port);
    sw.connect(spare_port, *peer);
    ++report.circuit_switches_touched;
  }
  report.reconfiguration_latency =
      reconfiguration_latency(params_.technology);

  g.assigned[slot] = spare;
  g.out.push_back(failed);
  device_state_[failed] = DeviceState::kOut;
  device_state_[spare] = DeviceState::kInService;

  // The position is now served by healthy hardware: bring its node back.
  network().restore_node(node_at(pos));
  if (m_failovers_) m_failovers_->add();
  if (m_reconfigurations_) {
    m_reconfigurations_->add(report.circuit_switches_touched);
  }
  if (m_spare_pool_) m_spare_pool_->set(static_cast<double>(total_spares()));
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->instant("fabric", "failover", trace_now_,
                       devices_[failed].name + " -> " + devices_[spare].name);
    recorder_->counter("fabric", "spare_pool", trace_now_,
                       static_cast<double>(total_spares()));
  }
  SBK_LOG_INFO("fabric", "failover at " << devices_[failed].name << " -> "
                                        << devices_[spare].name << " ("
                                        << report.circuit_switches_touched
                                        << " circuit switches)");
  return report;
}

void Fabric::return_to_pool(DeviceUid uid) {
  SBK_EXPECTS(uid < devices_.size());
  if (device_state_[uid] == DeviceState::kSpare) return;  // idempotent
  SBK_EXPECTS_MSG(device_state_[uid] == DeviceState::kOut,
                  "only out-of-service devices can return to the pool");
  Group& g = group(devices_[uid].layer, devices_[uid].group);
  auto it = std::find(g.out.begin(), g.out.end(), uid);
  SBK_ASSERT(it != g.out.end());
  g.out.erase(it);
  g.spare.push_back(uid);
  device_state_[uid] = DeviceState::kSpare;
  if (m_pool_returns_) m_pool_returns_->add();
  if (m_spare_pool_) m_spare_pool_->set(static_cast<double>(total_spares()));
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->instant("fabric", "pool_return", trace_now_,
                       devices_[uid].name);
    recorder_->counter("fabric", "spare_pool", trace_now_,
                       static_cast<double>(total_spares()));
  }
}

int Fabric::device_port_on(DeviceUid uid, std::size_t cs) const {
  for (const DevicePort& dp : ports_of_device(uid)) {
    if (dp.cs == cs) return dp.port;
  }
  SBK_EXPECTS_MSG(false, "device is not cabled to that circuit switch");
  return -1;
}

std::size_t Fabric::cs_of_link(net::LinkId link) const {
  const net::Link& l = network().link(link);
  const net::Node& na = network().node(l.a);
  const net::Node& nb = network().node(l.b);
  const int half = half_k();
  const int hpe = ft_.hosts_per_edge();

  auto kinds = [&](net::NodeKind x, net::NodeKind y) {
    return (na.kind == x && nb.kind == y) || (na.kind == y && nb.kind == x);
  };
  if (kinds(net::NodeKind::kHost, net::NodeKind::kEdgeSwitch)) {
    const net::Node& host = na.kind == net::NodeKind::kHost ? na : nb;
    int global = host.index;
    return cs_index(1, global / (half * hpe), global % hpe);
  }
  if (kinds(net::NodeKind::kEdgeSwitch, net::NodeKind::kAggSwitch)) {
    const net::Node& e = na.kind == net::NodeKind::kEdgeSwitch ? na : nb;
    const net::Node& a = na.kind == net::NodeKind::kAggSwitch ? na : nb;
    SBK_ASSERT(e.pod == a.pod);
    // Rotation wiring: CS m joins edge e to agg (e+m) mod k/2.
    return cs_index(2, e.pod, (a.index - e.index + half) % half);
  }
  if (kinds(net::NodeKind::kAggSwitch, net::NodeKind::kCoreSwitch)) {
    const net::Node& a = na.kind == net::NodeKind::kAggSwitch ? na : nb;
    const net::Node& c = na.kind == net::NodeKind::kCoreSwitch ? na : nb;
    // Core c sits behind the (c mod k/2)-th layer-3 switch of each pod.
    return cs_index(3, a.pod, c.index % half);
  }
  SBK_EXPECTS_MSG(false, "link is not realized through a circuit switch");
  return 0;
}

std::optional<InterfaceRef> Fabric::trace_circuit(std::size_t cs,
                                                  int port) const {
  SBK_EXPECTS(cs < switches_.size());
  // Bounded walk: a circuit can cross each ring switch at most once.
  std::size_t budget = 2 * switches_.size() + 4;
  std::size_t cur_cs = cs;
  int cur_port = port;
  while (budget-- > 0) {
    const CircuitSwitch& sw = switches_[cur_cs];
    std::optional<int> matched = sw.peer(cur_port);
    if (!matched.has_value()) return std::nullopt;  // open circuit
    const Attachment& a = sw.attachment(*matched);
    switch (a.kind) {
      case Attachment::Kind::kDeviceInterface:
        return InterfaceRef{a.device, cur_cs};
      case Attachment::Kind::kSidePeer:
        cur_cs = static_cast<std::size_t>(a.peer_cs);
        cur_port = a.peer_port;
        break;  // entered the neighbor switch; follow its matching
      case Attachment::Kind::kNone:
        return std::nullopt;  // matched into an uncabled port
    }
  }
  return std::nullopt;  // cycle with no device endpoint
}

bool Fabric::probe(InterfaceRef from) const {
  int port = device_port_on(from.device, from.cs);
  std::optional<InterfaceRef> far = trace_circuit(from.cs, port);
  if (!far.has_value()) return false;
  return interface_healthy(from) && interface_healthy(*far);
}

Fabric::Census Fabric::census() const {
  Census c;
  c.circuit_switches = switches_.size();
  for (const CircuitSwitch& sw : switches_) {
    c.circuit_switch_physical_ports += static_cast<std::size_t>(sw.port_count());
  }
  c.failure_groups =
      edge_groups_.size() + agg_groups_.size() + core_groups_.size();
  // Structural census counts devices *built* as backups (names "BS-..."),
  // independent of the current role rotation.
  for (const PhysicalDevice& d : devices_) {
    if (!d.is_host && d.name.rfind("BS-", 0) == 0) {
      ++c.backup_switches;
      c.backup_device_cables += device_ports_[d.uid].size();
    }
  }
  return c;
}

std::vector<std::pair<net::NodeId, net::NodeId>> Fabric::realized_adjacency()
    const {
  std::vector<std::pair<net::NodeId, net::NodeId>> out;
  auto node_of_device = [this](DeviceUid uid) -> std::optional<net::NodeId> {
    const PhysicalDevice& d = devices_[uid];
    if (d.is_host) {
      // Host uids are contiguous in global host order.
      SBK_ASSERT(!host_device_.empty() && uid >= host_device_.front());
      return ft_.host(static_cast<int>(uid - host_device_.front()));
    }
    std::optional<SwitchPosition> pos = position_of_device(uid);
    if (!pos.has_value()) return std::nullopt;
    return node_at(*pos);
  };

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
      std::optional<net::NodeId> a = node_of_device(pa.device);
      std::optional<net::NodeId> b = node_of_device(qa.device);
      if (a.has_value() && b.has_value()) out.emplace_back(*a, *b);
    }
  }
  return out;
}

void Fabric::check_invariants() const {
  for (const CircuitSwitch& sw : switches_) {
    SBK_ENSURES(sw.matching_is_consistent());
  }
  auto check_group = [this](const Group& g) {
    SBK_ENSURES(g.assigned.size() ==
                static_cast<std::size_t>(half_k()));
    for (DeviceUid uid : g.assigned) {
      SBK_ENSURES(device_state_[uid] == DeviceState::kInService);
    }
    for (DeviceUid uid : g.spare) {
      SBK_ENSURES(device_state_[uid] == DeviceState::kSpare);
      // Spare devices must hold no live circuits.
      for (const DevicePort& dp : device_ports_[uid]) {
        SBK_ENSURES(!switches_[dp.cs].is_matched(dp.port));
      }
    }
    for (DeviceUid uid : g.out) {
      SBK_ENSURES(device_state_[uid] == DeviceState::kOut);
    }
    SBK_ENSURES(g.spare.size() + g.out.size() ==
                static_cast<std::size_t>(params_.backups_for(g.layer)));
  };
  for (const Group& g : edge_groups_) check_group(g);
  for (const Group& g : agg_groups_) check_group(g);
  for (const Group& g : core_groups_) check_group(g);
}

}  // namespace sbk::sharebackup
