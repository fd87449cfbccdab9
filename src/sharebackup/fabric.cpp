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
  iface_unhealthy_.resize(pool_.device_count());
  for (DeviceUid uid = 0; uid < pool_.device_count(); ++uid) {
    iface_unhealthy_[uid].assign(pool_.ports(uid).size(), 0);
  }
  for (net::NodeId sw : ft_.all_switches()) {
    switch_devices_.push_back(device_at(*position_of_node(sw)));
  }
  for (std::size_t g = 0; g < pool_.group_count(); ++g) {
    const std::vector<DeviceUid>& spare = pool_.group(g).spare;
    switch_devices_.insert(switch_devices_.end(), spare.begin(), spare.end());
  }
  check_invariants();
}

void Fabric::build_devices() {
  const int k = ft_.k();
  const int half = ft_.half_k();
  for (int pod = 0; pod < k; ++pod) {
    pool_.add_group(Layer::kEdge, pod, half, params_.backups_for(Layer::kEdge),
                    "edge");
  }
  for (int pod = 0; pod < k; ++pod) {
    pool_.add_group(Layer::kAgg, pod, half, params_.backups_for(Layer::kAgg),
                    "agg");
  }
  for (int u = 0; u < half; ++u) {
    pool_.add_group(Layer::kCore, u, half, params_.backups_for(Layer::kCore),
                    "core");
  }

  // Hosts as (non-replaceable) devices so layer-1 cables have endpoints.
  host_device_.reserve(static_cast<std::size_t>(ft_.host_count()));
  for (int h = 0; h < ft_.host_count(); ++h) {
    host_device_.push_back(pool_.add_host("HOST-" + std::to_string(h)));
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
  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < hpe; ++m) {
      // South side: hosts (no backups exist, ports kept for symmetry).
      pool_.add_circuit_switch(cs_name(1, pod, m), half, n_edge, n_edge);
    }
  }
  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < half; ++m) {
      pool_.add_circuit_switch(cs_name(2, pod, m), half, n_edge, n_agg);
    }
  }
  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < half; ++m) {
      pool_.add_circuit_switch(cs_name(3, pod, m), half, n_agg, n_core);
    }
  }

  auto at = [](const std::vector<DeviceUid>& devices, int i) {
    return devices[static_cast<std::size_t>(i)];
  };
  for (int pod = 0; pod < k; ++pod) {
    const DevicePool::Group& eg = pool_.group(group_index(Layer::kEdge, pod));
    const DevicePool::Group& ag = pool_.group(group_index(Layer::kAgg, pod));

    // Layer 1: hosts (south) <-> edge switches (north).
    for (int m = 0; m < hpe; ++m) {
      std::size_t cs = cs_index(1, pod, m);
      for (int j = 0; j < half; ++j) {
        int host_global = (pod * half + j) * hpe + m;
        pool_.attach(cs, PortClass::kSouthRegular, j,
                     at(host_device_, host_global), 0);
        pool_.attach(cs, PortClass::kNorthRegular, j, at(eg.assigned, j), m);
      }
      for (int b = 0; b < n_edge; ++b) {
        pool_.attach(cs, PortClass::kNorthBackup, b, at(eg.spare, b), m);
      }
      // South backup ports stay uncabled: there are no backup hosts.
    }

    // Layer 2: edges (south) <-> aggs (north).
    for (int m = 0; m < half; ++m) {
      std::size_t cs = cs_index(2, pod, m);
      for (int e = 0; e < half; ++e) {
        pool_.attach(cs, PortClass::kSouthRegular, e, at(eg.assigned, e),
                     hpe + m);
      }
      for (int b = 0; b < n_edge; ++b) {
        pool_.attach(cs, PortClass::kSouthBackup, b, at(eg.spare, b), hpe + m);
      }
      for (int a = 0; a < half; ++a) {
        pool_.attach(cs, PortClass::kNorthRegular, a, at(ag.assigned, a), m);
      }
      for (int b = 0; b < n_agg; ++b) {
        pool_.attach(cs, PortClass::kNorthBackup, b, at(ag.spare, b), m);
      }
    }

    // Layer 3: aggs (south) <-> cores (north). The m-th switch serves the
    // core failure group m (cores ≡ m mod k/2).
    for (int m = 0; m < half; ++m) {
      std::size_t cs = cs_index(3, pod, m);
      const DevicePool::Group& cg = pool_.group(group_index(Layer::kCore, m));
      for (int a = 0; a < half; ++a) {
        pool_.attach(cs, PortClass::kSouthRegular, a, at(ag.assigned, a),
                     half + m);
      }
      for (int b = 0; b < n_agg; ++b) {
        pool_.attach(cs, PortClass::kSouthBackup, b, at(ag.spare, b),
                     half + m);
      }
      for (int r = 0; r < half; ++r) {
        pool_.attach(cs, PortClass::kNorthRegular, r, at(cg.assigned, r), pod);
      }
      for (int b = 0; b < n_core; ++b) {
        pool_.attach(cs, PortClass::kNorthBackup, b, at(cg.spare, b), pod);
      }
    }
  }

  // Side-port rings: chain the circuit switches of each (layer, pod).
  for (int pod = 0; pod < k; ++pod) {
    pool_.ring(cs_index(1, pod, 0), hpe);
    pool_.ring(cs_index(2, pod, 0), half);
    pool_.ring(cs_index(3, pod, 0), half);
  }
}

void Fabric::wire_defaults() {
  const int k = ft_.k();
  const int half = ft_.half_k();
  const int hpe = ft_.hosts_per_edge();

  for (int pod = 0; pod < k; ++pod) {
    for (int m = 0; m < hpe; ++m) {
      CircuitSwitch& sw = pool_.circuit_switch(cs_index(1, pod, m));
      for (int j = 0; j < half; ++j) {
        sw.connect(sw.port(PortClass::kSouthRegular, j),
                   sw.port(PortClass::kNorthRegular, j));
      }
    }
    for (int m = 0; m < half; ++m) {
      CircuitSwitch& sw = pool_.circuit_switch(cs_index(2, pod, m));
      for (int e = 0; e < half; ++e) {
        // Rotation by m realizes the complete bipartite pod wiring.
        sw.connect(sw.port(PortClass::kSouthRegular, e),
                   sw.port(PortClass::kNorthRegular, (e + m) % half));
      }
    }
    for (int m = 0; m < half; ++m) {
      CircuitSwitch& sw = pool_.circuit_switch(cs_index(3, pod, m));
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

std::vector<DeviceUid> Fabric::spares(Layer layer, int grp) const {
  return pool_.group(group_index(layer, grp)).spare;
}

std::optional<SwitchPosition> Fabric::position_of_device(
    DeviceUid uid) const {
  std::optional<int> slot = pool_.slot_of(uid);
  if (!slot.has_value()) return std::nullopt;
  const PhysicalDevice& d = pool_.device(uid);
  if (d.layer == Layer::kCore) {
    return SwitchPosition{d.layer, -1, *slot * half_k() + d.group};
  }
  return SwitchPosition{d.layer, d.group, *slot};
}

DeviceUid Fabric::device_of_host(net::NodeId host) const {
  int global = ft_.host_global_index(host);
  return host_device_[static_cast<std::size_t>(global)];
}

const CircuitSwitch& Fabric::circuit_switch(std::size_t idx) const {
  return pool_.circuit_switch(idx);
}

CircuitSwitch& Fabric::circuit_switch(std::size_t idx) {
  return pool_.circuit_switch(idx);
}

const std::vector<Fabric::DevicePort>& Fabric::ports_of_device(
    DeviceUid uid) const {
  return pool_.ports(uid);
}

bool Fabric::interface_healthy(InterfaceRef iface) const {
  // iface_key's checked pack is still the contract gate for oversized
  // cs values (see the header note), even though the flat storage no
  // longer consumes the key for cabled ports.
  const std::uint64_t key = iface_key(iface);
  if (iface.device < pool_.device_count()) {
    const std::vector<DevicePort>& ports = pool_.ports(iface.device);
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (ports[i].cs == iface.cs) return !iface_unhealthy_[iface.device][i];
    }
  }
  return std::find(uncabled_unhealthy_.begin(), uncabled_unhealthy_.end(),
                   key) == uncabled_unhealthy_.end();
}

void Fabric::set_interface_health(InterfaceRef iface, bool healthy) {
  SBK_EXPECTS(iface.device < pool_.device_count());
  SBK_EXPECTS(iface.cs < pool_.circuit_switch_count());
  const std::vector<DevicePort>& ports = pool_.ports(iface.device);
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

std::size_t Fabric::total_spares() const { return pool_.spare_count(); }

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
  std::optional<DevicePool::Swap> swap =
      pool_.fail_over(group_index(pos.layer, topo::failure_group_of(k(), pos)),
                      topo::group_slot_of(k(), pos));
  if (!swap.has_value()) return std::nullopt;
  const DeviceUid failed = swap->failed;
  const DeviceUid spare = swap->replacement;
  FailoverReport report{pos, failed, spare, swap->circuit_switches_touched,
                        reconfiguration_latency(params_.technology)};

  // The position is now served by healthy hardware: bring its node back.
  network().restore_node(node_at(pos));
  if (m_failovers_) m_failovers_->add();
  if (m_reconfigurations_) {
    m_reconfigurations_->add(report.circuit_switches_touched);
  }
  if (m_spare_pool_) m_spare_pool_->set(static_cast<double>(total_spares()));
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->instant("fabric", "failover", trace_now_,
                       {device(failed).name, " -> ", device(spare).name});
    recorder_->counter("fabric", "spare_pool", trace_now_,
                       static_cast<double>(total_spares()));
  }
  SBK_LOG_INFO("fabric", "failover at " << device(failed).name << " -> "
                                        << device(spare).name << " ("
                                        << report.circuit_switches_touched
                                        << " circuit switches)");
  return report;
}

void Fabric::return_to_pool(DeviceUid uid) {
  if (!pool_.return_to_pool(uid)) return;  // already a spare
  if (m_pool_returns_) m_pool_returns_->add();
  if (m_spare_pool_) m_spare_pool_->set(static_cast<double>(total_spares()));
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->instant("fabric", "pool_return", trace_now_,
                       device(uid).name);
    recorder_->counter("fabric", "spare_pool", trace_now_,
                       static_cast<double>(total_spares()));
  }
}

int Fabric::device_port_on(DeviceUid uid, std::size_t cs) const {
  return pool_.port_on(uid, cs);
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
  SBK_EXPECTS(cs < pool_.circuit_switch_count());
  // Bounded walk: a circuit can cross each ring switch at most once.
  std::size_t budget = 2 * pool_.circuit_switch_count() + 4;
  std::size_t cur_cs = cs;
  int cur_port = port;
  while (budget-- > 0) {
    const CircuitSwitch& sw = pool_.circuit_switch(cur_cs);
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
  c.circuit_switches = pool_.circuit_switch_count();
  for (std::size_t i = 0; i < c.circuit_switches; ++i) {
    c.circuit_switch_physical_ports +=
        static_cast<std::size_t>(pool_.circuit_switch(i).port_count());
  }
  c.failure_groups = pool_.group_count();
  // Structural census counts devices *built* as backups (names "BS-..."),
  // independent of the current role rotation.
  for (DeviceUid uid = 0; uid < pool_.device_count(); ++uid) {
    const PhysicalDevice& d = pool_.device(uid);
    if (!d.is_host && d.name.rfind("BS-", 0) == 0) {
      ++c.backup_switches;
      c.backup_device_cables += pool_.ports(uid).size();
    }
  }
  return c;
}

std::vector<std::pair<net::NodeId, net::NodeId>> Fabric::realized_adjacency()
    const {
  return pool_.realized_adjacency(
      [this](DeviceUid uid) -> std::optional<net::NodeId> {
        if (pool_.device(uid).is_host) {
          // Host uids are contiguous in global host order.
          return ft_.host(static_cast<int>(uid - host_device_.front()));
        }
        std::optional<SwitchPosition> pos = position_of_device(uid);
        if (!pos.has_value()) return std::nullopt;
        return node_at(*pos);
      });
}

void Fabric::check_invariants() const { pool_.check_invariants(); }

}  // namespace sbk::sharebackup
