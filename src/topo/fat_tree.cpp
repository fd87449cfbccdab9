#include "topo/fat_tree.hpp"

#include "util/assert.hpp"

namespace sbk::topo {

std::string edge_name(int pod, int j) {
  return "E[" + std::to_string(pod) + ',' + std::to_string(j) + ']';
}
std::string agg_name(int pod, int j) {
  return "A[" + std::to_string(pod) + ',' + std::to_string(j) + ']';
}
std::string core_name(int c) { return "C" + std::to_string(c); }
std::string host_name(int global_index) {
  return "H" + std::to_string(global_index);
}

FatTree::FatTree(const FatTreeParams& params) : params_(params) {
  SBK_EXPECTS_MSG(params_.k >= 4 && params_.k % 2 == 0,
                  "fat-tree parameter k must be even and >= 4");
  if (params_.hosts_per_edge == 0) params_.hosts_per_edge = params_.k / 2;
  SBK_EXPECTS(params_.hosts_per_edge > 0);
  SBK_EXPECTS(params_.host_link_capacity > 0.0);
  SBK_EXPECTS(params_.edge_agg_capacity > 0.0);
  SBK_EXPECTS(params_.agg_core_capacity > 0.0);
  build();
}

void FatTree::build() {
  const int k = params_.k;
  const int half = k / 2;

  // Size the whole graph up front: every node/link count and degree is a
  // closed-form function of k, so the Network lays its adjacency arena
  // out exactly once (no relocation during the build).
  const std::size_t n_switches = static_cast<std::size_t>(k) * half * 2 +
                                 static_cast<std::size_t>(half) * half;
  const std::size_t n_hosts =
      static_cast<std::size_t>(k) * half * params_.hosts_per_edge;
  const std::size_t n_links =
      n_hosts + static_cast<std::size_t>(k) * half * half * 2;
  net_.reserve(n_switches + n_hosts, n_links);

  host_index_of_node_.assign(
      static_cast<std::size_t>(k * half * params_.hosts_per_edge +
                               k * k + half * half),
      -1);

  // Switches first so their ids are compact and layer-contiguous.
  edges_.reserve(static_cast<std::size_t>(k) * half);
  aggs_.reserve(static_cast<std::size_t>(k) * half);
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < half; ++j) {
      edges_.push_back(
          net_.add_node(net::NodeKind::kEdgeSwitch, edge_name(pod, j), pod, j));
    }
  }
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < half; ++j) {
      aggs_.push_back(
          net_.add_node(net::NodeKind::kAggSwitch, agg_name(pod, j), pod, j));
    }
  }
  cores_.reserve(static_cast<std::size_t>(half) * half);
  for (int c = 0; c < half * half; ++c) {
    cores_.push_back(
        net_.add_node(net::NodeKind::kCoreSwitch, core_name(c), -1, c));
  }

  // Hosts.
  hosts_.reserve(static_cast<std::size_t>(host_count()));
  int global = 0;
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < half; ++j) {
      for (int h = 0; h < params_.hosts_per_edge; ++h) {
        net::NodeId id =
            net_.add_node(net::NodeKind::kHost, host_name(global), pod, global);
        hosts_.push_back(id);
        if (id.index() >= host_index_of_node_.size()) {
          host_index_of_node_.resize(id.index() + 1, -1);
        }
        host_index_of_node_[id.index()] = global;
        ++global;
      }
    }
  }

  // Exact per-node adjacency blocks (see Network::reserve_degree).
  const auto edge_degree =
      static_cast<std::uint32_t>(half + params_.hosts_per_edge);
  for (net::NodeId e : edges_) net_.reserve_degree(e, edge_degree);
  for (net::NodeId a : aggs_) {
    net_.reserve_degree(a, static_cast<std::uint32_t>(k));
  }
  for (net::NodeId c : cores_) {
    net_.reserve_degree(c, static_cast<std::uint32_t>(k));
  }
  for (net::NodeId h : hosts_) net_.reserve_degree(h, 1);

  // Host - edge links.
  global = 0;
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < half; ++j) {
      for (int h = 0; h < params_.hosts_per_edge; ++h) {
        net_.add_link(hosts_[static_cast<std::size_t>(global)], edge(pod, j),
                      params_.host_link_capacity);
        ++global;
      }
    }
  }

  // Edge - agg: complete bipartite within each pod.
  for (int pod = 0; pod < k; ++pod) {
    for (int e = 0; e < half; ++e) {
      for (int a = 0; a < half; ++a) {
        net_.add_link(edge(pod, e), agg(pod, a), params_.edge_agg_capacity);
      }
    }
  }

  // Agg - core wiring.
  for (int pod = 0; pod < k; ++pod) {
    for (int j = 0; j < half; ++j) {
      for (int c : cores_of_agg(pod, j)) {
        net_.add_link(agg(pod, j), core(c), params_.agg_core_capacity);
      }
    }
  }
}

net::NodeId FatTree::edge(int pod, int j) const {
  SBK_EXPECTS(pod >= 0 && pod < pods() && j >= 0 && j < half_k());
  return edges_[static_cast<std::size_t>(pod) * half_k() + j];
}

net::NodeId FatTree::agg(int pod, int j) const {
  SBK_EXPECTS(pod >= 0 && pod < pods() && j >= 0 && j < half_k());
  return aggs_[static_cast<std::size_t>(pod) * half_k() + j];
}

net::NodeId FatTree::core(int c) const {
  SBK_EXPECTS(c >= 0 && c < core_count());
  return cores_[static_cast<std::size_t>(c)];
}

net::NodeId FatTree::host(int pod, int j, int h) const {
  SBK_EXPECTS(pod >= 0 && pod < pods() && j >= 0 && j < half_k());
  SBK_EXPECTS(h >= 0 && h < hosts_per_edge());
  int global = (pod * half_k() + j) * hosts_per_edge() + h;
  return hosts_[static_cast<std::size_t>(global)];
}

net::NodeId FatTree::host(int global_index) const {
  SBK_EXPECTS(global_index >= 0 && global_index < host_count());
  return hosts_[static_cast<std::size_t>(global_index)];
}

int FatTree::host_global_index(net::NodeId h) const {
  SBK_EXPECTS(h.index() < host_index_of_node_.size());
  int idx = host_index_of_node_[h.index()];
  SBK_EXPECTS_MSG(idx >= 0, "node is not a host of this fat-tree");
  return idx;
}

std::vector<net::NodeId> FatTree::all_switches() const {
  std::vector<net::NodeId> out;
  out.reserve(edges_.size() + aggs_.size() + cores_.size());
  out.insert(out.end(), edges_.begin(), edges_.end());
  out.insert(out.end(), aggs_.begin(), aggs_.end());
  out.insert(out.end(), cores_.begin(), cores_.end());
  return out;
}

int FatTree::pod_of(net::NodeId node) const {
  int pod = net_.node(node).pod;
  SBK_EXPECTS_MSG(pod >= 0, "node is not inside a pod");
  return pod;
}

int FatTree::index_of(net::NodeId node) const {
  const net::Node& n = net_.node(node);
  SBK_EXPECTS(n.kind == net::NodeKind::kEdgeSwitch ||
              n.kind == net::NodeKind::kAggSwitch);
  return n.index;
}

net::NodeId FatTree::edge_of_host(net::NodeId h) const {
  int global = host_global_index(h);
  int per_pod = half_k() * hosts_per_edge();
  int pod = global / per_pod;
  int j = (global % per_pod) / hosts_per_edge();
  return edge(pod, j);
}

net::NodeId FatTree::agg_for_core(int core_index, int pod) const {
  SBK_EXPECTS(core_index >= 0 && core_index < core_count());
  SBK_EXPECTS(pod >= 0 && pod < pods());
  const int half = half_k();
  const int row = core_index / half;
  const int col = core_index % half;
  bool transpose = (params_.wiring == Wiring::kAb) && (pod % 2 == 1);
  return agg(pod, transpose ? col : row);
}

std::vector<int> FatTree::cores_of_agg(int pod, int j) const {
  const int half = half_k();
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(half));
  for (int i = 0; i < half; ++i) out.push_back(core_of_agg(pod, j, i));
  return out;
}

int FatTree::core_of_agg(int pod, int j, int i) const {
  SBK_EXPECTS(pod >= 0 && pod < pods() && j >= 0 && j < half_k());
  const int half = half_k();
  SBK_EXPECTS(i >= 0 && i < half);
  // Plain (type A): row j -> cores j*half + i.
  // Transposed (type B): column j -> cores i*half + j.
  const bool transpose = (params_.wiring == Wiring::kAb) && (pod % 2 == 1);
  return transpose ? i * half + j : j * half + i;
}

net::LinkId FatTree::host_link(net::NodeId h) const {
  net::NodeId e = edge_of_host(h);
  auto link = net_.find_link(h, e);
  SBK_ASSERT(link.has_value());
  return *link;
}

}  // namespace sbk::topo
