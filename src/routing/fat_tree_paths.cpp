#include "routing/fat_tree_paths.hpp"

#include "util/assert.hpp"

namespace sbk::routing {

namespace {

using net::LinkId;
using net::Network;
using net::NodeId;
using net::Path;

/// Appends a hop to a path under construction; returns false if the hop
/// is unusable and live_only is requested.
bool push_hop(const Network& net, Path& path, NodeId next, bool live_only) {
  NodeId cur = path.nodes.back();
  auto link = net.find_link(cur, next);
  if (!link.has_value()) return false;
  if (live_only && (!net.usable(*link))) return false;
  path.nodes.push_back(next);
  path.links.push_back(*link);
  return true;
}

}  // namespace

std::vector<Path> candidate_paths(const topo::FatTree& ft, NodeId src,
                                  NodeId dst, bool live_only) {
  const Network& net = ft.network();
  std::vector<Path> out;
  if (src == dst) {
    if (!live_only || !net.node_failed(src)) out.push_back(Path{{src}, {}});
    return out;
  }
  if (live_only && (net.node_failed(src) || net.node_failed(dst))) return out;

  const NodeId es = ft.edge_of_host(src);
  const NodeId ed = ft.edge_of_host(dst);
  if (live_only && (net.node_failed(es) || net.node_failed(ed))) return out;

  const int half = ft.half_k();

  if (es == ed) {
    Path p{{src}, {}};
    if (push_hop(net, p, es, live_only) && push_hop(net, p, dst, live_only)) {
      out.push_back(std::move(p));
    }
    return out;
  }

  const int src_pod = ft.pod_of(es);
  const int dst_pod = ft.pod_of(ed);

  if (src_pod == dst_pod) {
    // host -> es -> agg (any of k/2) -> ed -> host
    for (int a = 0; a < half; ++a) {
      NodeId agg = ft.agg(src_pod, a);
      if (live_only && net.node_failed(agg)) continue;
      Path p{{src}, {}};
      if (push_hop(net, p, es, live_only) && push_hop(net, p, agg, live_only) &&
          push_hop(net, p, ed, live_only) && push_hop(net, p, dst, live_only)) {
        out.push_back(std::move(p));
      }
    }
    return out;
  }

  // Inter-pod: host -> es -> agg -> core -> agg' -> ed -> host. The up
  // aggregation choice and the core choice are free ((k/2)^2 paths); the
  // downward aggregation switch is forced by the wiring.
  for (int a = 0; a < half; ++a) {
    NodeId agg_up = ft.agg(src_pod, a);
    if (live_only && net.node_failed(agg_up)) continue;
    for (int c : ft.cores_of_agg(src_pod, a)) {
      NodeId core = ft.core(c);
      if (live_only && net.node_failed(core)) continue;
      NodeId agg_down = ft.agg_for_core(c, dst_pod);
      if (live_only && net.node_failed(agg_down)) continue;
      Path p{{src}, {}};
      if (push_hop(net, p, es, live_only) &&
          push_hop(net, p, agg_up, live_only) &&
          push_hop(net, p, core, live_only) &&
          push_hop(net, p, agg_down, live_only) &&
          push_hop(net, p, ed, live_only) &&
          push_hop(net, p, dst, live_only)) {
        out.push_back(std::move(p));
      }
    }
  }
  return out;
}

std::size_t structural_path_count(const topo::FatTree& ft, NodeId src,
                                  NodeId dst) {
  if (src == dst) return 1;
  const NodeId es = ft.edge_of_host(src);
  const NodeId ed = ft.edge_of_host(dst);
  if (es == ed) return 1;
  const auto half = static_cast<std::size_t>(ft.half_k());
  return ft.pod_of(es) == ft.pod_of(ed) ? half : half * half;
}

Path structural_path(const topo::FatTree& ft, NodeId src, NodeId dst,
                     std::size_t i) {
  SBK_EXPECTS(i < structural_path_count(ft, src, dst));
  if (src == dst) return Path{{src}, {}};
  const Network& net = ft.network();
  Path p;
  p.nodes.reserve(7);
  p.links.reserve(6);
  p.nodes.push_back(src);
  auto hop = [&net, &p](NodeId next) {
    const auto link = net.find_link(p.nodes.back(), next);
    SBK_ASSERT_MSG(link.has_value(),
                   "structural hop missing: the fat-tree was rewired");
    p.nodes.push_back(next);
    p.links.push_back(*link);
  };
  const NodeId es = ft.edge_of_host(src);
  const NodeId ed = ft.edge_of_host(dst);
  hop(es);
  if (es != ed) {
    const int src_pod = ft.pod_of(es);
    const int dst_pod = ft.pod_of(ed);
    if (src_pod == dst_pod) {
      hop(ft.agg(src_pod, static_cast<int>(i)));
    } else {
      const auto half = static_cast<std::size_t>(ft.half_k());
      const int a = static_cast<int>(i / half);
      const int c = ft.core_of_agg(src_pod, a, static_cast<int>(i % half));
      hop(ft.agg(src_pod, a));
      hop(ft.core(c));
      hop(ft.agg_for_core(c, dst_pod));
    }
    hop(ed);
  }
  hop(dst);
  return p;
}

std::size_t structural_hops(const topo::FatTree& ft, NodeId src, NodeId dst) {
  SBK_EXPECTS(src != dst);
  const NodeId es = ft.edge_of_host(src);
  const NodeId ed = ft.edge_of_host(dst);
  if (es == ed) return 2;
  if (ft.pod_of(es) == ft.pod_of(ed)) return 4;
  return 6;
}

}  // namespace sbk::routing
