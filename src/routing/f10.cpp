#include "routing/f10.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sbk::routing {

namespace {

using net::LinkId;
using net::Network;
using net::NodeId;
using net::Path;

bool link_live(NeighborLinkCache& cache, const Network& net, NodeId a,
               NodeId b) {
  auto l = cache.find(net, a, b);
  return l.has_value() && net.usable(*l);
}

bool append(NeighborLinkCache& cache, const Network& net, Path& p,
            NodeId next) {
  auto l = cache.find(net, p.nodes.back(), next);
  if (!l.has_value() || !net.usable(*l)) return false;
  if (std::find(p.nodes.begin(), p.nodes.end(), next) != p.nodes.end()) {
    return false;  // would create a loop
  }
  p.nodes.push_back(next);
  p.links.push_back(*l);
  return true;
}

/// Deterministic pick of index i in [0, n) by hash; callers iterate
/// (h + t) % n over t to probe alternatives in a stable order.
std::size_t pick(std::uint64_t h, std::size_t t, std::size_t n) {
  return static_cast<std::size_t>((h + t) % n);
}

}  // namespace

net::Path F10Router::route(const Network& net, NodeId src, NodeId dst,
                           std::uint64_t flow_id, const LinkLoads* /*loads*/) {
  SBK_EXPECTS_MSG(&net == &ft_->network(),
                  "router is bound to a different network instance");
  const topo::FatTree& ft = *ft_;
  const int half = ft.half_k();

  if (src == dst) return Path{{src}, {}};
  if (net.node_failed(src) || net.node_failed(dst)) return {};

  const NodeId es = ft.edge_of_host(src);
  const NodeId ed = ft.edge_of_host(dst);
  if (net.node_failed(es) || net.node_failed(ed)) return {};
  // Every path below ends with the hop ed -> dst; without it the detour
  // search can only come back empty.
  if (!link_live(links_, net, ed, dst)) return {};

  Path p{{src}, {}};
  if (!append(links_, net, p, es)) return {};

  if (es == ed) {
    if (!append(links_, net, p, dst)) return {};
    return p;
  }

  const int src_pod = ft.pod_of(es);
  const int dst_pod = ft.pod_of(ed);
  const std::uint64_t h = mix64(flow_id ^ mix64(salt_));

  if (src_pod == dst_pod) {
    // Up to some agg with a live link down to ed (local information: the
    // edge switch learns broken agg->edge links from its pod neighbors).
    for (std::size_t t = 0; t < static_cast<std::size_t>(half); ++t) {
      NodeId agg = ft.agg(src_pod, static_cast<int>(pick(h, t, half)));
      if (net.node_failed(agg)) continue;
      if (!link_live(links_, net, es, agg)) continue;
      if (link_live(links_, net, agg, ed)) {
        Path q = p;
        if (append(links_, net, q, agg) && append(links_, net, q, ed) &&
            append(links_, net, q, dst)) {
          return q;
        }
      }
      // 3-hop detour inside the pod: agg -> e' -> agg' -> ed.
      for (std::size_t u = 0; u < static_cast<std::size_t>(half); ++u) {
        NodeId e2 = ft.edge(src_pod, static_cast<int>(pick(h >> 8, u, half)));
        if (e2 == es || e2 == ed || net.node_failed(e2)) continue;
        if (!link_live(links_, net, agg, e2)) continue;
        for (std::size_t v = 0; v < static_cast<std::size_t>(half); ++v) {
          NodeId a2 = ft.agg(src_pod, static_cast<int>(pick(h >> 16, v, half)));
          if (a2 == agg || net.node_failed(a2)) continue;
          if (!link_live(links_, net, e2, a2) ||
              !link_live(links_, net, a2, ed)) {
            continue;
          }
          Path q = p;
          if (append(links_, net, q, agg) && append(links_, net, q, e2) &&
              append(links_, net, q, a2) && append(links_, net, q, ed) &&
              append(links_, net, q, dst)) {
            return q;
          }
        }
      }
    }
    return {};
  }

  // Inter-pod. Choose the up agg and core locally among live uplinks.
  for (std::size_t t = 0; t < static_cast<std::size_t>(half); ++t) {
    NodeId agg_up = ft.agg(src_pod, static_cast<int>(pick(h, t, half)));
    if (net.node_failed(agg_up) || !link_live(links_, net, es, agg_up)) {
      continue;
    }
    const std::vector<int> core_choices =
        ft.cores_of_agg(src_pod, ft.index_of(agg_up));
    for (std::size_t u = 0; u < core_choices.size(); ++u) {
      int c = core_choices[pick(h >> 8, u, core_choices.size())];
      NodeId core = ft.core(c);
      if (net.node_failed(core) || !link_live(links_, net, agg_up, core)) {
        continue;
      }

      NodeId agg_down = ft.agg_for_core(c, dst_pod);
      if (!net.node_failed(agg_down) &&
          link_live(links_, net, core, agg_down) &&
          link_live(links_, net, agg_down, ed)) {
        Path q = p;
        if (append(links_, net, q, agg_up) && append(links_, net, q, core) &&
            append(links_, net, q, agg_down) && append(links_, net, q, ed) &&
            append(links_, net, q, dst)) {
          return q;
        }
      }

      // F10 3-hop detour at the core level: core -> agg B in a third pod
      // -> alternate core c' -> live agg in dst pod -> ed.
      for (std::size_t w = 0; w < static_cast<std::size_t>(ft.pods()); ++w) {
        int q_pod = static_cast<int>(pick(h >> 16, w, ft.pods()));
        if (q_pod == dst_pod || q_pod == src_pod) continue;
        NodeId b = ft.agg_for_core(c, q_pod);
        if (net.node_failed(b) || !link_live(links_, net, core, b)) {
          continue;
        }
        const std::vector<int> alt_cores =
            ft.cores_of_agg(q_pod, ft.index_of(b));
        for (std::size_t x = 0; x < alt_cores.size(); ++x) {
          int c2 = alt_cores[pick(h >> 24, x, alt_cores.size())];
          if (c2 == c) continue;
          NodeId core2 = ft.core(c2);
          if (net.node_failed(core2) || !link_live(links_, net, b, core2)) {
            continue;
          }
          NodeId agg_down2 = ft.agg_for_core(c2, dst_pod);
          if (net.node_failed(agg_down2)) continue;
          if (!link_live(links_, net, core2, agg_down2) ||
              !link_live(links_, net, agg_down2, ed)) {
            continue;
          }
          Path q = p;
          if (append(links_, net, q, agg_up) && append(links_, net, q, core) &&
              append(links_, net, q, b) && append(links_, net, q, core2) &&
              append(links_, net, q, agg_down2) && append(links_, net, q, ed) &&
              append(links_, net, q, dst)) {
            return q;
          }
        }
      }

      // Detour at the pod level: agg_down is reachable but its link to ed
      // is broken -> route inside dst pod via another edge/agg pair.
      if (!net.node_failed(agg_down) &&
          link_live(links_, net, core, agg_down)) {
        for (std::size_t u2 = 0; u2 < static_cast<std::size_t>(half); ++u2) {
          NodeId e2 = ft.edge(dst_pod, static_cast<int>(pick(h >> 32, u2, half)));
          if (e2 == ed || net.node_failed(e2)) continue;
          if (!link_live(links_, net, agg_down, e2)) continue;
          for (std::size_t v = 0; v < static_cast<std::size_t>(half); ++v) {
            NodeId a2 = ft.agg(dst_pod, static_cast<int>(pick(h >> 40, v, half)));
            if (a2 == agg_down || net.node_failed(a2)) continue;
            if (!link_live(links_, net, e2, a2) ||
                !link_live(links_, net, a2, ed)) {
              continue;
            }
            Path q = p;
            if (append(links_, net, q, agg_up) && append(links_, net, q, core) &&
                append(links_, net, q, agg_down) && append(links_, net, q, e2) &&
                append(links_, net, q, a2) && append(links_, net, q, ed) &&
                append(links_, net, q, dst)) {
              return q;
            }
          }
        }
      }
    }
  }
  return {};
}

}  // namespace sbk::routing
