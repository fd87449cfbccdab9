#include "routing/spider.hpp"

#include <algorithm>
#include <deque>

#include "routing/fat_tree_paths.hpp"
#include "util/assert.hpp"

namespace sbk::routing {

namespace {

using net::LinkId;
using net::Network;
using net::NodeId;
using net::Path;

/// One breadth-first sweep over the structural wiring from `from`,
/// avoiding one element (failure flags deliberately ignored: the detour
/// is installed before any failure happens). Fills depth/parent/via for
/// every node within `max_hops`; hosts get a depth (they can be merge
/// points when the destination itself is downstream) but are never
/// expanded — a detour must not bounce through a server. Adjacency
/// lists are scanned in id order, so the sweep is deterministic.
struct DetourSweep {
  std::vector<int> depth;
  std::vector<std::int32_t> parent;
  std::vector<LinkId> via;
};

DetourSweep bfs_detours(const Network& net, NodeId from, bool exclude_node,
                        std::uint32_t excluded, int max_hops) {
  DetourSweep s;
  s.depth.assign(net.node_count(), -1);
  s.parent.assign(net.node_count(), -1);
  s.via.assign(net.node_count(), LinkId{});
  std::deque<NodeId> frontier;
  s.depth[from.index()] = 0;
  frontier.push_back(from);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    if (s.depth[u.index()] >= max_hops) continue;
    for (const net::Adjacency& adj : net.adjacent(u)) {
      if (exclude_node ? adj.peer.value() == excluded
                       : adj.link.value() == excluded) {
        continue;
      }
      if (s.depth[adj.peer.index()] != -1) continue;
      s.depth[adj.peer.index()] = s.depth[u.index()] + 1;
      s.parent[adj.peer.index()] = static_cast<std::int32_t>(u.index());
      s.via[adj.peer.index()] = adj.link;
      if (net.node(adj.peer).kind != net::NodeKind::kHost) {
        frontier.push_back(adj.peer);
      }
    }
  }
  return s;
}

/// Path from `from` to `to` out of a completed sweep (to must have a
/// depth).
Path reconstruct(const DetourSweep& s, NodeId from, NodeId to) {
  Path p;
  for (NodeId n = to; n != from;
       n = NodeId{static_cast<net::NodeId::value_type>(
           s.parent[n.index()])}) {
    p.nodes.push_back(n);
    p.links.push_back(s.via[n.index()]);
  }
  p.nodes.push_back(from);
  std::reverse(p.nodes.begin(), p.nodes.end());
  std::reverse(p.links.begin(), p.links.end());
  return p;
}

}  // namespace

net::Path SpiderProtectRouter::route(const Network& net, NodeId src,
                                     NodeId dst, std::uint64_t flow_id,
                                     const LinkLoads* /*loads*/) {
  SBK_EXPECTS_MSG(&net == &ft_->network(),
                  "router is bound to a different network instance");
  if (src == dst) return Path{{src}, {}};
  if (net.node_failed(src) || net.node_failed(dst)) return {};

  const std::uint64_t h = mix64(flow_id ^ mix64(salt_));
  const Path primary = structural_path(
      *ft_, src, dst, h % structural_path_count(*ft_, src, dst));

  Path out{{src}, {}};
  bool failed_over = false;
  std::size_t i = 0;  // invariant: out.nodes.back() == primary.nodes[i]
  while (i < primary.links.size()) {
    const NodeId u = out.nodes.back();
    const NodeId v = primary.nodes[i + 1];
    const LinkId l = primary.links[i];
    if (net.usable(l) && !net.node_failed(v)) {
      // After a splice the primary suffix can collide with a detour
      // interior; the pre-installed forwarding state would loop there.
      if (failed_over && std::find(out.nodes.begin(), out.nodes.end(), v) !=
                             out.nodes.end()) {
        ++detour_misses_;
        return {};
      }
      out.nodes.push_back(v);
      out.links.push_back(l);
      ++i;
      continue;
    }

    // Failure detected at u: flip to the pre-installed detour. The
    // excluded element is the dead next hop (node bypass) or the dead
    // link (link protection).
    ++failovers_;
    failed_over = true;
    const bool exclude_node = net.node_failed(v);
    const std::uint32_t excluded = exclude_node ? v.value() : l.value();
    const DetourSweep sweep =
        bfs_detours(net, u, exclude_node, excluded, max_detour_hops_);

    // Merge point: the downstream primary node reachable in the fewest
    // hops; ties go to the latest position (largest skipped segment).
    std::size_t merge = 0;
    int best_depth = -1;
    for (std::size_t p = i + 1; p < primary.nodes.size(); ++p) {
      const NodeId cand = primary.nodes[p];
      if (exclude_node && cand == v) continue;
      const int d = sweep.depth[cand.index()];
      if (d <= 0) continue;
      if (best_depth == -1 || d <= best_depth) {
        best_depth = d;
        merge = p;
      }
    }
    if (best_depth == -1) {
      ++detour_misses_;
      return {};
    }
    const Path d = reconstruct(sweep, u, primary.nodes[merge]);
    // The detour itself must be alive *now*; SPIDER pre-installed it
    // blind to the current failure set, so a hit on the detour loses
    // the flow. Splices that would revisit a node are rejected too —
    // forwarding state would loop.
    for (std::size_t j = 0; j + 1 < d.nodes.size(); ++j) {
      const NodeId w = d.nodes[j + 1];
      const LinkId dl = d.links[j];
      if (!net.usable(dl) || net.node_failed(w) ||
          std::find(out.nodes.begin(), out.nodes.end(), w) !=
              out.nodes.end()) {
        ++detour_misses_;
        return {};
      }
      out.nodes.push_back(w);
      out.links.push_back(dl);
    }
    i = merge;
  }
  return out;
}

}  // namespace sbk::routing
