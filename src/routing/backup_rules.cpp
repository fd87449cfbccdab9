#include "routing/backup_rules.hpp"

#include "routing/fat_tree_paths.hpp"
#include "util/assert.hpp"

namespace sbk::routing {

namespace {

using net::Network;
using net::Path;

/// Hop index of the first dead element on `p` (the failure is detected
/// by the switch at p.nodes[result]). Precondition: p is not live.
std::size_t first_dead_hop(const Network& net, const Path& p) {
  for (std::size_t i = 0; i < p.links.size(); ++i) {
    if (!net.usable(p.links[i]) || net.node_failed(p.nodes[i + 1])) return i;
  }
  SBK_UNREACHABLE("first_dead_hop called on a live path");
}

/// True iff `alt` runs through the same switches and links as `primary`
/// up to (and including) hop `upto` — the traversed prefix a local
/// backup rule cannot rewrite.
bool shares_prefix(const Path& alt, const Path& primary, std::size_t upto) {
  if (alt.links.size() < upto) return false;
  for (std::size_t i = 0; i < upto; ++i) {
    if (alt.links[i] != primary.links[i] ||
        alt.nodes[i + 1] != primary.nodes[i + 1]) {
      return false;
    }
  }
  return true;
}

}  // namespace

net::Path BackupRulesRouter::route(const Network& net, net::NodeId src,
                                   net::NodeId dst, std::uint64_t flow_id,
                                   const LinkLoads* loads) {
  SBK_EXPECTS_MSG(&net == &ft_->network(),
                  "router is bound to a different network instance");
  if (src == dst) return Path{{src}, {}};

  const std::uint64_t h = mix64(flow_id ^ mix64(salt_));
  const std::size_t n = structural_path_count(*ft_, src, dst);
  Path primary = structural_path(*ft_, src, dst, h % n);
  if (net::is_live_path(net, primary)) return primary;
  if (net.node_failed(src) || net.node_failed(dst)) return {};

  // The backup rule lives at the switch that detects the dead hop; the
  // packet has already traversed the prefix, so only candidates that
  // agree on it are reachable by a local next-hop swap. Probe order is
  // the deterministic hash rotation, so the "installed" backup is a
  // stable function of (structure, salt, flow).
  const std::size_t fail_at = first_dead_hop(net, primary);
  for (std::size_t t = 1; t < n; ++t) {
    Path alt = structural_path(*ft_, src, dst, (h + t) % n);
    if (!shares_prefix(alt, primary, fail_at)) continue;
    if (!net::is_live_path(net, alt)) continue;
    ++backup_hits_;
    return alt;
  }

  // Primary and backup both dead: reactive global reroute (slow path).
  ++global_fallbacks_;
  return optimizer_.route(net, src, dst, flow_id, loads);
}

}  // namespace sbk::routing
