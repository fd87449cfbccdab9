#include "routing/global_reroute.hpp"

#include <limits>

#include "routing/fat_tree_paths.hpp"
#include "util/assert.hpp"

namespace sbk::routing {

net::Path MinCongestionRouter::route(const net::Network& net, net::NodeId src,
                                     net::NodeId dst, std::uint64_t flow_id,
                                     const LinkLoads* loads) {
  SBK_EXPECTS_MSG(&net == &ft_->network(),
                  "router is bound to a different network instance");
  const EpochPathCache::Ref entry = cache_.lookup(net, src, dst, [&] {
    return candidate_paths(*ft_, src, dst, /*live_only=*/true);
  });
  const std::vector<net::Path>& candidates = *entry;
  if (candidates.empty()) return {};
  if (loads == nullptr) {
    std::uint64_t h = mix64(flow_id ^ mix64(salt_));
    return candidates[h % candidates.size()];
  }

  double best_max = std::numeric_limits<double>::infinity();
  double best_sum = std::numeric_limits<double>::infinity();
  std::uint64_t best_hash = 0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    double max_load = 0.0;
    double sum_load = 0.0;
    for (net::DirectedLink dl : candidates[i].directed_links(net)) {
      // Normalize by capacity so a loaded thin link counts as more
      // congested than an equally loaded fat one.
      double u = loads->get(dl) / net.link(dl.link).capacity;
      max_load = std::max(max_load, u);
      sum_load += u;
    }
    std::uint64_t h = mix64(flow_id ^ mix64(salt_ + i));
    bool better = max_load < best_max ||
                  (max_load == best_max && sum_load < best_sum) ||
                  (max_load == best_max && sum_load == best_sum &&
                   h < best_hash);
    if (i == 0 || better) {
      best_max = max_load;
      best_sum = sum_load;
      best_hash = h;
      best = i;
    }
  }
  return candidates[best];
}

net::Path EcmpWithGlobalRerouteRouter::route(const net::Network& net,
                                             net::NodeId src, net::NodeId dst,
                                             std::uint64_t flow_id,
                                             const LinkLoads* loads) {
  SBK_EXPECTS_MSG(&net == &ft_->network(),
                  "router is bound to a different network instance");
  // Hash over the *structural* candidate set, so the choice of an
  // unaffected flow is identical to what it would be with no failures.
  const std::uint64_t h = mix64(flow_id ^ mix64(salt_));
  net::Path chosen = structural_path(
      *ft_, src, dst, h % structural_path_count(*ft_, src, dst));
  if (net::is_live_path(net, chosen)) return chosen;
  // The flow is affected: centrally re-place it on the least congested
  // surviving shortest path.
  return optimizer_.route(net, src, dst, flow_id, loads);
}

}  // namespace sbk::routing
