// Hash-based ECMP over live shortest fat-tree paths, the paper's routing
// scheme for both fat-tree and F10 in normal operation (§2.2).
//
// Candidate-path sets are cached per (src, dst) and invalidated on the
// network's topology epoch: after the first route between a host pair,
// every further call at the same epoch is a hash plus an index into the
// cached vector. Cached order equals enumeration order, so the selected
// paths — and every experiment output — are bit-identical to an uncached
// router. Instances are not thread-safe (see sweep::SweepRunner's
// scenario-private router contract).
#pragma once

#include "routing/path_cache.hpp"
#include "routing/router.hpp"
#include "topo/fat_tree.hpp"

namespace sbk::routing {

class EcmpRouter final : public Router {
 public:
  /// `salt` varies the hash function across experiment repetitions.
  explicit EcmpRouter(const topo::FatTree& ft, std::uint64_t salt = 0)
      : ft_(&ft), salt_(salt) {}

  [[nodiscard]] net::Path route(const net::Network& net, net::NodeId src,
                                net::NodeId dst, std::uint64_t flow_id,
                                const LinkLoads* loads) override;

  [[nodiscard]] const char* name() const noexcept override { return "ecmp"; }

  /// Cached (src, dst) candidate sets at the current epoch (test hook).
  [[nodiscard]] std::size_t cached_pairs() const noexcept {
    return cache_.size();
  }

 private:
  const topo::FatTree* ft_;
  std::uint64_t salt_;
  EpochPathCache cache_;
};

}  // namespace sbk::routing
