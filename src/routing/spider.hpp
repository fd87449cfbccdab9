// SPIDER-style proactive protection (Cascone et al., see PAPERS.md):
// every flow follows a per-(src, dst) primary path chosen on the
// *healthy* structural topology, and every protected element carries a
// pre-installed local detour. When the switch upstream of a failed
// element detects the failure, it flips a data-plane state machine and
// forwards along the detour with zero controller involvement — the
// recovery-latency model charges detection plus a local state
// transition, with rule_updates = 0 (see control/recovery_latency.hpp).
//
// A detour runs from the detecting switch to a *merge point*: the
// downstream primary node the structural wiring can reach in the fewest
// hops while avoiding the failed element (ties resolved toward the
// latest merge point, which skips the largest primary segment). This is
// SPIDER's detour-to-merge-point construction; computing it on the
// structural wiring models rules installed before any failure.
//
// Coverage limits modeled faithfully:
//   * Detours ignore failure flags (they are installed in advance). If
//     a second failure hits the detour itself, or the detour collides
//     with the remaining primary (the spliced forwarding state would
//     loop), the flow is lost — SPIDER protects against the failures
//     its rules anticipate, not arbitrary combinations.
//   * The detour budget (`max_detour_hops`) bounds pre-installed rule
//     depth. In plain-wired fat-trees an aggregation switch that dies
//     *downstream* of the core has no merge point within 4 hops (the
//     destination pod is only re-enterable through a different core
//     row, 6+ hops away), so those flows stall until repair — the
//     honest cost of purely local failover without bounce-back.
//   * A dead destination (or a host whose only link died) is
//     unrecoverable.
//
// The primary is structural_path() at the hashed index — the same
// selection as EcmpWithGlobalRerouteRouter's front-end, so unaffected
// flows take exactly the same paths as the reactive baselines and the
// comparison isolates the protection mechanism. Building the one
// hashed element is bit-identical to hashing over the enumerated
// structural set (same count, same index order), and keeps no per-pair
// cache.
#pragma once

#include <cstdint>

#include "routing/router.hpp"
#include "topo/fat_tree.hpp"

namespace sbk::routing {

class SpiderProtectRouter final : public Router {
 public:
  /// `salt` varies the primary hash across repetitions;
  /// `max_detour_hops` bounds the pre-installed detour length (4 covers
  /// every single-element failure detected *upstream* of the core in a
  /// fat-tree; see the coverage notes above).
  explicit SpiderProtectRouter(const topo::FatTree& ft,
                               std::uint64_t salt = 0,
                               int max_detour_hops = 4)
      : ft_(&ft), salt_(salt), max_detour_hops_(max_detour_hops) {}

  [[nodiscard]] net::Path route(const net::Network& net, net::NodeId src,
                                net::NodeId dst, std::uint64_t flow_id,
                                const LinkLoads* loads) override;

  [[nodiscard]] const char* name() const noexcept override {
    return "spider-protect";
  }

  /// Failovers taken (detour activations) since construction.
  [[nodiscard]] std::size_t failovers() const noexcept { return failovers_; }
  /// Failovers with no usable pre-installed detour — no merge point in
  /// budget, the detour itself dead, or a splice that would loop. The
  /// flow is lost (SPIDER's coverage limit).
  [[nodiscard]] std::size_t detour_misses() const noexcept {
    return detour_misses_;
  }

 private:
  const topo::FatTree* ft_;
  std::uint64_t salt_;
  int max_detour_hops_;
  std::size_t failovers_ = 0;
  std::size_t detour_misses_ = 0;
};

}  // namespace sbk::routing
