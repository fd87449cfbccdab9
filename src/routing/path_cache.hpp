// Epoch-validated routing caches. Routers keep candidate-path sets (and
// neighbor-link lookups) keyed by (src, dst) and stamped with the
// Network epoch they were computed under; a cached entry is served only
// while the network still reports that epoch, so cached results are
// bit-identical to a fresh computation by construction.
//
// The two caches key on different epochs:
//   * EpochPathCache holds live-filtered candidate sets (candidate_paths
//     with live_only = true) and keys on net::Network::topology_version(),
//     which changes on failures, repairs, capacity edits, and rewiring.
//   * NeighborLinkCache holds structural node-pair -> link lookups and
//     keys on net::Network::structure_version(), which changes only on
//     rewiring (add_link / retarget_link), so it survives failure churn
//     untouched.
//
// Structural (live_only = false) candidate sets are not cached at all:
// the routers that hash over them read one element per route, and
// structural_path() (routing/fat_tree_paths.hpp) builds element i of
// the enumeration directly. Same count, same index order, so the pick
// is bit-identical to indexing a cached set.
//
// Caches are per-router-instance and unsynchronized: the sweep engine's
// contract already requires routers to be scenario-private (see
// sweep::SweepRunner), so no locking is needed on the hot path.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "net/path.hpp"
#include "util/flat_map.hpp"
#include "util/keys.hpp"

namespace sbk::routing {

/// Cache of candidate-path sets per (src, dst) host pair, invalidated as
/// a whole when topology_version() moves. The fill callback runs on
/// miss and its result is stored verbatim — element order included, so
/// hash selection over the cached vector equals hash selection over a
/// fresh enumeration.
///
/// Storage is a util::FlatKeyMap, so the returned entry is valid only
/// until the next lookup() on this cache (table growth relocates
/// values). lookup() returns a checked FlatKeyMap Ref that asserts on
/// dereference after such a relocation, so "consume the candidate set
/// before routing the next flow" is enforced at run time instead of by
/// comment.
class EpochPathCache {
 public:
  using Ref = util::FlatKeyMap<std::vector<net::Path>>::Ref;

  template <typename Fill>
  [[nodiscard]] Ref lookup(const net::Network& net, net::NodeId src,
                           net::NodeId dst, Fill&& fill) {
    const std::uint64_t epoch = net.topology_version();
    if (epoch != epoch_ || !valid_) {
      paths_.clear();
      epoch_ = epoch;
      valid_ = true;
    }
    const std::uint64_t key = util::pack_pair_key(src.value(), dst.value());
    return paths_.find_or_emplace_ref(key, std::forward<Fill>(fill));
  }

  /// Entries currently held (exposed for tests pinning invalidation).
  [[nodiscard]] std::size_t size() const noexcept { return paths_.size(); }

 private:
  std::uint64_t epoch_ = 0;
  bool valid_ = false;  // first lookup always fills
  util::FlatKeyMap<std::vector<net::Path>> paths_;
};

/// Memoized Network::find_link, keyed on structure_version(): the
/// node-pair -> link mapping only changes when wiring changes, never on
/// failure flips, so greedy routers (F10) can resolve neighbor links in
/// O(1) during reroute storms instead of scanning adjacency lists.
/// Liveness (usable()) must still be checked by the caller per call.
class NeighborLinkCache {
 public:
  [[nodiscard]] std::optional<net::LinkId> find(const net::Network& net,
                                                net::NodeId a, net::NodeId b) {
    const std::uint64_t epoch = net.structure_version();
    if (epoch != epoch_ || !valid_) {
      links_.clear();
      epoch_ = epoch;
      valid_ = true;
    }
    const std::uint64_t key = util::pack_pair_key(a.value(), b.value());
    // Audited against FlatKeyMap's reference-validity contract: the
    // entry is copied into the optional return value before this call
    // returns, so no reference outlives a future rehash.
    return links_.find_or_emplace(key,
                                  [&net, a, b] { return net.find_link(a, b); });
  }

 private:
  std::uint64_t epoch_ = 0;
  bool valid_ = false;
  util::FlatKeyMap<std::optional<net::LinkId>> links_;
};

}  // namespace sbk::routing
