// Structural enumeration of fat-tree host-to-host paths. Faster and more
// precise than generic graph search: candidate sets follow directly from
// the fat-tree structure (choice of aggregation switch, choice of core).
#pragma once

#include <vector>

#include "net/path.hpp"
#include "topo/fat_tree.hpp"

namespace sbk::routing {

/// All structurally shortest host-to-host paths in `ft`, optionally
/// restricted to paths whose every node and link is currently up.
/// For src == dst returns the single trivial path.
[[nodiscard]] std::vector<net::Path> candidate_paths(
    const topo::FatTree& ft, net::NodeId src, net::NodeId dst,
    bool live_only);

/// Size of candidate_paths(ft, src, dst, /*live_only=*/false) on the
/// fat-tree's built wiring: 1 (src == dst, or both hosts on one edge
/// switch), k/2 (same pod), (k/2)^2 (inter-pod).
[[nodiscard]] std::size_t structural_path_count(const topo::FatTree& ft,
                                                net::NodeId src,
                                                net::NodeId dst);

/// Element `i` of candidate_paths(ft, src, dst, /*live_only=*/false),
/// built on its own from the enumeration's index order: inter-pod, up
/// aggregation switch i / (k/2) and its (i % (k/2))-th core; same pod,
/// aggregation switch i. Routers that hash over the structural set read
/// one element of it, so they build that one path instead of all 64.
/// Every hop must exist in the network (checked): a fat-tree whose
/// wiring was changed after the build throws instead of silently
/// hashing over a different set.
[[nodiscard]] net::Path structural_path(const topo::FatTree& ft,
                                        net::NodeId src, net::NodeId dst,
                                        std::size_t i);

/// Shortest-path hop count between two distinct hosts in a healthy
/// fat-tree: 2 (same edge), 4 (same pod), 6 (inter-pod).
[[nodiscard]] std::size_t structural_hops(const topo::FatTree& ft,
                                          net::NodeId src, net::NodeId dst);

}  // namespace sbk::routing
