// The physical packet network substrate: nodes (hosts and packet
// switches), full-duplex capacitated links, and failure state. Topology
// builders (src/topo) produce Network instances; routing and the flow
// simulator consume them.
//
// Circuit switches are deliberately NOT nodes of this graph: they are
// transparent at the packet layer. The ShareBackup module models them
// separately and *rewrites* Network links when circuits are reconfigured.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/ids.hpp"
#include "util/assert.hpp"

namespace sbk::net {

/// Layer of a node in the (fat-tree style) network.
enum class NodeKind : std::uint8_t {
  kHost,
  kEdgeSwitch,
  kAggSwitch,
  kCoreSwitch,
};

[[nodiscard]] const char* to_string(NodeKind kind) noexcept;
[[nodiscard]] bool is_switch(NodeKind kind) noexcept;

/// A node of the packet network.
struct Node {
  NodeKind kind = NodeKind::kHost;
  std::string name;      ///< human-readable, e.g. "E[2,1]" or "H37"
  std::int32_t pod = -1; ///< pod index for edge/agg/host, -1 otherwise
  std::int32_t index = -1; ///< in-pod index (edge/agg), global (host/core)
  bool failed = false;
};

/// A full-duplex link. `capacity` applies independently to each direction.
struct Link {
  NodeId a;
  NodeId b;
  double capacity = 1.0;  ///< in abstract bandwidth units (e.g. Gbps)
  bool failed = false;
};

/// One hop in a node's adjacency list.
struct Adjacency {
  LinkId link;
  NodeId peer;
};

/// A directed use of a full-duplex link: `forward` means a -> b.
struct DirectedLink {
  LinkId link;
  bool forward = true;

  friend constexpr bool operator==(DirectedLink, DirectedLink) noexcept =
      default;
};

/// Mutable multigraph with failure state. Node and link ids are dense
/// indices; removal is not supported (failures are flags), so ids stay
/// stable for the lifetime of the network — routing tables and the
/// simulator rely on this.
///
/// Adjacency lives in one flat arena (per-node blocks inside a single
/// contiguous array) instead of a vector-of-vectors: one allocation for
/// the whole graph, and neighbor iteration during routing/BFS walks
/// touches consecutive cache lines. Blocks that outgrow their capacity
/// relocate to the arena tail with doubled capacity (amortized O(1));
/// builders that know degrees up front use reserve()/reserve_degree()
/// to lay every block out exactly once.
class Network {
 public:
  Network() = default;

  // --- construction -----------------------------------------------------
  /// Pre-sizes node/link/adjacency storage: one arena reservation instead
  /// of incremental growth. Topology builders call this once with their
  /// exact element counts before the add_* loops.
  void reserve(std::size_t nodes, std::size_t links);
  /// Pre-allocates an adjacency block of exactly `degree` slots for a
  /// node whose final degree is known (fat-tree builders know every
  /// port count). Must run before the node's first add_link; a later
  /// add_link beyond `degree` still works via block relocation.
  void reserve_degree(NodeId id, std::uint32_t degree);
  NodeId add_node(NodeKind kind, std::string name, std::int32_t pod = -1,
                  std::int32_t index = -1);
  /// Adds a full-duplex link between distinct existing nodes.
  LinkId add_link(NodeId a, NodeId b, double capacity);

  // --- structure queries -------------------------------------------------
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  [[nodiscard]] const Node& node(NodeId id) const {
    SBK_EXPECTS(id.valid() && id.index() < nodes_.size());
    return nodes_[id.index()];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    SBK_EXPECTS(id.valid() && id.index() < links_.size());
    return links_[id.index()];
  }
  [[nodiscard]] std::span<const Adjacency> adjacent(NodeId id) const;
  /// The node reached by traversing `dl` (its head).
  [[nodiscard]] NodeId head(DirectedLink dl) const;
  /// The node `dl` departs from (its tail).
  [[nodiscard]] NodeId tail(DirectedLink dl) const;
  /// The link between a and b, if any (first match on multigraphs).
  [[nodiscard]] std::optional<LinkId> find_link(NodeId a, NodeId b) const;
  /// Directed traversal of `link` departing from `from`; from must be an
  /// endpoint.
  [[nodiscard]] DirectedLink directed(LinkId link, NodeId from) const;

  /// All node ids of a given kind, in id order. The span points into a
  /// per-kind index maintained on add_node (nodes never change kind), so
  /// repeated calls on hot paths cost nothing; it is invalidated by
  /// add_node.
  [[nodiscard]] std::span<const NodeId> nodes_of_kind(NodeKind kind) const;
  [[nodiscard]] std::size_t count_of_kind(NodeKind kind) const;

  /// Changes a link's capacity in place. Zero is allowed and models a
  /// drained link: still present in the topology (routing may keep using
  /// it) but carrying no traffic — max-min allocation freezes flows
  /// crossing it at rate 0.
  void set_link_capacity(LinkId id, double capacity);

  // --- failure state ------------------------------------------------------
  void fail_node(NodeId id);
  void restore_node(NodeId id);
  void fail_link(LinkId id);
  void restore_link(LinkId id);
  [[nodiscard]] bool node_failed(NodeId id) const { return node(id).failed; }
  [[nodiscard]] bool link_failed(LinkId id) const { return link(id).failed; }
  /// A link is usable iff itself and both endpoints are up.
  [[nodiscard]] bool usable(LinkId id) const;

  // --- topology epochs -----------------------------------------------------
  /// Monotonic counter bumped by every state change that can alter
  /// routing or allocation results: fail_node/fail_link, restore_*,
  /// clear_failures, set_link_capacity, add_link, and retarget_link.
  /// Idempotent calls (failing an already-failed element, setting an
  /// unchanged capacity) do NOT bump it. Routers use this for epoch-based
  /// cache invalidation: a cached result computed at epoch E is valid
  /// exactly while topology_version() == E.
  [[nodiscard]] std::uint64_t topology_version() const noexcept {
    return topo_version_;
  }
  /// Like topology_version(), but only counts *structural* changes —
  /// add_link and retarget_link — not failure flags or capacities.
  /// Caches over the structural wiring (e.g. the live_only=false
  /// candidate-path sets) key on this and survive failure churn.
  [[nodiscard]] std::uint64_t structure_version() const noexcept {
    return structure_version_;
  }
  [[nodiscard]] std::size_t failed_node_count() const noexcept {
    return failed_nodes_;
  }
  [[nodiscard]] std::size_t failed_link_count() const noexcept {
    return failed_links_;
  }
  /// Fraction of links not failed (1 for a network without links).
  [[nodiscard]] double live_link_fraction() const noexcept {
    return links_.empty() ? 1.0
                          : 1.0 - static_cast<double>(failed_links_) /
                                      static_cast<double>(links_.size());
  }
  void clear_failures();

  // --- surgery (used by ShareBackup circuit reconfiguration) --------------
  /// Re-targets one endpoint of a link: the endpoint equal to `from`
  /// becomes `to`. Capacity and the id are preserved. This models a
  /// circuit switch moving a physical circuit from a failed switch to its
  /// backup. `to` must not already be an endpoint.
  void retarget_link(LinkId id, NodeId from, NodeId to);

 private:
  /// One node's slice of the adjacency arena.
  struct AdjBlock {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
    std::uint32_t capacity = 0;
  };

  [[nodiscard]] Node& mutable_node(NodeId id);
  [[nodiscard]] Link& mutable_link(LinkId id);
  void adj_append(NodeId id, Adjacency entry);
  void adj_erase_link(NodeId id, LinkId link);

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<AdjBlock> adj_blocks_;   // per node, indexes into adj_arena_
  std::vector<Adjacency> adj_arena_;   // all adjacency entries, one slab
  std::array<std::vector<NodeId>, 4> by_kind_;  // dense per-kind node index
  std::size_t failed_nodes_ = 0;
  std::size_t failed_links_ = 0;
  std::uint64_t topo_version_ = 0;
  std::uint64_t structure_version_ = 0;
};

}  // namespace sbk::net
