#include "net/network.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sbk::net {

const char* to_string(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::kHost: return "host";
    case NodeKind::kEdgeSwitch: return "edge";
    case NodeKind::kAggSwitch: return "agg";
    case NodeKind::kCoreSwitch: return "core";
  }
  return "?";
}

bool is_switch(NodeKind kind) noexcept { return kind != NodeKind::kHost; }

void Network::reserve(std::size_t nodes, std::size_t links) {
  nodes_.reserve(nodes);
  adj_blocks_.reserve(nodes);
  links_.reserve(links);
  // Each link contributes two adjacency entries; builders that also call
  // reserve_degree() never grow past this, and incremental builds waste
  // at most the doubling slack on top.
  adj_arena_.reserve(links * 2);
}

void Network::reserve_degree(NodeId id, std::uint32_t degree) {
  SBK_EXPECTS(id.valid() && id.index() < nodes_.size());
  AdjBlock& b = adj_blocks_[id.index()];
  if (b.capacity >= degree) return;
  const auto new_off = static_cast<std::uint32_t>(adj_arena_.size());
  adj_arena_.resize(adj_arena_.size() + degree);
  std::copy_n(adj_arena_.begin() + b.offset, b.count,
              adj_arena_.begin() + new_off);
  b.offset = new_off;
  b.capacity = degree;
}

void Network::adj_append(NodeId id, Adjacency entry) {
  AdjBlock& b = adj_blocks_[id.index()];
  if (b.count == b.capacity) {
    const std::uint32_t new_cap = b.capacity == 0 ? 4 : b.capacity * 2;
    const auto new_off = static_cast<std::uint32_t>(adj_arena_.size());
    adj_arena_.resize(adj_arena_.size() + new_cap);
    std::copy_n(adj_arena_.begin() + b.offset, b.count,
                adj_arena_.begin() + new_off);
    b.offset = new_off;
    b.capacity = new_cap;
  }
  adj_arena_[b.offset + b.count++] = entry;
}

void Network::adj_erase_link(NodeId id, LinkId link) {
  AdjBlock& b = adj_blocks_[id.index()];
  Adjacency* begin = adj_arena_.data() + b.offset;
  Adjacency* end = begin + b.count;
  Adjacency* it = std::find_if(
      begin, end, [link](const Adjacency& a) { return a.link == link; });
  SBK_ASSERT(it != end);
  std::copy(it + 1, end, it);
  --b.count;
}

NodeId Network::add_node(NodeKind kind, std::string name, std::int32_t pod,
                         std::int32_t index) {
  nodes_.push_back(Node{kind, std::move(name), pod, index, false});
  adj_blocks_.emplace_back();
  auto id = NodeId(static_cast<NodeId::value_type>(nodes_.size() - 1));
  by_kind_[static_cast<std::size_t>(kind)].push_back(id);
  return id;
}

LinkId Network::add_link(NodeId a, NodeId b, double capacity) {
  SBK_EXPECTS(a.valid() && a.index() < nodes_.size());
  SBK_EXPECTS(b.valid() && b.index() < nodes_.size());
  SBK_EXPECTS_MSG(a != b, "self-loops are not meaningful links");
  SBK_EXPECTS(capacity > 0.0);
  links_.push_back(Link{a, b, capacity, false});
  auto id = LinkId(static_cast<LinkId::value_type>(links_.size() - 1));
  adj_append(a, {id, b});
  adj_append(b, {id, a});
  ++topo_version_;
  ++structure_version_;
  return id;
}

void Network::set_link_capacity(LinkId id, double capacity) {
  SBK_EXPECTS(capacity >= 0.0);
  Link& l = mutable_link(id);
  if (l.capacity != capacity) {
    l.capacity = capacity;
    ++topo_version_;
  }
}

Node& Network::mutable_node(NodeId id) {
  SBK_EXPECTS(id.valid() && id.index() < nodes_.size());
  return nodes_[id.index()];
}

Link& Network::mutable_link(LinkId id) {
  SBK_EXPECTS(id.valid() && id.index() < links_.size());
  return links_[id.index()];
}

std::span<const Adjacency> Network::adjacent(NodeId id) const {
  SBK_EXPECTS(id.valid() && id.index() < adj_blocks_.size());
  const AdjBlock& b = adj_blocks_[id.index()];
  return {adj_arena_.data() + b.offset, b.count};
}

NodeId Network::head(DirectedLink dl) const {
  const Link& l = link(dl.link);
  return dl.forward ? l.b : l.a;
}

NodeId Network::tail(DirectedLink dl) const {
  const Link& l = link(dl.link);
  return dl.forward ? l.a : l.b;
}

std::optional<LinkId> Network::find_link(NodeId a, NodeId b) const {
  for (const Adjacency& adj : adjacent(a)) {
    if (adj.peer == b) return adj.link;
  }
  return std::nullopt;
}

DirectedLink Network::directed(LinkId id, NodeId from) const {
  const Link& l = link(id);
  SBK_EXPECTS_MSG(from == l.a || from == l.b,
                  "`from` must be an endpoint of the link");
  return DirectedLink{id, from == l.a};
}

std::span<const NodeId> Network::nodes_of_kind(NodeKind kind) const {
  return by_kind_[static_cast<std::size_t>(kind)];
}

std::size_t Network::count_of_kind(NodeKind kind) const {
  return by_kind_[static_cast<std::size_t>(kind)].size();
}

void Network::fail_node(NodeId id) {
  Node& n = mutable_node(id);
  if (!n.failed) {
    n.failed = true;
    ++failed_nodes_;
    ++topo_version_;
  }
}

void Network::restore_node(NodeId id) {
  Node& n = mutable_node(id);
  if (n.failed) {
    n.failed = false;
    --failed_nodes_;
    ++topo_version_;
  }
}

void Network::fail_link(LinkId id) {
  Link& l = mutable_link(id);
  if (!l.failed) {
    l.failed = true;
    ++failed_links_;
    ++topo_version_;
  }
}

void Network::restore_link(LinkId id) {
  Link& l = mutable_link(id);
  if (l.failed) {
    l.failed = false;
    --failed_links_;
    ++topo_version_;
  }
}

bool Network::usable(LinkId id) const {
  const Link& l = link(id);
  return !l.failed && !node(l.a).failed && !node(l.b).failed;
}

void Network::clear_failures() {
  if (failed_nodes_ > 0 || failed_links_ > 0) ++topo_version_;
  for (Node& n : nodes_) n.failed = false;
  for (Link& l : links_) l.failed = false;
  failed_nodes_ = 0;
  failed_links_ = 0;
}

void Network::retarget_link(LinkId id, NodeId from, NodeId to) {
  Link& l = mutable_link(id);
  SBK_EXPECTS_MSG(from == l.a || from == l.b,
                  "`from` must be a current endpoint");
  SBK_EXPECTS_MSG(to != l.a && to != l.b, "`to` is already an endpoint");
  SBK_EXPECTS(to.valid() && to.index() < nodes_.size());

  // Remove the adjacency entry at `from`, add one at `to`.
  NodeId other = (l.a == from) ? l.b : l.a;
  adj_erase_link(from, id);
  adj_append(to, {id, other});

  // Fix the peer's adjacency entry to point at the new endpoint.
  const AdjBlock& ob = adj_blocks_[other.index()];
  Adjacency* obegin = adj_arena_.data() + ob.offset;
  Adjacency* oend = obegin + ob.count;
  Adjacency* oit = std::find_if(
      obegin, oend, [id](const Adjacency& a) { return a.link == id; });
  SBK_ASSERT(oit != oend);
  oit->peer = to;

  if (l.a == from) l.a = to; else l.b = to;
  ++topo_version_;
  ++structure_version_;
}

}  // namespace sbk::net
