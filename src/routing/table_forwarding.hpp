// Network-bound two-level forwarding, the §4.3 table walker: walks
// packets hop by hop over the *physical* Network, at each switch
// consulting the two-level table of the failure group that owns its
// position and mapping the table's logical egress port onto the concrete
// adjacent link.
//
// Every member of a failure group preloads the group's table — the
// combined table for a pod's edges, the pod's agg table, the common core
// table — so one table per group is all the routing state there is, and
// the device serving a position never changes the lookup. The tests use
// this to show that the tables, VLAN-disambiguated combined edge tables
// included, steer packets along real fat-tree links, that the walked
// paths are exactly members of the structural ECMP candidate set, and
// that a ShareBackup failover (which swaps devices under positions
// without touching the Network) leaves every walked path byte-for-byte
// identical.
#pragma once

#include "net/path.hpp"
#include "routing/two_level.hpp"
#include "topo/fat_tree.hpp"

namespace sbk::routing {

/// Walks packets over a plain-wired fat-tree using canonical two-level
/// tables. Stateless with respect to failures: tables never change (the
/// whole point of ShareBackup), so walking a network with failed nodes
/// simply reports the blackhole.
class TableForwarding {
 public:
  /// Requires plain wiring (two-level tables assume it).
  explicit TableForwarding(const topo::FatTree& ft);

  struct WalkResult {
    bool delivered = false;
    net::Path path;  ///< host-to-host path actually taken (when delivered,
                     ///< also the partial path up to a blackhole)
  };

  /// Sends one packet from `src` to `dst` (host nodes). The packet is
  /// tagged with the source edge position's VLAN, per §4.3.
  [[nodiscard]] WalkResult walk(net::NodeId src, net::NodeId dst) const;

 private:
  [[nodiscard]] HostAddr addr_of_host(net::NodeId host) const;

  const topo::FatTree* ft_;
  TwoLevelTableBuilder builder_;
  std::vector<TwoLevelTable> edge_tables_;  ///< combined, by pod
  std::vector<TwoLevelTable> agg_tables_;   ///< by pod
  TwoLevelTable core_table_;
};

}  // namespace sbk::routing
