// Fault model implementing the paper's assumptions (Section 2.1):
//   i)  a link is either faulty-and-known or transmits without destruction;
//       links are bidirectional and both directions fail together,
//   ii) a router node either works or fails, and adjacent nodes know,
//   iii) no messages are sent to disconnected or faulty destinations,
//   iv) no message is affected during the diagnosis phase after a failure
//       (the simulator models this as a quiescent reconfiguration window),
//   v)  multiple faults are allowed.
//
// FaultSet is the ground truth ("known as such"); routing algorithms consume
// it either directly (local neighbour queries only, mimicking per-node fault
// registers) or through their own propagated state (NAFTA/ROUTE_C states).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "topology/topology.hpp"

namespace flexrouter {

class FaultSet {
 public:
  explicit FaultSet(const Topology& topo);

  const Topology& topology() const { return *topo_; }

  /// Mark the bidirectional link (node, port) faulty. Both directions fail
  /// together (assumption i). No-op on an unconnected port is a contract
  /// violation. Idempotent otherwise.
  void fail_link(NodeId node, PortId port);

  /// Mark a router node faulty (assumption ii). All its links become
  /// unusable implicitly.
  void fail_node(NodeId node);

  /// Repair — used by reconfiguration experiments and the chaos-campaign
  /// repair regime.
  void repair_link(NodeId node, PortId port);
  void repair_node(NodeId node);

  /// Fail-slow dimension, orthogonal to dead/alive: the bidirectional link
  /// at (node, port) carries at most one flit per `factor` cycles
  /// (factor >= 2); factor == 1 erases the entry (full speed). Degradation
  /// never makes a link unusable, so it does NOT bump the epoch or rebuild
  /// the usability table — routing state stays valid, only the data plane
  /// and the load-measurement units see the slowdown.
  void degrade_link(NodeId node, PortId port, int factor);
  /// Current degradation factor (1 == full speed).
  int link_degrade_factor(NodeId node, PortId port) const;
  /// All degraded links in canonical form with their factors.
  std::vector<std::pair<LinkRef, int>> degraded_links() const;

  bool node_faulty(NodeId node) const;
  bool node_ok(NodeId node) const { return !node_faulty(node); }

  /// True iff the link hardware itself is marked faulty (independent of the
  /// endpoint nodes' health).
  bool link_marked_faulty(NodeId node, PortId port) const;

  /// True iff a message can traverse (node, port): the port is connected,
  /// the link is not faulty and both endpoints are healthy. This is the
  /// router pipeline's innermost fault query, so it is a flat table lookup;
  /// the table is rebuilt on every (rare) fault mutation.
  bool link_usable(NodeId node, PortId port) const {
    FR_REQUIRE(topo_->valid_node(node));
    FR_REQUIRE(topo_->valid_port(port));
    return usable_[static_cast<std::size_t>(node) *
                       static_cast<std::size_t>(topo_->degree()) +
                   static_cast<std::size_t>(port)] != 0;
  }

  /// Connected, healthy neighbours of `node`.
  std::vector<PortId> usable_ports(NodeId node) const;
  int usable_degree(NodeId node) const;

  int num_node_faults() const { return num_node_faults_; }
  int num_link_faults() const {
    return static_cast<int>(faulty_links_.size());
  }
  bool fault_free() const {
    return num_node_faults_ == 0 && faulty_links_.empty();
  }

  /// Monotonically increasing epoch, bumped on every change. Routing state
  /// recomputed during the diagnosis phase caches this to detect staleness.
  std::uint64_t epoch() const { return epoch_; }

  /// Canonical undirected representation of all faulty links.
  std::vector<LinkRef> faulty_links() const;
  std::vector<NodeId> faulty_nodes() const;

 private:
  /// Canonical key: endpoint with smaller node id.
  LinkRef canonical(NodeId node, PortId port) const;

  /// Recompute the flattened [node * degree + port] usability table after a
  /// mutation. O(nodes * degree * log faults) — mutations happen only in
  /// quiesced reconfiguration windows (assumption iv), never per cycle.
  void rebuild_usable();

  const Topology* topo_;
  std::vector<char> node_faulty_;
  std::vector<char> usable_;
  std::set<LinkRef> faulty_links_;
  std::map<LinkRef, int> degraded_links_;
  int num_node_faults_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace flexrouter
