// Channel dependency graph construction and acyclicity checking — the
// mechanical verification behind every deadlock-freedom claim in this
// repository (Duato's methodology, cited by the paper as [Dua97]).
//
// A channel is a directed (node, port, vc) triple over a usable link. An
// edge c1 -> c2 exists when some message that arrived over c1 can request c2
// at the downstream router. `check_escape_cdg` restricts both sides to the
// algorithm's escape layer (sufficient for deadlock freedom when the
// algorithm keeps messages on the escape layer once entered);
// `check_full_cdg` checks the entire routing function (for algorithms that
// claim deadlock freedom without an escape layer, e.g. NARA or DOR).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_index.hpp"
#include "routing/routing.hpp"

namespace flexrouter {

struct Channel {
  NodeId node = kInvalidNode;  // upstream endpoint
  PortId port = kInvalidPort;
  VcId vc = kInvalidVc;

  friend bool operator==(const Channel&, const Channel&) = default;
  friend auto operator<=>(const Channel&, const Channel&) = default;
};

struct CdgReport {
  bool acyclic = true;
  int num_channels = 0;
  std::int64_t num_edges = 0;
  /// One witness cycle when !acyclic (channels in order).
  std::vector<Channel> cycle;

  std::string to_string() const;
};

/// The mechanical core every deadlock-freedom argument reduces to: a set of
/// interned channels, dependency edges between them, and an acyclicity check
/// that extracts one witness cycle on failure. `check_cdg` builds it from a
/// live RoutingAlgorithm; the static analyzer (ruleanalysis) builds it from
/// rule conclusions alone. Edges are deduplicated; isolated channels still
/// count towards num_channels in the report.
class ChannelDepGraph {
 public:
  /// Intern `c`, returning its dense id (stable across calls).
  int channel_id(const Channel& c);
  void add_edge(int from, int to);
  void add_edge(const Channel& from, const Channel& to) {
    add_edge(channel_id(from), channel_id(to));
  }

  int num_channels() const { return static_cast<int>(channels_.size()); }
  std::int64_t num_edges() const;
  const Channel& channel(int id) const {
    return channels_[static_cast<std::size_t>(id)];
  }

  /// Cycle detection with witness extraction.
  CdgReport check() const;

 private:
  /// (node, port, vc) packed into one FlatIndex key.
  static std::uint64_t key(const Channel& c);

  FlatIndex index_;
  std::vector<Channel> channels_;
  std::vector<std::vector<int>> adj_;  // per channel: sorted, unique
};

/// Build the dependency graph restricted to channels for which
/// `include_vc(vc)` holds and check it for cycles. Headers are enumerated
/// over all healthy destinations, both misroute-mark values and arrival
/// states.
CdgReport check_cdg(const Topology& topo, const FaultSet& faults,
                    const RoutingAlgorithm& algo, bool escape_only);

inline CdgReport check_escape_cdg(const Topology& topo, const FaultSet& faults,
                                  const RoutingAlgorithm& algo) {
  return check_cdg(topo, faults, algo, /*escape_only=*/true);
}

inline CdgReport check_full_cdg(const Topology& topo, const FaultSet& faults,
                                const RoutingAlgorithm& algo) {
  return check_cdg(topo, faults, algo, /*escape_only=*/false);
}

}  // namespace flexrouter
