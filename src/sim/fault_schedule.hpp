// Fault schedule for live fault injection (fault assumption v: faults may
// arrive while the network is operating).
//
// A schedule is a sorted list of timed events, built from explicit timed
// entries, seeded random generators, or both. It is fully materialised
// before the simulation starts — random arrivals are drawn up front from
// their own SplitMix64 stream — so replicas of a parallel sweep carry
// identical, self-contained schedules and the bit-identity contract of the
// sweep engine survives fault injection.
//
// Beyond fail-stop kills, the schedule models the chaos-campaign fault
// physics:
//   - repair events: a dead link or node comes back and is reintegrated
//     through the same detect -> drain -> reconfigure path a kill uses;
//   - flapping links: seeded on/off duty cycles materialised as
//     alternating kill/repair pairs;
//   - fail-slow links: a bandwidth-degradation factor throttling the
//     link's shift-register advance (a FaultSet dimension distinct from
//     dead/alive — no drain, no reconfiguration);
//   - correlated regional storms: a router with its links, mesh/torus
//     coordinate regions, hypercube subcubes — many kills at one cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "topology/topology.hpp"

namespace flexrouter {

struct FaultEvent {
  enum class Kind {
    LinkFault,
    NodeFault,
    LinkRepair,
    NodeRepair,
    LinkDegrade,  // factor >= 2 throttles; factor == 1 restores full speed
  };

  Cycle at = 0;
  Kind kind = Kind::LinkFault;
  NodeId node = kInvalidNode;
  PortId port = kInvalidPort;  // link events only
  int factor = 1;              // LinkDegrade only
};

class FaultSchedule {
 public:
  /// Kill the (bidirectional) link at `node`/`port` at cycle `at`.
  void fail_link_at(Cycle at, NodeId node, PortId port);
  /// Kill `node` at cycle `at`.
  void fail_node_at(Cycle at, NodeId node);
  /// Repair the (bidirectional) link at `node`/`port` at cycle `at`. The
  /// channel rejoins service at the end of the quiescent diagnosis phase
  /// the event opens, not at the firing cycle.
  void repair_link_at(Cycle at, NodeId node, PortId port);
  /// Repair `node` at cycle `at` (same reintegration semantics).
  void repair_node_at(Cycle at, NodeId node);
  /// Degrade the (bidirectional) link to one flit per `factor` cycles
  /// (factor >= 2); factor == 1 restores full bandwidth. Applied live —
  /// fail-slow destroys nothing and needs no diagnosis phase.
  void degrade_link_at(Cycle at, NodeId node, PortId port, int factor);

  /// Seeded MTBF-style random link failures: inter-arrival times are
  /// exponential with mean `mtbf_cycles` (inverse-CDF on a SplitMix64
  /// stream with the bit-portable det_log, so the event stream is
  /// identical across standard libraries), each event kills a uniformly
  /// random undirected link of `topo`. Events beyond `horizon` are not
  /// generated. Deterministic for a given (topo, mtbf, horizon, seed).
  void add_random_link_faults(const Topology& topo, double mtbf_cycles,
                              Cycle horizon, std::uint64_t seed);

  /// Intermittent (flapping) link: starting from `first_down`, the channel
  /// alternates dead and alive with exponential dwell times (mean
  /// `down_mean` dead, `up_mean` alive, both >= 1), materialised as
  /// kill/repair pairs until `horizon`. A schedule that ends inside a down
  /// window leaves the link dead. Deterministic per seed.
  void add_flapping_link(NodeId node, PortId port, Cycle first_down,
                         Cycle horizon, double down_mean, double up_mean,
                         std::uint64_t seed);

  /// Correlated regional storm at cycle `at`: kill every node in the
  /// axis-aligned hyper-rectangle [lo, hi] (inclusive, one coordinate per
  /// dimension) of a k-ary Mesh/Torus — rows, columns and blocks are all
  /// such regions. Contract error on non-grid topologies. Returns the
  /// number of node-kill events added (ascending node order).
  int add_region_storm(const Topology& topo, Cycle at,
                       const std::vector<int>& lo, const std::vector<int>& hi);
  /// Correlated subcube storm at cycle `at` on a hypercube of dimension d:
  /// kill every node whose address matches `value` on the bits set in
  /// `mask` — a (d - popcount(mask))-subcube. Returns the kill count.
  int add_subcube_storm(const Topology& topo, Cycle at, std::uint64_t mask,
                        std::uint64_t value);
  /// Router-and-its-links storm: the node dies at `at`, and with it every
  /// adjacent channel (a node kill already takes the links down; this
  /// spelling documents the regime).
  void add_router_storm(Cycle at, NodeId node) { fail_node_at(at, node); }

  /// Add every event of `other` (same-cycle events keep their order, after
  /// this schedule's own).
  void append(const FaultSchedule& other);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Events sorted by cycle (stable: same-cycle events keep insertion
  /// order, so mixed explicit/random schedules stay deterministic).
  const std::vector<FaultEvent>& events() const;

 private:
  void push(const FaultEvent& e);

  mutable std::vector<FaultEvent> events_;
  mutable bool sorted_ = true;
};

/// The chaos campaign's fault regimes:
///   fail_stop  one or two random fail-stop link kills
///   repair     a link dies, then comes back and must be re-adopted
///   flap       an intermittent link with seeded on/off duty cycles
///   failslow   random links throttled to a fraction of their bandwidth
///              (no recovery window — the pure degraded-service regime)
///   storm      a correlated regional kill: a 2x1 block on a 2-D grid, a
///              1-subcube on a hypercube
enum class FaultRegime { FailStop, Repair, Flap, FailSlow, Storm };
inline constexpr FaultRegime kFaultRegimes[] = {
    FaultRegime::FailStop, FaultRegime::Repair, FaultRegime::Flap,
    FaultRegime::FailSlow, FaultRegime::Storm};
const char* fault_regime_name(FaultRegime r);

/// One seeded fault pattern of regime `reg` for a run of `warmup` +
/// `measure` cycles on `topo` (a 2-D mesh or torus, or a hypercube). The
/// damage lands in the measurement window. All randomness comes from a
/// SplitMix64 stream derived from `seed` and a per-regime salt, so a
/// pattern is fully determined by (regime, topology, window, seed).
/// `measure` must hold the regime's draws: at least 2 for fail_stop and
/// failslow (cycles from measure / 2), at least 10 for flap (dwell means
/// measure / 10 and measure / 5).
FaultSchedule chaos_schedule(FaultRegime reg, const Topology& topo,
                             Cycle warmup, Cycle measure, std::uint64_t seed);

}  // namespace flexrouter
