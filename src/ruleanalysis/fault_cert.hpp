// Exhaustive bounded-fault certification of rule programs (rulelint
// --faults <k>).
//
// For every fault set of up to k link/node faults — plus named correlated
// regimes (a router with all its links, mesh rows, hypercube subcubes) —
// three properties of the routing program are certified statically, with a
// concrete witness on failure:
//   (a) deadlock freedom: the channel-dependency graph stays acyclic;
//   (b) connectivity: no reachable decision state dead-ends short of its
//       destination (blackhole detection) and the delivery rule fires at
//       the destination — with the may-candidate over-approximation this
//       means "no textual blackhole": a reported dead end is real, a clean
//       verdict says no rule text covers the gap;
//   (c) progress: the per-destination decision relation is acyclic, i.e. a
//       topological order serves as a well-founded measure ruling out
//       static livelock cycles.
//
// Tractability comes from two reductions. Fault sets are quotiented to
// canonical orbits under the topology's automorphism group — but a
// symmetry is only used after the program itself is proved equivariant
// under it, by sweeping every header against every valuation of the
// program's declared fault-sensitive inputs (a healthy-grid comparison
// would be unsound: faulted valuations exercise rule branches no healthy
// header reaches). Within an orbit representative, decisions are
// revalidated against the cached healthy baseline via their recorded
// fault-sensitive reads, so programs that never read fault inputs reuse
// their entire enumeration. Orbit checking fans out on the deterministic
// sweep worker pool; aggregation is index-ordered, so the report is
// bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "routing/cdg.hpp"
#include "ruleanalysis/deadlock.hpp"
#include "ruleanalysis/diagnostics.hpp"
#include "topology/fault_model.hpp"
#include "topology/topology.hpp"

namespace flexrouter::ruleanalysis {

/// One concrete fault set: canonical undirected link endpoints (smaller
/// node id first) plus faulted nodes, both sorted.
struct FaultPattern {
  std::vector<LinkRef> links;
  std::vector<NodeId> nodes;

  std::size_t elements() const { return links.size() + nodes.size(); }
  bool empty() const { return links.empty() && nodes.empty(); }
  bool operator==(const FaultPattern&) const = default;
  bool operator<(const FaultPattern& o) const {
    if (links != o.links) return links < o.links;
    return nodes < o.nodes;
  }
  /// "faults={link 5:0, node 3}" (or "no faults").
  std::string to_string() const;
  /// The pattern applied to a fresh fault set on `topo`.
  FaultSet to_fault_set(const Topology& topo) const;
};

/// The certificate of one fault set: the reachable header-state closure
/// seeded from every injectable header, followed hop by hop, with the three
/// properties checked on it. `cdg.acyclic` is the deadlock-freedom claim;
/// it is trustworthy as a proof only when `modeled` (no construct fell
/// outside the input model and no free-input space was truncated).
struct FaultSetCertificate {
  /// The channel-dependency graph over every usable channel on the
  /// certified VCs (isolated channels count too).
  CdgReport cdg;
  /// No reachable state dead-ends and every arrival is delivered.
  bool connected = true;
  /// The per-destination decision relation is acyclic.
  bool progress = true;
  std::vector<Finding> findings;
  /// False when part of the program escaped the abstraction (findings
  /// carry deadlock-unmodeled notes saying what).
  bool modeled = true;
  /// Decision headers enumerated fresh, arrival states included.
  std::uint64_t decisions = 0;
  /// Why nothing was checked: the model could not be enumerated, so no
  /// closure ran and `cdg` certifies nothing. Empty when the closure ran.
  std::string unchecked;
};

/// One row of the program x fault-regime verdict matrix.
struct RegimeSummary {
  std::string name;  // "k=0", "k=1", ..., "router+links", "row", "subcube"
  std::uint64_t raw_sets = 0;  // concrete fault sets in the regime
  std::uint64_t orbits = 0;    // canonical orbits actually certified
  /// Orbits with at least one failing member, per property.
  std::uint64_t deadlock_failures = 0;
  std::uint64_t connectivity_failures = 0;
  std::uint64_t progress_failures = 0;

  bool certified() const {
    return deadlock_failures == 0 && connectivity_failures == 0 &&
           progress_failures == 0;
  }
};

/// Cost accounting of the incremental re-enumeration (EXPERIMENTS.md
/// records the symmetry-reduction and baseline-reuse wins from these).
struct OrbitStats {
  std::uint64_t decisions_evaluated = 0;  // enumerated fresh under faults
  std::uint64_t decisions_reused = 0;     // healthy baseline revalidated
  std::uint64_t baseline_decisions = 0;   // healthy enumeration size
  std::uint64_t orbits_checked = 0;       // representative certifications
  std::uint64_t orbits_expanded = 0;      // orbits re-checked member by
                                          // member (transport unsafe)
  std::uint64_t members_checked = 0;      // fault sets actually certified
};

struct FaultCertOptions {
  /// Certify every fault set of up to this many elements (k). 0 = only the
  /// healthy topology.
  int max_faults = 1;
  /// Also certify the named correlated regimes.
  bool correlated = true;
  /// Connectivity/progress witnesses reported per fault set before "+M
  /// more" elision.
  std::size_t max_witnesses_per_fault_set = 2;
  /// Findings kept per program report before "+M more" elision.
  std::size_t max_findings = 12;
  /// Sweep worker threads (0 = FLEXROUTER_THREADS / hardware).
  int num_threads = 0;
  /// Certified-safe representatives sampled for dynamic spot checks
  /// (link-fault patterns only: node-fault replays retire in-flight
  /// packets to the dead node as unrecoverable by design).
  std::size_t max_certified_samples = 3;
};

/// The per-program certificate.
struct FaultCertReport {
  std::string program;
  std::string topology;
  int fault_tolerance = 0;  // the model's declared claim

  // Symmetry statistics.
  std::size_t generators = 0;     // equivariance-checked generators kept
  std::size_t generators_dropped = 0;  // verified automorphisms the program
                                       // is not equivariant under
  std::size_t group_order = 1;
  bool group_complete = true;
  std::uint64_t raw_fault_sets = 0;
  std::uint64_t orbit_count = 0;
  double reduction_factor = 1.0;  // raw_fault_sets / orbit_count

  std::vector<RegimeSummary> regimes;
  OrbitStats stats;
  std::vector<Finding> findings;
  std::vector<std::string> info;

  /// Error-severity witness fault sets (for FaultSchedule replay).
  std::vector<FaultPattern> failing_sets;
  /// Fully clean link-only representatives (for dynamic spot checks).
  std::vector<FaultPattern> certified_samples;

  /// No error findings: every property holds on every fault set inside the
  /// program's claim (and deadlock/progress everywhere). False, too, when
  /// the model could not be enumerated and no fault set was checked.
  bool certified = true;

  int count(Severity s) const;
  bool clean(bool werror) const;
  std::string to_string() const;
};

/// Certify `prog` on `topo` under the one fault set `pattern` (plain
/// rulelint certifies the healthy fabric this way). The program must have
/// passed validation. Connectivity failures are errors when `pattern` lies
/// inside the model's fault-tolerance claim, notes beyond it. A model that
/// cannot be enumerated checks nothing: `unchecked` says why, and a
/// deadlock-unmodeled warning carries the same reason.
FaultSetCertificate certify_fault_set(const rules::Program& prog,
                                      const DeadlockModel& model,
                                      const Topology& topo,
                                      const FaultPattern& pattern);

/// Certify `prog` on `topo` under every bounded fault set. The program
/// must have passed validation; `model` gives its decision style and
/// fault-tolerance claim (model_for reads both off the program).
FaultCertReport certify_faults(const rules::Program& prog,
                               const DeadlockModel& model,
                               const Topology& topo,
                               const FaultCertOptions& opts = {});

}  // namespace flexrouter::ruleanalysis
