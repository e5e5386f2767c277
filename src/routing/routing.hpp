// Routing algorithm interface.
//
// A routing algorithm is designed for one topology (paper footnote 1). It
// sees, per decision, only what the router hardware sees: the message header
// fields, the local port/VC state, and the algorithm's own per-node state
// (fault states propagated between neighbours). The simulator additionally
// grants it a reconfiguration hook that runs during the quiescent diagnosis
// phase after a fault (assumption iv), where algorithms recompute propagated
// state; the number of neighbour exchanges they report models the
// propagation cost.
#pragma once

#include <memory>
#include <string>

#include "common/static_vector.hpp"
#include "common/types.hpp"
#include "topology/fault_model.hpp"

namespace flexrouter {

/// Maximum (port, vc) candidates a decision may produce. A decision may name
/// one pair more than once; a router keeps at most one entry per pair, so
/// at most min(kMaxCandidates, (degree+1) x vcs) entries per input VC
/// (RouterArray::stage_rc).
inline constexpr std::size_t kMaxCandidates = 48;

struct RouteDecision {
  StaticVector<RouteCandidate, kMaxCandidates> candidates;
  /// Rule interpretations this decision consumed (the paper's time-overhead
  /// unit; the router stalls the pipeline for steps-1 extra cycles).
  int steps = 1;
  /// Header modification requests (lifelock handling, Section 3): mark the
  /// message as misrouted and/or bump its path-length counter.
  bool mark_misrouted = false;
};

/// Everything the control unit sees when routing a head flit.
struct RouteContext {
  NodeId node = kInvalidNode;
  /// Arrival port (local_port for freshly injected packets) and VC.
  PortId in_port = kInvalidPort;
  VcId in_vc = kInvalidVc;
  // Header fields.
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
  int path_len = 0;
  bool misrouted = false;
};

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Virtual channels per physical link this algorithm requires.
  virtual int num_vcs() const = 0;

  /// Bind to a network. Called once before use and the algorithm keeps the
  /// references; `reconfigure` is called immediately after.
  virtual void attach(const Topology& topo, const FaultSet& faults) = 0;

  /// Diagnosis-phase hook: recompute propagated fault state. Returns the
  /// number of neighbour state exchanges performed (0 for stateless
  /// algorithms) — reported as reconfiguration cost.
  virtual int reconfigure() { return 0; }

  /// Compute the candidate outputs for a header. Must return at least one
  /// candidate whenever the destination is reachable (condition 3 for the
  /// fault-tolerant algorithms); routers treat an empty decision for a
  /// reachable destination as a protocol failure.
  virtual RouteDecision route(const RouteContext& ctx) const = 0;

  /// True if (port, vc) belongs to the escape layer whose channel dependency
  /// graph must be acyclic (Duato). Algorithms that are deadlock-free
  /// without an escape layer return true for every VC they use.
  virtual bool is_escape_vc(VcId vc) const { (void)vc; return true; }

  /// Misroute budget: once a packet's path_len exceeds this, routers
  /// restrict it to escape candidates only (lifelock avoidance).
  virtual int max_path_len() const { return 1 << 20; }

  /// Equivalence class of `path_len` as far as route() is concerned — the
  /// CDG checker enumerates header states per class, so the class function
  /// must be exactly as fine as the algorithm's real dependence on the
  /// counter. Default: parity (covers VC alternation schemes); algorithms
  /// ignoring path_len may return 0, algorithms using its magnitude (e.g.
  /// negative-hop) return the bounded value itself.
  virtual int path_len_class(int path_len) const { return path_len % 2; }
};

/// Factory over the eleven native algorithms that need no sizing:
/// "dor-mesh", "dor-torus", "ecube", "nara", "nafta", "route_c",
/// "route_c_nft", "updown", "spanning-tree", "planar-adaptive",
/// "planar-adaptive-ft". The returned algorithm is not yet attached.
/// Defined in sim/scenario.cpp beside the other name tables; its
/// build_algorithm also builds negative-hop and the *-rules programs.
std::unique_ptr<RoutingAlgorithm> make_algorithm(const std::string& name);

/// Names accepted by make_algorithm.
std::vector<std::string> algorithm_names();

}  // namespace flexrouter
