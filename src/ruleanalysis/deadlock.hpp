// The static certifier's input model for rule programs (rulelint).
//
// The routing conclusions of a program — !cand(port, vc, prio) events,
// RETURN <port> values or ROUTE_C !dirset(mask, class) events — are
// enumerated under an abstract input model (decision_enum.hpp): the
// tabulable inputs of the host model (ruleengine/host_model.hpp: node
// coordinates, link health, the escape-layer signals) are evaluated
// concretely per (node, dest, in_port, in_vc) decision header, every other
// input is left free and enumerated over its declared domain. A
// DeadlockModel says which rule base routes, how its conclusions map to
// channels and which VCs the certificate covers. model_for reads it off the
// program itself — never off its name: the decision style and route base
// from the routing conclusions, the VC count from the in_vc domain, and the
// escape VC, injection rule and fault-tolerance claim from constants the
// program declares. The fault certifier (fault_cert.hpp) builds the
// channel-dependency graph from it, both for one fault set (plain rulelint)
// and for every bounded fault set (rulelint --faults).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "routing/cdg.hpp"
#include "ruleengine/ast.hpp"
#include "topology/fault_model.hpp"
#include "topology/topology.hpp"

namespace flexrouter::ruleanalysis {

/// How the certified rule base expresses its (turn, vc) decision.
enum class DecisionStyle {
  CandEvents,  // !cand(port, vc, prio) host events (runnable programs)
  ReturnPort,  // RETURN <symbol> ranked in the RETURNS domain; vc = in_vc
  DirsetMask,  // !dirset(mask, class): mask bits = ports, class -> vc
};

/// Virtual channels a header occupies when injected at the source.
enum class InjectionVcs {
  Zero,      // always VC 0 (the rules re-route onto the right VC)
  BySignDy,  // NAFTA/NARA double network: VC 1 iff ydes > ypos, VC 0 iff
             // ydes < ypos, both when equal (x-only traffic)
};

/// Input model of one rule program: which rule base routes, how its
/// conclusions map to channels, and which VCs the certificate covers.
struct DeadlockModel {
  std::string route_base = "route";
  DecisionStyle style = DecisionStyle::CandEvents;
  InjectionVcs injection = InjectionVcs::Zero;
  int num_vcs = 1;
  /// VC of the up*/down* escape layer (-1 = none). Enables the escape_*
  /// inputs of the host model.
  int escape_vc = -1;
  /// DirsetMask only: class id -> VC. Classes absent here (ROUTE_C's
  /// escape/misroute commands) are excluded and reported as a note.
  std::map<std::int64_t, int> class_vcs;
  /// Declared fault-tolerance claim of the program: static connectivity
  /// failures under fault sets of at most this many elements are
  /// certification errors; beyond it they demote to notes (the program
  /// never promised to survive them). Deadlock and progress failures are
  /// errors at every fault count.
  int fault_tolerance = 0;
  /// Fault-mode companion rule base (NAFTA's `in_message_ft`): under a
  /// non-empty fault set its may-candidates are unioned into the
  /// connectivity check only — the dependency graph and progress measure
  /// still cover just the primary base (reported as a note), mirroring the
  /// excluded-class treatment of ROUTE_C.
  std::string ft_route_base;
};

/// Witness channels printed per dependency cycle before eliding the rest
/// as "+M more" (large faulted CDGs can otherwise dump unbounded lists).
inline constexpr std::size_t kMaxWitnessChannels = 16;

/// "faults={link n:p, node m, ...}" (or "no faults") — the fault-set tag
/// every faulted witness carries, in the order given.
std::string describe_faults(const std::vector<LinkRef>& links,
                            const std::vector<NodeId>& nodes);
/// describe_faults over a fault set's faulty links and nodes.
std::string describe_faults(const FaultSet& faults);

/// A dependency-cycle witness capped at kMaxWitnessChannels channels and
/// tagged with the fault set that produced it.
std::string format_cycle_witness(const std::vector<Channel>& cycle,
                                 const FaultSet& faults);

/// The model `prog` states, or nullopt when no rule base routes. The first
/// rule base emitting !cand routes as CandEvents; else the first returning
/// a symbol-domain direction routes as ReturnPort (a second one is the
/// fault-mode companion); else the first emitting !dirset routes as
/// DirsetMask, classes 0..num_vcs-1 on the VC of the same number. num_vcs
/// is the size of the in_vc domain, else the integer constant `vcs`, else
/// 1. Declared integer constants give the rest: `escape_vc` (default -1,
/// none), `fault_tolerance` (default 0) and `inject_by_sign_dy` (nonzero:
/// InjectionVcs::BySignDy; default InjectionVcs::Zero).
std::optional<DeadlockModel> model_for(const rules::Program& prog);

/// The topology a program routes, as its own constants describe it: a
/// `width` x `height` mesh (both >= 2) or a `dim`-cube (1..16); nullptr
/// otherwise.
std::unique_ptr<Topology> topology_of(const rules::Program& prog);

}  // namespace flexrouter::ruleanalysis
