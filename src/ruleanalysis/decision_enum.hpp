// May/must decision enumeration of rule programs under an abstract input
// model — the engine behind the static certifier (fault_cert.cpp), for one
// fault set and for every bounded fault set alike.
//
// A decision header (node, dest, in_port, in_vc) fixes the tabulable inputs
// of the host model (ruleengine/host_model.hpp: coordinates, link health,
// escape-layer signals); every other input is enumerated over its declared
// domain. The channels of every
// may-firing rule up to and including the first must-firing one are
// collected, so the candidate relation over-approximates the live router:
// a dependency edge is never missed.
//
// Three additions over a plain may/must enumeration make fault sweeps
// tractable:
//  * every fault-sensitive catalog read (link_ok, link_fault,
//    dest_reachable, escape_ok, escape_port) is recorded with its observed
//    value, so a healthy baseline decision can be revalidated under a new
//    fault set in O(reads) instead of re-enumerated — programs that read no
//    fault inputs reuse their entire baseline;
//  * decisions carry a `delivers` flag (a local-port candidate at the
//    destination), driving the static connectivity property;
//  * an abstract mode evaluates a header under an explicit valuation of
//    the fault-sensitive inputs instead of a concrete FaultSet — the
//    equivariance check behind orbit reduction sweeps all valuations, so a
//    symmetry is only trusted where every faulted branch was compared.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/flat_index.hpp"
#include "routing/updown.hpp"
#include "ruleanalysis/deadlock.hpp"
#include "ruleengine/ast.hpp"
#include "ruleengine/env.hpp"
#include "ruleengine/host_model.hpp"
#include "ruleengine/interp.hpp"
#include "topology/fault_model.hpp"
#include "topology/mesh.hpp"
#include "topology/topology.hpp"

namespace flexrouter::ruleanalysis {

/// One fault-sensitive catalog read observed while enumerating a decision.
/// A baseline decision stays valid under a different fault set iff every
/// recorded read recomputes to the same value there.
struct CatalogRead {
  enum class Kind : std::uint8_t {
    LinkOk,         // link_usable(node, port) — also backs link_fault
    DestReachable,  // connected(faults, node, dest)
    EscapeOk,       // escape table reaches (node, dest)
    EscapePort,     // next escape hop (or degree when unroutable)
  };
  Kind kind = Kind::LinkOk;
  PortId port = kInvalidPort;  // LinkOk only: the queried port
  std::int32_t value = 0;
  bool operator==(const CatalogRead&) const = default;
  bool operator<(const CatalogRead& o) const {
    return std::tie(kind, port, value) < std::tie(o.kind, o.port, o.value);
  }
};

using Cand = std::pair<PortId, VcId>;

/// The enumerated may-candidate set of one decision header.
struct EnumeratedDecision {
  std::vector<Cand> cands;     // primary route-base candidates
  std::vector<Cand> ft_cands;  // fault-mode companion base (connectivity
                               // union only; empty without an ft base)
  /// A local-port candidate fired with node == dest: the header is
  /// consumed here.
  bool delivers = false;
  std::vector<CatalogRead> reads;
};

/// Sentinel port of escape-layer candidates in abstract mode: the concrete
/// escape next hop is tree-dependent, so the equivariance check compares
/// escape candidates as presence tokens (sound because the escape_port
/// audit proves the symbol only ever names the port of an escape-VC emit).
inline constexpr PortId kAbstractEscapePort = -2;

/// A decision under an explicit fault-input valuation (abstract mode).
struct AbstractDecision {
  std::vector<Cand> cands;
  std::vector<Cand> ft_cands;
  bool delivers = false;
  /// An escape-VC candidate appeared whose port is not the audited
  /// escape_port symbol (breaks the token abstraction), or a non-escape
  /// candidate fired from an on-escape header (breaks stickiness).
  bool escape_violation = false;
  bool operator==(const AbstractDecision&) const = default;
};

/// Which fault-sensitive catalog inputs the certified rule bases reference;
/// these are the axes of the abstract-valuation grid.
struct FaultInputAxes {
  bool link_bits = false;       // link_ok or link_fault
  bool dest_reachable = false;
  bool escape_ok = false;
  bool escape_port = false;
};

class DecisionEnumerator {
 public:
  /// The program must have passed validation. `ok()` is false when the
  /// model cannot be enumerated (missing base, parameters, BySignDy off a
  /// 2-D mesh); `error()` says why.
  DecisionEnumerator(const rules::Program& prog, const DeadlockModel& model,
                     const Topology& topo);

  DecisionEnumerator(const DecisionEnumerator&) = delete;
  DecisionEnumerator& operator=(const DecisionEnumerator&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Switch the concrete fault state: copies the set, recomputes
  /// components, rebuilds the escape table and drops the per-fault-set
  /// overlay. The healthy baseline memo is kept for reuse.
  void set_faults(const FaultSet& faults);
  const FaultSet& faults() const { return faults_; }

  /// Reuse another enumerator's healthy baseline read-only (parallel orbit
  /// workers share the warmed baseline of the main enumerator). The base
  /// must outlive this object and must not be mutated concurrently.
  void share_baseline(const DecisionEnumerator* base) { shared_ = base; }

  /// May-candidates of a header under the current fault set. References
  /// stay valid until the enumerator is destroyed or set_faults is called
  /// (baseline entries survive set_faults).
  const EnumeratedDecision& decide(NodeId node, NodeId dest, PortId in_port,
                                   VcId in_vc);

  /// Abstract-mode decision: fault-sensitive inputs come from `valuation`
  /// (bit p = link_ok(p) for p < degree, bit degree = dest_reachable, bit
  /// degree+1 = escape_ok) instead of the fault set. Memoized.
  const AbstractDecision& decide_abstract(NodeId node, NodeId dest,
                                          PortId in_port, VcId in_vc,
                                          std::uint32_t valuation);

  /// Injection-seed VCs of a (src, dest) pair under the model.
  void seed_vcs(NodeId s, NodeId d, std::vector<VcId>& out) const;

  /// Both endpoints alive and in the same component of the current faults.
  bool connected_now(NodeId a, NodeId b) const {
    const auto ca = comp_[static_cast<std::size_t>(a)];
    return ca >= 0 && ca == comp_[static_cast<std::size_t>(b)];
  }

  const rules::Program& program() const { return prog_; }
  const DeadlockModel& model() const { return model_; }
  const Topology& topo() const { return topo_; }
  const Mesh* mesh() const { return mesh_; }
  const UpDownTable& escape() const { return escape_; }
  const std::set<VcId>& included_vcs() const { return included_vcs_; }
  bool has_ft_base() const { return ft_rb_ != nullptr; }
  const FaultInputAxes& axes() const { return axes_; }
  /// True when the escape_port symbol provably appears only as the port of
  /// escape-VC cand emits (or is never used): the abstract escape token and
  /// the member-transport argument for escape channels are then sound.
  bool escape_port_audited() const { return escape_port_audited_; }

  std::uint64_t evaluated() const { return evaluated_; }
  std::uint64_t reused() const { return reused_; }
  std::uint64_t baseline_size() const { return baseline_.size(); }
  void reset_counters() { evaluated_ = reused_ = 0; }

  const std::set<std::string>& unmodeled() const { return unmodeled_; }
  const std::set<std::int64_t>& excluded_classes() const {
    return excluded_classes_;
  }
  bool modeled() const { return modeled_; }
  /// Fold another enumerator's notes into this one (worker aggregation).
  void merge_notes(const DecisionEnumerator& other);

 private:
  struct Unknown {
    std::int32_t input = -1;  // input id
    std::int64_t flat = -1;   // flattened index, -1 = scalar
    std::vector<rules::Value> vals;
    std::size_t cur = 0;
  };
  /// Flat header index ((node * N + dest) * (degree + 1) + port) * vcs + vc
  /// (see make_key); abstract keys append the valuation bits below it.
  using DecisionKey = std::uint64_t;
  using AbstractKey = std::uint64_t;

  /// The memo port of a header: programs without an escape layer never read
  /// in_port directly, so they only keep the injected/in-flight distinction.
  PortId key_port(PortId in_port) const;
  DecisionKey make_key(NodeId node, NodeId dest, PortId key_port,
                       VcId in_vc) const;
  static rules::Value provide_raw(void* self, std::int32_t input_id,
                                  const rules::Value* idx, std::size_t nidx);
  rules::Value provide(std::int32_t input_id, const rules::Value* idx);
  rules::Value provide_free(std::int32_t input_id, const rules::Value* idx);
  /// The healthy baseline decision of `key`, or nullptr.
  const EnumeratedDecision* find_baseline(DecisionKey key) const {
    const std::int32_t slot = baseline_ix_.find(key);
    return slot < 0 ? nullptr : &baseline_[static_cast<std::size_t>(slot)];
  }
  /// Memoize `d` for `key` under the current fault set.
  const EnumeratedDecision& keep_overlay(DecisionKey key,
                                         const EnumeratedDecision* d);
  bool advance();
  void enumerate_base(const rules::RuleBase& rb, bool is_ft,
                      std::vector<Cand>& out);
  rules::Value eval(const rules::ExprPtr& e);
  void collect_cmds(const std::vector<rules::Cmd>& cmds, bool is_ft,
                    std::vector<Cand>& out);
  void collect_cmd(const rules::Cmd& c, bool is_ft, std::vector<Cand>& out);
  void add_cand(PortId port, VcId vc, std::vector<Cand>& out);
  void record(CatalogRead::Kind kind, PortId port, std::int32_t value);
  /// Recompute every recorded read of the header (node, dest, key port,
  /// in_vc) under the current fault state; true iff all values match (the
  /// baseline decision transfers).
  bool validate(NodeId node, NodeId dest, PortId port, VcId in_vc,
                const EnumeratedDecision& d);
  std::int32_t recompute(const CatalogRead& r) const;
  /// The escape next hop of the current header (degree when unroutable).
  PortId escape_next_hop() const;
  void note_unmodeled(const std::string& msg);
  void scan_axes();
  /// Audit that `escape_port` only ever appears verbatim as the port of an
  /// escape-VC cand emit (and every escape-VC cand emit uses it); on
  /// failure the token abstraction is off and a note is recorded.
  void audit_escape_port();

  const rules::Program& prog_;
  const DeadlockModel& model_;
  const Topology& topo_;
  FaultSet faults_;
  std::vector<int> comp_;
  rules::Interpreter interp_;
  rules::RuleEnv env_;
  const rules::RuleBase* rb_ = nullptr;
  const rules::RuleBase* ft_rb_ = nullptr;
  const Mesh* mesh_ = nullptr;
  UpDownTable escape_;
  std::string error_;
  FaultInputAxes axes_;
  bool escape_port_audited_ = false;

  // Current decision header (read by the input provider).
  NodeId node_ = 0;
  NodeId dest_ = 0;
  PortId in_port_ = 0;
  VcId in_vc_ = 0;
  bool abstract_ = false;
  std::uint32_t valuation_ = 0;
  bool delivers_ = false;
  bool escape_violation_ = false;
  std::vector<CatalogRead> reads_;

  /// How the header model serves each declared input, by input id: a
  /// tabulable host-model input computed from the header, or Unknown —
  /// free, enumerated over its declared domain.
  std::vector<rules::HostInput> input_kind_;
  std::vector<Unknown> unknowns_;      // discovery order = enumeration order
  std::vector<Cand> rule_cands_;       // enumerate_base scratch
  bool discovered_ = false;
  std::vector<std::pair<std::string, rules::Value>> binds_;

  std::set<VcId> included_vcs_;
  VcId key_vcs_ = 0;  // VC span of the flat key
  // Memos: a FlatIndex from the integer key to a slot of the store beside
  // it (deques, so references handed out stay valid as they grow).
  FlatIndex baseline_ix_;
  std::deque<EnumeratedDecision> baseline_;
  const DecisionEnumerator* shared_ = nullptr;
  FlatIndex overlay_ix_;
  std::vector<const EnumeratedDecision*> overlay_;
  std::deque<EnumeratedDecision> overlay_owned_;
  FlatIndex abs_ix_;
  std::deque<AbstractDecision> abs_memo_;

  std::uint64_t evaluated_ = 0;
  std::uint64_t reused_ = 0;
  std::set<std::int64_t> excluded_classes_;
  std::set<std::string> unmodeled_;
  bool modeled_ = true;
};

}  // namespace flexrouter::ruleanalysis
