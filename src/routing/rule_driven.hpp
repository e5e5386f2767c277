// Rule-driven routing: executes a routing algorithm written in the rule
// language on the simulated router — the full loop the paper proposes
// (rule compiler -> rule tables -> rule interpreter in the control unit).
//
// Conventions for runnable routing programs:
//  * The decision rule base is named `route` (configurable). Firing it must
//    either RETURN one output (an integer port, or a symbol whose rank in
//    the RETURNS domain is the port index — declare the enum in Compass
//    order {east, west, north, south, local}), or emit one or more
//    `!cand(port, vc, priority)` events.
//  * Inputs are served from the one host model (ruleengine/host_model.hpp),
//    resolved by name once per program at build_image() and read by code on
//    every decision. A declared input the model does not serve on this host
//    (escape_* without an escape VC, coordinates off a 2-D mesh) throws,
//    naming the input, when a decision reads it.
//  * Each router node owns an independent register file (one EventManager
//    per node), so stateful programs keep per-node state like real rule
//    bases. All mutable per-decision state (active context, candidate
//    sink, event scratch, read set) lives in a per-node DecisionSlot, so
//    concurrent route() calls on *different* nodes — the sharded network
//    step — never share mutable state. Decisions on one node are never
//    concurrent (a node belongs to exactly one shard).
//
// Execution tiers:
//  * ExecMode::Aot (default, the production tier) pre-resolves premise
//    points (node, dest, in_port, in_vc) through the VM into one decision
//    table — the software analogue of the paper's RBR-kernel lookup.
//    route() becomes a strided load plus a candidate copy, bit-identical to
//    the VM by construction (the table stores what the VM answered). Every
//    layout keeps one fixed-width entry per point and one store rule: a
//    decision that fits the entry (rules::AotEntry::kInlineCands packable
//    candidates, steps in 1..0xffff, no header modification) is stored,
//    any other leaves the point marked fallback and served by the VM. Tier
//    selection walks a ladder at fill time:
//      1. direct   — a flat LUT over the full premise space, when it fits
//                    the entry budget.
//      2. compressed — when a dest-axis classifier applies (see
//                    ruleengine/aot_classify.hpp), the dest axis collapses
//                    to O(degree) classes and the table fits fabrics the
//                    direct layout cannot:
//                    * xor-fold (e-cube programs) collapses the node axis
//                      too, so one entry serves every node: it is filled
//                      eagerly and validated against the VM (exhaustive
//                      when the uncompressed space fits the budget,
//                      sampled witnesses beyond); a mismatch demotes to VM.
//                    * offset-sign (DOR/NARA/ft_mesh-style mesh programs)
//                      keeps the node axis and fills on first touch: a miss
//                      runs the VM and stores the decision in the class
//                      entry only when the decision's read set (the inputs
//                      it actually read) holds no input the host model
//                      marks dest-bound (rules::kDestBoundReads) and it
//                      fits the entry. Otherwise the entry is marked
//                      dest-bound (the read set) or fallback (the store
//                      rule) and served by the VM from then on.
//                      Every write is node-scoped, hence race-free under
//                      sharded stepping, and set-up touches no entry.
//      3. VM       — programs the soundness gate rejects, and tabulable
//                    programs no table fits. The chosen tier and the reason
//                    are recorded on the image and surfaced through
//                    aot_tier_info() (rulelint --emit-table, flexsim).
//    One soundness gate (`tabulable`: every reachable rule base is
//    stateless and reads only inputs determined by the premise point, the
//    topology and the fault set) admits a program to any table tier.
//    Tables are refilled per fault epoch; out-of-range premise points fall
//    back per decision, and a machine() poke drops the tables until the
//    next fill.
//  * ExecMode::Vm is the bare bytecode VM — no table of any kind. It is the
//    oracle the table tiers are differentially tested against: every
//    decision runs the compiled program (shared by all nodes) through
//    id-resolved input and candidate-event fast paths.
//  * ExecMode::Interpret / Table run the reference AST interpreter or the
//    compiled ARON rule tables through the EventManager's queue. Every mode
//    reads inputs through the same id-keyed provider and hands `!cand` to
//    the same candidate adapter.
//
// Hot swap: prepare_swap() parses, compiles and AOT-fills a complete
// pending execution image for a new program while the active image keeps
// serving traffic; commit_swap() installs it atomically between decisions.
// Everything program-scoped lives in the Image; the escape layer, which is
// a property of the host (topology + fault set), survives the swap.
//
// The decision cost (steps) is the number of rule interpretations the
// decision consumed — exactly the unit Section 5 reports. Table hits
// report the steps of the decision they replay, keeping the paper's metric
// intact.
#pragma once

#include <exception>
#include <memory>

#include "common/assert.hpp"
#include "ruleengine/aot.hpp"
#include "ruleengine/aot_classify.hpp"
#include "ruleengine/event_manager.hpp"
#include "ruleengine/host_model.hpp"
#include "routing/routing.hpp"
#include "routing/updown.hpp"
#include "topology/mesh.hpp"

namespace flexrouter {

class RuleDrivenRouting final : public RoutingAlgorithm {
 public:
  /// Default AOT entry budget: the direct LUT or a compressed table must
  /// fit this many entries (the paper's exponential-blow-up discussion
  /// applies to the decision table exactly as to the ARON kernel). Tests and
  /// benches narrow it with set_aot_budget() to force the compressed tier
  /// at small sizes.
  static constexpr std::uint64_t kAotMaxEntries = std::uint64_t{1} << 22;

  /// Which execution tier serves decisions after the last fill. Vm means no
  /// table at all — the reason is recorded in aot_tier_info().reason.
  enum class AotTier : std::uint8_t { Vm, Direct, Compressed };
  static const char* tier_name(AotTier t) {
    switch (t) {
      case AotTier::Vm: return "vm";
      case AotTier::Direct: return "direct";
      case AotTier::Compressed: return "compressed";
    }
    return "?";
  }

  /// Tier-selection report for rulelint --emit-table, flexsim and tests.
  struct AotTierInfo {
    AotTier tier = AotTier::Vm;
    rules::DestClassifier classifier = rules::DestClassifier::None;
    /// Why this tier: the classifier's applicability verdict, the budget
    /// arithmetic, or — for the VM tier — what kept the tables off.
    std::string reason;
    std::uint64_t full_entries = 0;   // uncompressed premise-space size
    std::uint64_t table_entries = 0;  // entries actually allocated
    /// full_entries / table_entries (1.0 for the direct tier).
    double compression_ratio = 1.0;
    // First-touch (offset-sign) table counters, zero on the eager tiers.
    // The lazy_* names are those of perfbench's ruleengine.lazy_* metrics.
    std::int64_t lazy_hits = 0;         // decisions served by a stored entry
    std::int64_t lazy_misses = 0;       // first touches that stored one
    std::int64_t lazy_evictions = 0;    // always 0: an entry is never evicted
    std::int64_t lazy_uncacheable = 0;  // decisions the VM served (gated)
  };

  /// `escape_vc` >= 0 equips the rule program with a hardware escape layer
  /// (a deterministic up*/down* table rebuilt each diagnosis phase, exposed
  /// through the escape_* inputs) — the Duato construction that makes
  /// rule-programmed fault tolerance deadlock-free.
  RuleDrivenRouting(std::string program_source, int num_vcs,
                    rules::ExecMode mode = rules::ExecMode::Aot,
                    std::string route_base = "route", VcId escape_vc = -1);
  ~RuleDrivenRouting() override;

  std::string name() const override;
  int num_vcs() const override { return vcs_; }
  bool is_escape_vc(VcId vc) const override {
    return escape_vc_ < 0 || vc == escape_vc_;
  }

  void attach(const Topology& topo, const FaultSet& faults) override;
  int reconfigure() override;
  RouteDecision route(const RouteContext& ctx) const override;

  /// The execution image only exists once attached.
  const rules::Program& program() const {
    FR_ASSERT_MSG(img_ != nullptr, "program() before attach()");
    return *img_->program;
  }

  /// Per-node machine access (tests poke state / post events).
  rules::EventManager& machine(NodeId n) const;

  /// True when decisions are being served from an AOT table (direct or
  /// compressed; false also after a machine() poke dropped the table
  /// pending the next fill).
  bool aot_active() const { return aot_view_.entries != nullptr; }
  /// Table statistics of the active image (empty stats when no table —
  /// fallback_fraction() reports 1.0 then). A first-touch table counts only
  /// the entries traffic has reached. For rulelint and benches.
  rules::AotTable::Stats aot_stats() const;
  /// Tier report of the active image: which tier serves decisions, the
  /// classifier verdict, compression ratio and first-touch counters.
  AotTierInfo aot_tier_info() const;
  /// First-touch (offset-sign) table only: route every class
  /// representative once — each node's nearest dest with each offset-sign
  /// pair, at every arrival port and VC — and mark the classes pointing off
  /// the mesh edge and the points the engine throws on unreachable, so
  /// aot_stats() covers the premise space the way an eager fill's do. For
  /// rulelint --emit-table and tests.
  void touch_every_sign_class();

  /// Narrow (or widen) the AOT entry budget; effective at the next fill
  /// (attach / reconfigure / prepare_swap). Tests force the compressed
  /// tier at small fabric sizes this way.
  void set_aot_budget(std::uint64_t entries) { aot_budget_ = entries; }
  std::uint64_t aot_budget() const { return aot_budget_; }

  /// The up*/down* escape layer (rebuilt only when escape_vc >= 0).
  const UpDownTable& escape_table() const { return escape_; }

  // --- hot swap -------------------------------------------------------------
  /// Build a complete execution image (parse, validate, compile and — in
  /// Aot mode — fill the decision table) for a new program while the active
  /// image keeps serving traffic. Throws on any error (parse, validation,
  /// unresolvable input), leaving the active image untouched. Requires
  /// attach().
  void prepare_swap(std::string program_source);
  bool swap_prepared() const { return pending_ != nullptr; }
  /// Whether static analysis proved the *prepared* program stateless — the
  /// soundness condition for an immediate (zero-downtime) commit.
  bool swap_target_stateless() const {
    FR_REQUIRE_MSG(pending_ != nullptr, "no swap prepared");
    return pending_->stateless;
  }
  /// Install the prepared image. The caller must guarantee no route() call
  /// is in flight (the simulator commits between cycles or at quiescence).
  void commit_swap();
  void abort_swap() { pending_.reset(); }

  // --- rolling swap commit --------------------------------------------------
  /// Per-shard rolling commit: instead of gating the whole network until
  /// quiescence, the simulator drains one ShardPlan shard at a time and
  /// flips its nodes to the prepared program as each goes quiet. Between
  /// begin and finish, route() serves every decision through the fallback
  /// path (the AOT view is dropped — tables are image-global and cannot
  /// represent a mixed network), picking the pending image for nodes
  /// already committed and the active one for the rest.
  void begin_rolling_commit();
  /// Flip one node to the prepared program (its decisions now come from the
  /// pending image). The caller must guarantee the node is quiet — no
  /// buffered flits, nothing in its injection queue.
  void commit_swap_node(NodeId n);
  /// All nodes flipped: install the pending image wholesale (commit_swap)
  /// and restore the table tiers.
  void finish_rolling_commit();
  bool rolling_commit_active() const { return rolling_; }

 private:
  /// All mutable state one in-flight decision needs, owned per node: the
  /// context of the input provider and the candidate adapter. route() on
  /// node n touches only slots_[n] (plus the node's machine, table row and
  /// counters), which is what makes concurrent decisions on distinct
  /// nodes race-free. The image-scoped fields the
  /// callbacks need (program, input-code array, cand event id) are
  /// flattened in by value / data pointer so a slot never dereferences its
  /// Image — slots stay valid across image moves.
  struct DecisionSlot {
    const RuleDrivenRouting* owner = nullptr;
    const rules::Program* program = nullptr;  // names for host-model errors
    const rules::HostInput* input_codes = nullptr;  // this image's inputs
    std::int32_t cand_event_id = -1;          // this image's interned "cand"
    const RouteContext* ctx = nullptr;
    RouteDecision* decision = nullptr;
    std::vector<rules::EmittedEvent> scratch;
    rules::EventManager::HostHandler cand_handler;
    /// Read set of the decision in flight: bit c for every HostInput c the
    /// provider served. The VM latches an input on its first read and
    /// rules fire first-applicable, so these are exactly the inputs the
    /// decision's path depended on.
    std::uint32_t reads = 0;
  };

  /// Per-node counters of the first-touch table, node-scoped for the same
  /// reason DecisionSlot is. Cumulative across fault epochs.
  struct TouchCounters {
    std::int64_t hits = 0;
    std::int64_t fills = 0;
    std::int64_t vm_served = 0;  // unstored entries and their first touch
  };

  /// Everything scoped to one rule program: the unit of hot swap. The
  /// active image serves traffic; prepare_swap() builds a pending one on
  /// the side and commit_swap() exchanges the unique_ptrs. Host-scoped
  /// state — topology, fault set, the escape layer, the table budget —
  /// lives outside and survives the swap.
  struct Image {
    std::string source;
    std::unique_ptr<rules::Program> program;
    std::shared_ptr<const rules::BytecodeProgram> bytecode;
    int route_rb = -1;                // index of the decision rule base
    std::int32_t cand_event_id = -1;  // interned "cand" (VM events)
    std::vector<rules::HostInput> input_codes;  // parallel to inputs
    /// Analysis verdict: no reachable rule writes registers. Gates the
    /// immediate (zero-downtime) swap policy.
    bool stateless = false;
    /// Stateless and every input read is premise-keyed — the soundness
    /// condition every AOT table tier shares.
    bool tabulable = false;
    std::vector<std::unique_ptr<rules::EventManager>> machines;
    std::vector<DecisionSlot> slots;  // one per node
    // AOT tier ladder (ExecMode::Aot + tabulable only). `aot` holds the
    // direct or compressed table; the chosen tier and why are recorded for
    // aot_tier_info().
    rules::AotTable aot;
    std::uint64_t aot_epoch = ~std::uint64_t{0};
    AotTier tier = AotTier::Vm;
    std::string tier_reason;
    rules::DestClassAnalysis classify;              // syntactic verdict
    rules::DestClassifier classifier_used = rules::DestClassifier::None;
    std::uint64_t full_entries = 0;  // uncompressed premise-space size
    /// One per node while the offset-sign table fills on first touch;
    /// empty on every other tier.
    std::vector<TouchCounters> touch;
  };

  /// Snapshot of the active image's AOT table, flattened into the routing
  /// object: a table hit must not chase img_ -> Image -> vector storage
  /// (two extra dependent cache loads per decision). entries == nullptr
  /// means "no table serving" — absent, over budget, or dropped after a
  /// machine() poke. Refreshed at every point img_ or its table changes.
  struct AotView {
    const rules::AotEntry* entries = nullptr;
    std::int32_t nodes = 0;
    std::int32_t dests = 0;
    std::int32_t ports = 0;
    std::int32_t vcs = 0;
    std::uint64_t node_stride = 0;
    std::uint64_t dest_stride = 0;
    std::uint64_t epoch = ~std::uint64_t{0};
    /// Compressed tier: how route() derives the dest-axis index. For
    /// XorFold nodes==1 (node axis collapsed; node_stride==0) and
    /// dests==the class count; id_bound carries the real node-id bound the
    /// dims no longer encode. xs/ys point at the host's coordinate arrays
    /// (OffsetSign2D sign computation without a Mesh call).
    rules::DestClassifier classifier = rules::DestClassifier::None;
    std::int32_t id_bound = 0;
    const std::int16_t* xs = nullptr;
    const std::int16_t* ys = nullptr;
    /// Non-null iff the table fills on first touch (offset-sign): per-node
    /// counters, mutable through the view because they are node-scoped.
    TouchCounters* touch = nullptr;
  };

  /// Serve input `input_id` of the slot's program for the slot's active
  /// decision context, through the code resolved at build_image().
  rules::Value input_by_code(DecisionSlot& slot, std::int32_t input_id,
                             const rules::Value* idx) const;
  /// Input provider of every node's machine, all modes (ctx = DecisionSlot*).
  static rules::Value input_raw(void* ctx, std::int32_t input_id,
                                const rules::Value* idx, std::size_t nidx);
  /// VM event sink for the decision path (ctx = DecisionSlot*).
  static void event_sink(void* ctx, std::int32_t name_id,
                         std::int32_t target_rb, const rules::Value* args,
                         std::size_t nargs);
  /// The candidate adapter of every mode: one `!cand(port, vc, priority)`
  /// emitted during the slot's decision becomes a route candidate.
  static void take_candidate(DecisionSlot& slot, const rules::Value* args,
                             std::size_t nargs);
  void add_candidate(RouteDecision& d, PortId port, VcId vc, int prio) const;
  std::unique_ptr<Image> build_image(std::string program_source) const;
  /// (Re)fill the image's AOT tier for the current fault epoch; no-op when
  /// the image is not AOT-eligible or the table is already fresh. Walks
  /// the tier ladder: direct -> compressed -> VM.
  void fill_aot(Image& im) const;
  /// Inside a catch handler of a table fill or walk: reset `node`'s VM
  /// callback slot if `e` marks an unpresentable premise point
  /// (ContractViolation / EvalError), else rethrow the active exception.
  void absorb_fill_throw(Image& im, NodeId node,
                         const std::exception& e) const;
  /// Fill `im.aot` as a direct LUT over the full premise space.
  void fill_direct(Image& im, const rules::AotTable::Dims& dims) const;
  /// Set up `im.aot` in the compressed layout for `im.classify.kind`:
  /// xor-fold fills eagerly and validates against the VM, offset-sign
  /// allocates the all-zero first-touch table. Returns false (table
  /// cleared, reason recorded) when the layout does not apply or fails
  /// validation — the caller keeps the VM tier.
  bool fill_compressed(Image& im, const rules::AotTable::Dims& full) const;
  /// Offset-sign entry that holds no decision (yet, or ever — dest-bound
  /// and fallback entries):
  /// compute through the VM, store through the read-set gate on a first
  /// touch, and fill `d`. Out of line — the hit path stays small enough to
  /// inline.
  void route_first_touch(const RouteContext& ctx, RouteDecision& d,
                         std::uint64_t flat) const;
  /// Re-point aot_view_ at the active image's table (null when it has
  /// none). Call after anything that changes img_ or its table.
  void refresh_aot_view() const;
  /// The engine itself — the VM, interpreter or ARON tables of `im`, no
  /// table tier. Fill, miss and fallback paths all decide through it.
  RouteDecision compute_route(Image& im, const RouteContext& ctx) const;
  /// Every decision no table tier served: computes on the image that owns
  /// the node (the pending one for nodes a rolling commit already flipped).
  /// Out of line so route()'s table hit keeps NRVO (see the definition).
  void route_fallback(const RouteContext& ctx, RouteDecision& d) const;
  /// dest_reachable: `dest` is healthy and in `node`'s component.
  bool dest_reachable(NodeId node, NodeId dest) const;

  std::string source_;  // pre-attach program; updated on commit_swap()
  std::string route_base_;
  rules::ExecMode mode_;
  int vcs_;
  VcId escape_vc_;
  UpDownTable escape_;
  /// Healthy-component id per node (-1 for faulty nodes), the answer to
  /// dest_reachable; recomputed once per fault epoch by attach() and
  /// reconfigure(), like the escape table.
  std::vector<int> comp_;
  std::uint64_t comp_epoch_ = 0;
  const Topology* topo_ = nullptr;
  const Mesh* mesh_ = nullptr;  // non-null on 2-D meshes
  const FaultSet* faults_ = nullptr;
  std::uint64_t aot_budget_ = kAotMaxEntries;
  /// Node coordinates flattened for the OffsetSign2D hot path (2-D meshes
  /// only; empty otherwise). Host-scoped: rebuilt at attach().
  std::vector<std::int16_t> coords_x_;
  std::vector<std::int16_t> coords_y_;
  std::unique_ptr<Image> img_;      // active; null before attach()
  std::unique_ptr<Image> pending_;  // prepared swap target, if any
  /// Rolling-commit window: nodes flagged here route from pending_, the
  /// rest from img_. Only mutated in the simulator's serial swap phase.
  bool rolling_ = false;
  std::vector<char> node_on_pending_;
  /// Mutable: machine() (a const accessor) drops the view when it hands
  /// out mutable rule state. Only mutated in single-threaded phases
  /// (attach / reconfigure / commit / test pokes), never during stepping.
  mutable AotView aot_view_;
};

// Defined in the header so the network step and the benches inline the
// AOT hit: out of line, the loop-invariant view and epoch loads are
// reloaded on every decision behind an opaque call.
inline RouteDecision RuleDrivenRouting::route(const RouteContext& ctx) const {
  // Every return below names this one object — the only shape GCC applies
  // NRVO to. Without it each AOT hit pays a ~600-byte RouteDecision copy
  // into the caller's slot, which costs more than the table lookup itself.
  RouteDecision d;
  const AotView& av = aot_view_;
  const std::int32_t pa = ctx.in_port + 1;  // port axis: -1 collapses to 0
  const std::int32_t va = ctx.in_vc + 1;    // vc axis: likewise
  if (av.entries != nullptr) {
    // A non-null view implies attach() ran, and table freshness implies
    // escape-layer freshness (fill_aot asserts the escape table was
    // rebuilt for the same epoch before filling) — so this one check
    // subsumes the attach/escape preconditions route_fallback() enforces.
    FR_REQUIRE_MSG(av.epoch == faults_->epoch(),
                   "stale AOT table: reconfigure() missed an epoch");
    // The range test doubles as the bounds proof for the raw-indexed
    // lookup (and for the coordinate arrays the sign classifier reads);
    // anything outside the table is a VM premise point.
    if (static_cast<std::uint32_t>(ctx.node) <
            static_cast<std::uint32_t>(av.id_bound) &&
        static_cast<std::uint32_t>(ctx.dest) <
            static_cast<std::uint32_t>(av.id_bound) &&
        static_cast<std::uint32_t>(pa) < static_cast<std::uint32_t>(av.ports) &&
        static_cast<std::uint32_t>(va) < static_cast<std::uint32_t>(av.vcs)) {
      // Dest-axis index: the raw dest id (direct), the xor class (both id
      // axes collapse — node_stride is 0 then), or the 2-D offset-sign
      // class. Node ids < id_bound keep every class in range by
      // construction (xor of two k-bit ids is k-bit; signs yield 0..8).
      std::int32_t dc = ctx.dest;
      std::int32_t node_ax = ctx.node;
      if (av.classifier == rules::DestClassifier::XorFold) {
        dc = ctx.node ^ ctx.dest;
        node_ax = 0;
      } else if (av.classifier == rules::DestClassifier::OffsetSign2D) {
        const std::int32_t dx = av.xs[ctx.dest] - av.xs[ctx.node];
        const std::int32_t dy = av.ys[ctx.dest] - av.ys[ctx.node];
        dc = ((dy > 0) - (dy < 0) + 1) * 3 + ((dx > 0) - (dx < 0) + 1);
      }
      const std::uint64_t flat =
          static_cast<std::uint64_t>(node_ax) * av.node_stride +
          static_cast<std::uint64_t>(dc) * av.dest_stride +
          static_cast<std::uint64_t>(pa) * static_cast<std::uint64_t>(av.vcs) +
          static_cast<std::uint64_t>(va);
      const rules::AotEntry e = av.entries[flat];
      // steps == 0: premise point the fill left to the VM (or marked
      // unreachable — the VM reproduces the throw), or a first-touch entry
      // holding no decision yet.
      if (e.steps != 0) {
        // Unpack every slot unconditionally — branch-free; slots past
        // `count` land in the container's unspecified tail.
        RouteCandidate* dst = d.candidates.resize_for_overwrite(e.count);
        for (std::uint32_t i = 0; i < rules::AotEntry::kInlineCands; ++i) {
          dst[i].port = e.inl[i].port;
          dst[i].vc = e.inl[i].vc;
          dst[i].priority = e.inl[i].priority;
        }
        d.steps = e.steps;
        if (av.touch != nullptr) ++av.touch[ctx.node].hits;
        return d;
      }
      if (av.touch != nullptr) {
        route_first_touch(ctx, d, flat);
        return d;
      }
    }
  }
  route_fallback(ctx, d);
  return d;
}

}  // namespace flexrouter
