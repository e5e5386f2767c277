// Cycle-level wormhole routers, all of one network's routers as flat rows.
//
// Pipeline per head flit: RC (routing computation, possibly several rule
// interpretations — the paper's fault-tolerance time overhead appears here
// as extra stall cycles), VA (virtual-channel allocation), then per flit SA
// (switch allocation through the Connection Unit) and ST/LT (switch/link
// traversal). Credit-based flow control across links; tail flits release
// their output VC.
//
// The state of Figure 3's routers lives in a few contiguous arrays
// allocated once per network, one row per router, so a router's step reads
// its own rows instead of chasing per-object pointers:
//  - per router, three bitmasks over its input VCs, ceil(inputs / 64)
//    words each: `occupied` (the VC buffers flits), `routing` (a head has
//    its RC candidates and waits for VA) and `active` (the VC is committed
//    to an output VC). They are the only record of a VC's status, and each
//    stage visits just the set bits it needs, in ascending VC order — as
//    the Connection Unit takes requests only from VCs holding a committed
//    flit: RC `occupied & ~(routing | active)`, VA `routing`, SA
//    `active & occupied`;
//  - per input VC, a 16-byte record (FIFO head and occupancy, committed
//    output, RC stall, worm share, misroute mark, candidate count);
//  - per input VC, the RC candidate list, read only by VA: at most one
//    8-byte entry per (port, VC) pair, so (degree+1) x vcs slots (at most
//    kMaxCandidates);
//  - one flit pool holding every input FIFO at its fixed depth;
//  - per output VC, credits and ownership; per output port, the SA
//    round-robin pointer; per router, its statistics.
// Links are the ChannelTable's rows (router/link.hpp).
//
// A router never consults global network state: routing algorithms see
// only the header and their own propagated per-node state, exactly like the
// hardware control unit of Figure 3.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitops.hpp"
#include "common/packet_store.hpp"
#include "common/stats.hpp"
#include "router/arbiter.hpp"
#include "router/link.hpp"
#include "router/message_interface.hpp"
#include "routing/routing.hpp"

namespace flexrouter {

/// Credit count reported for the local (ejection) port by
/// RouterArray::output_credits. Ejection is modelled as an infinite sink, so
/// the value only has to dominate every real score input: it must exceed
/// any physical buffer depth and the VA load-score clamp (1023), and it
/// must never be decremented — credits on the local port are not tracked,
/// there is no output-VC state behind them. Callers treat it as "always
/// room"; forwarding asserts that the decrement path is never reached for
/// the local port.
inline constexpr int kEjectionSinkCredits = 1 << 20;

/// VC-allocation adaptivity criterion (Section 2.2: NAFTA exploits that
/// "it is known how long the remainder of a message is" and uses "the
/// amount of data that still has to pass a node" to rank outputs).
enum class AdaptivityCriterion {
  Credits,       // free downstream buffer space only
  AssignedData,  // least data already committed to the output (the paper's)
};

struct RouterConfig {
  int buffer_depth = 4;     // flits per VC FIFO
  int injection_depth = 16; // local input buffer depth
  /// Extra SA priority for misrouted messages ("it may be desirable to favor
  /// messages misrouted due to faults", Section 3).
  int misroute_priority_boost = 1;
  AdaptivityCriterion adaptivity = AdaptivityCriterion::Credits;
};

struct RouterStats {
  std::int64_t flits_forwarded = 0;   // network-to-network + injected
  std::int64_t flits_ejected = 0;
  std::int64_t flits_dropped = 0;     // truncated worm flits (live faults)
  std::int64_t packets_routed = 0;    // RC decisions taken
  std::int64_t decision_steps = 0;    // total rule interpretations
  std::int64_t rc_no_candidates = 0;  // RC retries (no usable output yet)
  std::int64_t va_retries = 0;
  std::int64_t header_updates = 0;    // message-interface modifications
};

class RouterArray {
 public:
  /// Every router of `topo`, wired to `channels`. `store` holds the headers
  /// of every in-flight packet; routers only read/update headers through
  /// it.
  RouterArray(const Topology& topo, const RoutingAlgorithm& algo,
              PacketStore& store, const RouterConfig& cfg,
              ChannelTable& channels);

  int num_vcs() const { return vcs_; }
  PortId local_port() const { return degree_; }

  /// Switch-allocation gather buckets for one router step at a time; each
  /// thread stepping routers owns one.
  struct SaScratch {
    std::vector<ArbCandidate> bucket;  // (degree+1) rows of input-VC slots
    std::vector<int> count;            // candidates per output this cycle
  };
  SaScratch make_sa_scratch() const;

  /// Injection interface: free space in node `u`'s local input buffer.
  int injection_space(NodeId u) const;
  void inject(NodeId u, const Flit& flit);

  /// What one router step did.
  struct StepOutcome {
    int moved = 0;       // flits forwarded, ejected or dropped
    bool quiet = false;  // see step()
  };
  /// One simulation cycle of router `u`. Ejected flits are appended to
  /// `ejected`; truncated flits of poisoned worms are appended to `dropped`
  /// (the network accounts each against the packet's flit budget).
  ///
  /// The step is quiet when nothing arrived on `u`'s ports, no poisoned
  /// slot is live, no flit moved, no SA request was refused by a throttle,
  /// VA granted nothing and counted down no RC stall, and RC found no idle
  /// head. Every committed flit then waits for a credit and every routing
  /// VC's candidates are dead, owned or credit-less, so each further step
  /// repeats it exactly — one VA retry per routing VC and nothing else —
  /// until a flit or credit arrives, a flit is injected, one of `u`'s
  /// links dies or changes speed, or a slot is poisoned. The network skips
  /// those repeats and accounts them with repeat_quiet_steps().
  StepOutcome step(NodeId u, Cycle now, SaScratch& sa,
                   std::vector<Flit>& ejected, std::vector<Flit>& dropped);

  /// VA retries one repeat of a quiet step of `u` adds: its routing VCs.
  int quiet_step_retries(NodeId u) const;
  /// Account `steps` repeats of `u`'s last quiet step without running them.
  void repeat_quiet_steps(NodeId u, std::int64_t steps) {
    stats_[static_cast<std::size_t>(u)].va_retries +=
        steps * quiet_step_retries(u);
  }

  /// True if no flit is buffered anywhere in router `u`.
  bool empty(NodeId u) const;

  /// Abort all in-flight pipeline state of every router and restore full
  /// credits (reconfiguration of a drained network).
  void flush();

  /// Live link fault on `u`'s output `port`: release the worm committed to
  /// each of its VCs and report the worm's slot so the caller can poison
  /// it. The link itself is failed in the ChannelTable.
  void kill_output_port(NodeId u, PortId port,
                        std::vector<PacketSlot>& orphaned);

  /// Live node fault on router `u`: destroy every buffered flit (appended
  /// to `destroyed` for accounting) and reset all pipeline state.
  void destroy_all_flits(NodeId u, std::vector<Flit>& destroyed);

  /// Watchdog diagnostics: one record per input VC that holds flits.
  struct StalledVc {
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;
    VcId vc = kInvalidVc;
    PacketId packet = -1;                  // packet at the buffer front
    PacketSlot slot = kInvalidPacketSlot;
    bool active = false;                   // committed to an output VC
    PortId out_port = kInvalidPort;        // valid when active
    VcId out_vc = kInvalidVc;
  };
  /// Appends router `u`'s records, ascending by input VC.
  void collect_stalled(NodeId u, std::vector<StalledVc>& out) const;

  const RouterStats& stats(NodeId u) const {
    return stats_[static_cast<std::size_t>(u)];
  }

  /// Local occupancy view used as the adaptivity criterion (buffer
  /// exploitation as load measure, Section 4.1).
  int output_credits(NodeId u, PortId port, VcId vc) const;
  /// Data committed to an output port across its VCs (paper: out_queue).
  int output_assigned_data(NodeId u, PortId port) const;

  /// Audit views (Network::check_invariants).
  int buffered(NodeId u, PortId port, VcId vc) const {
    return inputs_[in_row(u) + static_cast<std::size_t>(in_index(port, vc))]
        .occ;
  }
  /// Throws unless every owned output VC of `u` has exactly one active
  /// input VC aimed at it, recorded as its owner.
  void check_ownership(NodeId u) const;
  /// Throws unless `u`'s three VC-state masks equal the ones recomputed
  /// from its VC records: occupied iff flits are buffered, routing iff RC
  /// candidates wait for VA, active iff an output is committed.
  void check_masks(NodeId u) const;
  /// Throws unless every routing VC of `u` holds 1..min(kMaxCandidates,
  /// input VCs) candidates with distinct (port, VC) pairs, each port and VC
  /// in range.
  void check_candidates(NodeId u) const;
  /// Throws unless router `u` is in a state a quiet step leaves: no idle
  /// head waiting for RC, no routing VC with an RC stall left or with a
  /// grantable candidate (the ejection port, or a usable, unowned output
  /// VC with a credit), and no buffered flit of an active VC with a credit
  /// to move on.
  void check_parked(NodeId u) const;

 private:
  /// Read by the stages for the VCs their mask selects.
  struct InputVc {
    std::uint8_t head = 0;  // FIFO front within the VC's pool segment
    std::uint8_t occ = 0;   // flits buffered
    std::int8_t out_port = kInvalidPort;  // committed output while active
    std::int8_t out_vc = kInvalidVc;
    std::uint8_t mark_misrouted = 0;
    /// RC candidates waiting for VA; nonzero exactly while routing.
    std::uint8_t num_candidates = 0;
    int rc_wait = 0;  // remaining stall cycles for multi-step decisions
    /// Flits of the current worm still owed to the committed output —
    /// the exact amount to roll back from assigned_flits when a live
    /// fault truncates the worm mid-transfer.
    int committed = 0;
  };
  /// One RC candidate as VA reads it. RC has checked port <= degree_
  /// (< 64) and vc < vcs_ (<= ChannelTable::kMaxVcs), so a byte holds each.
  struct Candidate {
    std::int32_t priority;
    std::int8_t port;
    std::int8_t vc;
  };
  static_assert(sizeof(Candidate) == 8);
  struct OutputVc {
    int credits = 0;
    /// Flits committed to this output but not yet transmitted — the
    /// paper's out_queue adaptivity measure.
    int assigned_flits = 0;
    /// Worm holding the VC (valid while owned): live faults poison it.
    PacketSlot owner_slot = kInvalidPacketSlot;
    std::uint8_t owned = 0;
    std::int8_t owner_port = kInvalidPort;
    std::int8_t owner_vc = kInvalidVc;
  };

  /// Router `u`'s rows as plain pointers. The stage loops index these
  /// locals rather than the member vectors: a byte store into a VC record
  /// may alias any member, so the compiler would reload the vectors'
  /// data pointers after each one.
  struct Row {
    InputVc* in;
    OutputVc* out;
    Flit* pool;
    std::uint64_t* occupied;  // words_ words each
    std::uint64_t* routing;
    std::uint64_t* active;
  };
  Row row(NodeId u) {
    std::uint64_t* m = &masks_[mask_row(u)];
    return {&inputs_[in_row(u)],
            &outputs_[static_cast<std::size_t>(u) * out_stride_],
            &flits_[static_cast<std::size_t>(u) * pool_stride_], m,
            m + words_, m + 2 * words_};
  }
  /// Router `u`'s occupied mask; routing and active follow it.
  const std::uint64_t* masks(NodeId u) const { return &masks_[mask_row(u)]; }
  std::size_t mask_row(NodeId u) const {
    return static_cast<std::size_t>(u) * 3 * static_cast<std::size_t>(words_);
  }
  const Flit& front(const Row& r, int idx) const {
    return r.pool[fifo_base_[static_cast<std::size_t>(idx)] + r.in[idx].head];
  }

  int in_index(PortId port, VcId vc) const { return port * vcs_ + vc; }
  std::size_t in_row(NodeId u) const {
    return static_cast<std::size_t>(u) * static_cast<std::size_t>(ninputs_);
  }
  /// Index of input VC `idx` of router `u` in the per-input-VC arrays.
  std::size_t at(NodeId u, int idx) const {
    return in_row(u) + static_cast<std::size_t>(idx);
  }
  /// Input VC `idx` of router `u`'s candidate slots.
  Candidate* candidate_row(NodeId u, int idx) const {
    return &candidates_[at(u, idx) * static_cast<std::size_t>(slots_)];
  }
  OutputVc& ovc(NodeId u, PortId port, VcId vc) {
    return outputs_[static_cast<std::size_t>(u) * out_stride_ +
                    static_cast<std::size_t>(in_index(port, vc))];
  }
  const OutputVc& ovc(NodeId u, PortId port, VcId vc) const {
    return outputs_[static_cast<std::size_t>(u) * out_stride_ +
                    static_cast<std::size_t>(in_index(port, vc))];
  }
  /// The local port's VCs are the last vcs_ input indices. Injection
  /// uses only the first of them, so the others buffer nothing.
  int fifo_depth(int idx) const {
    const int local = degree_ * vcs_;
    if (idx < local) return cfg_.buffer_depth;
    return idx == local ? cfg_.injection_depth : 0;
  }
  const Flit& front(NodeId u, int idx) const {
    return flits_[static_cast<std::size_t>(u) * pool_stride_ +
                  fifo_base_[static_cast<std::size_t>(idx)] +
                  inputs_[at(u, idx)].head];
  }
  /// Contract: the FIFO has room (the credit protocol guarantees it).
  void push(const Row& r, int idx, const Flit& f);
  /// Contract: the FIFO is not empty.
  Flit pop(const Row& r, int idx);
  /// Reset router `u`'s input and output VC state, FIFOs included.
  void reset(NodeId u);

  /// Each stage also reports what makes a step not quiet (see step()).
  /// Returns whether a flit or credit is on the wire toward `u`.
  bool accept_arrivals(NodeId u, Cycle now);
  int stage_drain_poisoned(NodeId u, Cycle now, std::vector<Flit>& dropped);
  /// Returns whether any idle head was found.
  bool stage_rc(NodeId u, bool poison_active);
  /// Returns whether a VC was granted or counted down its RC stall.
  bool stage_va(NodeId u);
  /// Returns the flits moved; sets `throttled` when a fail-slow link
  /// refused a request that had a credit.
  int stage_sa_st(NodeId u, Cycle now, SaScratch& sa,
                  std::vector<Flit>& ejected, bool& throttled);
  /// Fold `c` into the `n` candidates kept at `cands`, at most one per
  /// (port, VC) pair, such that VA grants what it would grant over the
  /// whole decision (the argument is at the definition); returns the new
  /// count.
  int fold_candidate(Candidate* cands, int n, const RouteCandidate& c) const;
  /// Undo a truncated worm's VA commitment (output ownership + assigned
  /// data); safe to call for VCs that never committed.
  void release_commitment(NodeId u, InputVc& in);

  const RoutingAlgorithm* algo_;
  PacketStore* store_;
  ChannelTable* channels_;
  RouterConfig cfg_;
  int degree_;
  int vcs_;
  int ninputs_;             // (degree_+1) x vcs_ input VCs per router
  int words_;               // 64-bit words per VC-state mask
  int slots_;               // candidate slots per input VC
  std::size_t out_stride_;  // degree_ x vcs_ output VCs per router
  std::size_t pool_stride_;  // flit pool slots per router
  std::vector<std::size_t> fifo_base_;  // per input VC: offset in the row

  /// Per router: the occupied, routing and active masks, words_ each.
  std::vector<std::uint64_t> masks_;
  std::vector<InputVc> inputs_;  // per router x input VC
  /// Per router x input VC x slots_: the RC decision folded to one entry
  /// per (port, VC) pair (stage_rc). Left uninitialised: only VA reads it,
  /// and only the num_candidates entries RC wrote.
  std::unique_ptr<Candidate[]> candidates_;
  std::vector<Flit> flits_;         // per router: every input FIFO
  std::vector<OutputVc> outputs_;   // per router x output VC
  std::vector<int> sa_last_grant_;  // per router x output port
  std::vector<RouterStats> stats_;  // per router
};

}  // namespace flexrouter
