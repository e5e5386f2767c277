// Network assembly: the routers and links of a topology as flat state the
// network allocates once (a RouterArray over a ChannelTable, both keyed by
// node and port), packet book-keeping, injection queues, the sharded
// per-cycle step, and the quiescent fault-reconfiguration protocol of fault
// assumption iv.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitops.hpp"
#include "router/router.hpp"
#include "sim/shard_pool.hpp"
#include "topology/shard_plan.hpp"

namespace flexrouter {

struct NetworkConfig {
  RouterConfig router;
  int link_latency = 1;
  /// Reserve hint: packets the workload expects to create (pre-sizes the
  /// record table and the step scratch so injection-heavy benches don't pay
  /// reallocation churn).
  std::size_t expected_packets = 0;
  /// Spatial shards stepped in parallel (plan_shards tiles the topology).
  /// Every count runs the same step and produces bit-identical SimResults —
  /// the cycle barrier exchanges cross-shard traffic in canonical link
  /// order. 1 is simply the one-tile plan.
  int shards = 1;
  /// Worker threads for the shard pool, including the stepping thread
  /// (0 = one per shard, capped at hardware_concurrency). Thread count
  /// never affects results, only wall clock.
  int shard_threads = 0;
};

struct PacketRecord {
  PacketId id = -1;
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
  int length = 0;
  Cycle created = -1;
  Cycle injected = -1;   // head flit entered the source router
  Cycle delivered = -1;  // tail flit ejected at the destination
  int hops = 0;          // path length from the delivered header
  bool misrouted = false;
  /// This attempt was truncated by a live fault (or killed by the
  /// watchdog) — its flits were dropped, it will never be delivered.
  bool lost = false;
  /// Retransmission chain: a resent attempt points at the original
  /// (root) packet; the root tracks how many retries it has consumed and
  /// which attempt is current. -1 on packets outside any chain.
  PacketId retry_of = -1;
  PacketId last_attempt = -1;
  int retries = 0;
  /// Store slot while the attempt is in flight (recycled afterwards).
  PacketSlot slot = kInvalidPacketSlot;

  bool done() const { return delivered >= 0; }
};

class Network {
 public:
  Network(const Topology& topo, RoutingAlgorithm& algo,
          const NetworkConfig& cfg = {});
  /// The router table points at the channel table and the packet store
  /// beside it, so a network stays where it was built.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return *topo_; }
  FaultSet& faults() { return faults_; }
  const FaultSet& faults() const { return faults_; }
  RoutingAlgorithm& algorithm() { return *algo_; }
  /// Slab of in-flight packet headers; shared by every router of this
  /// network (replicas never share one).
  PacketStore& packet_store() { return store_; }
  const PacketStore& packet_store() const { return store_; }

  /// Queue a packet for injection at `src`. Contract: src and dest healthy,
  /// src != dest (fault assumption iii is the caller's responsibility, but
  /// violations are rejected here).
  PacketId send(NodeId src, NodeId dest, int length, Cycle now);

  /// Source-side abort-and-retransmit: queue a fresh copy of a lost
  /// attempt. The new packet joins the original's retry chain (retry_of /
  /// last_attempt / retries on the root record). The caller enforces the
  /// retry budget and endpoint health.
  PacketId resend(PacketId prior, Cycle now);

  /// Advance one cycle.
  void step(Cycle now);

  /// No queued, buffered or in-flight flits anywhere.
  bool idle() const;

  /// Cheap certificate that step() would change nothing this cycle but
  /// parked routers' skipped-step counts: no queued injection, no active
  /// router (so no busy link: a busy link keeps both endpoints active),
  /// and no poisoned worm that would wake the parked routers to drain it.
  /// O(nodes / 64): one word test per 64 nodes of each worklist.
  bool inert() const;
  /// Routers parked after a quiet step (RouterArray::step): they hold
  /// flits but are not stepped until something wakes them.
  int parked_routers() const;
  /// Stand-in for `span` steps of an inert network: counts them as router
  /// phases (a parked router's skipped steps are phases since it parked)
  /// and clears the delivered-last-cycle list, their only other effect.
  void skip_cycle(Cycle span);

  /// Quiescent reconfiguration (fault assumption iv): the caller must have
  /// drained the network (idle()); `mutate` edits the fault set, then the
  /// routing algorithm recomputes its propagated state. Returns the number
  /// of neighbour exchanges the reconfiguration needed. Accepts any
  /// callable taking FaultSet& (kept a template so this header needs no
  /// <functional>).
  template <typename Mutate>
  int apply_faults(Mutate&& mutate) {
    begin_fault_mutation();
    mutate(faults_);
    return finish_fault_mutation();
  }

  // --- Live fault lifecycle (fault assumption v) ------------------------
  //
  // A live kill damages the data plane immediately — the link's in-flight
  // flits are destroyed, worms cut by the fault are poisoned and truncate
  // hop by hop — but the control-plane mutation (FaultSet + reconfigure)
  // is deferred until the network has quiesced, matching the paper's
  // diagnosis phase (assumption iv): stateful routing algorithms keep
  // serving survivors against their current epoch in between.

  /// Kill the undirected channel between `node` and its neighbour on
  /// `port`, while traffic is in flight. Idempotent.
  void kill_link_live(NodeId node, PortId port);
  /// Kill `node` while traffic is in flight: its buffered flits and
  /// injection queue are destroyed, all adjacent channels die, and every
  /// live packet sourced at or destined to it is orphaned. Idempotent.
  void kill_node_live(NodeId node);
  /// Watchdog victim kill: orphan one in-flight worm so its buffers, VCs
  /// and crossbar claims free up hop by hop.
  void kill_packet(PacketId id);

  /// Queue a repair of the undirected channel at (node, port): the link
  /// hardware rejoins service at the next quiescent commit — repairs ride
  /// the same detect -> drain -> reconfigure path as kills, because
  /// re-adopting a channel also invalidates propagated routing state. The
  /// data plane is untouched until the commit. Returns false (and queues
  /// nothing) when the link is not projected dead at commit time, so
  /// repairing a healthy channel never opens a recovery window.
  bool repair_link_live(NodeId node, PortId port);
  /// Queue a node repair (same commit semantics). The node's injection
  /// queue and router return to service at the commit. Returns false when
  /// the node is not projected faulty.
  bool repair_node_live(NodeId node);
  /// Fail-slow: throttle both directions of the channel at (node, port) to
  /// one flit per `factor` cycles, effective immediately — degradation
  /// destroys nothing and needs no drain, no reconfiguration, no epoch
  /// bump. factor == 1 restores full bandwidth.
  void degrade_link_live(NodeId node, PortId port, int factor);

  /// Damage recorded by live kills (or queued repairs) but not yet applied
  /// to the FaultSet.
  bool recovery_pending() const { return !pending_mutations_.empty(); }
  /// Node killed live (dead hardware), whether or not the FaultSet has
  /// caught up yet. Traffic sources must treat it as faulty immediately.
  bool node_live_killed(NodeId node) const {
    return live_killed_[static_cast<std::size_t>(node)] != 0;
  }
  /// Quiescent diagnosis step: fold the pending live damage into the
  /// FaultSet (bumping the fault epoch) and reconfigure the routing
  /// algorithm. Requires idle(). Returns the neighbour-exchange count.
  int commit_pending_faults();

  /// Append-only log of lost packets (truncated or killed attempts), in
  /// the order their last flit left the network. The simulator consumes
  /// it with a monotonic cursor; it is never cleared mid-run.
  const std::vector<PacketId>& lost_log() const { return lost_log_; }
  std::int64_t packets_lost() const {
    return static_cast<std::int64_t>(lost_log_.size());
  }

  /// Watchdog diagnostics: every input VC in the network still holding
  /// flits (node, port, vc, front packet), ascending by node.
  using BlockedChannel = RouterArray::StalledVc;
  std::vector<BlockedChannel> blocked_channels() const;
  /// Follow the wait-for chain from the lowest blocked channel across
  /// routers (committed output -> downstream input VC) until it ends or
  /// closes a cycle; the classic deadlock dump. Deterministic.
  std::vector<BlockedChannel> blocked_chain() const;
  /// The watchdog's victim: the lowest id of a live packet in
  /// blocked_chain() (deterministic; killing any one member breaks the
  /// chain), or -1 when the chain holds none.
  PacketId blocked_victim() const;

  const PacketRecord& record(PacketId id) const;
  std::int64_t packets_created() const {
    return static_cast<std::int64_t>(records_.size());
  }
  std::int64_t packets_delivered() const { return delivered_count_; }

  /// Movement counter for the deadlock watchdog: total flits that crossed
  /// any crossbar or were dropped, over the whole history. O(1): the step's
  /// epilogue keeps it running.
  std::int64_t total_flit_movements() const { return flit_movements_; }

  /// Every router's pipeline state and counters, indexed by node.
  const RouterArray& routers() const { return routers_; }

  /// No flit buffered in this node's router and nothing queued for
  /// injection there. Sound commit point for a per-node program flip: a
  /// routing decision only ever happens for a flit buffered at the node,
  /// so a quiet node has no decision in flight — flits still on incoming
  /// links will be decided by whatever program is installed on arrival.
  bool node_quiet(NodeId n) const {
    return routers_.empty(n) && queue_empty(n);
  }

  /// Aggregate router statistics over all nodes, parked routers' skipped
  /// steps included: the same figures as stepping every router every
  /// cycle.
  RouterStats aggregate_stats() const;

  /// Per-directed-link utilisation: flits carried per elapsed cycle, from
  /// the link information units (Figure 3). Sorted descending.
  struct LinkLoad {
    NodeId from = kInvalidNode;
    PortId port = kInvalidPort;
    double utilization = 0.0;
    /// Fail-slow factor from the link hardware (1 == full speed), so the
    /// load-measurement units expose degradation alongside utilisation.
    int degrade = 1;
  };
  std::vector<LinkLoad> link_utilization(Cycle elapsed) const;
  /// Summary over all links: (max, mean) utilisation.
  std::pair<double, double> utilization_summary(Cycle elapsed) const;

  /// Audit of the whole data plane between two steps; throws
  /// ContractViolation naming the first broken invariant:
  ///  - flit conservation: flits in buffers, channel stages, boundary
  ///    staging and injection queues == the PacketStore's outstanding flits;
  ///  - credit conservation on every healthy channel and VC: the sender's
  ///    credits + flits and credits on the wire + the receiver's buffer
  ///    occupancy == the buffer depth;
  ///  - VC ownership: an owned output VC has exactly one active input VC
  ///    aimed at it, and it names that VC as its owner;
  ///  - every router's VC-state masks match its VC records;
  ///  - every routing VC holds 1..min(kMaxCandidates, input VCs) RC
  ///    candidates, no two naming one (port, VC) pair, all in range;
  ///  - worklists: each shard's pending bits are exactly its nodes with a
  ///    queued injection, and every router holding flits is active or
  ///    parked, never both;
  ///  - parking: a parked router holds flits, has nothing arriving on its
  ///    ports and is in the state a quiet step leaves
  ///    (RouterArray::check_parked); nothing is parked after a step that
  ///    ran with a poisoned slot live;
  ///  - crossbar exclusivity in the last step: at most one flit ejected per
  ///    router and, unless poisoned flits were dropped, at most one credit
  ///    returned per input port;
  ///  - total_flit_movements() equals the per-router counters' sum.
  /// O(network); step() never calls it, so it costs the simulation nothing.
  void check_invariants() const;

  /// Packets delivered during step(); cleared and refilled each cycle.
  const std::vector<PacketId>& delivered_last_cycle() const {
    return delivered_last_cycle_;
  }

 private:
  /// Reference mode for tests (NetworkTestAccess): no router ever parks and
  /// inert() never holds, so every router holding flits steps every cycle.
  friend struct NetworkTestAccess;
  bool never_park_ = false;

  /// apply_faults helpers (out of line so the template stays minimal).
  void begin_fault_mutation();
  int finish_fault_mutation();

  /// One queued control-plane mutation. Kills and repairs are kept in one
  /// ordered list and replayed in arrival order at the commit, so
  /// interleaved kill/repair/kill sequences on one resource (a flapping
  /// link firing faster than the network can drain) resolve to the state
  /// of the *last* event, not whichever queue happened to replay second.
  struct PendingMutation {
    enum class Op { KillLink, KillNode, RepairLink, RepairNode };
    Op op;
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;  // link ops only
  };
  /// Projected control-plane state at the next commit: current FaultSet
  /// state with the pending mutation queue replayed on top. Used to decide
  /// whether a new kill/repair is a no-op.
  bool projected_link_marked(NodeId node, PortId port) const;
  bool projected_node_faulty(NodeId node) const;

  /// Poison a live slot (no-op when already poisoned / not live).
  void poison_slot(PacketSlot s);
  /// A flit left the network without being delivered: decrement the
  /// packet's flit budget and finalise the loss if it was the last.
  void account_dropped_flit(PacketSlot s);
  /// Last flit of a poisoned packet is gone: mark the record lost, append
  /// to the lost log, release the slot.
  void finalize_lost(PacketSlot s);

  /// Per-shard execution state: the shard's slice of the worklists, its
  /// stepping scratch, and deferred-event buffers the serial epilogue
  /// replays in canonical order.
  struct Shard {
    /// The worklists, as ordered bitsets over the shard's nodes: bit i
    /// stands for plan_.nodes[s][i], which is ascending, so visiting the
    /// set bits visits the nodes in ascending order.
    /// `pending`: nodes with a non-empty injection queue.
    std::vector<std::uint64_t> pending;
    /// `active`: routers stepped this cycle — holding flits, injecting, or
    /// on either end of a busy link. Everything else is provably a no-op
    /// step or, for parked routers, a repeat of their last quiet step.
    std::vector<std::uint64_t> active;
    /// `parked`: routers whose last step was quiet, disjoint from active.
    /// activate() wakes them and accounts the steps they skipped.
    std::vector<std::uint64_t> parked;
    /// Scratch: the active bits the router loop started from, which the
    /// link scan then visits.
    std::vector<std::uint64_t> stepped;
    /// Router phases run so far; parked_at_ counts in the same units.
    std::int64_t phases = 0;
    /// Switch-allocation scratch of the thread stepping this shard.
    RouterArray::SaScratch sa;
    /// Flits that moved in this shard's router steps this cycle.
    std::int64_t moved = 0;
    /// Deferred source-side purge drops: flits in pop order, grouped per
    /// node (pending bits are visited ascending, so groups are too).
    std::vector<Flit> purge_drops;
    struct PurgeSpan {
      NodeId node;
      std::uint32_t begin, end;
    };
    std::vector<PurgeSpan> purges;
    /// Deferred router step events, grouped per router in step order.
    std::vector<Flit> ejects;
    std::vector<Flit> drops;
    struct RouterSpan {
      NodeId node;
      std::uint32_t eject_begin, eject_end, drop_begin, drop_end;
    };
    std::vector<RouterSpan> spans;
  };

  /// Parallel phase of one shard: inject, step routers, scan the links of
  /// the routers stepped. Touches only shard-local state, per-node /
  /// per-packet slots of shared tables, and the port slots of the shard's
  /// nodes (a flit or credit sent over a boundary link stages at the
  /// sending node's slot).
  void shard_phase(int s, Cycle now, bool purge);
  /// Visit the node-tagged entries of `list` across all shards in
  /// ascending node order (a k-way merge of the per-shard lists).
  template <typename Entry, typename Visit>
  void merge_by_node(std::vector<Entry> Shard::*list, Visit&& visit);

  /// Put `u`, a node of shard `sh`, on that shard's active worklist
  /// (idempotent), waking it if parked. Callers inside shard_phase only
  /// ever activate nodes of their own shard.
  void activate(Shard& sh, NodeId u) {
    const int i = shard_pos_[static_cast<std::size_t>(u)];
    if (test_bit(sh.parked.data(), i)) unpark(sh, u, i);
    set_bit(sh.active.data(), i);
  }
  void activate(NodeId u) {
    activate(shards_[static_cast<std::size_t>(plan_.shard(u))], u);
  }
  /// Take `u` (worklist bit `i` of `sh`) off the parked list and account
  /// the repeats of its quiet step it skipped: one per router phase since.
  void unpark(Shard& sh, NodeId u, int i);
  /// Wake every parked router of shard `s`.
  void wake_parked(int s);

  bool queue_empty(NodeId u) const {
    return queue_head_[static_cast<std::size_t>(u)] < 0;
  }
  /// The next flit of `u`'s queue. Contract: the queue is not empty.
  Flit queue_front(NodeId u) const;
  void queue_pop(NodeId u);

  /// Queue `u` on its shard's injection worklist (idempotent).
  void mark_pending(NodeId u) {
    set_bit(shards_[static_cast<std::size_t>(plan_.shard(u))].pending.data(),
            shard_pos_[static_cast<std::size_t>(u)]);
  }

  const Topology* topo_;
  RoutingAlgorithm* algo_;
  NetworkConfig cfg_;
  FaultSet faults_;
  PacketStore store_;
  ChannelTable channels_;
  RouterArray routers_;
  std::vector<PacketRecord> records_;
  /// Packets waiting to enter each source router: per node a FIFO of
  /// packets threaded through queue_next_ (parallel to records_), so the
  /// queues grow with the record table instead of allocating per node.
  /// The front packet's next flit is queue_seq_; flits are rebuilt from the
  /// record when they leave the queue.
  std::vector<PacketId> queue_next_;   // per packet; -1 ends a queue
  std::vector<PacketId> queue_head_;   // per node; -1 = empty
  std::vector<PacketId> queue_tail_;   // per node
  std::vector<std::int32_t> queue_seq_;  // per node
  std::int64_t delivered_count_ = 0;
  std::int64_t flit_movements_ = 0;  // see total_flit_movements()
  std::vector<PacketId> delivered_last_cycle_;
  Cycle last_step_ = -1;  // cycle of the latest step() (check_invariants)
  /// The latest step ran with a poisoned slot live (check_invariants).
  bool last_step_purged_ = false;
  /// Live-fault state: damage pending control-plane commit, loss
  /// accounting, and kill-time scratch.
  std::vector<PendingMutation> pending_mutations_;
  std::vector<char> live_killed_;  // per node
  std::vector<PacketId> lost_log_;
  std::int64_t network_dropped_flits_ = 0;  // destroyed in links/queues/nodes
  std::vector<Flit> destroyed_scratch_;
  std::vector<PacketSlot> orphan_scratch_;

  /// Shard execution state.
  ShardPlan plan_;
  /// Per node: its index in plan_.nodes of its shard, i.e. its worklist bit.
  std::vector<int> shard_pos_;
  /// Per node: its shard's `phases` at its last quiet step (read while the
  /// node is parked).
  std::vector<std::int64_t> parked_at_;
  /// Per node: its ports whose link stays inside its shard (bit p == port
  /// p), the ports its shard's link scan may read.
  std::vector<std::uint64_t> in_shard_ports_;
  std::vector<Shard> shards_;
  /// Sender slots of the directed channels whose endpoints live in
  /// different shards, ascending — the canonical cross-shard exchange
  /// order.
  std::vector<std::size_t> boundary_slots_;
  /// Per-shard merge cursors for the epilogue (scratch, reused).
  std::vector<std::size_t> merge_pos_;
  std::unique_ptr<ShardPool> pool_;
};

}  // namespace flexrouter
