// Open-loop network simulator: warmup / measurement / drain phases,
// Bernoulli packet injection, latency & throughput metrics, and a deadlock
// watchdog. This is the harness behind the latency–throughput figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault_schedule.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "topology/shard_plan.hpp"

namespace flexrouter {

/// The stall tracker behind every deadlock watchdog: stalled() observes
/// the movement counter (Network::total_flit_movements()) after a cycle and
/// fires (restarting the count) once more than `window` observed cycles in
/// a row moved nothing. An unarmed tracker arms on its first observation.
class StallWatch {
 public:
  void reset() { armed_ = false; }
  void arm(std::int64_t moved) {
    armed_ = true;
    last_moved_ = moved;
    stalled_ = 0;
  }
  /// Observe `span` cycles that all end at movement count `moved`: the
  /// same as `span` one-cycle observations, of which only the last may
  /// fire (a skipped span ends no later than until_stalled()).
  bool stalled(std::int64_t moved, Cycle window, Cycle span = 1) {
    if (!armed_ || moved != last_moved_) {
      arm(moved);
      --span;
    }
    stalled_ += span;
    FR_ASSERT_MSG(stalled_ <= window + 1, "a skip jumped past a watchdog");
    if (stalled_ <= window) return false;
    stalled_ = 0;
    return true;
  }
  /// Observations at movement count `moved` up to and including the one
  /// that fires.
  Cycle until_stalled(std::int64_t moved, Cycle window) const {
    if (!armed_ || moved != last_moved_) return window + 2;
    return window + 1 - stalled_;
  }

 private:
  bool armed_ = false;
  std::int64_t last_moved_ = 0;
  Cycle stalled_ = 0;
};

struct SimConfig {
  /// Offered load in flits per node per cycle.
  double injection_rate = 0.1;
  int packet_length = 4;  // flits
  /// Bimodal traffic: a fraction of packets are long worms (0 disables).
  /// Wormhole networks are sensitive to the mix — long messages monopolise
  /// VC ownership, which the assigned-data adaptivity criterion exploits.
  int long_packet_length = 0;
  double long_packet_fraction = 0.0;
  Cycle warmup_cycles = 1000;
  Cycle measure_cycles = 2000;
  /// Give up draining after this many extra cycles (deadlock suspicion).
  Cycle drain_limit = 50000;
  /// Cycles without any flit movement (while work remains) that trigger the
  /// deadlock watchdog.
  Cycle watchdog_window = 2000;
  std::uint64_t seed = 1;

  // --- Live fault lifecycle (set_fault_schedule) ------------------------
  /// Cycles between a fault event firing and the recovery controller
  /// opening the quiescent diagnosis phase (detection latency; the paper's
  /// Information Units report faults, the control plane reacts here).
  Cycle detection_delay = 0;
  /// Source-side abort-and-retransmit of lost packets: the per-packet retry
  /// budget, beyond which the packet counts unrecoverable (0 abandons
  /// every lost packet at once).
  int max_retries = 3;
  /// Upgrade the deadlock watchdog from "suspect and give up" to
  /// structured recovery: dump the blocked worm chain, kill the victim
  /// worm, retransmit it. Implied by a non-empty fault schedule.
  bool structured_watchdog = false;

  // --- Rolling rule-swap commits (RuleSwapPolicy::Rolling) --------------
  /// How many spatial shards a rolling swap drains sequentially. This is a
  /// property of the *swap*, deliberately decoupled from the execution
  /// shard count (NetworkConfig::shards) so results stay bit-identical
  /// whatever parallelism the run uses. Clamped to the node count.
  int rolling_shards = 8;
};

struct SimResult {
  std::int64_t injected_packets = 0;   // measured-window packets
  std::int64_t delivered_packets = 0;  // of the measured packets
  double avg_latency = 0.0;            // creation -> delivery, cycles
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double avg_hops = 0.0;
  double min_hops_ratio = 0.0;  // avg(hops / topological distance)
  double throughput = 0.0;      // delivered flits / node / cycle (measured)
  double misrouted_fraction = 0.0;
  /// Latency split by the header's misroute mark (0 when no such packets):
  /// the "double disadvantage" of Section 3 and what the SA priority boost
  /// buys back.
  double avg_latency_misrouted = 0.0;
  double avg_latency_direct = 0.0;
  double avg_decision_steps = 0.0;  // rule interpretations per RC decision
  bool deadlock_suspected = false;
  Cycle cycles_run = 0;

  // --- Recovery metrics (live fault lifecycle; all zero/1.0 without one) —
  // counts below are over the measured window's packets.
  std::int64_t packets_lost = 0;           // attempts truncated or killed
  std::int64_t packets_retransmitted = 0;  // resends issued
  std::int64_t packets_unrecoverable = 0;  // originals abandoned for good
  int fault_events = 0;     // schedule events fired during this run
  int repair_events = 0;    // repair events that actually queued a revival
  int degrade_events = 0;   // fail-slow throttle changes applied
  int recovery_events = 0;  // diagnosis phases opened
  /// Total cycles from each fault event to the end of its quiescent
  /// diagnosis (recovery cycles per event = this / recovery_events).
  Cycle recovery_cycles = 0;
  /// Per-recovery durations (fault firing -> quiescent commit), one entry
  /// per completed diagnosis phase, in completion order — the raw samples
  /// behind availability / recovery-time distributions (p50/p99/max).
  /// Sums to recovery_cycles for phases completed inside this run.
  std::vector<Cycle> recovery_durations;
  /// Fraction of the measured window with injection open (not gated by a
  /// diagnosis phase).
  double availability = 1.0;
  int worms_killed = 0;  // watchdog victim kills
  int reconfig_exchanges = 0;

  // --- Rule hot-swap metrics (schedule_rule_swap; zero without one) -------
  int rule_swaps = 0;  // program swaps committed during this run
  /// Cycles injection was gated by a quiescent swap drain (immediate swaps
  /// gate nothing). The swap-downtime figure bench/rule_hotswap reports.
  Cycle swap_gated_cycles = 0;
  /// Node-cycles of gated injection — the per-node-resolution downtime
  /// figure that makes policies comparable: a quiescent drain gates every
  /// node for the whole window (cycles * num_nodes), a rolling commit only
  /// the current shard's uncommitted nodes each cycle. Immediate swaps
  /// gate nothing.
  Cycle swap_gated_node_cycles = 0;

  /// Deadlock-watchdog diagnostics: the blocked wait-for chain captured
  /// the first time the watchdog fired (empty if it never did). Channel
  /// order follows the chain: each entry waits on the next.
  struct BlockedChannelInfo {
    NodeId node = kInvalidNode;
    PortId port = kInvalidPort;
    VcId vc = kInvalidVc;
    PacketId packet = -1;

    bool operator==(const BlockedChannelInfo&) const = default;
  };
  std::vector<BlockedChannelInfo> blocked_chain;

  std::string to_string() const;

  /// Field-by-field identity, the one comparison every bit-identity check
  /// uses. Plain == on the doubles is bit identity here: run() guards
  /// every division, so no field is ever NaN, and none is ever -0.0.
  bool operator==(const SimResult&) const = default;
};

class Simulator {
 public:
  Simulator(Network& net, TrafficPattern& traffic, const SimConfig& cfg);

  /// Arm the live fault lifecycle: events fire at their absolute cycle
  /// (the simulator clock keeps advancing across run() calls). Enables
  /// the structured watchdog implicitly.
  void set_fault_schedule(const FaultSchedule& schedule);

  /// How a scheduled rule swap commits once its new image is ready.
  /// Immediate installs it at the next cycle boundary with zero gated
  /// cycles — sound for stateless programs, where every hop decides
  /// independently and deadlock freedom comes from the host escape layer.
  /// Quiescent runs the PR 5 gate→drain→swap→resume path: injection is
  /// gated until the network empties, then the image commits — the safe
  /// default for stateful programs (their per-node registers restart
  /// fresh, which no in-flight worm may straddle). Auto picks Immediate
  /// when static analysis proved the *new* program stateless, Quiescent
  /// otherwise. Rolling drains and commits one spatial shard
  /// (SimConfig::rolling_shards, plan_shards partition) at a time: only
  /// the currently-draining shard's uncommitted nodes stop injecting, and
  /// each flips to the new program the cycle it goes quiet — the rest of
  /// the fabric keeps running. The two programs coexist until the last
  /// shard commits, so Rolling is for swaps whose old and new programs
  /// may safely mix in flight (stateless programs under a shared escape
  /// layer — the same condition that makes Immediate sound, paid at
  /// per-shard granularity to bound how much of the fabric ever runs a
  /// half-installed rollout).
  enum class RuleSwapPolicy { Auto, Immediate, Quiescent, Rolling };

  /// Schedule a live rule-program swap at absolute cycle `at` (>= now).
  /// The network's routing algorithm must be a RuleDrivenRouting. Loading
  /// and compiling the new program (including the AOT table fill) is
  /// modeled off the router's critical path — the paper's reprogramming
  /// story: rule sets stream in while the old ones keep deciding — so
  /// only the commit costs simulated cycles, per the policy above. Swaps
  /// whose cycle falls beyond this run() stay armed for the next one.
  void schedule_rule_swap(Cycle at, std::string program_source,
                          RuleSwapPolicy policy = RuleSwapPolicy::Auto);

  /// Run warmup + measurement + drain. May be called repeatedly; the clock
  /// keeps advancing (fault injection between runs via quiesce()).
  SimResult run();

  /// Drain the network completely (no new injection). Returns false if the
  /// watchdog fired before it emptied.
  bool quiesce(Cycle limit = 100000);

  Cycle now() const { return now_; }

  /// Cumulative count of cycles whose network step was skipped because it
  /// could change nothing (a simulator-side perf counter; deliberately not
  /// part of SimResult, which equals a run that steps every cycle).
  Cycle idle_cycles_skipped() const { return skipped_cycles_; }

 private:
  /// Recovery controller states. Normal: injection open. Detecting: a
  /// fault fired, damage is live, the detection latency is running.
  /// Draining: quiescent diagnosis phase — injection gated, survivors
  /// drain, watchdog kills stuck worms; when the network is idle the
  /// pending damage is committed (epoch bump + reconfigure) and injection
  /// reopens.
  enum class RecoveryState { Normal, Detecting, Draining };

  /// The phases of run(). Every cycle of each goes through cycle(); the
  /// phase decides only whether fresh packets are offered (and measured),
  /// whether gated cycles count against availability, which watchdog
  /// watches, what a stall does, and the drain limit.
  enum class Phase { Warmup, Measure, Drain };

  /// One simulated cycle of `phase`, in the order all phases share: fire
  /// faults, update recovery, rule swaps, retry flush and injection behind
  /// the injection gate, skip or step, count deliveries, process losses,
  /// watchdog. `remaining` is the phase's leftover cycles (for the drain,
  /// its leftover drain_limit) and bounds a skip. Returns the cycles
  /// advanced; 0 when the drain gives up (deadlock suspected).
  Cycle cycle(Phase phase, Cycle remaining, SimResult& result);
  void inject_offered_load(bool measured);
  /// Longest skip from an inert cycle that draws no injection randomness:
  /// up to the first cycle on which something can change — the phase's
  /// end (`remaining`), the detection deadline, the next fault event, the
  /// next rule swap, or the cycle the armed watchdog of `phase` fires.
  /// Always >= 1.
  Cycle jump_span(Phase phase, Cycle remaining) const;
  /// The drain runs while this holds. The outstanding counter (fed by
  /// delivered_last_cycle) replaces a per-cycle rescan of every measured
  /// packet record. With the lifecycle armed the drain also runs any
  /// still-open recovery to completion (pending damage committed, retry
  /// queue flushed) so every measured packet ends delivered or
  /// unrecoverable; a swap mid-commit finishes too.
  bool drain_pending() const {
    return measured_outstanding_ > 0 || swap_draining_ || rolling_active_ ||
           (lifecycle_ && (rstate_ != RecoveryState::Normal ||
                           !retry_queue_.empty() || net_->recovery_pending()));
  }
  /// True when the drain watchdog counts this cycle: the network holds
  /// flits or queued injections. An empty network only waits (for the
  /// detection deadline, say) and is not stalled.
  bool drain_watched() const { return net_->packet_store().live_count() > 0; }
  /// Decrement the outstanding-measured counter for every measured packet
  /// the last step() delivered, so the drain never rescans records.
  void count_measured_deliveries();
  void refresh_components();

  // Live fault lifecycle steps (all no-ops when idle / not armed).
  void fire_due_faults(SimResult& result);
  void update_recovery(SimResult& result);
  void process_losses(SimResult& result);
  /// Resend queued lost packets (injection gate open); a retry whose
  /// source a rolling swap holds stays queued.
  void flush_retry_queue(SimResult& result);
  /// A watchdog fired: record the blocked chain (first time) and, with the
  /// lifecycle armed, kill the victim worm (Network::blocked_victim).
  /// Returns false when no worm was killed.
  bool structured_kill(SimResult& result);
  void capture_blocked_chain(SimResult& result);
  void finalize_unrecoverable(bool measured_root, SimResult& result);

  /// Start due swaps, run the quiescent gate, commit when allowed. Called
  /// by every cycle(); cheap no-op while nothing is due or draining.
  void process_rule_swaps(SimResult& result);
  bool swap_work_pending() const {
    return swap_draining_ || rolling_active_ || next_swap_ < swaps_.size();
  }
  /// True while node `n` must not inject: it belongs to the shard a
  /// rolling swap is currently draining and has not flipped yet.
  bool rolling_gated(NodeId n) const {
    return rolling_active_ &&
           rolling_plan_.shard_of[static_cast<std::size_t>(n)] ==
               static_cast<int>(rolling_shard_) &&
           rolling_committed_[static_cast<std::size_t>(n)] == 0;
  }

  void mark_measured(PacketId id) {
    if (static_cast<std::size_t>(id) >= measured_flag_.size())
      measured_flag_.resize(static_cast<std::size_t>(id) + 1, 0);
    measured_flag_[static_cast<std::size_t>(id)] = 1;
  }
  bool is_measured(PacketId id) const {
    return static_cast<std::size_t>(id) < measured_flag_.size() &&
           measured_flag_[static_cast<std::size_t>(id)] != 0;
  }

  Network* net_;
  TrafficPattern* traffic_;
  SimConfig cfg_;
  Rng rng_;
  Cycle now_ = 0;
  Cycle skipped_cycles_ = 0;
  std::vector<PacketId> measured_;
  /// Measured-packet flags by PacketId: originals from the measurement
  /// window plus their retransmissions. Replaces the old contiguous-id
  /// trick, which broke once resends interleave with measured sends.
  std::vector<char> measured_flag_;
  std::int64_t measured_outstanding_ = 0;
  /// Healthy-component cache for fault assumption iii checks: one
  /// components() pass per fault epoch instead of a BFS per injected
  /// packet.
  std::vector<int> conn_comp_;
  std::uint64_t conn_epoch_ = 0;
  bool conn_valid_ = false;

  /// Live fault lifecycle state.
  bool lifecycle_ = false;  // schedule set or structured watchdog enabled
  std::vector<FaultEvent> events_;
  std::size_t next_event_ = 0;
  RecoveryState rstate_ = RecoveryState::Normal;
  Cycle detect_at_ = 0;
  Cycle recovery_started_ = 0;
  std::size_t lost_cursor_ = 0;  // consumed prefix of Network::lost_log()
  std::vector<PacketId> retry_queue_;
  std::int64_t gated_measure_cycles_ = 0;
  /// Watchdogs: the Draining state's during warmup and measurement (reset
  /// as each diagnosis phase opens), and the drain's (armed as it starts,
  /// watching every cycle).
  StallWatch diagnosis_watch_;
  StallWatch drain_watch_;

  /// Scheduled rule swaps, sorted by cycle; the consumed prefix is
  /// [0, next_swap_). swap_draining_ marks an open quiescent gate.
  struct RuleSwap {
    Cycle at = 0;
    std::string source;
    RuleSwapPolicy policy = RuleSwapPolicy::Auto;
  };
  std::vector<RuleSwap> swaps_;
  std::size_t next_swap_ = 0;
  bool swap_draining_ = false;
  Cycle swap_started_ = 0;
  /// Rolling-commit state (RuleSwapPolicy::Rolling): shards are drained in
  /// plan order; a node flips the cycle it goes quiet. All mutation happens
  /// in the serial pre-step phase (process_rule_swaps).
  bool rolling_active_ = false;
  ShardPlan rolling_plan_;
  std::size_t rolling_shard_ = 0;
  std::vector<char> rolling_committed_;  // per node
};

}  // namespace flexrouter
