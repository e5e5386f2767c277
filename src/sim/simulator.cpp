#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "routing/rule_driven.hpp"
#include "topology/graph_algo.hpp"

namespace flexrouter {

namespace {

/// Exact latency order statistics without retaining every sample: packet
/// latencies are integral cycle counts, so values below kRange live in a
/// fixed count table (one slot per cycle) and only the rare tail beyond it
/// is kept verbatim. percentile() reproduces the sorted-sample linear
/// interpolation bit for bit, at O(kRange) memory instead of O(packets).
class LatencyQuantiles {
 public:
  static constexpr std::int64_t kRange = 4096;

  void add(double x) {
    const double floor_x = std::floor(x);
    if (x >= 0.0 && x < static_cast<double>(kRange) && floor_x == x) {
      ++counts_[static_cast<std::size_t>(x)];
    } else {
      // Tail (or non-integral, which the simulator never produces): every
      // counted value is an integer < kRange, so keeping the outliers
      // sorted keeps the merged order trivial.
      FR_ASSERT_MSG(x >= static_cast<double>(kRange),
                    "negative or fractional latency sample");
      outliers_.push_back(x);
      outliers_sorted_ = false;
    }
    ++count_;
  }

  std::int64_t count() const { return count_; }

  /// p in [0, 100]; same rank + interpolation rule as sorting all samples.
  double percentile(double p) const {
    FR_REQUIRE(p >= 0.0 && p <= 100.0);
    FR_REQUIRE_MSG(count_ > 0, "percentile of empty latency set");
    const double rank =
        p / 100.0 * static_cast<double>(count_ - 1);
    const auto i = static_cast<std::int64_t>(rank);
    const double frac = rank - static_cast<double>(i);
    if (i + 1 >= count_) return order_stat(count_ - 1);
    return order_stat(i) * (1.0 - frac) + order_stat(i + 1) * frac;
  }

 private:
  double order_stat(std::int64_t k) const {
    std::int64_t seen = 0;
    for (std::int64_t v = 0; v < kRange; ++v) {
      seen += counts_[static_cast<std::size_t>(v)];
      if (seen > k) return static_cast<double>(v);
    }
    if (!outliers_sorted_) {
      std::sort(outliers_.begin(), outliers_.end());
      outliers_sorted_ = true;
    }
    return outliers_[static_cast<std::size_t>(k - seen)];
  }

  std::int64_t counts_[kRange] = {};
  std::int64_t count_ = 0;
  mutable std::vector<double> outliers_;
  mutable bool outliers_sorted_ = true;
};

}  // namespace

std::string SimResult::to_string() const {
  std::ostringstream os;
  os << "delivered " << delivered_packets << "/" << injected_packets
     << " avg_lat=" << avg_latency << " p99=" << p99_latency
     << " thpt=" << throughput << " hops=" << avg_hops
     << " steps/dec=" << avg_decision_steps
     << " misrouted=" << misrouted_fraction * 100.0 << "%";
  // Recovery metrics only appear when the lifecycle did something, so
  // fault-free output stays byte-identical to earlier revisions.
  if (fault_events > 0 || packets_lost > 0 || worms_killed > 0) {
    os << " | faults=" << fault_events << " recoveries=" << recovery_events
       << " recovery_cycles=" << recovery_cycles << " lost=" << packets_lost
       << " retx=" << packets_retransmitted
       << " unrecoverable=" << packets_unrecoverable
       << " kills=" << worms_killed << " avail=" << availability;
    if (repair_events > 0) os << " repairs=" << repair_events;
    if (degrade_events > 0) os << " degrades=" << degrade_events;
  }
  // Swap metrics likewise appear only when a swap committed.
  if (rule_swaps > 0) {
    os << " | swaps=" << rule_swaps << " swap_gated=" << swap_gated_cycles;
    if (swap_gated_node_cycles > 0)
      os << " swap_gated_nodes=" << swap_gated_node_cycles;
  }
  if (deadlock_suspected) os << " [DEADLOCK SUSPECTED]";
  return os.str();
}

Simulator::Simulator(Network& net, TrafficPattern& traffic,
                     const SimConfig& cfg)
    : net_(&net), traffic_(&traffic), cfg_(cfg), rng_(cfg.seed) {
  lifecycle_ = cfg.structured_watchdog;
  retry_queue_.reserve(16);
}

void Simulator::set_fault_schedule(const FaultSchedule& schedule) {
  events_ = schedule.events();  // sorted copy
  next_event_ = 0;
  if (!events_.empty()) lifecycle_ = true;
}

void Simulator::schedule_rule_swap(Cycle at, std::string program_source,
                                   RuleSwapPolicy policy) {
  FR_REQUIRE_MSG(
      dynamic_cast<RuleDrivenRouting*>(&net_->algorithm()) != nullptr,
      "schedule_rule_swap needs a rule-driven routing algorithm");
  FR_REQUIRE_MSG(at >= now_, "rule swap scheduled in the past");
  RuleSwap s;
  s.at = at;
  s.source = std::move(program_source);
  s.policy = policy;
  const auto pos = std::upper_bound(
      swaps_.begin() + static_cast<std::ptrdiff_t>(next_swap_), swaps_.end(),
      s.at, [](Cycle a, const RuleSwap& b) { return a < b.at; });
  swaps_.insert(pos, std::move(s));
}

void Simulator::process_rule_swaps(SimResult& result) {
  if (!swap_work_pending()) return;
  if (!swap_draining_ && !rolling_active_) {
    if (next_swap_ >= swaps_.size() || swaps_[next_swap_].at > now_) return;
    const RuleSwap& s = swaps_[next_swap_];
    auto* rd = dynamic_cast<RuleDrivenRouting*>(&net_->algorithm());
    FR_REQUIRE_MSG(rd != nullptr,
                   "scheduled rule swap needs a rule-driven routing algorithm");
    // Build the pending image now (parse + compile + AOT fill); modeled as
    // concurrent with operation, so it costs no simulated cycles. A bad
    // program throws here, before any packet routes under it.
    if (!rd->swap_prepared()) rd->prepare_swap(s.source);
    if (s.policy == RuleSwapPolicy::Rolling) {
      rolling_active_ = true;
      swap_started_ = now_;
      const int shards = std::min(
          cfg_.rolling_shards < 1 ? 1 : cfg_.rolling_shards,
          static_cast<int>(net_->topology().num_nodes()));
      rolling_plan_ = plan_shards(net_->topology(), shards);
      rolling_shard_ = 0;
      rolling_committed_.assign(
          static_cast<std::size_t>(net_->topology().num_nodes()), 0);
      rd->begin_rolling_commit();
      // Fall through to the commit sweep: already-quiet nodes of the first
      // shard flip this very cycle.
    } else {
      const bool quiescent =
          s.policy == RuleSwapPolicy::Quiescent ||
          (s.policy == RuleSwapPolicy::Auto && !rd->swap_target_stateless());
      if (!quiescent) {
        // Immediate: commit between cycles, zero gated cycles. Sound for
        // stateless programs — every hop decides independently and deadlock
        // freedom lives in the host escape layer, which survives the swap.
        rd->commit_swap();
        ++next_swap_;
        ++result.rule_swaps;
        return;
      }
      swap_draining_ = true;  // open the quiescent gate (injection stops)
      swap_started_ = now_;
    }
  }
  if (swap_draining_ && net_->idle()) {
    auto* rd = dynamic_cast<RuleDrivenRouting*>(&net_->algorithm());
    FR_ASSERT(rd != nullptr);
    rd->commit_swap();
    swap_draining_ = false;
    ++next_swap_;
    ++result.rule_swaps;
    result.swap_gated_cycles += now_ - swap_started_;
    // The quiescent gate stops every node for the whole drain window — the
    // node-cycle figure Rolling is compared against.
    result.swap_gated_node_cycles +=
        (now_ - swap_started_) *
        static_cast<Cycle>(net_->topology().num_nodes());
  }
  if (rolling_active_) {
    auto* rd = dynamic_cast<RuleDrivenRouting*>(&net_->algorithm());
    FR_ASSERT(rd != nullptr);
    // Commit every quiet node of the draining shard; when the shard is
    // fully flipped move to the next (looping — the next shard may already
    // be quiet this same cycle).
    while (rolling_shard_ < static_cast<std::size_t>(rolling_plan_.num_shards)) {
      bool all_committed = true;
      for (const NodeId n : rolling_plan_.nodes[rolling_shard_]) {
        if (rolling_committed_[static_cast<std::size_t>(n)] != 0) continue;
        if (net_->node_quiet(n)) {
          rd->commit_swap_node(n);
          rolling_committed_[static_cast<std::size_t>(n)] = 1;
        } else {
          all_committed = false;
        }
      }
      if (!all_committed) break;
      ++rolling_shard_;
    }
    if (rolling_shard_ >= static_cast<std::size_t>(rolling_plan_.num_shards)) {
      rd->finish_rolling_commit();
      rolling_active_ = false;
      ++next_swap_;
      ++result.rule_swaps;
    } else {
      // Node-cycle downtime accounting: only the draining shard's
      // still-uncommitted nodes are injection-gated this cycle.
      Cycle gated = 0;
      for (const NodeId n : rolling_plan_.nodes[rolling_shard_])
        if (rolling_committed_[static_cast<std::size_t>(n)] == 0) ++gated;
      result.swap_gated_node_cycles += gated;
    }
  }
}

void Simulator::refresh_components() {
  const FaultSet& faults = net_->faults();
  if (!conn_valid_ || conn_epoch_ != faults.epoch()) {
    conn_comp_ = components(faults);
    conn_epoch_ = faults.epoch();
    conn_valid_ = true;
  }
}

void Simulator::inject_offered_load(bool measured) {
  const Topology& topo = net_->topology();
  const FaultSet& faults = net_->faults();
  // Healthy-component ids, recomputed once per fault epoch: the redraw
  // loop below asks "is dest reachable from n" per candidate, which as a
  // BFS (graph_algo connected()) dominated injection cost.
  refresh_components();
  const bool bimodal =
      cfg_.long_packet_length > 0 && cfg_.long_packet_fraction > 0.0;
  const double mean_length =
      bimodal ? (1.0 - cfg_.long_packet_fraction) * cfg_.packet_length +
                    cfg_.long_packet_fraction * cfg_.long_packet_length
              : static_cast<double>(cfg_.packet_length);
  const double packet_prob = cfg_.injection_rate / mean_length;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (faults.node_faulty(n)) continue;
    // Live-killed nodes are dead hardware even before the FaultSet catches
    // up at the next quiescent commit (gated on lifecycle_ so the fault-free
    // RNG stream is untouched).
    if (lifecycle_ && net_->node_live_killed(n)) continue;
    // A rolling swap gates only the draining shard's uncommitted nodes —
    // the availability win over the quiescent policy. Skipped before the
    // RNG draw, like the kill skip above; the gate set is deterministic
    // (plan + network state), so results stay bit-identical across
    // execution shard counts.
    if (rolling_gated(n)) continue;
    if (!rng_.next_bool(packet_prob)) continue;
    const int length = bimodal && rng_.next_bool(cfg_.long_packet_fraction)
                           ? cfg_.long_packet_length
                           : cfg_.packet_length;
    // Redraw until the destination is healthy and connected (fault
    // assumption iii); give up after a few tries (pattern may be stuck on a
    // faulty fixed destination).
    for (int attempt = 0; attempt < 8; ++attempt) {
      const NodeId dest = traffic_->dest(n, rng_);
      if (dest == n || !faults.node_ok(dest)) continue;
      if (lifecycle_ && net_->node_live_killed(dest)) continue;
      if (conn_comp_[static_cast<std::size_t>(n)] !=
          conn_comp_[static_cast<std::size_t>(dest)])
        continue;
      const PacketId id = net_->send(n, dest, length, now_);
      if (measured) {
        measured_.push_back(id);
        mark_measured(id);
        ++measured_outstanding_;
      }
      break;
    }
  }
}

Cycle Simulator::jump_span(Phase phase, Cycle remaining) const {
  // A drain whose work this cycle's recovery update finished ends after
  // this cycle.
  if (phase == Phase::Drain && !drain_pending()) return 1;
  Cycle jump = remaining;
  const auto bound = [&jump](Cycle c) { jump = std::min(jump, c); };
  // update_recovery left Detecting only with detect_at_ > now_, and
  // fire_due_faults drained every event with at <= now_, so both bounds are
  // strictly ahead.
  if (rstate_ == RecoveryState::Detecting) bound(detect_at_ - now_);
  if (next_event_ < events_.size()) bound(events_[next_event_].at - now_);
  // The next swap starts at its cycle, or next cycle if it is already due
  // (one starts per cycle). A quiescent swap mid-drain commits only on an
  // idle network, which an inert cycle either already is (and it committed
  // this cycle) or stays not.
  if (next_swap_ < swaps_.size() && !swap_draining_)
    bound(std::max<Cycle>(swaps_[next_swap_].at - now_, 1));
  const std::int64_t moved = net_->total_flit_movements();
  if (phase == Phase::Drain) {
    if (drain_watched())
      bound(drain_watch_.until_stalled(moved, cfg_.watchdog_window));
  } else if (rstate_ == RecoveryState::Draining) {
    bound(diagnosis_watch_.until_stalled(moved, cfg_.watchdog_window));
  }
  return std::max<Cycle>(jump, 1);
}

void Simulator::count_measured_deliveries() {
  for (const PacketId id : net_->delivered_last_cycle())
    if (is_measured(id)) --measured_outstanding_;
}

Cycle Simulator::cycle(Phase phase, Cycle remaining, SimResult& result) {
  const bool drain = phase == Phase::Drain;
  if (drain && remaining <= 0) {  // drain_limit exhausted
    capture_blocked_chain(result);
    result.deadlock_suspected = true;
    return 0;
  }
  if (lifecycle_) {
    fire_due_faults(result);
    update_recovery(result);
  }
  process_rule_swaps(result);
  // The one injection gate, for fresh and retried packets alike: shut
  // while a diagnosis phase or a quiescent swap drain is open (a rolling
  // swap gates single nodes on top, see rolling_gated).
  const bool open = rstate_ == RecoveryState::Normal && !swap_draining_;
  const bool draws = open && !drain;
  if (open && lifecycle_) flush_retry_queue(result);
  if (draws) inject_offered_load(phase == Phase::Measure);
  // The one time-advance rule. A cycle that begins with no router active
  // and no injection pending changes nothing but the clock: parked routers
  // repeat their last quiet step, which skip_cycle accounts by the span.
  // A cycle that drew injection randomness advances alone; any other inert
  // cycle jumps to the first cycle on which something can change. A
  // rolling swap's gate accounting ticks per cycle, so it advances alone
  // too.
  Cycle span = 1;
  if (net_->inert()) {
    if (!draws && !rolling_active_) span = jump_span(phase, remaining);
    net_->skip_cycle(span);
    skipped_cycles_ += span;
  } else {
    net_->step(now_);
    count_measured_deliveries();
    if (lifecycle_) process_losses(result);
  }
  now_ += span;
  // Availability counts the measurement window's gated cycles, skipped
  // ones included (the gate cannot change during a skip).
  if (phase == Phase::Measure && !open) gated_measure_cycles_ += span;
  const std::int64_t moved = net_->total_flit_movements();
  if (drain) {
    // The drain watches every cycle the network holds flits; a stall with
    // nothing to kill means the network is stuck for good. An empty
    // network re-arms the watch: it is waiting, not stalled.
    if (!drain_watched()) {
      drain_watch_.arm(moved);
    } else if (drain_watch_.stalled(moved, cfg_.watchdog_window, span) &&
               !structured_kill(result)) {
      result.deadlock_suspected = true;
      return 0;
    }
  } else if (rstate_ == RecoveryState::Draining &&
             diagnosis_watch_.stalled(moved, cfg_.watchdog_window, span)) {
    // Worms wedged behind live damage: kill one so the diagnosis drain
    // can complete.
    structured_kill(result);
  }
  return span;
}

SimResult Simulator::run() {
  measured_.clear();
  std::fill(measured_flag_.begin(), measured_flag_.end(), 0);
  measured_outstanding_ = 0;
  retry_queue_.clear();
  gated_measure_cycles_ = 0;
  lost_cursor_ = net_->lost_log().size();
  diagnosis_watch_.reset();
  SimResult result;

  const RouterStats before = net_->aggregate_stats();

  for (Cycle left = cfg_.warmup_cycles; left > 0;)
    left -= cycle(Phase::Warmup, left, result);
  for (Cycle left = cfg_.measure_cycles; left > 0;)
    left -= cycle(Phase::Measure, left, result);
  // Drain: no further offered load, until drain_pending() clears.
  drain_watch_.arm(net_->total_flit_movements());
  for (Cycle left = cfg_.drain_limit + 1; drain_pending();) {
    const Cycle span = cycle(Phase::Drain, left, result);
    if (span == 0) break;
    left -= span;
  }

  // Collect metrics over measured packets — a single pass: latency sum,
  // quantiles and the split by misroute mark all come from the same loop.
  // Retry chains resolve to the final attempt: latency spans the original
  // creation to the final delivery (the abort-and-retransmit penalty is
  // real latency), hops/misroute come from the attempt that got through.
  LatencyQuantiles latency;
  StreamingStats hops, ratio, lat_misrouted, lat_direct;
  std::int64_t delivered = 0, misrouted = 0, delivered_flits = 0;
  double latency_sum = 0.0;
  for (const PacketId id : measured_) {
    const PacketRecord& orig = net_->record(id);
    if (orig.retry_of >= 0) continue;  // resends fold into their root
    const PacketRecord* rec = &orig;
    if (orig.last_attempt >= 0) rec = &net_->record(orig.last_attempt);
    if (!rec->done()) continue;
    ++delivered;
    delivered_flits += rec->length;
    const auto lat = static_cast<double>(rec->delivered - orig.created);
    latency.add(lat);
    latency_sum += lat;
    (rec->misrouted ? lat_misrouted : lat_direct).add(lat);
    hops.add(rec->hops);
    const int min_hops = net_->topology().distance(rec->src, rec->dest);
    if (min_hops > 0)
      ratio.add(static_cast<double>(rec->hops) / min_hops);
    misrouted += rec->misrouted ? 1 : 0;
  }

  result.injected_packets = static_cast<std::int64_t>(measured_.size());
  result.delivered_packets = delivered;
  if (delivered > 0) {
    result.avg_latency = latency_sum / static_cast<double>(delivered);
    result.p50_latency = latency.percentile(50);
    result.p99_latency = latency.percentile(99);
    result.avg_hops = hops.mean();
    result.min_hops_ratio = ratio.count() > 0 ? ratio.mean() : 0.0;
    result.misrouted_fraction =
        static_cast<double>(misrouted) / static_cast<double>(delivered);
    result.avg_latency_misrouted =
        lat_misrouted.count() > 0 ? lat_misrouted.mean() : 0.0;
    result.avg_latency_direct =
        lat_direct.count() > 0 ? lat_direct.mean() : 0.0;
  }
  const auto healthy_nodes = static_cast<double>(
      net_->topology().num_nodes() - net_->faults().num_node_faults());
  result.throughput =
      healthy_nodes > 0 && cfg_.measure_cycles > 0
          ? static_cast<double>(delivered_flits) /
                (healthy_nodes * static_cast<double>(cfg_.measure_cycles))
          : 0.0;

  const RouterStats after = net_->aggregate_stats();
  const std::int64_t decisions = after.packets_routed - before.packets_routed;
  result.avg_decision_steps =
      decisions > 0 ? static_cast<double>(after.decision_steps -
                                          before.decision_steps) /
                          static_cast<double>(decisions)
                    : 0.0;
  result.cycles_run = now_;
  result.availability =
      cfg_.measure_cycles > 0
          ? 1.0 - static_cast<double>(gated_measure_cycles_) /
                      static_cast<double>(cfg_.measure_cycles)
          : 1.0;
  return result;
}

void Simulator::fire_due_faults(SimResult& result) {
  while (next_event_ < events_.size() && events_[next_event_].at <= now_) {
    const FaultEvent& e = events_[next_event_++];
    // Kills always open a recovery window; repairs only when they queued a
    // revival (repairing a healthy resource is a no-op, not a diagnosis);
    // fail-slow degradation is applied live and never opens one.
    bool opens_recovery = false;
    switch (e.kind) {
      case FaultEvent::Kind::LinkFault:
        net_->kill_link_live(e.node, e.port);
        ++result.fault_events;
        opens_recovery = true;
        break;
      case FaultEvent::Kind::NodeFault:
        net_->kill_node_live(e.node);
        ++result.fault_events;
        opens_recovery = true;
        break;
      case FaultEvent::Kind::LinkRepair:
        if (net_->repair_link_live(e.node, e.port)) {
          ++result.repair_events;
          opens_recovery = true;
        }
        break;
      case FaultEvent::Kind::NodeRepair:
        if (net_->repair_node_live(e.node)) {
          ++result.repair_events;
          opens_recovery = true;
        }
        break;
      case FaultEvent::Kind::LinkDegrade:
        net_->degrade_link_live(e.node, e.port, e.factor);
        ++result.degrade_events;
        break;
    }
    if (opens_recovery && rstate_ == RecoveryState::Normal) {
      rstate_ = RecoveryState::Detecting;
      detect_at_ = now_ + cfg_.detection_delay;
      recovery_started_ = now_;
    }
  }
}

void Simulator::update_recovery(SimResult& result) {
  if (rstate_ == RecoveryState::Detecting && now_ >= detect_at_) {
    rstate_ = RecoveryState::Draining;
    ++result.recovery_events;
    diagnosis_watch_.reset();
  }
  if (rstate_ == RecoveryState::Draining && net_->idle()) {
    if (net_->recovery_pending())
      result.reconfig_exchanges += net_->commit_pending_faults();
    result.recovery_cycles += now_ - recovery_started_;
    result.recovery_durations.push_back(now_ - recovery_started_);
    rstate_ = RecoveryState::Normal;
  }
}

void Simulator::process_losses(SimResult& result) {
  const std::vector<PacketId>& log = net_->lost_log();
  for (; lost_cursor_ < log.size(); ++lost_cursor_) {
    const PacketId id = log[lost_cursor_];
    const PacketRecord& rec = net_->record(id);
    const PacketId root = rec.retry_of >= 0 ? rec.retry_of : id;
    const bool meas = is_measured(root);
    if (meas) ++result.packets_lost;
    if (net_->record(root).retries >= cfg_.max_retries) {
      finalize_unrecoverable(meas, result);
    } else {
      retry_queue_.push_back(id);
    }
  }
}

void Simulator::flush_retry_queue(SimResult& result) {
  if (retry_queue_.empty()) return;
  refresh_components();
  const FaultSet& faults = net_->faults();
  std::size_t held = 0;
  for (const PacketId id : retry_queue_) {
    const PacketRecord& rec = net_->record(id);
    if (rolling_gated(rec.src)) {  // same per-node gate as fresh packets
      retry_queue_[held++] = id;
      continue;
    }
    const PacketId root = rec.retry_of >= 0 ? rec.retry_of : id;
    const bool meas = is_measured(root);
    // Endpoint health and connectivity re-checked against the
    // post-reconfiguration fault picture: a retry toward dead or
    // unreachable hardware is abandoned at the source.
    if (!faults.node_ok(rec.src) || !faults.node_ok(rec.dest) ||
        net_->node_live_killed(rec.src) || net_->node_live_killed(rec.dest) ||
        conn_comp_[static_cast<std::size_t>(rec.src)] !=
            conn_comp_[static_cast<std::size_t>(rec.dest)]) {
      finalize_unrecoverable(meas, result);
      continue;
    }
    const PacketId nid = net_->resend(id, now_);
    if (meas) {
      mark_measured(nid);
      ++result.packets_retransmitted;
    }
  }
  retry_queue_.resize(held);
}

bool Simulator::structured_kill(SimResult& result) {
  capture_blocked_chain(result);
  if (!lifecycle_) return false;
  // Killing any one member of the chain breaks it; its buffers free hop by
  // hop as the poisoned flits drain, which restarts everyone behind it.
  const PacketId victim = net_->blocked_victim();
  if (victim < 0) return false;
  net_->kill_packet(victim);
  ++result.worms_killed;
  return true;
}

void Simulator::capture_blocked_chain(SimResult& result) {
  if (!result.blocked_chain.empty()) return;
  for (const Network::BlockedChannel& c : net_->blocked_chain())
    result.blocked_chain.push_back({c.node, c.port, c.vc, c.packet});
}

void Simulator::finalize_unrecoverable(bool measured_root,
                                       SimResult& result) {
  if (measured_root) {
    ++result.packets_unrecoverable;
    --measured_outstanding_;
  }
}

bool Simulator::quiesce(Cycle limit) {
  // Step-only: no faults fire, nothing is injected, no losses are
  // processed. With the lifecycle armed the stall watchdog victim-kills
  // instead of giving up: quiesce() must be able to empty a network whose
  // unmeasured worms are wedged (run() only guarantees the measured ones).
  // Kills are recorded into a scratch result — quiesce() has no metrics
  // to report.
  StallWatch watch;
  watch.arm(net_->total_flit_movements());
  SimResult scratch;
  for (Cycle c = 0; c < limit && !net_->idle(); ++c) {
    net_->step(now_++);
    if (watch.stalled(net_->total_flit_movements(), cfg_.watchdog_window) &&
        !structured_kill(scratch))
      return false;
  }
  return net_->idle();
}

}  // namespace flexrouter
