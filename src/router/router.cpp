#include "router/router.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace flexrouter {

RouterArray::RouterArray(const Topology& topo, const RoutingAlgorithm& algo,
                         PacketStore& store, const RouterConfig& cfg,
                         ChannelTable& channels)
    : algo_(&algo),
      store_(&store),
      channels_(&channels),
      cfg_(cfg),
      degree_(topo.degree()),
      vcs_(algo.num_vcs()),
      ninputs_((degree_ + 1) * vcs_),
      words_((ninputs_ + 63) / 64),
      slots_(std::min(static_cast<int>(kMaxCandidates), ninputs_)) {
  FR_REQUIRE(vcs_ >= 1 && vcs_ == channels.num_vcs());
  // The Connection Unit tracks its input ports in one 64-bit mask.
  FR_REQUIRE(degree_ + 1 <= 64);
  // Occupancy is a byte in the VC record.
  FR_REQUIRE_MSG(cfg.buffer_depth >= 1 && cfg.buffer_depth <= 255 &&
                     cfg.injection_depth >= 1 && cfg.injection_depth <= 255,
                 "flit buffer depths must be in [1, 255]");
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  const auto nin = static_cast<std::size_t>(ninputs_);
  out_stride_ = static_cast<std::size_t>(degree_ * vcs_);
  fifo_base_.resize(nin);
  pool_stride_ = 0;
  for (int idx = 0; idx < ninputs_; ++idx) {
    fifo_base_[static_cast<std::size_t>(idx)] = pool_stride_;
    pool_stride_ += static_cast<std::size_t>(fifo_depth(idx));
  }
  masks_.assign(n * 3 * static_cast<std::size_t>(words_), 0);
  inputs_.assign(n * nin, InputVc{});
  candidates_.reset(new Candidate[n * nin * static_cast<std::size_t>(slots_)]);
  flits_.assign(n * pool_stride_, Flit{});
  outputs_.assign(n * out_stride_, OutputVc{});
  sa_last_grant_.assign(n * static_cast<std::size_t>(degree_ + 1), -1);
  stats_.assign(n, RouterStats{});
  flush();  // full credits on every connected port
}

RouterArray::SaScratch RouterArray::make_sa_scratch() const {
  SaScratch sa;
  sa.bucket.assign(static_cast<std::size_t>((degree_ + 1) * ninputs_),
                   ArbCandidate{});
  sa.count.assign(static_cast<std::size_t>(degree_ + 1), 0);
  return sa;
}

void RouterArray::push(const Row& r, int idx, const Flit& f) {
  InputVc& in = r.in[idx];
  const int depth = fifo_depth(idx);
  FR_REQUIRE_MSG(depth > 0, "push into a local VC that injection never uses");
  FR_REQUIRE_MSG(in.occ < depth,
                 "flit buffer overflow (credit protocol violated)");
  int pos = in.head + in.occ;
  if (pos >= depth) pos -= depth;
  r.pool[fifo_base_[static_cast<std::size_t>(idx)] +
         static_cast<std::size_t>(pos)] = f;
  ++in.occ;
  set_bit(r.occupied, idx);
}

Flit RouterArray::pop(const Row& r, int idx) {
  InputVc& in = r.in[idx];
  FR_REQUIRE(in.occ > 0);
  const Flit f = front(r, idx);
  in.head = static_cast<std::uint8_t>(
      in.head + 1 == fifo_depth(idx) ? 0 : in.head + 1);
  if (--in.occ == 0) clear_bit(r.occupied, idx);
  return f;
}

int RouterArray::injection_space(NodeId u) const {
  return cfg_.injection_depth - inputs_[at(u, in_index(degree_, 0))].occ;
}

void RouterArray::inject(NodeId u, const Flit& flit) {
  push(row(u), in_index(degree_, 0), flit);
}

bool RouterArray::empty(NodeId u) const {
  const std::uint64_t* occupied = masks(u);
  for (int w = 0; w < words_; ++w)
    if (occupied[w] != 0) return false;
  return true;
}

void RouterArray::reset(NodeId u) {
  std::fill_n(row(u).occupied, 3 * words_, 0);
  std::fill_n(&inputs_[in_row(u)], ninputs_, InputVc{});
  for (std::size_t i = 0; i < out_stride_; ++i) {
    OutputVc& o = outputs_[static_cast<std::size_t>(u) * out_stride_ + i];
    o.owned = 0;
    o.owner_slot = kInvalidPacketSlot;
    o.assigned_flits = 0;
  }
}

void RouterArray::flush() {
  const auto n = static_cast<NodeId>(stats_.size());
  for (NodeId u = 0; u < n; ++u) {
    reset(u);
    // Restore credits to full: the network guarantees links are drained.
    for (PortId p = 0; p < degree_; ++p)
      if (channels_->connected(channels_->slot(u, p)))
        for (VcId v = 0; v < vcs_; ++v)
          ovc(u, p, v).credits = cfg_.buffer_depth;
  }
}

void RouterArray::release_commitment(NodeId u, InputVc& in) {
  if (in.out_port != kInvalidPort && in.out_port != local_port()) {
    OutputVc& o = ovc(u, in.out_port, in.out_vc);
    o.owned = 0;
    o.owner_slot = kInvalidPacketSlot;
    o.assigned_flits = std::max(0, o.assigned_flits - in.committed);
  }
  in.out_port = kInvalidPort;
  in.out_vc = kInvalidVc;
  in.committed = 0;
}

void RouterArray::kill_output_port(NodeId u, PortId port,
                                   std::vector<PacketSlot>& orphaned) {
  FR_REQUIRE(port >= 0 && port < degree_);
  for (VcId v = 0; v < vcs_; ++v) {
    OutputVc& o = ovc(u, port, v);
    if (!o.owned) continue;
    orphaned.push_back(o.owner_slot);
    // Ownership is torn down here; the owner input VC's share of
    // assigned_flits is rolled back when its first poisoned flit drains
    // (release_commitment), or by flush() if the worm's remaining flits
    // were all destroyed elsewhere.
    o.owned = 0;
    o.owner_slot = kInvalidPacketSlot;
  }
}

void RouterArray::destroy_all_flits(NodeId u, std::vector<Flit>& destroyed) {
  const Row r = row(u);
  const auto occupied = [&r](int w) { return r.occupied[w]; };
  for_each_set_bit(words_, occupied, [&](int idx) {
    while (r.in[idx].occ != 0) destroyed.push_back(pop(r, idx));
  });
  reset(u);
}

void RouterArray::collect_stalled(NodeId u,
                                  std::vector<StalledVc>& out) const {
  const std::uint64_t* occupied = masks(u);
  const std::uint64_t* active = occupied + 2 * words_;
  const auto occupied_word = [occupied](int w) { return occupied[w]; };
  for_each_set_bit(words_, occupied_word, [&](int idx) {
    StalledVc s;
    s.node = u;
    s.port = idx / vcs_;
    s.vc = idx % vcs_;
    s.slot = front(u, idx).slot;
    s.packet = store_->header(s.slot).packet;
    s.active = test_bit(active, idx);
    if (s.active) {
      const InputVc& in = inputs_[at(u, idx)];
      s.out_port = in.out_port;
      s.out_vc = in.out_vc;
    }
    out.push_back(s);
  });
}

int RouterArray::output_credits(NodeId u, PortId port, VcId vc) const {
  FR_REQUIRE(port >= 0 && port <= degree_);
  FR_REQUIRE(vc >= 0 && vc < vcs_);
  if (port == degree_) return kEjectionSinkCredits;
  return ovc(u, port, vc).credits;
}

int RouterArray::output_assigned_data(NodeId u, PortId port) const {
  FR_REQUIRE(port >= 0 && port <= degree_);
  if (port == degree_) return 0;
  int total = 0;
  for (VcId v = 0; v < vcs_; ++v) total += ovc(u, port, v).assigned_flits;
  return total;
}

void RouterArray::check_ownership(NodeId u) const {
  const std::uint64_t* active = masks(u) + 2 * words_;
  const auto active_word = [active](int k) { return active[k]; };
  for (PortId p = 0; p < degree_; ++p) {
    for (VcId w = 0; w < vcs_; ++w) {
      const OutputVc& o = ovc(u, p, w);
      if (!o.owned) continue;
      int holders = 0;
      for_each_set_bit(words_, active_word, [&](int idx) {
        const InputVc& in = inputs_[at(u, idx)];
        if (in.out_port == p && in.out_vc == w) ++holders;
      });
      const std::string where = "VC ownership at node " + std::to_string(u) +
                                " port " + std::to_string(p) + " vc " +
                                std::to_string(w);
      FR_ASSERT_MSG(holders == 1, where + ": " + std::to_string(holders) +
                                      " active input VCs aimed at it");
      const InputVc& owner = inputs_[at(u, in_index(o.owner_port, o.owner_vc))];
      FR_ASSERT_MSG(owner.out_port == p && owner.out_vc == w,
                    where + ": the recorded owner is aimed elsewhere");
    }
  }
}

void RouterArray::check_masks(NodeId u) const {
  const std::uint64_t* stored = masks(u);
  for (int w = 0; w < words_; ++w) {
    std::uint64_t occupied = 0, routing = 0, active = 0;
    for (int b = 0; b < 64 && w * 64 + b < ninputs_; ++b) {
      const InputVc& in = inputs_[at(u, w * 64 + b)];
      const std::uint64_t bit = std::uint64_t{1} << b;
      if (in.occ != 0) occupied |= bit;
      if (in.num_candidates != 0) routing |= bit;
      if (in.out_port != kInvalidPort) active |= bit;
    }
    const auto where = [u, w](const char* what) {
      return "VC-state masks at node " + std::to_string(u) + " word " +
             std::to_string(w) + ": " + what;
    };
    FR_ASSERT_MSG(stored[w] == occupied,
                  where("occupied disagrees with the buffered flits"));
    FR_ASSERT_MSG(stored[words_ + w] == routing,
                  where("routing disagrees with the RC candidates"));
    FR_ASSERT_MSG(stored[2 * words_ + w] == active,
                  where("active disagrees with the committed outputs"));
    FR_ASSERT_MSG((routing & active) == 0,
                  where("a VC is both routing and active"));
    FR_ASSERT_MSG((routing & ~occupied) == 0,
                  where("a routing VC has no head flit"));
  }
}

void RouterArray::check_candidates(NodeId u) const {
  const std::uint64_t* routing = masks(u) + words_;
  const auto where = [u](int idx, const std::string& what) {
    return "RC candidates at node " + std::to_string(u) + " input VC " +
           std::to_string(idx) + ": " + what;
  };
  const auto routing_word = [routing](int w) { return routing[w]; };
  for_each_set_bit(words_, routing_word, [&](int idx) {
    const int n = inputs_[at(u, idx)].num_candidates;
    FR_ASSERT_MSG(n >= 1 && n <= slots_,
                  where(idx, std::to_string(n) + " entries for " +
                                 std::to_string(slots_) + " slots"));
    const Candidate* cands = candidate_row(u, idx);
    for (int k = 0; k < n; ++k) {
      FR_ASSERT_MSG(cands[k].port >= 0 && cands[k].port <= degree_ &&
                        cands[k].vc >= 0 && cands[k].vc < vcs_,
                    where(idx, "entry " + std::to_string(k) +
                                   " out of range"));
      for (int j = 0; j < k; ++j)
        FR_ASSERT_MSG(cands[j].port != cands[k].port ||
                          cands[j].vc != cands[k].vc,
                      where(idx, "entries " + std::to_string(j) + " and " +
                                     std::to_string(k) +
                                     " name one (port, VC) pair"));
    }
  });
}

bool RouterArray::accept_arrivals(NodeId u, Cycle now) {
  const std::uint64_t busy = channels_->busy_ports(u);
  if (busy == 0) return false;
  const Row r = row(u);
  const int vcs = vcs_;
  const std::size_t s0 = channels_->slot(u, 0);
  for (std::uint64_t m = busy; m != 0; m &= m - 1) {
    const PortId p = std::countr_zero(m);
    const std::size_t s = s0 + static_cast<std::size_t>(p);
    VcId vc;
    Flit flit;
    if (channels_->receive_flit(s, now, vc, flit))
      push(r, p * vcs + vc, flit);
    for (std::uint32_t credits = channels_->receive_credits(s, now);
         credits != 0; credits &= credits - 1) {
      OutputVc& o = r.out[p * vcs + std::countr_zero(credits)];
      ++o.credits;
      FR_ASSERT_MSG(o.credits <= cfg_.buffer_depth, "credit overflow");
    }
  }
  return true;
}

int RouterArray::stage_drain_poisoned(NodeId u, Cycle now,
                                      std::vector<Flit>& dropped) {
  // Poisoned-tail semantics, hop by hop: each cycle, every input VC whose
  // front flit belongs to a truncated worm drops that flit, returns the
  // credit upstream, and (on the first drop) releases the worm's VA
  // commitment — output VC ownership, crossbar eligibility, assigned
  // data — exactly as a real poisoned tail flit would on its way through.
  // One flit per VC per cycle, matching the link's one-credit-per-VC
  // bitmask encoding.
  const Row r = row(u);
  int drops = 0;
  const auto occupied = [&r](int w) { return r.occupied[w]; };
  for_each_set_bit(words_, occupied, [&](int idx) {
    if (!store_->poisoned(front(r, idx).slot)) return;
    const Flit f = pop(r, idx);
    ++stats_[static_cast<std::size_t>(u)].flits_dropped;
    ++drops;
    const PortId p = idx / vcs_;
    if (p < degree_)
      channels_->send_credit(channels_->slot(u, p), now, idx % vcs_);
    InputVc& in = r.in[idx];
    if (test_bit(r.active, idx)) release_commitment(u, in);
    in.num_candidates = 0;
    clear_bit(r.routing, idx);
    clear_bit(r.active, idx);
    dropped.push_back(f);
  });
  return drops;
}

// VA grants the earliest candidate with the highest score. Whether it can
// grant a candidate at all depends only on the candidate's (port, VC) pair,
// and its score is priority x 4096 plus a load term of that pair, so
// among the entries of one pair the first of the highest priority beats or
// precedes every other: no other entry of that pair can be the grant. The
// fold keeps exactly those entries, in decision order. A repeat of higher
// priority removes the kept entry and is appended at the end, behind every
// entry kept so far, all of which came earlier in the decision; any other
// repeat is dropped. VA over the folded list therefore grants what it would
// grant over the whole decision. Replacing the kept entry in place would
// not: for A(p1, prio 1), B(p2, 2), A'(p1, 2) at equal load VA grants B,
// but over [A', B] it would grant A'. A router names at most ninputs_
// distinct pairs, which bounds the folded list by slots_.
int RouterArray::fold_candidate(Candidate* cands, int n,
                                const RouteCandidate& c) const {
  for (int k = 0; k < n; ++k) {
    if (cands[k].port != c.port || cands[k].vc != c.vc) continue;
    if (c.priority <= cands[k].priority) return n;
    std::copy(cands + k + 1, cands + n, cands + k);
    cands[n - 1] = {c.priority, static_cast<std::int8_t>(c.port),
                    static_cast<std::int8_t>(c.vc)};
    return n;
  }
  FR_ASSERT_MSG(n < slots_, "more distinct (port, VC) pairs than input VCs");
  cands[n] = {c.priority, static_cast<std::int8_t>(c.port),
              static_cast<std::int8_t>(c.vc)};
  return n + 1;
}

bool RouterArray::stage_rc(NodeId u, bool poison_active) {
  const Row r = row(u);
  const auto idle_occupied = [&r](int w) {
    return r.occupied[w] & ~(r.routing[w] | r.active[w]);
  };
  bool found = false;
  for_each_set_bit(words_, idle_occupied, [&](int idx) {
    found = true;
    const Flit& flit = front(r, idx);
    // A truncated worm's flits wait for the drain stage; they may be body
    // flits at the front of an idle VC, which is unreachable otherwise.
    if (poison_active && store_->poisoned(flit.slot)) return;
    FR_ASSERT_MSG(flit.head(), "non-head flit at the head of an idle VC");

    RouteContext ctx;
    ctx.node = u;
    ctx.in_port = idx / vcs_;
    ctx.in_vc = idx % vcs_;
    const Header& hdr = MessageInterface::extract(*store_, flit);
    ctx.src = hdr.src;
    ctx.dest = hdr.dest;
    ctx.path_len = hdr.path_len;
    ctx.misrouted = hdr.misrouted;

    const RouteDecision decision = algo_->route(ctx);
    RouterStats& stats = stats_[static_cast<std::size_t>(u)];
    stats.decision_steps += decision.steps;
    ++stats.packets_routed;

    // Lifelock guard: over-budget messages are restricted to the escape
    // layer, whose deterministic routing always terminates.
    const bool escape_only = ctx.path_len > algo_->max_path_len();
    Candidate* cands = candidate_row(u, idx);
    int n = 0;
    for (const RouteCandidate& c : decision.candidates) {
      FR_REQUIRE(c.port >= 0 && c.port <= degree_);
      FR_REQUIRE(c.vc >= 0 && c.vc < vcs_);
      if (!escape_only || c.port == local_port() || algo_->is_escape_vc(c.vc))
        n = fold_candidate(cands, n, c);
    }
    if (n == 0) {
      ++stats.rc_no_candidates;  // retry next cycle
      return;
    }
    InputVc& in = r.in[idx];
    in.num_candidates = static_cast<std::uint8_t>(n);
    in.rc_wait = decision.steps - 1;
    in.mark_misrouted = decision.mark_misrouted;
    set_bit(r.routing, idx);
  });
  return found;
}

bool RouterArray::stage_va(NodeId u) {
  const Row r = row(u);
  const int vcs = vcs_;
  const PortId local = degree_;
  const std::size_t s0 = channels_->slot(u, 0);
  const auto routing = [&r](int w) { return r.routing[w]; };
  bool progressed = false;
  for_each_set_bit(words_, routing, [&](int idx) {
    InputVc& in = r.in[idx];
    if (in.rc_wait > 0) {
      --in.rc_wait;  // multi-interpretation decision still in progress
      progressed = true;
      return;
    }
    // Sort candidates by (priority, free credits) and take the best free
    // output VC — the adaptivity selection. A VC is only granted when it
    // has at least one credit: committing a head to a credit-less channel
    // would strand it in a state where the escape option is gone, voiding
    // the Duato deadlock-freedom argument (a blocked head must always be
    // able to re-select, and with a credit the head is guaranteed to move
    // into the downstream buffer, where it routes afresh).
    const Candidate* cands = candidate_row(u, idx);
    const Candidate* best = nullptr;
    int best_score = 0;
    for (int k = 0; k < in.num_candidates; ++k) {
      const Candidate& c = cands[k];  // in range: checked at RC
      // Information Units report link faults to their endpoints at once
      // (Figure 3): a VC on a dead channel is never granted, even before
      // the control plane's quiescent reconfiguration catches up.
      int credits = kEjectionSinkCredits;
      if (c.port != local) {
        if (!channels_->usable(s0 + static_cast<std::size_t>(c.port)))
          continue;
        const OutputVc& o = r.out[c.port * vcs + c.vc];
        if (o.owned) continue;
        credits = o.credits;
      }
      if (credits <= 0) continue;
      // Adaptivity selection: router-visible load ranks equal-priority
      // candidates. Credits = free downstream buffer space; AssignedData
      // additionally penalises outputs already committed to long worms
      // (the paper's out_queue criterion).
      int load_score = std::min(credits, 1023);
      if (cfg_.adaptivity == AdaptivityCriterion::AssignedData)
        load_score -= 4 * std::min(output_assigned_data(u, c.port), 200);
      const int score = c.priority * 4096 + load_score;
      if (best == nullptr || score > best_score) {
        best = &c;
        best_score = score;
      }
    }
    if (best == nullptr) {
      ++stats_[static_cast<std::size_t>(u)].va_retries;
      return;
    }
    in.out_port = best->port;
    in.out_vc = best->vc;
    if (best->port != local) {
      OutputVc& o = r.out[best->port * vcs + best->vc];
      o.owned = 1;
      o.owner_port = static_cast<std::int8_t>(idx / vcs);
      o.owner_vc = static_cast<std::int8_t>(idx % vcs);
      o.owner_slot = front(r, idx).slot;
      // The whole message is now committed to this output; wormhole
      // switching knows its length up front (Section 2.2). `committed`
      // mirrors the worm's share so a truncation can roll it back.
      const int length = store_->header(o.owner_slot).length;
      o.assigned_flits += length;
      in.committed = length;
    }
    in.num_candidates = 0;
    clear_bit(r.routing, idx);
    set_bit(r.active, idx);
    progressed = true;
  });
  return progressed;
}

int RouterArray::stage_sa_st(NodeId u, Cycle now, SaScratch& sa,
                             std::vector<Flit>& ejected, bool& throttled) {
  const Row r = row(u);
  const auto requesting = [&r](int w) { return r.active[w] & r.occupied[w]; };
  const int nin = ninputs_;
  const int vcs = vcs_;
  const PortId local = degree_;
  const std::size_t s0 = channels_->slot(u, 0);
  ArbCandidate* const bucket = sa.bucket.data();
  int* const count = sa.count.data();
  // Gather: one ascending pass over the input VCs buckets SA requests by
  // their committed output (each active VC targets exactly one port, so
  // buckets partition the inputs and stay sorted by index). Credits and
  // the misroute boost are stable across this cycle's grants — an earlier
  // output's grant only decrements its own credit counter and only pops
  // the granted VC — so evaluating them here, before any grant, is
  // equivalent to a per-output rescan.
  std::fill_n(count, local + 1, 0);
  int requests = 0;
  for_each_set_bit(words_, requesting, [&](int idx) {
    const InputVc& in = r.in[idx];
    const PortId out = in.out_port;
    if (out != local) {
      if (r.out[out * vcs + in.out_vc].credits <= 0) return;
      // Fail-slow: a throttled link refuses the wire until its duty cycle
      // allows another flit; the worm stalls in place (backpressure), it
      // is never destroyed.
      if (!channels_->can_accept(s0 + static_cast<std::size_t>(out), now)) {
        throttled = true;
        return;
      }
    }
    // Misroute boost applies to the head flit only. Pre-store flits
    // carried a header copy frozen at injection time, so body flits
    // always saw misrouted == false; keep that arbitration behaviour
    // even though the shared header may flip mid-flight.
    const Flit& f = front(r, idx);
    const int prio = f.head() && store_->header(f.slot).misrouted
                         ? cfg_.misroute_priority_boost
                         : 0;
    bucket[out * nin + count[out]++] = {idx, prio};
    ++requests;
  });
  if (requests == 0) return 0;
  // Arbitrate per output port in ascending order; misrouted messages got
  // their priority boost at gather time. The Connection Unit (Figure 3)
  // switches at most one flit per output port (one winner per output) and
  // one per input port (`inputs_used`) each cycle.
  RouterStats& stats = stats_[static_cast<std::size_t>(u)];
  int* const last_grant = &sa_last_grant_[static_cast<std::size_t>(u) *
                                          static_cast<std::size_t>(local + 1)];
  std::uint64_t inputs_used = 0;
  int moved = 0;
  for (PortId out = 0; out <= local; ++out) {
    if (count[out] == 0) continue;
    ArbCandidate* cands = &bucket[out * nin];
    // Drop candidates whose input port was claimed by an earlier output
    // (another VC of the same port won there).
    int kept = 0;
    for (int k = 0; k < count[out]; ++k)
      if ((inputs_used >> (cands[k].idx / vcs) & 1) == 0)
        cands[kept++] = cands[k];
    const int winner = round_robin_pick(cands, kept, last_grant[out]);
    if (winner < 0) continue;
    const PortId p = winner / vcs;
    const VcId v = winner % vcs;
    InputVc& in = r.in[winner];
    // Only a consumed grant advances the round-robin pointer: a winner
    // that could not use its slot would keep its fairness turn.
    last_grant[out] = winner;
    inputs_used |= std::uint64_t{1} << p;

    const Flit flit = pop(r, winner);
    ++moved;
    // Return a credit upstream for the freed buffer slot.
    if (p < local)
      channels_->send_credit(s0 + static_cast<std::size_t>(p), now, v);

    if (out == local) {
      ++stats.flits_ejected;
      if (flit.tail()) {
        clear_bit(r.active, winner);
        in.out_port = kInvalidPort;
      }
      ejected.push_back(flit);
      continue;
    }

    if (flit.head())
      stats.header_updates += MessageInterface::update_on_forward(
          *store_, flit, in.mark_misrouted != 0);

    OutputVc& o = r.out[out * vcs + in.out_vc];
    --o.credits;
    if (o.assigned_flits > 0) --o.assigned_flits;
    if (in.committed > 0) --in.committed;
    channels_->send_flit(s0 + static_cast<std::size_t>(out), now, in.out_vc,
                         flit);
    ++stats.flits_forwarded;

    if (flit.tail()) {
      o.owned = 0;
      o.owner_slot = kInvalidPacketSlot;
      clear_bit(r.active, winner);
      in.out_port = kInvalidPort;
      in.committed = 0;
    }
  }
  return moved;
}

RouterArray::StepOutcome RouterArray::step(NodeId u, Cycle now, SaScratch& sa,
                                           std::vector<Flit>& ejected,
                                           std::vector<Flit>& dropped) {
  // Truncation work is rare (only after a live fault), so the drain stage
  // is gated on the store's poisoned-live count and costs nothing in the
  // fault-free steady state.
  const bool poison_active = store_->poisoned_live() != 0;
  const bool arrived = accept_arrivals(u, now);
  StepOutcome out;
  if (poison_active) out.moved += stage_drain_poisoned(u, now, dropped);
  bool throttled = false;
  // Move established flows first.
  out.moved += stage_sa_st(u, now, sa, ejected, throttled);
  const bool allocated = stage_va(u);
  const bool routed = stage_rc(u, poison_active);
  out.quiet = !arrived && !poison_active && out.moved == 0 && !throttled &&
              !allocated && !routed;
  return out;
}

int RouterArray::quiet_step_retries(NodeId u) const {
  const std::uint64_t* routing = masks(u) + words_;
  int n = 0;
  for (int w = 0; w < words_; ++w) n += std::popcount(routing[w]);
  return n;
}

void RouterArray::check_parked(NodeId u) const {
  const std::uint64_t* occupied = masks(u);
  const std::uint64_t* routing = occupied + words_;
  const std::uint64_t* active = occupied + 2 * words_;
  const std::size_t s0 = channels_->slot(u, 0);
  const auto where = [u](int idx, const char* what) {
    return "parked router " + std::to_string(u) + " input VC " +
           std::to_string(idx) + ": " + what;
  };
  const auto idle = [occupied, routing, active](int w) {
    return occupied[w] & ~(routing[w] | active[w]);
  };
  for_each_set_bit(words_, idle, [&](int idx) {
    FR_ASSERT_MSG(false, where(idx, "an idle head waits for RC"));
  });
  const auto routing_word = [routing](int w) { return routing[w]; };
  for_each_set_bit(words_, routing_word, [&](int idx) {
    const InputVc& in = inputs_[at(u, idx)];
    FR_ASSERT_MSG(in.rc_wait == 0, where(idx, "an RC stall is still running"));
    const Candidate* cands = candidate_row(u, idx);
    for (int k = 0; k < in.num_candidates; ++k) {
      const Candidate& c = cands[k];
      if (c.port != local_port()) {
        const OutputVc& o = ovc(u, c.port, c.vc);
        const std::size_t s = s0 + static_cast<std::size_t>(c.port);
        if (!channels_->usable(s) || o.owned || o.credits <= 0) continue;
      }
      FR_ASSERT_MSG(false, where(idx, "VA could grant a candidate"));
    }
  });
  const auto requesting = [occupied, active](int w) {
    return occupied[w] & active[w];
  };
  for_each_set_bit(words_, requesting, [&](int idx) {
    const InputVc& in = inputs_[at(u, idx)];
    FR_ASSERT_MSG(in.out_port != local_port() &&
                      ovc(u, in.out_port, in.out_vc).credits <= 0,
                  where(idx, "a committed flit has a credit to move on"));
  });
}

}  // namespace flexrouter
