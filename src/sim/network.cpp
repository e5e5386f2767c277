#include "sim/network.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <limits>

#include "topology/graph_algo.hpp"

namespace flexrouter {

Network::Network(const Topology& topo, RoutingAlgorithm& algo,
                 const NetworkConfig& cfg)
    : topo_(&topo),
      algo_(&algo),
      cfg_(cfg),
      faults_(topo),
      channels_(topo, algo.num_vcs(), cfg.link_latency),
      routers_(topo, algo, store_, cfg.router, channels_) {
  FR_REQUIRE_MSG(cfg_.shards >= 1, "NetworkConfig::shards must be >= 1");
  FR_REQUIRE_MSG(cfg_.shard_threads >= 0,
                 "NetworkConfig::shard_threads must be >= 0 (0 = auto)");
  algo_->attach(topo, faults_);

  const auto n = static_cast<std::size_t>(topo.num_nodes());
  queue_head_.assign(n, -1);
  queue_tail_.assign(n, -1);
  queue_seq_.assign(n, 0);
  live_killed_.assign(n, 0);
  records_.reserve(cfg.expected_packets);
  queue_next_.reserve(cfg.expected_packets);
  // Step scratch, pre-sized unconditionally: deliveries per cycle cannot
  // exceed the node count. Sized to n so steady-state step() never
  // allocates.
  delivered_last_cycle_.reserve(n);
  destroyed_scratch_.reserve(64);
  orphan_scratch_.reserve(16);
  lost_log_.reserve(64);

  // Shard execution state (one shard is the one-tile plan). A boundary
  // link stages its sends and flushes at the barrier, in ascending sender
  // slot — the canonical exchange order.
  plan_ = plan_shards(topo, cfg_.shards);
  shard_pos_.resize(n);
  parked_at_.assign(n, 0);
  in_shard_ports_.assign(n, 0);
  shards_.resize(static_cast<std::size_t>(cfg_.shards));
  merge_pos_.assign(static_cast<std::size_t>(cfg_.shards), 0);
  for (int s = 0; s < cfg_.shards; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    const std::vector<NodeId>& nodes = plan_.nodes[static_cast<std::size_t>(s)];
    const std::size_t sn = nodes.size();
    for (std::size_t i = 0; i < sn; ++i)
      shard_pos_[static_cast<std::size_t>(nodes[i])] = static_cast<int>(i);
    sh.pending.assign((sn + 63) / 64, 0);
    sh.active.assign((sn + 63) / 64, 0);
    sh.parked.assign((sn + 63) / 64, 0);
    sh.stepped.assign((sn + 63) / 64, 0);
    sh.sa = routers_.make_sa_scratch();
    sh.purge_drops.reserve(32);
    sh.purges.reserve(32);
    // One ejection per router per cycle bounds the eject buffer; drops are
    // rare (fault cycles only) and may grow outside the steady state.
    sh.ejects.reserve(sn + 8);
    sh.drops.reserve(32);
    sh.spans.reserve(sn);
  }
  for (std::size_t c = 0; c < channels_.num_slots(); ++c) {
    const NodeId v = channels_.peer(c);
    const NodeId u = static_cast<NodeId>(c / static_cast<std::size_t>(
                                                 topo.degree()));
    if (v == kInvalidNode) continue;
    if (plan_.shard(u) == plan_.shard(v)) {
      in_shard_ports_[static_cast<std::size_t>(u)] |=
          std::uint64_t{1} << (c % static_cast<std::size_t>(topo.degree()));
      continue;
    }
    boundary_slots_.push_back(c);
    channels_.set_deferred(c);
  }
  pool_ = std::make_unique<WorkerPool>(
      std::min(resolve_threads(cfg_.shard_threads), cfg_.shards));
}

PacketId Network::send(NodeId src, NodeId dest, int length, Cycle now) {
  FR_REQUIRE(topo_->valid_node(src) && topo_->valid_node(dest));
  FR_REQUIRE_MSG(src != dest, "self-addressed packet");
  FR_REQUIRE_MSG(faults_.node_ok(src) && faults_.node_ok(dest),
                 "packet to/from a faulty node violates fault assumption iii");
  FR_REQUIRE_MSG(!node_live_killed(src) && !node_live_killed(dest),
                 "packet to/from a node killed live (diagnosis pending)");
  FR_REQUIRE(length >= 1);

  PacketRecord rec;
  rec.id = static_cast<PacketId>(records_.size());
  rec.src = src;
  rec.dest = dest;
  rec.length = length;
  rec.created = now;
  records_.push_back(rec);

  Header h;
  h.packet = rec.id;
  h.src = src;
  h.dest = dest;
  h.length = length;
  MessageInterface::seal(h);
  // One header per in-flight packet: the slot travels in the flit records
  // and is recycled when the tail flit ejects.
  const PacketSlot slot = store_.alloc(h);
  records_.back().slot = slot;

  queue_next_.push_back(-1);
  const auto u = static_cast<std::size_t>(src);
  if (queue_tail_[u] >= 0)
    queue_next_[static_cast<std::size_t>(queue_tail_[u])] = rec.id;
  else
    queue_head_[u] = rec.id;
  queue_tail_[u] = rec.id;
  mark_pending(src);
  return rec.id;
}

Flit Network::queue_front(NodeId u) const {
  const PacketId id = queue_head_[static_cast<std::size_t>(u)];
  FR_REQUIRE(id >= 0);
  const PacketRecord& rec = records_[static_cast<std::size_t>(id)];
  const int seq = queue_seq_[static_cast<std::size_t>(u)];
  return seq == 0 ? make_head_flit(rec.slot, rec.length)
                  : make_body_flit(rec.slot, seq, rec.length);
}

void Network::queue_pop(NodeId u) {
  const auto i = static_cast<std::size_t>(u);
  const PacketId id = queue_head_[i];
  FR_REQUIRE(id >= 0);
  if (++queue_seq_[i] < records_[static_cast<std::size_t>(id)].length) return;
  queue_seq_[i] = 0;
  queue_head_[i] = queue_next_[static_cast<std::size_t>(id)];
  if (queue_head_[i] < 0) queue_tail_[i] = -1;
}

PacketId Network::resend(PacketId prior, Cycle now) {
  FR_REQUIRE(prior >= 0 && static_cast<std::size_t>(prior) < records_.size());
  // Copy: send() below grows records_ and would invalidate a reference.
  const PacketRecord old = records_[static_cast<std::size_t>(prior)];
  FR_REQUIRE_MSG(old.lost, "resend of a packet that was not lost");
  const PacketId root_id = old.retry_of >= 0 ? old.retry_of : prior;
  const PacketId id = send(old.src, old.dest, old.length, now);
  records_[static_cast<std::size_t>(id)].retry_of = root_id;
  PacketRecord& root = records_[static_cast<std::size_t>(root_id)];
  ++root.retries;
  root.last_attempt = id;
  return id;
}

void Network::shard_phase(int s, Cycle now, bool purge) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  sh.purge_drops.clear();
  sh.purges.clear();
  sh.ejects.clear();
  sh.drops.clear();
  sh.spans.clear();

  // Injection: at most one flit per node per cycle (local link bandwidth),
  // ascending node order. Sources whose queue empties drop off the
  // worklist. Source-side abort: queued flits of a truncated worm never
  // enter the network — the whole front run goes at once and consumes no
  // injection bandwidth. Its loss accounting is deferred: the shared store,
  // lost log and counters mutate only in the epilogue, in ascending node
  // order.
  const NodeId* nodes = plan_.nodes[static_cast<std::size_t>(s)].data();
  const int words = static_cast<int>(sh.pending.size());
  std::uint64_t* const pending = sh.pending.data();
  std::uint64_t* const active = sh.active.data();
  std::uint64_t* const parked = sh.parked.data();
  // A poisoned worm's flits must drain wherever they wait, and no router
  // parks while any is live (its quiet steps would not repeat: the drain
  // stage pops poisoned flits).
  if (purge) wake_parked(s);
  const auto pending_word = [pending](int w) { return pending[w]; };
  for_each_set_bit(words, pending_word, [&](int i) {
    const NodeId u = nodes[i];
    if (purge) {
      const auto begin = static_cast<std::uint32_t>(sh.purge_drops.size());
      while (!queue_empty(u) && store_.poisoned(queue_front(u).slot)) {
        sh.purge_drops.push_back(queue_front(u));
        queue_pop(u);
      }
      const auto end = static_cast<std::uint32_t>(sh.purge_drops.size());
      if (end != begin) sh.purges.push_back({u, begin, end});
    }
    if (!queue_empty(u) && routers_.injection_space(u) > 0) {
      const Flit f = queue_front(u);
      if (f.head())
        records_[static_cast<std::size_t>(
                     queue_head_[static_cast<std::size_t>(u)])]
            .injected = now;
      queue_pop(u);
      routers_.inject(u, f);
      activate(sh, u);
    }
    if (queue_empty(u)) clear_bit(pending, i);
  });

  // Routers, ascending node order within the shard; routers that emptied
  // drop off, and routers whose step was quiet park. Ejects and drops are
  // recorded per router and replayed in the epilogue; everything a router
  // touches here is shard-local, a per-packet slot it exclusively holds
  // (the head flit lives in exactly one router), or a port slot of one of
  // the shard's nodes.
  sh.moved = 0;
  ++sh.phases;
  std::copy(sh.active.begin(), sh.active.end(), sh.stepped.begin());
  const std::uint64_t* const stepped = sh.stepped.data();
  const auto stepped_word = [stepped](int w) { return stepped[w]; };
  for_each_set_bit(words, stepped_word, [&](int i) {
    const NodeId u = nodes[i];
    Shard::RouterSpan span;
    span.node = u;
    span.eject_begin = static_cast<std::uint32_t>(sh.ejects.size());
    span.drop_begin = static_cast<std::uint32_t>(sh.drops.size());
    const RouterArray::StepOutcome out =
        routers_.step(u, now, sh.sa, sh.ejects, sh.drops);
    sh.moved += out.moved;
    span.eject_end = static_cast<std::uint32_t>(sh.ejects.size());
    span.drop_end = static_cast<std::uint32_t>(sh.drops.size());
    if (span.eject_end != span.eject_begin || span.drop_end != span.drop_begin)
      sh.spans.push_back(span);
    if (routers_.empty(u)) {
      clear_bit(active, i);
    } else if (out.quiet && !never_park_) {
      clear_bit(active, i);
      set_bit(parked, i);
      parked_at_[static_cast<std::size_t>(u)] = sh.phases;
    }
  });

  // A busy link keeps both endpoints live for the next cycle: the receiver
  // must accept arriving flits, the sender must pick up returning credits
  // the cycle they land. Whatever is on a wire was sent by a router that
  // stepped this cycle: either it sent it now, or the link was busy when
  // the cycle began and both endpoints were active. So the wires leaving
  // the stepped routers are all the busy links. Only in-shard ports are
  // read: the far end of a boundary link is another shard's, written
  // concurrently, and boundary links are handled in the epilogue.
  for_each_set_bit(words, stepped_word, [&](int i) {
    const NodeId u = nodes[i];
    const std::uint64_t ports = in_shard_ports_[static_cast<std::size_t>(u)];
    for (std::uint64_t busy = channels_.sent_busy_ports(u, ports); busy != 0;
         busy &= busy - 1) {
      const NodeId v = channels_.peer(
          channels_.slot(u, static_cast<PortId>(std::countr_zero(busy))));
      activate(sh, u);
      activate(sh, v);
    }
  });
}

void Network::unpark(Shard& sh, NodeId u, int i) {
  clear_bit(sh.parked.data(), i);
  const std::int64_t skipped =
      sh.phases - parked_at_[static_cast<std::size_t>(u)];
  routers_.repeat_quiet_steps(u, skipped);
}

void Network::wake_parked(int s) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  const std::vector<NodeId>& nodes = plan_.nodes[static_cast<std::size_t>(s)];
  const auto parked = [&sh](int w) {
    return sh.parked[static_cast<std::size_t>(w)];
  };
  for_each_set_bit(static_cast<int>(sh.parked.size()), parked, [&](int i) {
    activate(sh, nodes[static_cast<std::size_t>(i)]);
  });
}

template <typename Entry, typename Visit>
void Network::merge_by_node(std::vector<Entry> Shard::*list, Visit&& visit) {
  // Each shard's list is ascending and the shards' node sets are disjoint:
  // drain the shard with the lowest head up to the runner-up's head.
  std::fill(merge_pos_.begin(), merge_pos_.end(), 0);
  for (;;) {
    std::size_t best = shards_.size();
    NodeId best_node = 0;
    NodeId bound = std::numeric_limits<NodeId>::max();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const std::vector<Entry>& v = shards_[s].*list;
      if (merge_pos_[s] >= v.size()) continue;
      const NodeId n = v[merge_pos_[s]].node;
      if (best == shards_.size() || n < best_node) {
        if (best != shards_.size()) bound = best_node;
        best = s;
        best_node = n;
      } else if (n < bound) {
        bound = n;
      }
    }
    if (best == shards_.size()) return;
    Shard& sh = shards_[best];
    const std::vector<Entry>& v = sh.*list;
    std::size_t& pos = merge_pos_[best];
    while (pos < v.size() && v[pos].node < bound) visit(sh, v[pos++]);
  }
}

void Network::step(Cycle now) {
  delivered_last_cycle_.clear();
  last_step_ = now;
  const bool purge = store_.poisoned_live() > 0;
  last_step_purged_ = purge;

  struct Ctx {
    Network* net;
    Cycle now;
    bool purge;
  } ctx{this, now, purge};
  pool_->run(
      static_cast<int>(shards_.size()),
      [](void* c, int s) {
        auto* p = static_cast<Ctx*>(c);
        p->net->shard_phase(s, p->now, p->purge);
      },
      &ctx);

  // --- Serial epilogue -------------------------------------------------
  // 1. Cross-shard exchange: apply every boundary channel's staged flit
  // and credits in ascending sender slot — the canonical order — and keep
  // the endpoints of busy boundary links on next cycle's active lists.
  // Channel flushes touch no shared packet state, so their order relative
  // to the replays below is free; the replays themselves mutate shared
  // state in ascending node order whatever the shard count.
  const auto degree = static_cast<std::size_t>(topo_->degree());
  for (const std::size_t c : boundary_slots_) {
    channels_.flush_deferred(c, now);
    if (channels_.busy(c) || channels_.busy(channels_.far_slot(c))) {
      activate(static_cast<NodeId>(c / degree));
      activate(channels_.peer(c));
    }
  }
  for (const Shard& sh : shards_) flit_movements_ += sh.moved;

  // 2. Source-side purge accounting, ascending node order across shards.
  if (purge) {
    merge_by_node(&Shard::purges, [this](Shard& sh,
                                         const Shard::PurgeSpan& span) {
      for (std::uint32_t i = span.begin; i < span.end; ++i) {
        ++network_dropped_flits_;
        ++flit_movements_;
        account_dropped_flit(sh.purge_drops[i].slot);
      }
    });
  }

  // 3. Per-router drop/eject replay, ascending node order across shards,
  // so the lost log, the delivery order and the store's free-list state
  // are the same at every shard count.
  merge_by_node(&Shard::spans, [this, now](Shard& sh,
                                          const Shard::RouterSpan& span) {
    for (std::uint32_t i = span.drop_begin; i < span.drop_end; ++i)
      account_dropped_flit(sh.drops[i].slot);
    for (std::uint32_t i = span.eject_begin; i < span.eject_end; ++i) {
      // Resolve the slot to the full record at the network boundary — the
      // last reader before the slot is recycled (head == tail for length-1
      // packets, so read before release).
      const Flit& f = sh.ejects[i];
      const Header& hdr = store_.header(f.slot);
      PacketRecord& rec = records_[static_cast<std::size_t>(hdr.packet)];
      FR_ASSERT_MSG(rec.dest == span.node, "flit ejected at the wrong node");
      const bool last = store_.note_flit_gone(f.slot);
      if (store_.poisoned(f.slot)) {
        // The worm was truncated after part of it reached the destination;
        // what does arrive is discarded, not delivered.
        if (last) finalize_lost(f.slot);
        continue;
      }
      if (f.head()) {
        rec.hops = hdr.path_len;
        rec.misrouted = hdr.misrouted;
      }
      if (f.tail()) {
        FR_ASSERT_MSG(last, "tail ejected with flits unaccounted");
        rec.delivered = now;
        rec.slot = kInvalidPacketSlot;
        ++delivered_count_;
        delivered_last_cycle_.push_back(rec.id);
        store_.release(f.slot);
      }
    }
  });
}

bool Network::inert() const {
  // Every router holding flits is active or parked; every busy link
  // (boundary included) re-activates its endpoints each cycle; every
  // queued injection keeps its source on a pending list. A parked router's
  // step repeats its last quiet step until something wakes it: a flit,
  // credit or injection (all through the worklists), a poisoned worm (the
  // step's purge wakes every parked router), or a fault, repair or commit
  // from outside the step. So with the worklists empty and no poisoned
  // worm, stepping would change only the parked routers' skipped-step
  // counts.
  if (never_park_ || store_.poisoned_live() > 0) return false;
  for (const Shard& sh : shards_) {
    for (const std::uint64_t w : sh.pending)
      if (w != 0) return false;
    for (const std::uint64_t w : sh.active)
      if (w != 0) return false;
  }
  return true;
}

int Network::parked_routers() const {
  int n = 0;
  for (const Shard& sh : shards_)
    for (const std::uint64_t w : sh.parked) n += std::popcount(w);
  return n;
}

void Network::skip_cycle(Cycle span) {
  FR_ASSERT_MSG(inert(), "skip_cycle on a non-inert network");
  for (Shard& sh : shards_) sh.phases += span;
  delivered_last_cycle_.clear();
}

bool Network::idle() const {
  for (NodeId n = 0; n < topo_->num_nodes(); ++n)
    if (!queue_empty(n) || !routers_.empty(n)) return false;
  return channels_.idle();
}

void Network::begin_fault_mutation() {
  FR_REQUIRE_MSG(idle(), "apply_faults requires a quiesced network "
                         "(fault assumption iv)");
}

int Network::finish_fault_mutation() {
  // A quiesced network has delivered every injected packet, so the store
  // must hold no live slots — flush() below cannot leak headers.
  FR_ASSERT_MSG(store_.live_count() == 0,
                "fault mutation with live packet slots");
  const int exchanges = algo_->reconfigure();
  // flush() resets every VC, so parked routers' skipped steps are
  // accounted first (a drained network holds no flits, so none is parked).
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) wake_parked(s);
  routers_.flush();
  return exchanges;
}

void Network::poison_slot(PacketSlot s) {
  if (store_.live(s)) store_.poison(s);
}

void Network::account_dropped_flit(PacketSlot s) {
  if (store_.note_flit_gone(s)) finalize_lost(s);
}

void Network::finalize_lost(PacketSlot s) {
  const Header& h = store_.header(s);
  PacketRecord& rec = records_[static_cast<std::size_t>(h.packet)];
  FR_ASSERT_MSG(!rec.done(), "lost packet already delivered");
  FR_ASSERT_MSG(!rec.lost, "packet lost twice");
  rec.lost = true;
  rec.slot = kInvalidPacketSlot;
  lost_log_.push_back(rec.id);
  store_.release(s);
}

bool Network::projected_link_marked(NodeId node, PortId port) const {
  const NodeId peer = topo_->neighbor(node, port);
  FR_ASSERT(peer != kInvalidNode);
  const LinkRef key = node < peer
                          ? LinkRef{node, port}
                          : LinkRef{peer, topo_->reverse_port(node, port)};
  bool marked = faults_.link_marked_faulty(node, port);
  for (const PendingMutation& m : pending_mutations_) {
    if (m.op != PendingMutation::Op::KillLink &&
        m.op != PendingMutation::Op::RepairLink)
      continue;
    const NodeId mpeer = topo_->neighbor(m.node, m.port);
    const LinkRef mkey =
        m.node < mpeer ? LinkRef{m.node, m.port}
                       : LinkRef{mpeer, topo_->reverse_port(m.node, m.port)};
    if (mkey.node != key.node || mkey.port != key.port) continue;
    marked = m.op == PendingMutation::Op::KillLink;
  }
  return marked;
}

bool Network::projected_node_faulty(NodeId node) const {
  bool faulty = faults_.node_faulty(node);
  for (const PendingMutation& m : pending_mutations_) {
    if (m.node != node) continue;
    if (m.op == PendingMutation::Op::KillNode) faulty = true;
    if (m.op == PendingMutation::Op::RepairNode) faulty = false;
  }
  return faulty;
}

void Network::kill_link_live(NodeId node, PortId port) {
  FR_REQUIRE(topo_->valid_node(node) && topo_->valid_port(port));
  const NodeId peer = topo_->neighbor(node, port);
  FR_REQUIRE_MSG(peer != kInvalidNode, "live kill of an unconnected port");
  const std::size_t slot = channels_.slot(node, port);
  const bool hw_dead = channels_.failed(slot);
  if (hw_dead && (projected_link_marked(node, port) ||
                  projected_node_faulty(node) || projected_node_faulty(peer)))
    return;  // already dead and staying dead (e.g. via a node kill)

  if (!hw_dead) {
    // Damage the data plane: both directions die together (assumption i).
    // Flits inside the channel are destroyed; worms committed through the
    // dead channel on either side are orphaned, so their upstream fragments
    // truncate hop by hop and their buffers/VCs/slots come back.
    destroyed_scratch_.clear();
    channels_.fail_link(slot, destroyed_scratch_);
    orphan_scratch_.clear();
    routers_.kill_output_port(node, port, orphan_scratch_);
    routers_.kill_output_port(peer, topo_->reverse_port(node, port),
                              orphan_scratch_);
    for (const PacketSlot s : orphan_scratch_) poison_slot(s);
    for (const Flit& f : destroyed_scratch_) poison_slot(f.slot);
    for (const Flit& f : destroyed_scratch_) {
      ++network_dropped_flits_;
      ++flit_movements_;
      account_dropped_flit(f.slot);
    }
  }
  pending_mutations_.push_back(
      {PendingMutation::Op::KillLink, node, port});
  activate(node);
  activate(peer);
}

void Network::kill_node_live(NodeId node) {
  FR_REQUIRE(topo_->valid_node(node));
  const bool hw_dead = live_killed_[static_cast<std::size_t>(node)] != 0;
  if (hw_dead && projected_node_faulty(node))
    return;  // already dead and staying dead
  if (!hw_dead) {
    live_killed_[static_cast<std::size_t>(node)] = 1;

    destroyed_scratch_.clear();
    orphan_scratch_.clear();
    // Every live packet sourced at or destined to the dead node is orphaned
    // (fault assumption iii no longer holds for it).
    store_.for_each_live([&](PacketSlot s, const Header& h) {
      if (h.src == node || h.dest == node) orphan_scratch_.push_back(s);
    });
    // Adjacent channels die with the node; neighbours' worms committed
    // toward it are orphaned.
    for (PortId p = 0; p < topo_->degree(); ++p) {
      const NodeId peer = topo_->neighbor(node, p);
      if (peer == kInvalidNode) continue;
      channels_.fail_link(channels_.slot(node, p), destroyed_scratch_);
      routers_.kill_output_port(peer, topo_->reverse_port(node, p),
                                orphan_scratch_);
      activate(peer);
    }
    // The dead router's buffered flits and its local injection queue vanish
    // (woken first, so its skipped steps are accounted before its VC state
    // is reset).
    activate(node);
    routers_.destroy_all_flits(node, destroyed_scratch_);
    while (!queue_empty(node)) {
      destroyed_scratch_.push_back(queue_front(node));
      queue_pop(node);
    }
    Shard& home = shards_[static_cast<std::size_t>(plan_.shard(node))];
    clear_bit(home.pending.data(), shard_pos_[static_cast<std::size_t>(node)]);

    for (const PacketSlot s : orphan_scratch_) poison_slot(s);
    for (const Flit& f : destroyed_scratch_) poison_slot(f.slot);
    for (const Flit& f : destroyed_scratch_) {
      ++network_dropped_flits_;
      ++flit_movements_;
      account_dropped_flit(f.slot);
    }
  }
  pending_mutations_.push_back(
      {PendingMutation::Op::KillNode, node, kInvalidPort});
}

bool Network::repair_link_live(NodeId node, PortId port) {
  FR_REQUIRE(topo_->valid_node(node) && topo_->valid_port(port));
  const NodeId peer = topo_->neighbor(node, port);
  FR_REQUIRE_MSG(peer != kInvalidNode, "live repair of an unconnected port");
  // Only a link that is (projected) marked faulty has anything to repair;
  // a channel dead solely because an endpoint node died is the node
  // repair's business.
  if (!projected_link_marked(node, port)) return false;
  pending_mutations_.push_back(
      {PendingMutation::Op::RepairLink, node, port});
  activate(node);
  activate(peer);
  return true;
}

bool Network::repair_node_live(NodeId node) {
  FR_REQUIRE(topo_->valid_node(node));
  if (!projected_node_faulty(node)) return false;
  pending_mutations_.push_back(
      {PendingMutation::Op::RepairNode, node, kInvalidPort});
  activate(node);
  return true;
}

void Network::degrade_link_live(NodeId node, PortId port, int factor) {
  FR_REQUIRE(topo_->valid_node(node) && topo_->valid_port(port));
  const NodeId peer = topo_->neighbor(node, port);
  FR_REQUIRE_MSG(peer != kInvalidNode, "degrade of an unconnected port");
  faults_.degrade_link(node, port, factor);
  channels_.set_throttle(channels_.slot(node, port), factor);
  activate(node);
  activate(peer);
}

void Network::kill_packet(PacketId id) {
  FR_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < records_.size());
  PacketRecord& rec = records_[static_cast<std::size_t>(id)];
  FR_REQUIRE_MSG(!rec.done() && !rec.lost, "kill of a finished packet");
  FR_ASSERT(rec.slot != kInvalidPacketSlot);
  store_.poison(rec.slot);
}

int Network::commit_pending_faults() {
  FR_REQUIRE_MSG(recovery_pending(), "no pending live damage to commit");
  // Undirected links whose hardware state may change at this commit: the
  // links named by link mutations plus every link adjacent to a node
  // mutation. Only these are re-synced below — links made faulty by a
  // static apply_faults call keep their hardware untouched, as before.
  std::vector<LinkRef> touched;
  for (const PendingMutation& m : pending_mutations_) {
    switch (m.op) {
      case PendingMutation::Op::KillLink:
      case PendingMutation::Op::RepairLink:
        touched.push_back({m.node, m.port});
        break;
      case PendingMutation::Op::KillNode:
      case PendingMutation::Op::RepairNode:
        for (PortId p = 0; p < topo_->degree(); ++p)
          if (topo_->neighbor(m.node, p) != kInvalidNode)
            touched.push_back({m.node, p});
        break;
    }
  }
  const int exchanges = apply_faults([this](FaultSet& f) {
    // Replay in arrival order: interleaved kill/repair sequences on one
    // resource resolve to the state of the last event.
    for (const PendingMutation& m : pending_mutations_) {
      switch (m.op) {
        case PendingMutation::Op::KillLink:
          if (!f.link_marked_faulty(m.node, m.port))
            f.fail_link(m.node, m.port);
          break;
        case PendingMutation::Op::KillNode:
          if (!f.node_faulty(m.node)) f.fail_node(m.node);
          break;
        case PendingMutation::Op::RepairLink:
          if (f.link_marked_faulty(m.node, m.port))
            f.repair_link(m.node, m.port);
          break;
        case PendingMutation::Op::RepairNode:
          if (f.node_faulty(m.node)) f.repair_node(m.node);
          live_killed_[static_cast<std::size_t>(m.node)] = 0;
          break;
      }
    }
    pending_mutations_.clear();
  });
  // Hardware sync for the touched links: a channel whose endpoints are
  // both healthy and which carries no faulty mark rejoins service (the
  // network is idle, so the shift registers are already empty). Channels
  // that remain dead keep their failed state from the live kill.
  for (const LinkRef& l : touched) {
    const NodeId peer = topo_->neighbor(l.node, l.port);
    if (faults_.link_marked_faulty(l.node, l.port) ||
        faults_.node_faulty(l.node) || faults_.node_faulty(peer))
      continue;
    channels_.repair_link(channels_.slot(l.node, l.port));
  }
  return exchanges;
}

std::vector<Network::BlockedChannel> Network::blocked_channels() const {
  std::vector<BlockedChannel> out;
  for (NodeId n = 0; n < topo_->num_nodes(); ++n)
    routers_.collect_stalled(n, out);
  return out;
}

std::vector<Network::BlockedChannel> Network::blocked_chain() const {
  const std::vector<BlockedChannel> all = blocked_channels();
  std::vector<BlockedChannel> chain;
  if (all.empty()) return chain;
  auto find = [&all](NodeId n, PortId p, VcId v) -> std::ptrdiff_t {
    for (std::size_t i = 0; i < all.size(); ++i)
      if (all[i].node == n && all[i].port == p && all[i].vc == v)
        return static_cast<std::ptrdiff_t>(i);
    return -1;
  };
  std::vector<char> visited(all.size(), 0);
  std::ptrdiff_t cur = 0;  // lowest blocked channel; deterministic start
  while (cur >= 0 && !visited[static_cast<std::size_t>(cur)]) {
    visited[static_cast<std::size_t>(cur)] = 1;
    const BlockedChannel& b = all[static_cast<std::size_t>(cur)];
    chain.push_back(b);
    if (!b.active || b.out_port == routers_.local_port())
      break;  // waiting on RC/VA or on the ejection sink: chain ends here
    const NodeId next = topo_->neighbor(b.node, b.out_port);
    if (next == kInvalidNode) break;
    cur = find(next, topo_->reverse_port(b.node, b.out_port), b.out_vc);
  }
  return chain;
}

PacketId Network::blocked_victim() const {
  PacketId victim = -1;
  for (const BlockedChannel& c : blocked_chain()) {
    if (c.packet < 0) continue;
    const PacketRecord& rec = record(c.packet);
    if (rec.done() || rec.lost) continue;
    if (victim < 0 || c.packet < victim) victim = c.packet;
  }
  return victim;
}

const PacketRecord& Network::record(PacketId id) const {
  FR_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < records_.size());
  return records_[static_cast<std::size_t>(id)];
}

std::vector<Network::LinkLoad> Network::link_utilization(Cycle elapsed) const {
  FR_REQUIRE(elapsed > 0);
  std::vector<LinkLoad> out;
  const auto degree = static_cast<std::size_t>(topo_->degree());
  for (std::size_t c = 0; c < channels_.num_slots(); ++c) {
    if (!channels_.connected(c)) continue;
    LinkLoad l;
    l.from = static_cast<NodeId>(c / degree);
    l.port = static_cast<PortId>(c % degree);
    l.utilization = static_cast<double>(channels_.flits_total(c)) /
                    static_cast<double>(elapsed);
    l.degrade = channels_.throttle(c);
    out.push_back(l);
  }
  std::sort(out.begin(), out.end(), [](const LinkLoad& a, const LinkLoad& b) {
    return a.utilization > b.utilization;
  });
  return out;
}

std::pair<double, double> Network::utilization_summary(Cycle elapsed) const {
  const auto loads = link_utilization(elapsed);
  if (loads.empty()) return {0.0, 0.0};
  double sum = 0.0;
  for (const LinkLoad& l : loads) sum += l.utilization;
  return {loads.front().utilization, sum / static_cast<double>(loads.size())};
}

void Network::check_invariants() const {
  const int degree = topo_->degree();
  const int vcs = routers_.num_vcs();
  const auto where = [](const char* what, NodeId n, PortId p) {
    return std::string(what) + " at node " + std::to_string(n) + " port " +
           std::to_string(p);
  };

  // Flit conservation.
  std::int64_t flits = 0;
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    std::int32_t seq = queue_seq_[static_cast<std::size_t>(n)];
    for (PacketId id = queue_head_[static_cast<std::size_t>(n)]; id >= 0;
         id = queue_next_[static_cast<std::size_t>(id)], seq = 0)
      flits += records_[static_cast<std::size_t>(id)].length - seq;
    for (PortId p = 0; p <= degree; ++p)
      for (VcId v = 0; v < vcs; ++v) flits += routers_.buffered(n, p, v);
  }
  for (std::size_t c = 0; c < channels_.num_slots(); ++c)
    if (channels_.connected(c)) flits += channels_.flits_in_flight(c);
  FR_ASSERT_MSG(flits == store_.outstanding_flits(),
                "flit conservation: " + std::to_string(flits) +
                    " flits in the network, the packet store expects " +
                    std::to_string(store_.outstanding_flits()));

  // Worklists: a node is pending exactly while its injection queue holds
  // flits, every router holding flits is active or parked, and every
  // router on either end of a busy link is active (what inert() and the
  // stepped-router link scan rely on). A parked router is in the state its
  // quiet step left, and nothing parks in a step with a poisoned slot live.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    const std::vector<NodeId>& nodes = plan_.nodes[s];
    for (int i = 0; i < static_cast<int>(nodes.size()); ++i) {
      const NodeId u = nodes[static_cast<std::size_t>(i)];
      const std::string node = "node " + std::to_string(u);
      FR_ASSERT_MSG(test_bit(sh.pending.data(), i) == !queue_empty(u),
                    "worklists: the pending bit of " + node +
                        " disagrees with its injection queue");
      const bool parked = test_bit(sh.parked.data(), i);
      if (test_bit(sh.active.data(), i)) {
        FR_ASSERT_MSG(!parked, "worklists: " + node + " is active and parked");
        continue;
      }
      if (parked) {
        FR_ASSERT_MSG(!routers_.empty(u),
                      "parking: " + node + " is parked but holds no flits");
        FR_ASSERT_MSG(!last_step_purged_,
                      "parking: " + node +
                          " is parked after a step with a poisoned slot live");
        routers_.check_parked(u);
      }
      FR_ASSERT_MSG(parked || routers_.empty(u),
                    "worklists: " + node + " holds flits but is not active");
      for (PortId p = 0; p < degree; ++p) {
        const std::size_t c = channels_.slot(u, p);
        FR_ASSERT_MSG(!channels_.connected(c) ||
                          (!channels_.busy(c) &&
                           !channels_.busy(channels_.far_slot(c))),
                      where("worklists: busy link", u, p) +
                          ", but the node is not active");
      }
    }
  }

  // Credit conservation, per healthy channel and VC; VC ownership, the
  // VC-state masks and the RC candidate lists.
  const int depth = cfg_.router.buffer_depth;
  for (NodeId u = 0; u < topo_->num_nodes(); ++u) {
    routers_.check_masks(u);
    routers_.check_candidates(u);
    routers_.check_ownership(u);
    for (PortId p = 0; p < degree; ++p) {
      const std::size_t c = channels_.slot(u, p);
      if (!channels_.connected(c) || channels_.failed(c)) continue;
      const NodeId v = channels_.peer(c);
      const PortId q = topo_->reverse_port(u, p);
      for (VcId w = 0; w < vcs; ++w) {
        const int total = routers_.output_credits(u, p, w) +
                          channels_.vc_in_flight(c, w) +
                          routers_.buffered(v, q, w);
        FR_ASSERT_MSG(total == depth,
                      where("credit conservation", u, p) + " vc " +
                          std::to_string(w) + ": " + std::to_string(total) +
                          " credits for depth " + std::to_string(depth));
      }
    }
  }

  // Crossbar exclusivity in the last step: one ejection per router, and
  // one popped flit (so one returned credit) per input port. A cycle that
  // dropped poisoned flits may return more credits on one port (the drain
  // stage frees one flit per VC), so its credits are not checked.
  if (last_step_ >= 0) {
    bool drained = false;
    for (const Shard& sh : shards_)
      for (const Shard::RouterSpan& span : sh.spans) {
        FR_ASSERT_MSG(span.eject_end - span.eject_begin <= 1,
                      "crossbar exclusivity: node " +
                          std::to_string(span.node) +
                          " ejected two flits in one cycle");
        drained |= span.drop_end != span.drop_begin;
      }
    for (std::size_t r = 0; r < channels_.num_slots() && !drained; ++r) {
      if (!channels_.connected(r)) continue;
      const int credits = std::popcount(channels_.credits_landing(
          channels_.far_slot(r), last_step_ + channels_.latency()));
      FR_ASSERT_MSG(credits <= 1,
                    where("crossbar exclusivity",
                          static_cast<NodeId>(r / static_cast<std::size_t>(
                                                      degree)),
                          static_cast<PortId>(r % static_cast<std::size_t>(
                                                      degree))) +
                        ": one input port sent " + std::to_string(credits) +
                        " flits in one cycle");
    }
  }

  // Dropped flits count as movement: truncation progress must reset the
  // deadlock watchdog's stall counter exactly like delivery progress.
  const RouterStats agg = aggregate_stats();
  FR_ASSERT_MSG(network_dropped_flits_ + agg.flits_forwarded +
                        agg.flits_ejected + agg.flits_dropped ==
                    flit_movements_,
                "movement counter drifted from the per-router counters");
}

RouterStats Network::aggregate_stats() const {
  RouterStats agg;
  // A parked router's skipped steps are accounted when it wakes; until
  // then they are owed here.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    const auto parked = [&sh](int w) {
      return sh.parked[static_cast<std::size_t>(w)];
    };
    for_each_set_bit(static_cast<int>(sh.parked.size()), parked, [&](int i) {
      const NodeId u = plan_.nodes[s][static_cast<std::size_t>(i)];
      agg.va_retries += (sh.phases - parked_at_[static_cast<std::size_t>(u)]) *
                        routers_.quiet_step_retries(u);
    });
  }
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    const RouterStats& s = routers_.stats(n);
    agg.flits_forwarded += s.flits_forwarded;
    agg.flits_ejected += s.flits_ejected;
    agg.flits_dropped += s.flits_dropped;
    agg.packets_routed += s.packets_routed;
    agg.decision_steps += s.decision_steps;
    agg.rc_no_candidates += s.rc_no_candidates;
    agg.va_retries += s.va_retries;
    agg.header_updates += s.header_updates;
  }
  return agg;
}

}  // namespace flexrouter
