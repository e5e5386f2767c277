#include "router/link.hpp"

#include <bit>

namespace flexrouter {

ChannelTable::ChannelTable(const Topology& topo, int num_vcs, int latency)
    : degree_(static_cast<std::size_t>(topo.degree())),
      num_vcs_(num_vcs),
      latency_(latency) {
  FR_REQUIRE(num_vcs >= 1 && num_vcs <= kMaxVcs);
  // The busy counters are 16 bits wide: 2 x stages must fit.
  FR_REQUIRE_MSG(latency >= 1 && latency < (1 << 14),
                 "link latency must be in [1, 16383] cycles");
  const std::size_t span =
      std::bit_ceil(static_cast<std::size_t>(latency) + 1);
  stage_shift_ = static_cast<unsigned>(std::countr_zero(span));
  stage_mask_ = span - 1;
  const std::size_t slots =
      static_cast<std::size_t>(topo.num_nodes()) * degree_;
  peer_.assign(slots, kInvalidNode);
  far_.assign(slots, -1);
  up_.assign(slots, 0);
  for (NodeId u = 0; u < topo.num_nodes(); ++u)
    for (PortId p = 0; p < topo.degree(); ++p) {
      const NodeId v = topo.neighbor(u, p);
      if (v == kInvalidNode) continue;
      peer_[slot(u, p)] = v;
      up_[slot(u, p)] = 1;
      far_[slot(u, p)] =
          static_cast<std::int32_t>(slot(v, topo.reverse_port(u, p)));
    }
  busy_.assign(slots, 0);
  ports_.assign(slots, Port{});
  flit_stages_.assign(slots * span, FlitStage{});
  credit_stages_.assign(slots * span, CreditStage{});
}

bool ChannelTable::idle() const {
  for (const std::uint16_t b : busy_)
    if (b != 0) return false;
  return true;
}

void ChannelTable::set_deferred(std::size_t s) {
  FR_REQUIRE(connected(s));
  ports_[s].deferred = 1;
  ports_[far_slot(s)].deferred = 1;
}

void ChannelTable::flush_deferred(std::size_t s, Cycle now) {
  Port& port = ports_[s];
  if (port.pending_vc >= 0) {
    land_flit(s, now, port.pending_vc, port.pending_flit);
    port.pending_vc = kInvalidVc;
  }
  Port& owed = ports_[far_slot(s)];
  if (owed.pending_credits != 0) {
    land_credits(s, now, owed.pending_credits);
    owed.pending_credits = 0;
  }
}

void ChannelTable::fail_channel(std::size_t s, std::vector<Flit>& destroyed) {
  if (!up_[s]) return;
  up_[s] = 0;
  Port& port = ports_[s];
  if (port.pending_vc >= 0) {
    destroyed.push_back(port.pending_flit);
    port.pending_vc = kInvalidVc;
  }
  const std::size_t r = far_slot(s);
  ports_[r].pending_credits = 0;
  for (std::size_t k = 0; k <= stage_mask_; ++k) {
    FlitStage& f = flit_stages_[stage(r, static_cast<Cycle>(k))];
    if (f.vc >= 0) {
      destroyed.push_back(f.flit);
      f.vc = kInvalidVc;
      --busy_[r];
    }
    CreditStage& c = credit_stages_[stage(s, static_cast<Cycle>(k))];
    if (c.mask != 0) {
      c.mask = 0;
      --busy_[s];
    }
  }
}

void ChannelTable::fail_link(std::size_t s, std::vector<Flit>& destroyed) {
  FR_REQUIRE(connected(s));
  fail_channel(s, destroyed);
  fail_channel(far_slot(s), destroyed);
}

void ChannelTable::repair_link(std::size_t s) {
  FR_REQUIRE(connected(s));
  up_[s] = 1;
  up_[far_slot(s)] = 1;
}

void ChannelTable::set_throttle(std::size_t s, int factor) {
  FR_REQUIRE(connected(s) && factor >= 1);
  ports_[s].throttle = factor;
  ports_[far_slot(s)].throttle = factor;
}

int ChannelTable::flits_in_flight(std::size_t s) const {
  int n = ports_[s].pending_vc >= 0 ? 1 : 0;
  const std::size_t r = far_slot(s);
  for (std::size_t k = 0; k <= stage_mask_; ++k)
    if (flit_stages_[stage(r, static_cast<Cycle>(k))].vc >= 0) ++n;
  return n;
}

int ChannelTable::vc_in_flight(std::size_t s, VcId vc) const {
  const std::uint32_t bit = 1u << static_cast<unsigned>(vc);
  const std::size_t r = far_slot(s);
  int n = ports_[s].pending_vc == vc ? 1 : 0;
  if ((ports_[r].pending_credits & bit) != 0) ++n;
  for (std::size_t k = 0; k <= stage_mask_; ++k) {
    if (flit_stages_[stage(r, static_cast<Cycle>(k))].vc == vc) ++n;
    if ((credit_stages_[stage(s, static_cast<Cycle>(k))].mask & bit) != 0) ++n;
  }
  return n;
}

std::uint32_t ChannelTable::credits_landing(std::size_t s, Cycle at) const {
  const CreditStage& c = credit_stages_[stage(s, at)];
  return c.mask != 0 && c.arrive == static_cast<std::uint32_t>(at) ? c.mask
                                                                    : 0;
}

}  // namespace flexrouter
