// The network's links as one flat channel table.
//
// Every link of Figure 3 is a pair of unidirectional channels: flits
// (tagged with their virtual channel) travel forward with a fixed pipeline
// latency and credits travel backward with the same latency. The table
// keeps all of them in a few contiguous arrays allocated once, keyed by
// *port slot* `node * degree + port`:
//
//  - flit stages are keyed by the receiving (node, in_port) and credit
//    stages by the sending (node, out_port), so a router's arrivals of one
//    cycle are its own adjacent rows;
//  - `busy` counts, per slot, the occupied stages landing there (flits
//    arriving on that in-port, credits arriving on that out-port). A link is
//    idle when the counters at both of its ends are zero, so the per-cycle
//    "a busy link keeps both endpoints active" rule reads the far end's
//    counter of each in-shard port of each router that stepped;
//  - the Information Unit's per-port state: fault status (a dense usable
//    byte), fail-slow throttle, the boundary staging slot and the
//    flits_total counter.
//
// Each stage array is a circular shift register indexed by arrival cycle,
// so send/receive are array writes, never heap traffic. A register has
// latency+1 stages because a flit arriving at cycle t may be consumed only
// when its receiver steps at t, which (routers step in ascending node
// order) can be after the sender has already transmitted cycle t's flit.
// Credits travel as a per-cycle VC bitmask: at most one credit per VC can
// be issued per cycle (the crossbar pops at most one flit per input port),
// so one bit per VC is exact.
//
// During the parallel phase of a sharded step every slot is written only by
// the shard that owns its node, or by a sender in the same shard: a link
// whose endpoints sit in different shards is *deferred* — its flits and
// credits park in the sending node's port record and flush_deferred applies
// them at the cycle barrier.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "router/flit.hpp"
#include "topology/topology.hpp"

namespace flexrouter {

class ChannelTable {
 public:
  /// Bitmask credit encoding caps the VCs a physical link can multiplex.
  static constexpr int kMaxVcs = 32;

  /// One channel per connected (node, port) of `topo`; `latency` >= 1
  /// cycles for flits, and the same for credits.
  ChannelTable(const Topology& topo, int num_vcs, int latency);

  int num_vcs() const { return num_vcs_; }
  int latency() const { return latency_; }
  std::size_t slot(NodeId node, PortId port) const {
    return static_cast<std::size_t>(node) * degree_ +
           static_cast<std::size_t>(port);
  }
  std::size_t num_slots() const { return peer_.size(); }
  /// Node at the far end of the link at `s`; kInvalidNode if unconnected.
  NodeId peer(std::size_t s) const { return peer_[s]; }
  bool connected(std::size_t s) const { return peer_[s] != kInvalidNode; }
  /// A live link is attached at `s`: connected and not failed.
  bool usable(std::size_t s) const { return up_[s] != 0; }
  /// The far end's slot of the link at `s` (connected slots only).
  std::size_t far_slot(std::size_t s) const {
    return static_cast<std::size_t>(far_[s]);
  }

  /// Put a flit on the channel leaving port slot `s`.
  void send_flit(std::size_t s, Cycle now, VcId vc, const Flit& flit) {
    FR_REQUIRE(vc >= 0 && vc < num_vcs_);
    FR_REQUIRE_MSG(usable(s), "flit sent on a failed link");
    Port& port = ports_[s];
    if (port.deferred) {
      // A send at cycle t is first observable at t+latency >= t+1, so the
      // deferral is invisible to every same-cycle reader.
      FR_REQUIRE_MSG(port.pending_vc < 0,
                     "two flits sent on one link in one cycle");
      port.pending_vc = static_cast<std::int8_t>(vc);
      port.pending_flit = flit;
      return;
    }
    land_flit(s, now, vc, flit);
  }

  /// The flit arriving at in-port slot `s` at `now`, if any (at most one
  /// per cycle per channel). Returns false when nothing arrives.
  bool receive_flit(std::size_t s, Cycle now, VcId& vc, Flit& flit) {
    FlitStage& st = flit_stages_[stage(s, now)];
    if (st.vc < 0) return false;
    FR_ASSERT_MSG(st.arrive == static_cast<std::uint32_t>(now),
                  "link delivery missed a cycle");
    vc = st.vc;
    flit = st.flit;
    st.vc = kInvalidVc;
    --busy_[s];
    return true;
  }

  /// Return a credit for VC `vc` upstream from in-port slot `s`. A failed
  /// link swallows credits: the upstream output VC is dead anyway and its
  /// counters are rebuilt at reconfiguration.
  void send_credit(std::size_t s, Cycle now, VcId vc) {
    FR_REQUIRE(vc >= 0 && vc < num_vcs_);
    if (!usable(s)) return;
    Port& port = ports_[s];
    const std::uint32_t bit = 1u << static_cast<unsigned>(vc);
    if (port.deferred) {
      FR_ASSERT_MSG((port.pending_credits & bit) == 0,
                    "two credits for one VC in one cycle");
      port.pending_credits |= bit;
      return;
    }
    land_credits(far_slot(s), now, bit);
  }

  /// All credits arriving at out-port slot `s` at `now`, one bit per VC.
  std::uint32_t receive_credits(std::size_t s, Cycle now) {
    CreditStage& st = credit_stages_[stage(s, now)];
    if (st.mask == 0) return 0;
    FR_ASSERT_MSG(st.arrive == static_cast<std::uint32_t>(now),
                  "credit delivery missed a cycle");
    const std::uint32_t mask = st.mask;
    st.mask = 0;
    --busy_[s];
    return mask;
  }

  /// A flit or credit is on the wire toward port slot `s`.
  bool busy(std::size_t s) const { return busy_[s] != 0; }
  /// Bitmask of `node`'s ports with a flit or credit on the wire toward
  /// them (bit p == port p).
  std::uint64_t busy_ports(NodeId node) const {
    const std::uint16_t* b = &busy_[slot(node, 0)];
    std::uint64_t mask = 0;
    for (std::size_t p = 0; p < degree_; ++p)
      if (b[p] != 0) mask |= std::uint64_t{1} << p;
    return mask;
  }
  /// The subset of `ports`, connected ports of `node` (bit p == port p),
  /// with a flit or credit on the wire toward the far end, i.e. one that
  /// `node` sent. Reads only the far ends' counters of `ports`.
  std::uint64_t sent_busy_ports(NodeId node, std::uint64_t ports) const {
    const std::size_t s0 = slot(node, 0);
    std::uint64_t mask = 0;
    for (std::uint64_t m = ports; m != 0; m &= m - 1) {
      const int p = std::countr_zero(m);
      if (busy_[far_slot(s0 + static_cast<std::size_t>(p))] != 0)
        mask |= std::uint64_t{1} << p;
    }
    return mask;
  }
  /// Nothing on any wire. Between steps nothing is staged either: the
  /// step's barrier flushes every deferred send.
  bool idle() const;

  /// Boundary mode for the link at `s` (both directions): sends stage in
  /// the sender's port record until flush_deferred applies them.
  void set_deferred(std::size_t s);
  /// Apply the staged flit and credits of the channel leaving `s`. Serial
  /// context only; replays exactly what the direct send paths would have
  /// written at cycle `now`.
  void flush_deferred(std::size_t s, Cycle now);

  /// Live fault (assumption v): the link at `s` dies in both directions.
  /// Every flit on either channel is destroyed — appended to `destroyed`
  /// (the channel leaving `s` first, staged flit before the register) so
  /// the caller can poison the owning worms and keep the per-packet flit
  /// accounting exact — and in-flight credits vanish with the wire.
  /// Idempotent.
  void fail_link(std::size_t s, std::vector<Flit>& destroyed);
  /// Information Unit fault status (Figure 3): both endpoints see a dead
  /// link at once, so VC allocation refuses it without waiting for the
  /// control plane's quiescent reconfiguration.
  bool failed(std::size_t s) const { return connected(s) && !usable(s); }
  /// Live repair of the link at `s`: fail_link emptied its registers, so
  /// the hardware simply rejoins service.
  void repair_link(std::size_t s);

  /// Fail-slow throttle of the link at `s` (assumption i relaxed): it still
  /// transmits without destruction but accepts at most one flit per
  /// `factor` cycles in each direction; 1 is full speed. Orthogonal to
  /// failed(): the degradation is physical, not protocol state.
  void set_throttle(std::size_t s, int factor);
  int throttle(std::size_t s) const { return ports_[s].throttle; }
  /// Can port slot `s` put a flit on the wire at `now`? Full-speed links
  /// always can; a throttled link enforces its duty cycle.
  bool can_accept(std::size_t s, Cycle now) const {
    const Port& port = ports_[s];
    return port.throttle <= 1 || now >= port.next_free;
  }

  /// Information Unit load measure: flits ever sent out of port slot `s`.
  std::int64_t flits_total(std::size_t s) const {
    return ports_[s].flits_total;
  }

  /// Audit views (Network::check_invariants).
  /// Flits on the channel leaving `s`, registers and staging slot.
  int flits_in_flight(std::size_t s) const;
  /// Flits and credits of VC `vc` on the channel leaving `s`.
  int vc_in_flight(std::size_t s, VcId vc) const;
  /// Credits landing at out-port slot `s` at cycle `at`.
  std::uint32_t credits_landing(std::size_t s, Cycle at) const;

 private:
  struct FlitStage {
    Flit flit;
    std::uint32_t arrive = 0;  // arrival cycle, low 32 bits
    VcId vc = kInvalidVc;      // kInvalidVc == empty stage
  };
  struct CreditStage {
    std::uint32_t arrive = 0;
    std::uint32_t mask = 0;  // 0 == empty stage
  };
  /// Per port slot: the sending side of the channel leaving it, plus the
  /// credits its receiving side owes upstream while deferred.
  struct Port {
    Cycle next_free = 0;  // earliest cycle a throttled link accepts again
    std::int64_t flits_total = 0;
    Flit pending_flit;
    std::uint32_t pending_credits = 0;
    std::int32_t throttle = 1;  // one flit per `throttle` cycles
    std::int8_t pending_vc = kInvalidVc;
    std::uint8_t deferred = 0;
  };

  /// Stage count rounded up to a power of two (>= latency+1), so the
  /// cycle-to-stage map is a mask instead of an integer division. Any
  /// latency+1 consecutive cycles still map to distinct stages.
  std::size_t stage(std::size_t s, Cycle at) const {
    return (s << stage_shift_) | (static_cast<std::size_t>(at) & stage_mask_);
  }
  void land_flit(std::size_t s, Cycle now, VcId vc, const Flit& flit) {
    const std::size_t r = far_slot(s);
    FlitStage& st = flit_stages_[stage(r, now + latency_)];
    // One flit per cycle: an occupied stage means either a second send in
    // the same cycle or an earlier flit the receiver never picked up.
    FR_REQUIRE_MSG(st.vc < 0, "two flits sent on one link in one cycle");
    st.arrive = static_cast<std::uint32_t>(now + latency_);
    st.vc = vc;
    st.flit = flit;
    ++busy_[r];
    Port& port = ports_[s];
    if (port.throttle > 1) port.next_free = now + port.throttle;
    ++port.flits_total;
  }
  void land_credits(std::size_t s, Cycle now, std::uint32_t bits) {
    CreditStage& st = credit_stages_[stage(s, now + latency_)];
    const auto at = static_cast<std::uint32_t>(now + latency_);
    if (st.mask != 0) {
      FR_ASSERT_MSG(st.arrive == at, "credit delivery missed a cycle");
      FR_ASSERT_MSG((st.mask & bits) == 0,
                    "two credits for one VC in one cycle");
      st.mask |= bits;
      return;
    }
    st.arrive = at;
    st.mask = bits;
    ++busy_[s];
  }
  void fail_channel(std::size_t s, std::vector<Flit>& destroyed);

  std::size_t degree_;
  int num_vcs_;
  int latency_;
  unsigned stage_shift_ = 0;
  std::size_t stage_mask_ = 0;
  std::vector<NodeId> peer_;             // per slot
  std::vector<std::int32_t> far_;        // per slot: the far end's slot
  std::vector<std::uint8_t> up_;         // per slot: usable()
  std::vector<std::uint16_t> busy_;      // per slot: occupied stages
  std::vector<Port> ports_;              // per slot
  std::vector<FlitStage> flit_stages_;   // per slot x stage, by receiver
  std::vector<CreditStage> credit_stages_;  // per slot x stage, by sender
};

}  // namespace flexrouter
