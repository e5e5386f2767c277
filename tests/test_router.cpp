// Unit tests for the router data path: flits, message interface, arbiters,
// the channel table, and routers stepped by hand.
#include <gtest/gtest.h>

#include <type_traits>

#include "router/router.hpp"
#include "routing/dor.hpp"
#include "topology/mesh.hpp"

namespace flexrouter {
namespace {

// ----------------------------------------------------------- message iface
Header sealed_header(PacketId id, NodeId src, NodeId dest, int len) {
  Header h;
  h.packet = id;
  h.src = src;
  h.dest = dest;
  h.length = len;
  MessageInterface::seal(h);
  return h;
}

/// Allocates a sealed header in `store` and returns its slot.
PacketSlot sealed_packet(PacketStore& store, PacketId id, NodeId src,
                         NodeId dest, int len) {
  return store.alloc(sealed_header(id, src, dest, len));
}

TEST(MessageInterface, SealAndVerify) {
  Header h = sealed_header(1, 0, 5, 4);
  EXPECT_TRUE(MessageInterface::checksum_ok(h));
  h.dest = 6;  // corrupt
  EXPECT_FALSE(MessageInterface::checksum_ok(h));
}

TEST(MessageInterface, ExtractRejectsCorruptHeader) {
  PacketStore store;
  const PacketSlot slot = sealed_packet(store, 1, 0, 5, 4);
  store.header(slot).path_len = 9;  // tampered without resealing
  const Flit f = make_head_flit(slot, 4);
  EXPECT_THROW(MessageInterface::extract(store, f), ContractViolation);
}

TEST(MessageInterface, ExtractRejectsBodyFlit) {
  PacketStore store;
  const PacketSlot slot = sealed_packet(store, 1, 0, 5, 4);
  const Flit f = make_body_flit(slot, 1, 4);
  EXPECT_THROW(MessageInterface::extract(store, f), ContractViolation);
}

TEST(MessageInterface, ForwardUpdatesCounterAndChecksum) {
  PacketStore store;
  const PacketSlot slot = sealed_packet(store, 7, 0, 5, 4);
  const Flit f = make_head_flit(slot, 4);
  const int changed = MessageInterface::update_on_forward(store, f, false);
  EXPECT_EQ(changed, 1);
  EXPECT_EQ(store.header(slot).path_len, 1);
  EXPECT_TRUE(MessageInterface::checksum_ok(store.header(slot)));
}

TEST(MessageInterface, MisrouteMarkIsSticky) {
  PacketStore store;
  const PacketSlot slot = sealed_packet(store, 7, 0, 5, 4);
  const Flit f = make_head_flit(slot, 4);
  EXPECT_EQ(MessageInterface::update_on_forward(store, f, true), 2);
  EXPECT_TRUE(store.header(slot).misrouted);
  // Marking again changes only the counter.
  EXPECT_EQ(MessageInterface::update_on_forward(store, f, true), 1);
  EXPECT_TRUE(MessageInterface::checksum_ok(store.header(slot)));
}

TEST(Flits, HeadTailFlags) {
  const PacketSlot slot = 3;  // flit records never dereference the slot
  const Flit single = make_head_flit(slot, 1);
  EXPECT_TRUE(single.head());
  EXPECT_TRUE(single.tail());

  EXPECT_TRUE(make_head_flit(slot, 3).head());
  EXPECT_FALSE(make_head_flit(slot, 3).tail());
  EXPECT_FALSE(make_body_flit(slot, 1, 3).tail());
  EXPECT_TRUE(make_body_flit(slot, 2, 3).tail());
  EXPECT_FALSE(make_body_flit(slot, 1, 3).head());
}

TEST(Flits, RecordIsEightBytePod) {
  static_assert(sizeof(Flit) == 8);
  static_assert(std::is_trivially_copyable_v<Flit>);
  const Flit f = make_body_flit(9, 2, 4);
  EXPECT_EQ(f.slot, 9u);
  EXPECT_EQ(f.seq, 2);
}

// ------------------------------------------------------------ packet store
TEST(PacketStoreBasics, AccessAfterReleaseThrows) {
  PacketStore store;
  const PacketSlot slot = sealed_packet(store, 1, 0, 5, 4);
  EXPECT_TRUE(store.live(slot));
  store.release(slot);
  EXPECT_FALSE(store.live(slot));
  EXPECT_THROW(store.header(slot), ContractViolation);
}

// ----------------------------------------------------------------- arbiter
/// Round-robin over `n` persistent equal-priority requesters, consuming
/// every grant.
std::vector<int> rotate(int n, int rounds) {
  std::vector<ArbCandidate> cands;
  for (int i = 0; i < n; ++i) cands.push_back({i, 0});
  std::vector<int> grants;
  int last = -1;
  for (int r = 0; r < rounds; ++r) {
    last = round_robin_pick(cands.data(), n, last);
    grants.push_back(last);
  }
  return grants;
}

TEST(Arbiter, RoundRobinRotatesAmongEqualPriorities) {
  EXPECT_EQ(rotate(3, 6), (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

TEST(Arbiter, HigherPriorityWins) {
  const ArbCandidate cands[] = {{0, 0}, {2, 5}, {3, 1}};
  EXPECT_EQ(round_robin_pick(cands, 3, -1), 2);
  EXPECT_EQ(round_robin_pick(cands, 3, 2), 2);  // priority beats rotation
}

TEST(Arbiter, NoRequestersYieldsMinusOne) {
  EXPECT_EQ(round_robin_pick(nullptr, 0, -1), -1);
}

TEST(Arbiter, UnconsumedGrantKeepsItsTurn) {
  // The pick is pure: a winner whose grant is not consumed (its crossbar
  // input was taken) wins again until the caller records the grant.
  const ArbCandidate cands[] = {{0, 0}, {1, 0}, {2, 0}};
  EXPECT_EQ(round_robin_pick(cands, 3, -1), 0);
  EXPECT_EQ(round_robin_pick(cands, 3, -1), 0);
  EXPECT_EQ(round_robin_pick(cands, 3, 0), 1);
  EXPECT_EQ(round_robin_pick(cands, 3, 2), 0);  // wraps around
}

TEST(Arbiter, StarvationFreedomUnderContention) {
  // With persistent requests from everyone, each index is granted within
  // `size` rounds — the fairness guarantee of Section 3.
  std::vector<int> last_grant(5, -1);
  const std::vector<int> grants = rotate(5, 25);
  for (int round = 0; round < 25; ++round)
    last_grant[static_cast<std::size_t>(grants[static_cast<std::size_t>(
        round)])] = round;
  for (int i = 0; i < 5; ++i)
    EXPECT_GE(last_grant[static_cast<std::size_t>(i)], 20);
}

// ----------------------------------------------------------- channel table
/// A 2x2 mesh; node (0,0)'s east port is one end of the link under test.
class ChannelFixture : public ::testing::Test {
 protected:
  ChannelFixture() : mesh_(Mesh::two_d(2, 2)) {}
  std::size_t east() const {
    return static_cast<std::size_t>(mesh_.at(0, 0)) *
               static_cast<std::size_t>(mesh_.degree()) +
           static_cast<std::size_t>(port_of(Compass::East));
  }
  Mesh mesh_;
};

TEST_F(ChannelFixture, FlitLatencyAndOrder) {
  ChannelTable ch(mesh_, 2, /*latency=*/3);
  const std::size_t s = east();
  const std::size_t r = ch.far_slot(s);
  ch.send_flit(s, 10, 1, make_head_flit(0, 2));
  VcId vc = kInvalidVc;
  Flit f;
  EXPECT_FALSE(ch.receive_flit(r, 11, vc, f));
  EXPECT_FALSE(ch.receive_flit(r, 12, vc, f));
  ASSERT_TRUE(ch.receive_flit(r, 13, vc, f));
  EXPECT_EQ(vc, 1);
  EXPECT_TRUE(f.head());
  EXPECT_TRUE(ch.idle());
  EXPECT_EQ(ch.flits_total(s), 1);
  EXPECT_EQ(ch.flits_total(r), 0);
}

TEST_F(ChannelFixture, OneFlitPerCycleEnforced) {
  ChannelTable ch(mesh_, 1, 1);
  ch.send_flit(east(), 5, 0, make_head_flit(0, 2));
  EXPECT_THROW(ch.send_flit(east(), 5, 0, make_body_flit(0, 1, 2)),
               ContractViolation);
}

TEST_F(ChannelFixture, CreditsTravelBackwardAsVcBitmask) {
  ChannelTable ch(mesh_, 2, 2);
  const std::size_t r = ch.far_slot(east());
  ch.send_credit(r, 4, 0);
  ch.send_credit(r, 4, 1);
  EXPECT_FALSE(ch.idle());
  EXPECT_TRUE(ch.busy(east()));  // credits land at the sender's port
  EXPECT_EQ(ch.receive_credits(east(), 5), 0u);
  EXPECT_EQ(ch.receive_credits(east(), 6), 0b11u);  // bit v == VC v
  EXPECT_EQ(ch.receive_credits(east(), 6), 0u);     // consumed
  EXPECT_TRUE(ch.idle());
}

TEST_F(ChannelFixture, BackToBackFlitsKeepLatency) {
  // A flit delivered at cycle t must survive a send at cycle t (routers
  // step in node order, so the sender may transmit before the receiver
  // picks up) — the register has latency+1 stages for exactly this.
  ChannelTable ch(mesh_, 1, 1);
  const std::size_t s = east();
  const std::size_t r = ch.far_slot(s);
  VcId vc = kInvalidVc;
  Flit f;
  ch.send_flit(s, 0, 0, make_head_flit(0, 3));
  ch.send_flit(s, 1, 0, make_body_flit(0, 1, 3));
  ASSERT_TRUE(ch.receive_flit(r, 1, vc, f));
  EXPECT_TRUE(f.head());
  ch.send_flit(s, 2, 0, make_body_flit(0, 2, 3));
  ASSERT_TRUE(ch.receive_flit(r, 2, vc, f));
  EXPECT_EQ(f.seq, 1);
  ASSERT_TRUE(ch.receive_flit(r, 3, vc, f));
  EXPECT_TRUE(f.tail());
  EXPECT_TRUE(ch.idle());
  EXPECT_EQ(ch.flits_total(s), 3);
}

TEST_F(ChannelFixture, FailedLinkDestroysFlitsAndSwallowsCredits) {
  ChannelTable ch(mesh_, 2, 2);
  const std::size_t s = east();
  const std::size_t r = ch.far_slot(s);
  ch.send_flit(s, 0, 1, make_head_flit(7, 2));
  ch.send_flit(r, 0, 0, make_head_flit(9, 2));
  std::vector<Flit> destroyed;
  ch.fail_link(s, destroyed);
  ASSERT_EQ(destroyed.size(), 2u);
  EXPECT_EQ(destroyed[0].slot, 7u);  // the channel leaving `s` first
  EXPECT_EQ(destroyed[1].slot, 9u);
  EXPECT_TRUE(ch.failed(s) && ch.failed(r));
  EXPECT_TRUE(ch.idle());
  ch.send_credit(r, 1, 0);  // swallowed by the dead wire
  EXPECT_TRUE(ch.idle());
  EXPECT_THROW(ch.send_flit(s, 1, 0, make_head_flit(7, 2)), ContractViolation);
  ch.fail_link(r, destroyed);  // idempotent
  EXPECT_EQ(destroyed.size(), 2u);
  ch.repair_link(r);
  EXPECT_FALSE(ch.failed(s));
}

// -------------------------------------------- two routers connected directly
class TwoRouterFixture : public ::testing::Test {
 protected:
  TwoRouterFixture()
      : mesh_(Mesh::two_d(2, 2)),
        faults_(mesh_),
        algo_(),
        cfg_() {
    algo_.attach(mesh_, faults_);
  }

  /// Steps `nodes` in ascending order each cycle until `want` flits have
  /// ejected or `limit` cycles have passed.
  std::vector<Flit> run(RouterArray& routers, std::vector<NodeId> nodes,
                        std::size_t want, Cycle limit) {
    RouterArray::SaScratch sa = routers.make_sa_scratch();
    std::vector<Flit> ejected, dropped;
    for (Cycle t = 0; t < limit && ejected.size() < want; ++t)
      for (const NodeId n : nodes) routers.step(n, t, sa, ejected, dropped);
    EXPECT_TRUE(dropped.empty());
    return ejected;
  }

  Mesh mesh_;
  FaultSet faults_;
  DimensionOrderMesh algo_;
  PacketStore store_;
  RouterConfig cfg_;
};

TEST_F(TwoRouterFixture, PacketCrossesOneHop) {
  ChannelTable channels(mesh_, algo_.num_vcs(), 1);
  RouterArray routers(mesh_, algo_, store_, cfg_, channels);
  const NodeId r0 = mesh_.at(0, 0), r1 = mesh_.at(1, 0);
  const PacketSlot slot = sealed_packet(store_, 0, r0, r1, 3);
  routers.inject(r0, make_head_flit(slot, 3));
  routers.inject(r0, make_body_flit(slot, 1, 3));
  routers.inject(r0, make_body_flit(slot, 2, 3));

  const std::vector<Flit> ejected = run(routers, {r0, r1}, 3, 30);
  ASSERT_EQ(ejected.size(), 3u);
  EXPECT_TRUE(ejected[0].head());
  EXPECT_EQ(store_.header(slot).path_len, 1);  // one hop
  EXPECT_TRUE(ejected[2].tail());
  EXPECT_TRUE(routers.empty(r0));
  EXPECT_TRUE(routers.empty(r1));
  EXPECT_EQ(routers.stats(r1).flits_ejected, 3);
  EXPECT_EQ(routers.stats(r0).decision_steps, 1);
}

TEST_F(TwoRouterFixture, LocalDeliveryWithoutLinks) {
  ChannelTable channels(mesh_, algo_.num_vcs(), 1);
  RouterArray routers(mesh_, algo_, store_, cfg_, channels);
  const NodeId r0 = mesh_.at(0, 0);
  const PacketSlot slot = sealed_packet(store_, 0, mesh_.at(1, 0), r0, 2);
  routers.inject(r0, make_head_flit(slot, 2));
  routers.inject(r0, make_body_flit(slot, 1, 2));
  const std::vector<Flit> ejected = run(routers, {r0}, 2, 10);
  ASSERT_EQ(ejected.size(), 2u);
  EXPECT_EQ(store_.header(slot).path_len, 0);  // never left the router
  EXPECT_TRUE(channels.idle());
}

TEST_F(TwoRouterFixture, InjectionFifoOrderAndCapacity) {
  cfg_.injection_depth = 2;
  ChannelTable channels(mesh_, algo_.num_vcs(), 1);
  RouterArray routers(mesh_, algo_, store_, cfg_, channels);
  const NodeId r0 = mesh_.at(0, 0);
  const PacketSlot slot = sealed_packet(store_, 0, mesh_.at(1, 0), r0, 3);
  routers.inject(r0, make_head_flit(slot, 3));
  routers.inject(r0, make_body_flit(slot, 1, 3));
  EXPECT_EQ(routers.injection_space(r0), 0);
  EXPECT_THROW(routers.inject(r0, make_body_flit(slot, 2, 3)),
               ContractViolation);
  const std::vector<Flit> ejected = run(routers, {r0}, 2, 10);
  ASSERT_EQ(ejected.size(), 2u);
  EXPECT_TRUE(ejected[0].head());
  EXPECT_EQ(ejected[1].seq, 1);
  EXPECT_EQ(routers.injection_space(r0), 2);
}

TEST_F(TwoRouterFixture, CreditsThrottleAndRecover) {
  // Fill downstream buffer (depth 4), verify upstream stalls, then drains.
  ChannelTable channels(mesh_, algo_.num_vcs(), 1);
  RouterArray routers(mesh_, algo_, store_, cfg_, channels);
  const NodeId r0 = mesh_.at(0, 0), r1 = mesh_.at(1, 0);

  // A long packet: 12 flits through a depth-4 buffer must still flow.
  const int kLen = 12;
  const PacketSlot slot = sealed_packet(store_, 0, r0, r1, kLen);
  routers.inject(r0, make_head_flit(slot, kLen));
  for (int s = 1; s < kLen; ++s)
    routers.inject(r0, make_body_flit(slot, s, kLen));

  const std::vector<Flit> ejected = run(routers, {r0, r1}, kLen, 100);
  EXPECT_EQ(ejected.size(), static_cast<std::size_t>(kLen));
  EXPECT_TRUE(routers.empty(r0));
  EXPECT_TRUE(routers.empty(r1));
}

}  // namespace
}  // namespace flexrouter
