// Router protocol invariants, checked as properties over real traffic:
// credit conservation, wormhole (non-interleaving) integrity, checksum
// enforcement at routing computation, ejection fairness, and drain
// completeness after arbitrary load.
#include <gtest/gtest.h>

#include <map>

#include "routing/nafta.hpp"
#include "routing/nara.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"

namespace flexrouter {
namespace {

TEST(RouterProps, CreditConservationAfterDrain) {
  // After the network drains, every output VC must have its full credit
  // budget back — lost or duplicated credits would show up here — and be
  // free: the audit's ownership check fails on an owned output VC with no
  // active input VC behind it.
  Mesh m = Mesh::two_d(4, 4);
  Nara nara;
  NetworkConfig ncfg;
  Network net(m, nara, ncfg);
  Rng rng(1);
  Cycle now = 0;
  for (int burst = 0; burst < 5; ++burst) {
    for (int i = 0; i < 60; ++i) {
      const auto s = static_cast<NodeId>(rng.next_below(16));
      auto d = static_cast<NodeId>(rng.next_below(16));
      if (d == s) d = (d + 1) % 16;
      net.send(s, d, 1 + static_cast<int>(rng.next_below(6)), now);
    }
    for (int c = 0; c < 3000 && !net.idle(); ++c) net.step(now++);
    ASSERT_TRUE(net.idle());
    net.check_invariants();
    for (NodeId n = 0; n < m.num_nodes(); ++n) {
      for (PortId p = 0; p < m.degree(); ++p) {
        if (m.neighbor(n, p) == kInvalidNode) continue;
        for (VcId v = 0; v < nara.num_vcs(); ++v)
          EXPECT_EQ(net.routers().output_credits(n, p, v),
                    ncfg.router.buffer_depth)
              << "node " << n << " port " << p << " vc " << v;
      }
    }
  }
}

TEST(RouterProps, WormholeFlitsArriveInOrderPerPacket) {
  Mesh m = Mesh::two_d(5, 5);
  Nara nara;
  Network net(m, nara);
  Rng rng(7);
  Cycle now = 0;
  std::vector<PacketId> ids;
  for (int i = 0; i < 150; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(25));
    auto d = static_cast<NodeId>(rng.next_below(25));
    if (d == s) d = (d + 1) % 25;
    ids.push_back(net.send(s, d, 6, now));
  }
  // Track per-packet ejection sequence using delivered_last_cycle and the
  // record's delivered timestamps: tails must come last, and every packet
  // must complete exactly once.
  std::map<PacketId, int> tails_seen;
  for (int c = 0; c < 20000 && !net.idle(); ++c) {
    net.step(now++);
    for (const PacketId id : net.delivered_last_cycle()) ++tails_seen[id];
  }
  ASSERT_TRUE(net.idle());
  for (const PacketId id : ids) {
    EXPECT_TRUE(net.record(id).done());
    EXPECT_EQ(tails_seen[id], 1) << "packet " << id;
  }
}

TEST(RouterProps, CorruptHeaderIsRejectedAtRC) {
  Mesh m = Mesh::two_d(2, 2);
  FaultSet f(m);
  Nara nara;
  nara.attach(m, f);
  PacketStore store;
  ChannelTable channels(m, nara.num_vcs(), 1);
  RouterArray routers(m, nara, store, RouterConfig{}, channels);
  RouterArray::SaScratch sa = routers.make_sa_scratch();
  Header h;
  h.packet = 1;
  h.src = m.at(1, 1);
  h.dest = m.at(1, 0);
  h.length = 1;
  MessageInterface::seal(h);
  const PacketSlot slot = store.alloc(h);
  store.header(slot).dest = m.at(0, 1);  // tampered after sealing
  routers.inject(m.at(0, 0), make_head_flit(slot, 1));
  std::vector<Flit> ejected, dropped;
  EXPECT_THROW(routers.step(m.at(0, 0), 0, sa, ejected, dropped),
               ContractViolation);
}

TEST(RouterProps, EjectionFairnessUnderConvergingTraffic) {
  // Four corners flood the centre; round-robin SA must not starve any
  // source: delivered counts stay within a small factor of each other.
  Mesh m = Mesh::two_d(5, 5);
  Nara nara;
  Network net(m, nara);
  const NodeId center = m.at(2, 2);
  const NodeId sources[4] = {m.at(0, 0), m.at(4, 0), m.at(0, 4), m.at(4, 4)};
  Cycle now = 0;
  std::map<NodeId, std::vector<PacketId>> per_source;
  for (int wave = 0; wave < 40; ++wave) {
    for (const NodeId s : sources)
      per_source[s].push_back(net.send(s, center, 4, now));
    for (int c = 0; c < 8; ++c) net.step(now++);
  }
  for (int c = 0; c < 20000 && !net.idle(); ++c) net.step(now++);
  ASSERT_TRUE(net.idle());
  // All delivered; compare the time of the last delivery per source.
  Cycle last[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    for (const PacketId id : per_source[sources[i]]) {
      ASSERT_TRUE(net.record(id).done());
      last[i] = std::max(last[i], net.record(id).delivered);
    }
  }
  const Cycle lo = *std::min_element(last, last + 4);
  const Cycle hi = *std::max_element(last, last + 4);
  EXPECT_LT(hi - lo, 400) << "a source finished far behind the others";
}

TEST(RouterProps, MixedLengthPacketsDrainCompletely) {
  Mesh m = Mesh::two_d(6, 6);
  Nafta nafta;
  Network net(m, nafta);
  Rng rng(23);
  net.apply_faults([&](FaultSet& f) {
    inject_random_link_faults(f, 5, rng);
  });
  Cycle now = 0;
  std::int64_t flits_sent = 0;
  for (int i = 0; i < 250; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(36));
    auto d = static_cast<NodeId>(rng.next_below(36));
    if (d == s) d = (d + 1) % 36;
    const int len = 1 + static_cast<int>(rng.next_below(9));
    net.send(s, d, len, now);
    flits_sent += len;
  }
  for (int c = 0; c < 60000 && !net.idle(); ++c) net.step(now++);
  ASSERT_TRUE(net.idle());
  const RouterStats agg = net.aggregate_stats();
  EXPECT_EQ(agg.flits_ejected, flits_sent);  // nothing lost or duplicated
  EXPECT_EQ(net.packets_delivered(), 250);
}

TEST(RouterProps, InjectionBackpressure) {
  // A source cannot out-inject the local buffer: injection_space bounds it
  // and the network never drops.
  Mesh m = Mesh::two_d(3, 3);
  Nara nara;
  Network net(m, nara);
  Cycle now = 0;
  // Queue far more traffic at one node than the local port can take.
  for (int i = 0; i < 100; ++i)
    net.send(m.at(0, 0), m.at(2, 2), 4, now);
  for (int c = 0; c < 30000 && !net.idle(); ++c) net.step(now++);
  ASSERT_TRUE(net.idle());
  EXPECT_EQ(net.packets_delivered(), 100);
}

}  // namespace
}  // namespace flexrouter
