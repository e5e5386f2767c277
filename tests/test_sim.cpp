// Integration tests: full networks under traffic, fault injection with the
// quiescent reconfiguration protocol, decision-step accounting (the paper's
// E3 numbers), and traffic pattern properties.
#include <gtest/gtest.h>

#include "routing/nafta.hpp"
#include "routing/nara.hpp"
#include "routing/route_c.hpp"
#include "routing/spanning_tree.hpp"
#include "routing/updown.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "topology/graph_algo.hpp"

namespace flexrouter {
namespace {

// ---------------------------------------------------------------- traffic
TEST(Traffic, UniformNeverSelfAddresses) {
  Mesh m = Mesh::two_d(4, 4);
  UniformTraffic t(m);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const NodeId s = static_cast<NodeId>(rng.next_below(16));
    const NodeId d = t.dest(s, rng);
    EXPECT_NE(d, s);
    EXPECT_TRUE(m.valid_node(d));
  }
}

TEST(Traffic, TransposeAndTornado) {
  Mesh m = Mesh::two_d(8, 8);
  TransposeTraffic tr(m);
  Rng rng(2);
  EXPECT_EQ(tr.dest(m.at(2, 5), rng), m.at(5, 2));
  TornadoTraffic to(m);
  EXPECT_EQ(to.dest(m.at(1, 1), rng), m.at(5, 5));
}

TEST(Traffic, BitComplement) {
  Hypercube h(4);
  BitComplementTraffic t(h);
  Rng rng(3);
  EXPECT_EQ(t.dest(0b0101, rng), 0b1010);
}

TEST(Traffic, PermutationIsFixedPointFree) {
  Mesh m = Mesh::two_d(5, 5);
  PermutationTraffic t(m, 42);
  Rng rng(4);
  std::set<NodeId> dests;
  for (NodeId s = 0; s < m.num_nodes(); ++s) {
    const NodeId d = t.dest(s, rng);
    EXPECT_NE(d, s);
    dests.insert(d);
  }
  EXPECT_EQ(dests.size(), static_cast<std::size_t>(m.num_nodes()));
}

TEST(Traffic, HotspotFraction) {
  Mesh m = Mesh::two_d(4, 4);
  HotspotTraffic t(m, m.at(2, 2), 0.5);
  Rng rng(5);
  int hot = 0;
  for (int i = 0; i < 4000; ++i)
    hot += t.dest(m.at(0, 0), rng) == m.at(2, 2);
  EXPECT_NEAR(hot / 4000.0, 0.5, 0.06);
}

TEST(Traffic, FactoryKnowsAllPatterns) {
  Mesh m = Mesh::two_d(4, 4);
  for (const char* name :
       {"uniform", "bitcomp", "transpose", "tornado", "hotspot",
        "permutation"})
    EXPECT_NE(make_traffic(name, m), nullptr) << name;
  EXPECT_THROW(make_traffic("nope", m), ContractViolation);
}

// ----------------------------------------------------------- basic network
TEST(NetworkTest, SinglePacketEndToEnd) {
  Mesh m = Mesh::two_d(4, 4);
  Nara nara;
  Network net(m, nara);
  const PacketId id = net.send(m.at(0, 0), m.at(3, 3), 5, 0);
  Cycle t = 0;
  while (t < 200 && !net.record(id).done()) net.step(t++);
  for (int extra = 0; extra < 5; ++extra) net.step(t++);  // drain credits
  const PacketRecord& rec = net.record(id);
  ASSERT_TRUE(rec.done());
  EXPECT_EQ(rec.hops, 6);  // minimal path
  EXPECT_FALSE(rec.misrouted);
  EXPECT_GE(rec.delivered - rec.created, 6);  // at least one cycle per hop
  EXPECT_TRUE(net.idle());
}

TEST(NetworkTest, RejectsFaultyEndpoints) {
  Mesh m = Mesh::two_d(4, 4);
  UpDownRouting algo;
  Network net(m, algo);
  net.apply_faults([&](FaultSet& f) { f.fail_node(m.at(1, 1)); });
  EXPECT_THROW(net.send(m.at(1, 1), m.at(0, 0), 1, 0), ContractViolation);
  EXPECT_THROW(net.send(m.at(0, 0), m.at(1, 1), 1, 0), ContractViolation);
  EXPECT_THROW(net.send(m.at(0, 0), m.at(0, 0), 1, 0), ContractViolation);
}

TEST(NetworkTest, ApplyFaultsDemandsQuiescence) {
  Mesh m = Mesh::two_d(4, 4);
  Nara nara;
  Network net(m, nara);
  net.send(m.at(0, 0), m.at(3, 3), 5, 0);
  EXPECT_THROW(net.apply_faults([](FaultSet&) {}), ContractViolation);
}

TEST(NetworkTest, ManyPacketsAllDeliveredNara) {
  Mesh m = Mesh::two_d(6, 6);
  Nara nara;
  Network net(m, nara);
  Rng rng(7);
  std::vector<PacketId> ids;
  Cycle now = 0;
  for (int i = 0; i < 300; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(36));
    auto d = static_cast<NodeId>(rng.next_below(36));
    if (d == s) d = (d + 1) % 36;
    ids.push_back(net.send(s, d, 4, now));
  }
  for (Cycle t = 0; t < 20000 && !net.idle(); ++t) net.step(now++);
  for (const PacketId id : ids) {
    EXPECT_TRUE(net.record(id).done()) << "packet " << id << " stuck";
    EXPECT_GE(net.record(id).hops,
              m.distance(net.record(id).src, net.record(id).dest));
  }
}

// --------------------------------------------------------------- simulator
TEST(SimulatorTest, NaraUniformLowLoad) {
  Mesh m = Mesh::two_d(6, 6);
  Nara nara;
  Network net(m, nara);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 700;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_GT(r.injected_packets, 100);
  EXPECT_EQ(r.delivered_packets, r.injected_packets);
  EXPECT_GT(r.avg_latency, 5.0);
  EXPECT_LT(r.avg_latency, 100.0);
  // Minimal routing: hops == topological distance exactly.
  EXPECT_DOUBLE_EQ(r.min_hops_ratio, 1.0);
  EXPECT_DOUBLE_EQ(r.avg_decision_steps, 1.0);
  EXPECT_EQ(r.misrouted_fraction, 0.0);
}

TEST(SimulatorTest, NaftaFaultFreeMatchesNaraSteps) {
  Mesh m = Mesh::two_d(6, 6);
  Nafta nafta;
  Network net(m, nafta);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 500;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_DOUBLE_EQ(r.avg_decision_steps, 1.0);  // paper: 1 step fault-free
  EXPECT_EQ(r.delivered_packets, r.injected_packets);
}

TEST(SimulatorTest, NaftaDeliversUnderFaultsWithMoreSteps) {
  Mesh m = Mesh::two_d(6, 6);
  Nafta nafta;
  Network net(m, nafta);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.04;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  Simulator sim(net, traffic, cfg);
  Rng rng(13);
  const int exchanges = net.apply_faults([&](FaultSet& f) {
    inject_random_link_faults(f, 6, rng);
  });
  EXPECT_GT(exchanges, 0);
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets, r.injected_packets);
  // paper: between 2 (fault lookup) and 3 (misroute) interpretations.
  EXPECT_GE(r.avg_decision_steps, 2.0);
  EXPECT_LE(r.avg_decision_steps, 3.0);
  // Detours exist but deliveries complete.
  EXPECT_GE(r.min_hops_ratio, 1.0);
}

TEST(SimulatorTest, NaftaSurvivesFigure2Chain) {
  Mesh m = Mesh::two_d(8, 8);
  Nafta nafta;
  Network net(m, nafta);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.03;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 600;
  Simulator sim(net, traffic, cfg);
  net.apply_faults([&](FaultSet& f) {
    inject_figure2_chain(f, m, 3, 6);  // wall between columns 3 and 4
  });
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets, r.injected_packets);
  EXPECT_GT(r.misrouted_fraction, 0.0);  // traffic must detour the wall
}

TEST(SimulatorTest, RouteCDeliversUnderNodeFaults) {
  Hypercube h(4);
  RouteC route_c;
  Network net(h, route_c);
  UniformTraffic traffic(h);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 600;
  Simulator sim(net, traffic, cfg);
  Rng rng(17);
  net.apply_faults([&](FaultSet& f) {
    inject_random_node_faults(f, 2, rng);
    inject_random_link_faults(f, 2, rng);
  });
  EXPECT_FALSE(route_c.totally_unsafe());
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets, r.injected_packets);
  EXPECT_DOUBLE_EQ(r.avg_decision_steps, 2.0);  // paper: always two
}

TEST(SimulatorTest, StrippedRouteCFaultFree) {
  Hypercube h(4);
  StrippedRouteC nft;
  Network net(h, nft);
  UniformTraffic traffic(h);
  SimConfig cfg;
  cfg.injection_rate = 0.08;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 500;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets, r.injected_packets);
  EXPECT_DOUBLE_EQ(r.avg_decision_steps, 1.0);  // paper: one interpretation
  EXPECT_DOUBLE_EQ(r.min_hops_ratio, 1.0);
}

TEST(SimulatorTest, SpanningTreePathsAreLong) {
  // Section 2: tree routing almost never uses minimal paths.
  Mesh m = Mesh::two_d(6, 6);
  SpanningTreeRouting st;
  Network net(m, st);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 600;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets, r.injected_packets);
  EXPECT_GT(r.min_hops_ratio, 1.2);  // clearly non-minimal on average
}

TEST(SimulatorTest, RepeatedFaultEpochs) {
  // Inject faults in several rounds with quiesce between them: the network
  // keeps delivering after every reconfiguration.
  Mesh m = Mesh::two_d(6, 6);
  Nafta nafta;
  Network net(m, nafta);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.03;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 300;
  Simulator sim(net, traffic, cfg);
  Rng rng(23);
  for (int round = 0; round < 3; ++round) {
    const SimResult r = sim.run();
    EXPECT_FALSE(r.deadlock_suspected) << "round " << round;
    EXPECT_EQ(r.delivered_packets, r.injected_packets) << "round " << round;
    ASSERT_TRUE(sim.quiesce());
    net.apply_faults([&](FaultSet& f) {
      inject_random_link_faults(f, 2, rng);
    });
  }
}

TEST(SimulatorTest, LinkUtilizationAccounting) {
  Mesh m = Mesh::two_d(4, 4);
  Nara nara;
  Network net(m, nara);
  // A single packet along a known path: exactly its links carry flits.
  const PacketId id = net.send(m.at(0, 0), m.at(3, 0), 5, 0);
  Cycle now = 0;
  while (!net.record(id).done()) net.step(now++);
  const auto loads = net.link_utilization(now);
  double carried = 0;
  int active_links = 0;
  for (const auto& l : loads) {
    carried += l.utilization * static_cast<double>(now);
    active_links += l.utilization > 0 ? 1 : 0;
  }
  EXPECT_EQ(active_links, 3);  // (0,0)->(1,0)->(2,0)->(3,0)
  EXPECT_DOUBLE_EQ(carried, 15.0);  // 5 flits x 3 hops
  const auto [max_u, mean_u] = net.utilization_summary(now);
  EXPECT_GT(max_u, 0.0);
  EXPECT_GT(max_u, mean_u);
}

TEST(SimulatorTest, LatencySplitByMisrouteMark) {
  Mesh m = Mesh::two_d(6, 6);
  Nafta nafta;
  Network net(m, nafta);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.04;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  Simulator sim(net, traffic, cfg);
  net.apply_faults([&](FaultSet& f) {
    inject_figure2_chain(f, m, 2, 4);
  });
  const SimResult r = sim.run();
  ASSERT_GT(r.misrouted_fraction, 0.0);
  ASSERT_LT(r.misrouted_fraction, 1.0);
  EXPECT_GT(r.avg_latency_misrouted, 0.0);
  EXPECT_GT(r.avg_latency_direct, 0.0);
  // The overall mean must lie between the two class means.
  EXPECT_GE(r.avg_latency,
            std::min(r.avg_latency_misrouted, r.avg_latency_direct));
  EXPECT_LE(r.avg_latency,
            std::max(r.avg_latency_misrouted, r.avg_latency_direct));
  // Misrouted packets pay for their detours.
  EXPECT_GT(r.avg_latency_misrouted, r.avg_latency_direct);
}

TEST(SimulatorTest, MisroutePriorityBoostConfigurable) {
  // Smoke test for the Section 3 fairness hook: boosted misrouted messages
  // still leave a functioning network.
  Mesh m = Mesh::two_d(5, 5);
  Nafta nafta;
  NetworkConfig ncfg;
  ncfg.router.misroute_priority_boost = 4;
  Network net(m, nafta, ncfg);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.04;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 400;
  Simulator sim(net, traffic, cfg);
  Rng rng(31);
  net.apply_faults([&](FaultSet& f) {
    inject_random_link_faults(f, 5, rng);
  });
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets, r.injected_packets);
}

// ------------------------------------------------- numeric regression
// Exact SimResult values for two pinned scenarios, captured from the
// pre-sweep-engine simulator. The hot-loop overhaul (active-router
// worklist, ring-buffer injection queues, counted drain, single metrics
// pass, exact count-based percentiles) is required to reproduce every
// field bit-for-bit — EXPECT_EQ on doubles here is deliberate.
TEST(SimulatorRegression, FaultyMeshNaftaExactResults) {
  Mesh m = Mesh::two_d(8, 8);
  Nafta nafta;
  Network net(m, nafta);
  net.apply_faults([&](FaultSet& f) { inject_figure2_chain(f, m, 3, 5); });
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.06;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 900;
  cfg.seed = 12345;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();
  EXPECT_EQ(r.injected_packets, 860);
  EXPECT_EQ(r.delivered_packets, 860);
  EXPECT_EQ(r.avg_latency, 62.437209302325584);
  EXPECT_EQ(r.p50_latency, 34.0);
  EXPECT_EQ(r.p99_latency, 523.81999999999994);
  EXPECT_EQ(r.avg_hops, 9.2093023255813975);
  EXPECT_EQ(r.min_hops_ratio, 1.8372285789146259);
  EXPECT_EQ(r.throughput, 0.059722222222222225);
  EXPECT_EQ(r.misrouted_fraction, 0.2069767441860465);
  EXPECT_EQ(r.avg_latency_misrouted, 153.82584269662922);
  EXPECT_EQ(r.avg_latency_direct, 38.585043988269803);
  EXPECT_EQ(r.avg_decision_steps, 2.1247344719177499);
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.cycles_run, 1441);
}

TEST(SimulatorRegression, BimodalNaraExactResults) {
  // Fault-free, with the bimodal long-worm mix (exercises the outlier path
  // of the exact percentile structure and the ring-buffer regrow).
  Mesh m = Mesh::two_d(6, 6);
  Nara nara;
  Network net(m, nara);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.10;
  cfg.packet_length = 4;
  cfg.long_packet_length = 16;
  cfg.long_packet_fraction = 0.1;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 600;
  cfg.seed = 7;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();
  EXPECT_EQ(r.injected_packets, 451);
  EXPECT_EQ(r.delivered_packets, 451);
  EXPECT_EQ(r.avg_latency, 20.713968957871398);
  EXPECT_EQ(r.p50_latency, 20.0);
  EXPECT_EQ(r.p99_latency, 47.0);
  EXPECT_EQ(r.avg_hops, 4.1064301552106448);
  EXPECT_EQ(r.min_hops_ratio, 1.0);
  EXPECT_EQ(r.throughput, 0.10907407407407407);
  EXPECT_EQ(r.misrouted_fraction, 0.0);
  EXPECT_EQ(r.avg_latency_misrouted, 0.0);
  EXPECT_EQ(r.avg_latency_direct, 20.713968957871391);
  EXPECT_EQ(r.avg_decision_steps, 1.0);
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.cycles_run, 832);
}

TEST(SimulatorRegression, FaultyHypercubeRouteCExactResults) {
  // Third rule base pinned (ROUTE_C on a faulted hypercube), so all three
  // of NAFTA / NARA / ROUTE_C have an exact-value scenario. Captured from
  // the pre-packet-store data plane; the slab-store refactor must
  // reproduce every field bit-for-bit.
  Hypercube h(4);
  RouteC routec;
  Network net(h, routec);
  Rng rng(17);
  net.apply_faults([&](FaultSet& f) {
    inject_random_node_faults(f, 2, rng);
    inject_random_link_faults(f, 2, rng);
  });
  UniformTraffic traffic(h);
  SimConfig cfg;
  cfg.injection_rate = 0.06;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 900;
  cfg.seed = 4242;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();
  EXPECT_EQ(r.injected_packets, 198);
  EXPECT_EQ(r.delivered_packets, 198);
  EXPECT_EQ(r.avg_latency, 18.878787878787879);
  EXPECT_EQ(r.p50_latency, 14.0);
  EXPECT_EQ(r.p99_latency, 118.12);
  EXPECT_EQ(r.avg_hops, 3.0505050505050524);
  EXPECT_EQ(r.min_hops_ratio, 1.5976430976430989);
  EXPECT_EQ(r.throughput, 0.062857142857142861);
  EXPECT_EQ(r.misrouted_fraction, 0.10606060606060606);
  EXPECT_EQ(r.avg_latency_misrouted, 54.666666666666657);
  EXPECT_EQ(r.avg_latency_direct, 14.632768361581926);
  EXPECT_EQ(r.avg_decision_steps, 2.0);
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.cycles_run, 1278);
}

TEST(SimulatorRegression, DynamicFaultNaftaExactResults) {
  // Live fault lifecycle pinned: a link dies mid-measurement on a healthy
  // NAFTA mesh. The kill wedges one worm against the stale routing epoch
  // (the structured watchdog breaks it), two packets retransmit, and the
  // recovery controller gates injection until the quiescent commit. Every
  // field — including the recovery metrics — must reproduce bit-for-bit.
  Mesh m = Mesh::two_d(8, 8);
  Nafta nafta;
  Network net(m, nafta);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.08;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1000;
  cfg.seed = 20260807;
  FaultSchedule schedule;
  schedule.fail_link_at(800, m.at(3, 3), port_of(Compass::East));
  Simulator sim(net, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult r = sim.run();
  EXPECT_EQ(r.injected_packets, 647);
  EXPECT_EQ(r.delivered_packets, 647);
  EXPECT_EQ(r.avg_latency, 29.822256568778979);
  EXPECT_EQ(r.p50_latency, 21.0);
  EXPECT_EQ(r.p99_latency, 44.539999999999964);
  EXPECT_EQ(r.avg_hops, 5.2936630602782087);
  EXPECT_EQ(r.min_hops_ratio, 1.0077279752704793);
  EXPECT_EQ(r.throughput, 0.040437500000000001);
  EXPECT_EQ(r.misrouted_fraction, 0.0015455950540958269);
  EXPECT_EQ(r.avg_latency_misrouted, 2731.0);
  EXPECT_EQ(r.avg_latency_direct, 25.640866873065015);
  EXPECT_EQ(r.avg_decision_steps, 1.0109626069980477);
  EXPECT_EQ(r.packets_lost, 2);
  EXPECT_EQ(r.packets_retransmitted, 2);
  EXPECT_EQ(r.packets_unrecoverable, 0);
  EXPECT_EQ(r.fault_events, 1);
  EXPECT_EQ(r.recovery_events, 1);
  EXPECT_EQ(r.recovery_cycles, 2506);
  EXPECT_EQ(r.worms_killed, 1);
  EXPECT_EQ(r.reconfig_exchanges, 2952);
  EXPECT_EQ(r.availability, 0.5);
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.blocked_chain.size(), 1u);
  EXPECT_EQ(r.cycles_run, 3524);
}

TEST(SimulatorRegression, Mesh64ShardedExactResults) {
  // Large-fabric pin: 4096-node mesh stepped as 4 spatial shards.
  // test_shard proves every shard count gives the same answers; this pin
  // additionally freezes the absolute values so drift is caught even if
  // every shard count drifts together.
  Mesh m = Mesh::two_d(64, 64);
  Nafta nafta;
  NetworkConfig ncfg;
  ncfg.shards = 4;
  Network net(m, nafta, ncfg);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 300;
  cfg.seed = 6464;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();
  EXPECT_EQ(r.injected_packets, 6240);
  EXPECT_EQ(r.delivered_packets, 6240);
  EXPECT_EQ(r.avg_latency, 139.16073717948717);
  EXPECT_EQ(r.p50_latency, 135.0);
  EXPECT_EQ(r.p99_latency, 302.0);
  EXPECT_EQ(r.avg_hops, 43.283173076923006);
  EXPECT_EQ(r.min_hops_ratio, 1.0);
  EXPECT_EQ(r.throughput, 0.020312500000000001);
  EXPECT_EQ(r.misrouted_fraction, 0.0);
  EXPECT_EQ(r.avg_latency_misrouted, 0.0);
  EXPECT_EQ(r.avg_latency_direct, 139.16073717948734);
  EXPECT_EQ(r.avg_decision_steps, 1.0);
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.cycles_run, 711);
}

}  // namespace
}  // namespace flexrouter
