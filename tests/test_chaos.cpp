// Chaos-campaign fault physics: repair and re-adoption, flapping links,
// fail-slow degradation, correlated storms, the bit-portable MTBF stream,
// and determinism of all of it under the parallel sweep engine and the
// sharded network (the TSan job runs this binary).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "routing/dor.hpp"
#include "routing/nafta.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"

namespace flexrouter {
namespace {

void expect_exact_accounting(const SimResult& r) {
  EXPECT_EQ(r.delivered_packets + r.packets_unrecoverable,
            r.injected_packets);
  EXPECT_EQ(r.packets_lost, r.packets_retransmitted + r.packets_unrecoverable);
}

// ----------------------------------------------- bit-portable MTBF stream
TEST(Chaos, DetLogTracksStdLog) {
  // det_log is its own fixed-operation evaluation, but it must still be a
  // *logarithm*: agree with libm to ~1 ulp across magnitudes.
  for (const double x : {1e-12, 0.3, 0.5, 0.9999, 1.0, 1.5, 2.0, 42.0,
                         1e6, 1e300}) {
    const double ref = std::log(x);
    const double got = det_log(x);
    EXPECT_NEAR(got, ref, 4e-16 * (std::abs(ref) + 1.0)) << "x=" << x;
  }
  EXPECT_NEAR(det_log(1.0), 0.0, 3e-16);  // series evaluation: 1 ulp
  EXPECT_THROW(det_log(0.0), ContractViolation);
  EXPECT_THROW(det_log(-1.0), ContractViolation);
}

TEST(Chaos, MtbfStreamExactValuesPinned) {
  // The exact event stream for (8x8 mesh, mtbf=300, horizon=2000, seed=77).
  // These values must never change: they certify that the SplitMix64 +
  // det_log inverse-CDF draw is bit-identical across platforms and
  // standard libraries. If this test fails, the RNG or det_log changed and
  // every seeded chaos campaign silently re-rolled.
  Mesh m = Mesh::two_d(8, 8);
  FaultSchedule s;
  s.add_random_link_faults(m, 300.0, 2000, 77);
  const struct {
    Cycle at;
    NodeId node;
    PortId port;
  } expected[] = {{145, 29, 0},  {383, 11, 2},  {857, 24, 2},
                  {1549, 26, 0}, {1707, 38, 2}, {1868, 23, 2}};
  ASSERT_EQ(s.events().size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(s.events()[i].at, expected[i].at) << i;
    EXPECT_EQ(s.events()[i].node, expected[i].node) << i;
    EXPECT_EQ(s.events()[i].port, expected[i].port) << i;
    EXPECT_EQ(s.events()[i].kind, FaultEvent::Kind::LinkFault) << i;
  }
}

// ------------------------------------------------------ correlated storms
TEST(Chaos, RegionStormKillsExactRectangle) {
  Mesh m = Mesh::two_d(4, 4);
  FaultSchedule s;
  const int killed = s.add_region_storm(m, 100, {1, 1}, {2, 2});
  EXPECT_EQ(killed, 4);
  ASSERT_EQ(s.events().size(), 4u);
  std::vector<NodeId> want = {m.at(1, 1), m.at(2, 1), m.at(1, 2), m.at(2, 2)};
  std::sort(want.begin(), want.end());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s.events()[i].kind, FaultEvent::Kind::NodeFault);
    EXPECT_EQ(s.events()[i].at, 100);
    EXPECT_EQ(s.events()[i].node, want[i]);  // ascending node order
  }
  // Contract errors: wrong dimensionality, inverted corners, out of range,
  // non-grid topology.
  EXPECT_THROW(s.add_region_storm(m, 0, {1}, {2}), ContractViolation);
  EXPECT_THROW(s.add_region_storm(m, 0, {2, 2}, {1, 1}), ContractViolation);
  EXPECT_THROW(s.add_region_storm(m, 0, {0, 0}, {4, 0}), ContractViolation);
  Hypercube h(3);
  EXPECT_THROW(s.add_region_storm(h, 0, {0, 0}, {1, 1}), ContractViolation);
}

TEST(Chaos, SubcubeStormKillsMatchingAddresses) {
  Hypercube h(4);
  FaultSchedule s;
  // Fix the low two address bits to 01: the 2-subcube {1, 5, 9, 13}.
  const int killed = s.add_subcube_storm(h, 50, 0b0011, 0b0001);
  EXPECT_EQ(killed, 4);
  ASSERT_EQ(s.events().size(), 4u);
  const NodeId want[] = {1, 5, 9, 13};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s.events()[i].kind, FaultEvent::Kind::NodeFault);
    EXPECT_EQ(s.events()[i].node, want[i]);
  }
  EXPECT_THROW(s.add_subcube_storm(h, 0, 0xFF, 0), ContractViolation);
  Mesh m = Mesh::two_d(4, 4);
  EXPECT_THROW(s.add_subcube_storm(m, 0, 1, 1), ContractViolation);
}

// -------------------------------------------- fail-slow FaultSet dimension
TEST(Chaos, DegradeDimensionIsOrthogonalToFaults) {
  Mesh m = Mesh::two_d(4, 4);
  FaultSet f(m);
  const std::uint64_t epoch = f.epoch();
  f.degrade_link(m.at(1, 1), port_of(Compass::East), 4);
  // Degradation changes no routing-visible state: the link stays usable
  // and the epoch (decision-cache key) does not move.
  EXPECT_EQ(f.epoch(), epoch);
  EXPECT_TRUE(f.link_usable(m.at(1, 1), port_of(Compass::East)));
  EXPECT_EQ(f.link_degrade_factor(m.at(1, 1), port_of(Compass::East)), 4);
  // Both directions are one channel: the reverse port reports it too.
  EXPECT_EQ(f.link_degrade_factor(m.at(2, 1), port_of(Compass::West)), 4);
  ASSERT_EQ(f.degraded_links().size(), 1u);
  EXPECT_EQ(f.degraded_links()[0].second, 4);
  // Factor 1 restores full speed and erases the entry.
  f.degrade_link(m.at(1, 1), port_of(Compass::East), 1);
  EXPECT_EQ(f.link_degrade_factor(m.at(1, 1), port_of(Compass::East)), 1);
  EXPECT_TRUE(f.degraded_links().empty());
  EXPECT_EQ(f.epoch(), epoch);
  EXPECT_THROW(f.degrade_link(m.at(0, 0), port_of(Compass::East), 0),
               ContractViolation);
}

// --------------------------------------------------- repair + re-adoption
TEST(Chaos, RepairPathTrafficReroutesThenReadopts) {
  // Phase A: the channel dies mid-run, NAFTA reroutes the survivors.
  // Phase B: the channel repairs and must carry flits again — measured on
  // the link's own information unit, which only this channel increments.
  Mesh m = Mesh::two_d(4, 4);
  Nafta algo;
  Network net(m, algo);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.06;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 1200;
  cfg.seed = 5;
  const NodeId u = m.at(1, 1);
  const PortId east = port_of(Compass::East);
  FaultSchedule schedule;
  schedule.fail_link_at(600, u, east);
  schedule.repair_link_at(2200, u, east);  // fires during phase B
  Simulator sim(net, traffic, cfg);
  sim.set_fault_schedule(schedule);

  const SimResult ra = sim.run();
  EXPECT_FALSE(ra.deadlock_suspected);
  EXPECT_EQ(ra.fault_events, 1);
  EXPECT_GT(ra.delivered_packets, 0);  // traffic rerouted around the cut
  expect_exact_accounting(ra);
  ASSERT_TRUE(sim.quiesce());
  // Snapshot the channel's lifetime flit count before re-adoption
  // (link_utilization with elapsed=1 reports raw flit totals).
  double flits_before = -1.0;
  for (const Network::LinkLoad& l : net.link_utilization(1)) {
    if (l.from == u && l.port == east) flits_before = l.utilization;
  }
  ASSERT_GE(flits_before, 0.0);

  const SimResult rb = sim.run();
  EXPECT_FALSE(rb.deadlock_suspected);
  EXPECT_EQ(ra.repair_events + rb.repair_events, 1);
  EXPECT_EQ(ra.recovery_events + rb.recovery_events, 2);
  EXPECT_EQ(static_cast<int>(ra.recovery_durations.size() +
                             rb.recovery_durations.size()),
            ra.recovery_events + rb.recovery_events);
  expect_exact_accounting(rb);

  // The repaired channel carried traffic again.
  double flits_after = -1.0;
  for (const Network::LinkLoad& l : net.link_utilization(1)) {
    if (l.from == u && l.port == east) flits_after = l.utilization;
  }
  EXPECT_GT(flits_after, flits_before);

  // The fault is fully healed history: FaultSet clean, hardware rejoined.
  ASSERT_TRUE(sim.quiesce());
  EXPECT_TRUE(net.faults().fault_free());
  EXPECT_TRUE(net.faults().link_usable(u, east));
  EXPECT_FALSE(net.recovery_pending());
  EXPECT_EQ(net.packet_store().live_count(), 0u);
}

TEST(Chaos, RepairOfHealthyResourceIsANoOp) {
  Mesh m = Mesh::two_d(4, 4);
  Nafta algo;
  Network net(m, algo);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 600;
  cfg.seed = 8;
  FaultSchedule schedule;
  schedule.repair_link_at(300, m.at(1, 1), port_of(Compass::East));
  schedule.repair_node_at(400, m.at(2, 2));
  Simulator sim(net, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult r = sim.run();
  // Nothing was dead, so nothing queued and no diagnosis opened.
  EXPECT_EQ(r.repair_events, 0);
  EXPECT_EQ(r.recovery_events, 0);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  expect_exact_accounting(r);
}

TEST(Chaos, NodeRepairRestoresEndpointService) {
  Mesh m = Mesh::two_d(4, 4);
  Nafta algo;
  Network net(m, algo);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 2400;
  cfg.seed = 21;
  const NodeId victim = m.at(1, 2);
  FaultSchedule schedule;
  schedule.fail_node_at(600, victim);
  schedule.repair_node_at(1400, victim);
  Simulator sim(net, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult r = sim.run();

  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.fault_events, 1);
  EXPECT_EQ(r.repair_events, 1);
  expect_exact_accounting(r);
  // The node delivered traffic again after its repair fired.
  bool served_after_repair = false;
  for (PacketId id = 0; id < net.packets_created(); ++id) {
    const PacketRecord& rec = net.record(id);
    if (rec.done() && rec.delivered >= 1400 &&
        (rec.src == victim || rec.dest == victim))
      served_after_repair = true;
  }
  EXPECT_TRUE(served_after_repair);
  ASSERT_TRUE(sim.quiesce());
  EXPECT_TRUE(net.faults().fault_free());
  EXPECT_FALSE(net.node_live_killed(victim));
}

// ---------------------------------------------------------- fail-slow link
TEST(Chaos, FailSlowDegradesThroughputWithoutWatchdog) {
  // Throttle every channel crossing the mesh's vertical middle cut to 1/8
  // bandwidth: half of uniform traffic crosses the cut, so the bisection
  // becomes the bottleneck and aggregate throughput must drop.
  const auto run_mesh = [](int degrade_factor) {
    Mesh m = Mesh::two_d(4, 4);
    DimensionOrderMesh dor;
    Network net(m, dor);
    UniformTraffic traffic(m);
    SimConfig cfg;
    cfg.injection_rate = 0.20;
    cfg.packet_length = 4;
    cfg.warmup_cycles = 300;
    cfg.measure_cycles = 1500;
    cfg.seed = 12;
    Simulator sim(net, traffic, cfg);
    FaultSchedule schedule;
    if (degrade_factor > 1) {
      for (int y = 0; y < 4; ++y)
        schedule.degrade_link_at(0, m.at(1, y), port_of(Compass::East),
                                 degrade_factor);
      sim.set_fault_schedule(schedule);
    }
    return sim.run();
  };
  const SimResult fast = run_mesh(1);
  const SimResult slow = run_mesh(8);
  EXPECT_FALSE(slow.deadlock_suspected);
  EXPECT_EQ(slow.degrade_events, 4);
  EXPECT_EQ(slow.fault_events, 0);
  // Fail-slow needs no diagnosis: availability stays perfect, no recovery.
  EXPECT_EQ(slow.recovery_events, 0);
  EXPECT_DOUBLE_EQ(slow.availability, 1.0);
  expect_exact_accounting(slow);
  // The harness drains to completion, so offered == delivered and the
  // degradation shows up as queueing: latency balloons behind the
  // throttled cut and the run needs far longer to drain the backlog.
  EXPECT_GT(slow.avg_latency, fast.avg_latency * 2.0);
  EXPECT_GT(slow.p99_latency, fast.p99_latency * 2.0);
  EXPECT_GT(slow.cycles_run, fast.cycles_run);
  EXPECT_GT(slow.throughput, 0.0);
}

TEST(Chaos, FailSlowVisibleToLoadMeasurement) {
  Mesh m = Mesh::two_d(4, 4);
  Nafta algo;
  Network net(m, algo);
  net.degrade_link_live(m.at(1, 1), port_of(Compass::East), 6);
  const auto loads = net.link_utilization(100);
  int seen = 0;
  for (const Network::LinkLoad& l : loads) {
    if (l.degrade == 6) {
      ++seen;
    } else {
      EXPECT_EQ(l.degrade, 1);
    }
  }
  EXPECT_EQ(seen, 2);  // both directions of the one degraded channel
  EXPECT_EQ(net.faults().link_degrade_factor(m.at(1, 1),
                                             port_of(Compass::East)),
            6);
}

// ------------------------------------------------------------ flapping soak
TEST(Chaos, FlappingSoakSweepAndShardBitIdentity) {
  // A flapping channel drives repeated kill -> repair -> kill transitions
  // (some arriving while the previous diagnosis is still draining, which
  // exercises the ordered mutation replay). The whole story must be
  // bit-identical across sweep thread counts AND across network shard
  // counts; the TSan CI job runs this test with the shard pool armed.
  const auto make_points = [](int shards) {
    std::vector<SweepPoint> points;
    for (const double rate : {0.04, 0.07}) {
      points.push_back({[rate, shards](std::uint64_t seed) {
        Mesh m = Mesh::two_d(8, 8);
        Nafta algo;
        UniformTraffic tr(m);
        NetworkConfig ncfg;
        ncfg.shards = shards;
        Network net(m, algo, ncfg);
        SimConfig cfg;
        cfg.injection_rate = rate;
        cfg.packet_length = 4;
        cfg.warmup_cycles = 200;
        cfg.measure_cycles = 1400;
        cfg.seed = seed;
        FaultSchedule schedule;
        schedule.add_flapping_link(m.at(3, 3), port_of(Compass::East), 400,
                                   1500, 120.0, 260.0, seed ^ 0xf1a9);
        Simulator sim(net, tr, cfg);
        sim.set_fault_schedule(schedule);
        return sim.run();
      }});
    }
    return points;
  };

  std::vector<SimResult> reference;
  for (const int shards : {1, 4}) {
    for (const int threads : {1, 2, 4, 8}) {
      SweepOptions opts;
      opts.num_threads = threads;
      opts.base_seed = 23;
      SweepRunner runner(opts);
      const std::vector<SimResult> results = runner.run(make_points(shards));
      if (shards == 1 && threads == 1) {
        reference = results;
        for (const SimResult& r : results) {
          EXPECT_FALSE(r.deadlock_suspected);
          EXPECT_GT(r.fault_events, 0);
          EXPECT_GT(r.repair_events, 0);
          EXPECT_EQ(static_cast<int>(r.recovery_durations.size()),
                    r.recovery_events);
          expect_exact_accounting(r);
        }
        continue;
      }
      ASSERT_EQ(results.size(), reference.size());
      for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_TRUE(results[i] == reference[i])
            << "point " << i << " diverged at shards=" << shards
            << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace flexrouter
