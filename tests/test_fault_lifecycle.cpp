// Live fault lifecycle tests: mid-run link/node kills, worm truncation and
// loss accounting, the quiescent recovery controller, structured deadlock
// recovery (victim kill + retransmit), blocked-chain diagnostics, epoch
// staleness across every registered algorithm, and determinism of the
// whole story under the parallel sweep engine.
#include <gtest/gtest.h>


#include "routing/nafta.hpp"
#include "sim/fault_injector.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "topology/graph_algo.hpp"
#include "topology/hypercube.hpp"
#include "topology/torus.hpp"

namespace flexrouter {
namespace {

/// The accounting identity every lifecycle run must satisfy: measured
/// packets end delivered or explicitly unrecoverable, nothing vanishes,
/// and each lost attempt was either retried or abandoned.
void expect_exact_accounting(const SimResult& r) {
  EXPECT_EQ(r.delivered_packets + r.packets_unrecoverable,
            r.injected_packets);
  EXPECT_EQ(r.packets_lost, r.packets_retransmitted + r.packets_unrecoverable);
}

// ------------------------------------------------------- link kill, NAFTA
TEST(FaultLifecycle, LinkKillMidMeasurementFullAccounting) {
  Mesh m = Mesh::two_d(8, 8);
  Nafta nafta;
  Network net(m, nafta);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.08;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1200;
  cfg.seed = 42;
  FaultSchedule schedule;
  schedule.fail_link_at(900, m.at(3, 3), port_of(Compass::East));
  Simulator sim(net, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult r = sim.run();

  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.fault_events, 1);
  EXPECT_EQ(r.recovery_events, 1);
  EXPECT_GT(r.recovery_cycles, 0);
  EXPECT_GT(r.reconfig_exchanges, 0);  // NAFTA propagates fault state
  EXPECT_LT(r.availability, 1.0);      // injection was gated during diagnosis
  expect_exact_accounting(r);

  // Truncation released every buffer and slot: once the unmeasured warmup
  // stragglers drain too, the network is empty and the slab holds zero
  // live entries (the ASan job additionally certifies no heap leaks on
  // this same path).
  ASSERT_TRUE(sim.quiesce());
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.packet_store().live_count(), 0u);
  EXPECT_EQ(net.packet_store().poisoned_live(), 0u);

  // The fault is now committed history: the FaultSet knows the link.
  EXPECT_FALSE(net.faults().link_usable(m.at(3, 3), port_of(Compass::East)));
  EXPECT_FALSE(net.recovery_pending());
}

// ------------------------------------------------------- node kill, NAFTA
TEST(FaultLifecycle, NodeKillOrphansEndpointTraffic) {
  Mesh m = Mesh::two_d(8, 8);
  Nafta nafta;
  Network net(m, nafta);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 0.08;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1200;
  cfg.seed = 9;
  FaultSchedule schedule;
  schedule.fail_node_at(900, m.at(4, 4));
  Simulator sim(net, traffic, cfg);
  sim.set_fault_schedule(schedule);
  const SimResult r = sim.run();

  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.fault_events, 1);
  expect_exact_accounting(r);
  // Packets addressed to the dead node are gone for good — with uniform
  // traffic at this load some measured packet was bound there.
  EXPECT_GT(r.packets_lost, 0);
  EXPECT_GT(r.packets_unrecoverable, 0);
  ASSERT_TRUE(sim.quiesce());
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.packet_store().live_count(), 0u);
  EXPECT_TRUE(net.faults().node_faulty(m.at(4, 4)));
}

// ------------------------------------------- determinism (sweep contract)
TEST(FaultLifecycle, SweepBitIdentityAcrossThreadCounts) {
  const auto make_points = [] {
    std::vector<SweepPoint> points;
    for (const double rate : {0.05, 0.09}) {
      points.push_back({[rate](std::uint64_t seed) {
        Mesh m = Mesh::two_d(8, 8);
        Nafta algo;
        UniformTraffic tr(m);
        Network net(m, algo);
        SimConfig cfg;
        cfg.injection_rate = rate;
        cfg.packet_length = 4;
        cfg.warmup_cycles = 200;
        cfg.measure_cycles = 800;
        cfg.seed = seed;
        FaultSchedule schedule;
        schedule.fail_link_at(600, m.at(3, 3), port_of(Compass::East));
        schedule.fail_node_at(800, m.at(6, 2));
        Simulator sim(net, tr, cfg);
        sim.set_fault_schedule(schedule);
        return sim.run();
      }});
    }
    return points;
  };

  std::vector<SimResult> reference;
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.num_threads = threads;
    opts.base_seed = 11;
    SweepRunner runner(opts);
    const std::vector<SimResult> results = runner.run(make_points());
    if (threads == 1) {
      reference = results;
      for (const SimResult& r : results) {
        EXPECT_FALSE(r.deadlock_suspected);
        EXPECT_EQ(r.fault_events, 2);
        expect_exact_accounting(r);
      }
      continue;
    }
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_TRUE(results[i] == reference[i])
          << "point " << i << " diverged at " << threads << " threads";
  }
}

// ---------------------------------------- watchdog diagnostics + recovery
/// Adversarial single-VC ring routing on a 2x2 mesh: every packet travels
/// clockwise, one VC, no escape layer — sustained multi-worm load
/// deadlocks by construction (the classic cyclic wait).
class ClockwiseRing final : public RoutingAlgorithm {
 public:
  std::string name() const override { return "clockwise-ring"; }
  int num_vcs() const override { return 1; }

  void attach(const Topology& topo, const FaultSet& faults) override {
    const auto* mesh = dynamic_cast<const Mesh*>(&topo);
    FR_REQUIRE_MSG(mesh != nullptr && mesh->num_nodes() == 4,
                   "clockwise-ring wants the 2x2 mesh");
    topo_ = &topo;
    (void)faults;
    const NodeId ring[4] = {mesh->at(0, 0), mesh->at(1, 0), mesh->at(1, 1),
                            mesh->at(0, 1)};
    for (int i = 0; i < 4; ++i) {
      const NodeId from = ring[i];
      const NodeId to = ring[(i + 1) % 4];
      for (PortId p = 0; p < topo.degree(); ++p) {
        if (topo.neighbor(from, p) == to) {
          next_port_[static_cast<std::size_t>(from)] = p;
          break;
        }
      }
    }
  }

  RouteDecision route(const RouteContext& ctx) const override {
    RouteDecision d;
    if (ctx.dest == ctx.node) {
      d.candidates.push_back({static_cast<PortId>(topo_->degree()), 0, 0});
      return d;
    }
    d.candidates.push_back(
        {next_port_[static_cast<std::size_t>(ctx.node)], 0, 0});
    return d;
  }

 private:
  const Topology* topo_ = nullptr;
  PortId next_port_[4] = {};
};

TEST(FaultLifecycle, WatchdogDumpsBlockedChainOnTrueDeadlock) {
  Mesh m = Mesh::two_d(2, 2);
  ClockwiseRing ring;
  Network net(m, ring);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 4.0;  // saturating: every node offers constantly
  cfg.packet_length = 8;     // worms span multiple ring links
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 300;
  cfg.watchdog_window = 200;
  cfg.drain_limit = 5000;
  cfg.seed = 3;
  Simulator sim(net, traffic, cfg);  // no lifecycle: legacy give-up path
  const SimResult r = sim.run();

  ASSERT_TRUE(r.deadlock_suspected);
  // The watchdog now explains itself: the blocked wait-for chain names
  // each waiting channel and the worm holding it.
  ASSERT_FALSE(r.blocked_chain.empty());
  for (const SimResult::BlockedChannelInfo& c : r.blocked_chain) {
    EXPECT_TRUE(m.valid_node(c.node));
    EXPECT_GE(c.port, 0);
    EXPECT_EQ(c.vc, 0);  // single-VC algorithm
    EXPECT_GE(c.packet, 0);
    EXPECT_FALSE(net.record(c.packet).done());
  }
  EXPECT_EQ(r.worms_killed, 0);  // diagnosis only, no structured recovery
}

TEST(FaultLifecycle, StructuredWatchdogBreaksDeadlockAndAccounts) {
  Mesh m = Mesh::two_d(2, 2);
  ClockwiseRing ring;
  Network net(m, ring);
  UniformTraffic traffic(m);
  SimConfig cfg;
  cfg.injection_rate = 4.0;
  cfg.packet_length = 8;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 300;
  cfg.watchdog_window = 100;
  cfg.drain_limit = 50000;
  cfg.max_retries = 1;
  cfg.structured_watchdog = true;  // upgrade: kill victims, retransmit
  cfg.seed = 3;
  Simulator sim(net, traffic, cfg);
  const SimResult r = sim.run();

  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_GE(r.worms_killed, 1);
  EXPECT_GT(r.packets_lost, 0);
  EXPECT_FALSE(r.blocked_chain.empty());  // first kill records the chain
  expect_exact_accounting(r);
  ASSERT_TRUE(sim.quiesce());
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.packet_store().live_count(), 0u);
}

// ------------------------------------ epoch staleness, every algorithm
/// Kill a link between run() calls (the live path: data-plane kill +
/// quiescent commit) and verify the algorithm routes again afterwards —
/// reconfigure() must clear any per-epoch staleness guards.
// A link dies two cycles before the measurement ends and is detected long
// after the network has drained: the drain waits out the detection delay on
// an empty network. Waiting is not a stall. (The drain watchdog used to count
// those empty cycles, fire after watchdog_window of them and, with no worm to
// kill, report a deadlock before the diagnosis ever opened.)
TEST(FaultLifecycle, DrainWaitsOutLateDetectionOnEmptyNetwork) {
  Mesh m = Mesh::two_d(8, 8);
  for (const Cycle delay : {2500, 5000}) {
    SCOPED_TRACE("detection_delay=" + std::to_string(delay));
    Nafta nafta;
    Network net(m, nafta);
    UniformTraffic traffic(m);
    SimConfig cfg;
    cfg.injection_rate = 0.02;
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 500;
    cfg.detection_delay = delay;  // beyond the 2000-cycle watchdog window
    Simulator sim(net, traffic, cfg);
    FaultSchedule schedule;
    schedule.fail_link_at(598, m.at(3, 3), 1);
    sim.set_fault_schedule(schedule);
    const SimResult r = sim.run();

    EXPECT_FALSE(r.deadlock_suspected);
    EXPECT_EQ(r.recovery_events, 1);
    EXPECT_EQ(r.recovery_cycles, delay);
    EXPECT_GT(r.injected_packets, 0);
    expect_exact_accounting(r);
  }
}

TEST(FaultLifecycle, ReconfigureClearsEpochStalenessForEveryAlgorithm) {
  for (const std::string& name : algorithm_names()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Topology> topo;
    NodeId kill_node = kInvalidNode;
    PortId kill_port = kInvalidPort;
    NodeId src = kInvalidNode, dest = kInvalidNode;
    const TopologyKind kind = native_topology_kind(name);
    if (kind == TopologyKind::Hypercube) {
      auto h = std::make_unique<Hypercube>(4);
      kill_node = 0;
      kill_port = 0;  // link 0 <-> 1
      src = 4;
      dest = 12;  // single hop in dimension 3, far from the dead link
      topo = std::move(h);
    } else if (kind == TopologyKind::Torus) {
      auto t = std::make_unique<Torus>(std::vector<int>{4, 4});
      kill_node = 0;
      kill_port = port_of(Compass::East);
      src = 5;
      dest = 6;
      topo = std::move(t);
    } else {
      auto mm = std::make_unique<Mesh>(std::vector<int>{4, 4});
      kill_node = mm->at(1, 1);
      kill_port = port_of(Compass::East);
      src = mm->at(0, 3);
      dest = mm->at(1, 3);
      topo = std::move(mm);
    }
    std::unique_ptr<RoutingAlgorithm> algo = make_algorithm(name);
    Network net(*topo, *algo);

    const auto deliver_one = [&](Cycle& now) {
      const PacketId id = net.send(src, dest, 4, now);
      for (Cycle t = 0; t < 5000 && !net.idle(); ++t) net.step(now++);
      EXPECT_TRUE(net.record(id).done());
    };

    Cycle now = 0;
    deliver_one(now);  // healthy epoch

    net.kill_link_live(kill_node, kill_port);
    ASSERT_TRUE(net.recovery_pending());
    EXPECT_GE(net.commit_pending_faults(), 0);
    EXPECT_FALSE(net.faults().link_usable(kill_node, kill_port));

    // Routing after the epoch bump must not trip staleness contracts and
    // must still deliver (the pair avoids the dead link, so even the
    // non-fault-tolerant algorithms have a path).
    deliver_one(now);
  }
}

// -------------------------------------------- fault injector contracts
TEST(FaultInjectorContracts, ShapedInjectorsRejectOutOfMeshRegions) {
  Mesh m = Mesh::two_d(6, 6);
  Nafta algo;
  Network net(m, algo);
  net.apply_faults([&](FaultSet& f) {
    FaultSet& faults = f;
    // In-bounds shapes are fine.
    inject_figure2_chain(faults, m, 2, 3);
    // Chain: x must leave room for the East link, length must fit.
    EXPECT_THROW(inject_figure2_chain(faults, m, -1, 2), ContractViolation);
    EXPECT_THROW(inject_figure2_chain(faults, m, 5, 2), ContractViolation);
    EXPECT_THROW(inject_figure2_chain(faults, m, 2, 7), ContractViolation);
    EXPECT_THROW(inject_figure2_chain(faults, m, 2, 0), ContractViolation);
    // Block: corners ordered and inside the mesh.
    EXPECT_THROW(inject_fault_block(faults, m, 3, 3, 2, 4),
                 ContractViolation);
    EXPECT_THROW(inject_fault_block(faults, m, -1, 0, 1, 1),
                 ContractViolation);
    EXPECT_THROW(inject_fault_block(faults, m, 4, 4, 6, 5),
                 ContractViolation);
    // Concave region: needs a 2x2+ block, inside the mesh.
    EXPECT_THROW(inject_concave_faults(faults, m, 2, 2, 2, 4),
                 ContractViolation);
    EXPECT_THROW(inject_concave_faults(faults, m, 0, -2, 2, 2),
                 ContractViolation);
    EXPECT_THROW(inject_concave_faults(faults, m, 3, 3, 6, 6),
                 ContractViolation);
    // The failed probes left no partial damage beyond the valid chain.
    for (NodeId n = 0; n < m.num_nodes(); ++n) EXPECT_TRUE(f.node_ok(n));
  });
}

TEST(FaultInjectorContracts, NonTwoDimensionalMeshRejected) {
  // The Mesh type admits any rank; the shaped injectors' 2-D guard is a
  // contract, not a compile-time property.
  Mesh line(std::vector<int>{8});
  FaultSet faults(line);
  EXPECT_THROW(inject_fault_block(faults, line, 0, 0, 1, 1),
               ContractViolation);
  EXPECT_THROW(inject_figure2_chain(faults, line, 0, 1), ContractViolation);
  EXPECT_THROW(inject_concave_faults(faults, line, 0, 0, 1, 1),
               ContractViolation);
}

TEST(FaultInjectorContracts, RegionInjectorCoversKAryMesh) {
  // 3-D mesh: the hyper-rectangle [1,2]x[0,1]x[2,2] is exactly 4 nodes.
  Mesh m(std::vector<int>{4, 3, 3});
  FaultSet faults(m);
  EXPECT_EQ(inject_fault_region(faults, {1, 0, 2}, {2, 1, 2}), 4);
  for (NodeId n = 0; n < m.num_nodes(); ++n) {
    const bool inside = m.coord(n, 0) >= 1 && m.coord(n, 0) <= 2 &&
                        m.coord(n, 1) <= 1 && m.coord(n, 2) == 2;
    EXPECT_EQ(faults.node_faulty(n), inside);
  }
  // An overlapping region counts only the nodes it newly fails: the
  // [1,2]x[0,1]x[1,2] box is 8 nodes, 4 of which are already down.
  EXPECT_EQ(inject_fault_region(faults, {1, 0, 1}, {2, 1, 2}), 4);
}

TEST(FaultInjectorContracts, RegionInjectorCoversTorus) {
  Torus t(std::vector<int>{5, 5});
  FaultSet faults(t);
  EXPECT_EQ(inject_fault_region(faults, {3, 1}, {4, 2}), 4);
  EXPECT_TRUE(faults.node_faulty(t.node_at({3, 1})));
  EXPECT_TRUE(faults.node_faulty(t.node_at({4, 2})));
  EXPECT_FALSE(faults.node_faulty(t.node_at({2, 1})));
}

TEST(FaultInjectorContracts, RegionInjectorNamesNonGridTopologies) {
  // Grid coordinates are meaningless on a hypercube; the rejection must
  // say which topology was handed in.
  Hypercube h(3);
  FaultSet faults(h);
  try {
    inject_fault_region(faults, {0, 0, 0}, {1, 1, 1});
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(h.name()), std::string::npos);
  }
}

TEST(FaultInjectorContracts, RegionInjectorValidatesCorners) {
  Mesh m(std::vector<int>{4, 3, 3});
  FaultSet faults(m);
  EXPECT_THROW(inject_fault_region(faults, {0, 0}, {1, 1}),
               ContractViolation);  // wrong arity for a 3-D grid
  EXPECT_THROW(inject_fault_region(faults, {0, 0, 0}, {4, 1, 1}),
               ContractViolation);  // past the edge of dimension 0
  EXPECT_THROW(inject_fault_region(faults, {2, 0, 0}, {1, 1, 1}),
               ContractViolation);  // inverted corners
  for (NodeId n = 0; n < m.num_nodes(); ++n)
    EXPECT_FALSE(faults.node_faulty(n));
}

TEST(FaultInjectorContracts, TwoDimGuardNamesTheMesh) {
  Mesh cube(std::vector<int>{3, 3, 3});
  FaultSet faults(cube);
  try {
    inject_fault_block(faults, cube, 0, 0, 1, 1);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(cube.name()), std::string::npos);
    EXPECT_NE(what.find("inject_fault_region"), std::string::npos);
  }
}

// -------------------------------------------------- random MTBF soak
TEST(FaultLifecycle, RandomMtbfSoakStaysAccountedAndDeterministic) {
  const auto run_once = [] {
    Mesh m = Mesh::two_d(6, 6);
    Nafta algo;
    Network net(m, algo);
    UniformTraffic tr(m);
    SimConfig cfg;
    cfg.injection_rate = 0.06;
    cfg.packet_length = 4;
    cfg.warmup_cycles = 200;
    cfg.measure_cycles = 1500;
    cfg.seed = 77;
    FaultSchedule schedule;
    schedule.add_random_link_faults(m, /*mtbf_cycles=*/800.0,
                                    /*horizon=*/1500, /*seed=*/5);
    EXPECT_GE(schedule.size(), 1u);
    Simulator sim(net, tr, cfg);
    sim.set_fault_schedule(schedule);
    SimResult r = sim.run();
    EXPECT_TRUE(sim.quiesce());
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.packet_store().live_count(), 0u);
    return r;
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_FALSE(a.deadlock_suspected);
  EXPECT_GE(a.fault_events, 1);
  expect_exact_accounting(a);
  EXPECT_TRUE(a == b);  // same seeds, same story
}

}  // namespace
}  // namespace flexrouter
