// Sharded-execution determinism suite. The contract under test: a Network
// stepped as 1, 2, 4 or 8 spatial shards — with any thread count — produces
// the pinned SimResult digest, on fault-free, statically-faulted,
// rule-driven, live-fault-lifecycle and live-rule-swap scenarios, a drain
// that runs out of drain_limit and a quiesce() that victim-kills wedged
// worms, across every registered routing algorithm; and the step's
// work-skipping (parked routers, skipped inert cycles) follows the same
// trajectory as a reference run of the same network that steps every
// router holding flits every cycle (the skip differential). Plus unit
// coverage for the spatial shard planner itself.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "routing/negative_hop.hpp"
#include "routing/routing.hpp"
#include "sim/fault_injector.hpp"
#include "sim/scenario.hpp"
#include "sim/traffic.hpp"
#include "sim/simulator.hpp"
#include "topology/hypercube.hpp"
#include "topology/shard_plan.hpp"
#include "topology/torus.hpp"

namespace flexrouter {

// gtest printer: failed SimResult comparisons show the summary line.
void PrintTo(const SimResult& r, std::ostream* os) { *os << r.to_string(); }

/// The network's reference mode: no router parks and no cycle is inert, so
/// the simulator steps every router holding flits every cycle.
struct NetworkTestAccess {
  static void never_park(Network& net) { net.never_park_ = true; }
};

namespace {

// ----------------------------------------------------------- shard planner

TEST(ShardPlan, MeshTilesAreBalancedAndExhaustive) {
  Mesh m = Mesh::two_d(8, 8);
  const ShardPlan plan = plan_shards(m, 4);
  EXPECT_EQ(plan.num_shards, 4);
  EXPECT_EQ(plan.scheme, "mesh-tiles");
  std::vector<int> seen(64, 0);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(plan.nodes[static_cast<std::size_t>(s)].size(), 16u);
    for (const NodeId n : plan.nodes[static_cast<std::size_t>(s)]) {
      EXPECT_EQ(plan.shard(n), s);
      ++seen[static_cast<std::size_t>(n)];
    }
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
}

TEST(ShardPlan, MeshTilesAreContiguousBoxes) {
  // Recursive bisection of an 8x8 mesh into 4 shards must produce spatial
  // quadrants: every shard's bounding box contains exactly its own nodes.
  Mesh m = Mesh::two_d(8, 8);
  const ShardPlan plan = plan_shards(m, 4);
  for (int s = 0; s < 4; ++s) {
    int min_x = 8, max_x = -1, min_y = 8, max_y = -1;
    for (const NodeId n : plan.nodes[static_cast<std::size_t>(s)]) {
      min_x = std::min(min_x, m.coord(n, 0));
      max_x = std::max(max_x, m.coord(n, 0));
      min_y = std::min(min_y, m.coord(n, 1));
      max_y = std::max(max_y, m.coord(n, 1));
    }
    const std::size_t box = static_cast<std::size_t>(max_x - min_x + 1) *
                            static_cast<std::size_t>(max_y - min_y + 1);
    EXPECT_EQ(box, plan.nodes[static_cast<std::size_t>(s)].size());
  }
}

TEST(ShardPlan, HypercubeSubcubes) {
  Hypercube h(4);
  const ShardPlan plan = plan_shards(h, 4);
  EXPECT_EQ(plan.scheme, "subcubes");
  // Top two address bits pick the shard: each shard is a 2-subcube.
  for (NodeId n = 0; n < 16; ++n)
    EXPECT_EQ(plan.shard(n), static_cast<int>(n) >> 2);
}

TEST(ShardPlan, NonPowerOfTwoHypercubeFallsBackToRanges) {
  Hypercube h(4);
  const ShardPlan plan = plan_shards(h, 3);
  EXPECT_EQ(plan.scheme, "ranges");
  std::size_t total = 0;
  for (const auto& ns : plan.nodes) {
    EXPECT_FALSE(ns.empty());
    total += ns.size();
  }
  EXPECT_EQ(total, 16u);
}

TEST(ShardPlan, TorusTiles) {
  Torus t(std::vector<int>{6, 6});
  const ShardPlan plan = plan_shards(t, 4);
  EXPECT_EQ(plan.scheme, "mesh-tiles");
  for (const auto& ns : plan.nodes) EXPECT_EQ(ns.size(), 9u);
}

TEST(ShardPlan, OneShardAndOneShardPerNode) {
  Mesh m = Mesh::two_d(4, 4);
  const ShardPlan one = plan_shards(m, 1);
  EXPECT_EQ(one.nodes[0].size(), 16u);
  const ShardPlan all = plan_shards(m, 16);
  for (const auto& ns : all.nodes) EXPECT_EQ(ns.size(), 1u);
}

TEST(ShardPlan, RejectsBadShardCounts) {
  Mesh m = Mesh::two_d(4, 4);
  EXPECT_THROW(plan_shards(m, 0), ContractViolation);
  EXPECT_THROW(plan_shards(m, 17), ContractViolation);
}

// The network validates its shard settings before planning anything,
// including the thread count, which a one-shard network never uses.
TEST(ShardPlan, NetworkRejectsBadShardConfigOnEveryPath) {
  Mesh m = Mesh::two_d(4, 4);
  auto algo = make_algorithm("nafta");
  for (const int shards : {0, -1}) {
    NetworkConfig cfg;
    cfg.shards = shards;
    EXPECT_THROW(Network(m, *algo, cfg), ContractViolation)
        << "shards=" << shards;
  }
  NetworkConfig cfg;
  cfg.shard_threads = -1;
  EXPECT_THROW(Network(m, *algo, cfg), ContractViolation)
      << "shard_threads=-1";
}

// ------------------------------------------------------- identity harness

struct ShardScenario {
  TopologyKind topo = TopologyKind::Mesh;
  std::vector<int> size = {6, 6};  // radices, or {dimension} of a hypercube
  std::string algo = "nafta";
  int static_link_faults = 0;
  int static_node_faults = 0;
  bool lifecycle = false;  // link kill @600 + node kill @800
  double rate = 0.05;
  Cycle warmup = 200;
  Cycle measure = 600;
  Cycle detection_delay = 0;
  std::uint64_t seed = 12;
  Cycle drain_limit = 50000;
  /// Live rule swap (ft-mesh-rules only): a self-swap under `swap_policy`
  /// at `swap_at`; none when swap_at < 0.
  Cycle swap_at = -1;
  Simulator::RuleSwapPolicy swap_policy = Simulator::RuleSwapPolicy::Auto;
  /// Arm the structured watchdog; after run(), kill a link and a node live
  /// under the still-loaded network and quiesce() it (mesh only).
  bool quiesce_wedged = false;
  /// The chaos campaign's fault mix on a 4x4 mesh under its
  /// 150-cycle watchdog: a fail-slow link (restored later), a flapping link
  /// and a live node kill. Worms wedge behind the damage and their routers
  /// sit through long runs of steps that change nothing but the VA retry
  /// count. The aggregate RouterStats join the digest.
  bool chaos = false;
  /// With `chaos`: run() measures nothing and returns at the end of the
  /// warmup with wedged worms in flight; the aggregate RouterStats are read
  /// there, then quiesce() drains the network and they are read again.
  bool midrun_stats = false;
  /// Audited runs: throttle the link east of (2, 2) to one flit per 8
  /// cycles at cycle 100 and restore it at 500 (mesh only).
  bool failslow = false;
  /// One chaos-campaign fault pattern (chaos_schedule, seeded by `seed`).
  std::optional<FaultRegime> regime;
  int link_latency = 1;
  Cycle watchdog_window = 2000;
};

/// What one packet record says about its trip.
struct PacketOutcome {
  Cycle injected = -1;
  Cycle delivered = -1;
  int hops = 0;
  bool misrouted = false;
  bool lost = false;

  bool operator==(const PacketOutcome&) const = default;
};

struct RunOutput {
  SimResult result;
  std::vector<PacketId> lost_log;
  std::int64_t packets_created = 0;
  std::int64_t packets_delivered = 0;
  Cycle skipped = 0;
  /// Scenario-specific observations beyond the SimResult (quiesce()'s
  /// answer and end cycle); digested only when present.
  std::vector<std::int64_t> extra;
  /// Read at the end of the scenario, for the skip differential (never
  /// digested): every RouterStats field, every packet and the clock.
  std::vector<std::int64_t> stats;
  std::vector<PacketOutcome> packets;
  Cycle now = 0;
};

std::vector<std::int64_t> stats_fields(const RouterStats& s) {
  return {s.flits_forwarded,  s.flits_ejected,  s.flits_dropped,
          s.packets_routed,   s.decision_steps, s.rc_no_candidates,
          s.va_retries,       s.header_updates};
}

/// A native algorithm whose every decision names some (port, VC) pairs more
/// than once, as a rule program's overlapping rules may. Decision
/// c0..c(k-1) becomes
///   c0 one priority lower, c1..c(k-1), c0 again (a higher-priority repeat
///   after the other pairs), then c0..c(k-1) round-robin at their own
///   priority or one lower
/// up to 12, 24, 36 or 48 entries (by destination), so most decisions name
/// more entries than a router has input VCs. VA grants the earliest
/// candidate with the best score, so where c0 and c1 tie it grants c1, not
/// c0 as the native algorithm does; the pair set, escape VCs included, is
/// the native one.
class RepeatedPairsRouting : public RoutingAlgorithm {
 public:
  explicit RepeatedPairsRouting(std::unique_ptr<RoutingAlgorithm> native)
      : native_(std::move(native)) {}

  std::string name() const override { return native_->name() + "+repeats"; }
  int num_vcs() const override { return native_->num_vcs(); }
  void attach(const Topology& topo, const FaultSet& faults) override {
    native_->attach(topo, faults);
  }
  int reconfigure() override { return native_->reconfigure(); }
  bool is_escape_vc(VcId vc) const override {
    return native_->is_escape_vc(vc);
  }
  int max_path_len() const override { return native_->max_path_len(); }
  int path_len_class(int path_len) const override {
    return native_->path_len_class(path_len);
  }

  RouteDecision route(const RouteContext& ctx) const override {
    const RouteDecision native = native_->route(ctx);
    RouteDecision d = native;
    const auto& c = native.candidates;
    if (c.empty()) return d;
    d.candidates.clear();
    d.candidates.push_back({c[0].port, c[0].vc, c[0].priority - 1});
    for (std::size_t i = 1; i < c.size(); ++i) d.candidates.push_back(c[i]);
    d.candidates.push_back(c[0]);
    const std::size_t total =
        kMaxCandidates - 12 * static_cast<std::size_t>(ctx.dest % 4);
    for (std::size_t k = 0; d.candidates.size() < total; ++k) {
      const RouteCandidate& r = c[k % c.size()];
      d.candidates.push_back(
          {r.port, r.vc, r.priority - static_cast<int>(k / c.size() % 2)});
    }
    return d;
  }

 private:
  std::unique_ptr<RoutingAlgorithm> native_;
};

/// The scenario's routing algorithm: any name build_algorithm takes (rule
/// programs on the bare VM), "negative-hop-9" or "repeats:<native name>"
/// (RepeatedPairsRouting over it).
std::unique_ptr<RoutingAlgorithm> scenario_algo(const ShardScenario& sc,
                                                const Topology& topo) {
  // Nine negative-hop classes: an 8-cube router then has 9 x 9 = 81 input
  // VCs, and its injection VC (index 72) and the upper VCs of port 7
  // (64-71) sit past the first 64.
  if (sc.algo == "negative-hop-9") return std::make_unique<NegativeHop>(9);
  const std::string repeats = "repeats:";
  if (sc.algo.starts_with(repeats))
    return std::make_unique<RepeatedPairsRouting>(
        make_algorithm(sc.algo.substr(repeats.size())));
  return build_algorithm(sc.algo, topo, rules::ExecMode::Vm);
}

/// `reference` runs the network in its never-park, never-skip mode.
RunOutput run_scenario(const ShardScenario& sc, int shards, int shard_threads,
                       bool reference = false) {
  auto topo = make_topology(sc.topo, sc.size);
  const std::unique_ptr<RoutingAlgorithm> algo = scenario_algo(sc, *topo);
  NetworkConfig ncfg;
  ncfg.shards = shards;
  ncfg.shard_threads = shard_threads;
  ncfg.link_latency = sc.link_latency;
  Network net(*topo, *algo, ncfg);
  if (reference) NetworkTestAccess::never_park(net);

  if (sc.static_link_faults > 0 || sc.static_node_faults > 0) {
    Rng rng(static_cast<std::uint64_t>(sc.static_link_faults) * 131 +
            static_cast<std::uint64_t>(sc.static_node_faults) * 17 + 7);
    net.apply_faults([&](FaultSet& f) {
      inject_random_node_faults(f, sc.static_node_faults, rng);
      inject_random_link_faults(f, sc.static_link_faults, rng);
    });
  }

  UniformTraffic traffic(*topo);
  SimConfig cfg;
  cfg.injection_rate = sc.rate;
  cfg.packet_length = 4;
  cfg.warmup_cycles = sc.warmup;
  cfg.measure_cycles = sc.measure;
  cfg.seed = sc.seed;
  cfg.detection_delay = sc.detection_delay;
  cfg.drain_limit = sc.drain_limit;
  cfg.structured_watchdog = sc.quiesce_wedged;
  cfg.watchdog_window = sc.watchdog_window;
  Simulator sim(net, traffic, cfg);
  if (sc.swap_at >= 0)
    sim.schedule_rule_swap(sc.swap_at, rule_program_source(sc.algo, *topo),
                           sc.swap_policy);
  if (sc.regime)
    sim.set_fault_schedule(
        chaos_schedule(*sc.regime, *topo, sc.warmup, sc.measure, sc.seed));
  if (sc.lifecycle) {
    const Mesh* m = dynamic_cast<const Mesh*>(topo.get());
    FR_ASSERT(m != nullptr);
    FaultSchedule schedule;
    schedule.fail_link_at(600, m->at(3, 3), port_of(Compass::East));
    schedule.fail_node_at(800, m->at(4, 2));
    sim.set_fault_schedule(schedule);
  }
  if (sc.chaos) {
    const Mesh* m = dynamic_cast<const Mesh*>(topo.get());
    FR_ASSERT(m != nullptr);
    FaultSchedule schedule;
    schedule.degrade_link_at(100, m->at(1, 1), port_of(Compass::East), 8);
    schedule.degrade_link_at(1000, m->at(1, 1), port_of(Compass::East), 1);
    schedule.add_flapping_link(m->at(2, 2), port_of(Compass::North), 300,
                               1400, 120, 240, sc.seed);
    schedule.fail_node_at(450, m->at(2, 1));
    sim.set_fault_schedule(schedule);
  }
  const auto add_stats = [&net](std::vector<std::int64_t>& extra) {
    for (const std::int64_t x : stats_fields(net.aggregate_stats()))
      extra.push_back(x);
  };

  RunOutput out;
  out.result = sim.run();
  out.lost_log = net.lost_log();
  out.packets_created = net.packets_created();
  out.packets_delivered = net.packets_delivered();
  out.skipped = sim.idle_cycles_skipped();
  if (sc.quiesce_wedged) {
    // Worms heading across the dead hardware wedge against the stale
    // routing tables; only the watchdog's victim kills can empty the net.
    const Mesh* m = dynamic_cast<const Mesh*>(topo.get());
    FR_ASSERT(m != nullptr);
    net.kill_link_live(m->at(2, 2), port_of(Compass::East));
    net.kill_node_live(m->at(3, 3));
    out.extra.push_back(sim.quiesce() ? 1 : 0);
    out.extra.push_back(sim.now());
    out.lost_log = net.lost_log();
    out.packets_created = net.packets_created();
    out.packets_delivered = net.packets_delivered();
  }
  if (sc.midrun_stats) {
    // The read must owe some parked routers' skipped steps.
    if (!reference) {
      EXPECT_GT(net.parked_routers(), 0);
    }
    add_stats(out.extra);
    out.extra.push_back(sim.quiesce() ? 1 : 0);
    out.extra.push_back(sim.now());
    out.lost_log = net.lost_log();
    out.packets_created = net.packets_created();
    out.packets_delivered = net.packets_delivered();
  }
  if (sc.chaos) add_stats(out.extra);
  out.stats = stats_fields(net.aggregate_stats());
  for (PacketId id = 0; id < net.packets_created(); ++id) {
    const PacketRecord& rec = net.record(id);
    out.packets.push_back(
        {rec.injected, rec.delivered, rec.hops, rec.misrouted, rec.lost});
  }
  out.now = sim.now();
  return out;
}

/// FNV-1a over a stream of 64-bit words fed least significant byte first,
/// so a digest does not depend on the host's byte order.
class Digest {
 public:
  template <typename T>
  void add(T v) {
    std::uint64_t w;
    if constexpr (std::is_floating_point_v<T>) {
      w = std::bit_cast<std::uint64_t>(static_cast<double>(v));
    } else {
      w = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    }
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Every SimResult field (doubles by bit pattern), the lost log, and the
/// network's created/delivered counts.
std::uint64_t digest(const RunOutput& out) {
  const SimResult& r = out.result;
  Digest d;
  d.add(r.injected_packets);
  d.add(r.delivered_packets);
  for (const double x :
       {r.avg_latency, r.p50_latency, r.p99_latency, r.avg_hops,
        r.min_hops_ratio, r.throughput, r.misrouted_fraction,
        r.avg_latency_misrouted, r.avg_latency_direct, r.avg_decision_steps,
        r.availability})
    d.add(x);
  d.add(r.deadlock_suspected);
  d.add(r.cycles_run);
  d.add(r.packets_lost);
  d.add(r.packets_retransmitted);
  d.add(r.packets_unrecoverable);
  d.add(r.fault_events);
  d.add(r.repair_events);
  d.add(r.degrade_events);
  d.add(r.recovery_events);
  d.add(r.recovery_cycles);
  d.add(r.recovery_durations.size());
  for (const Cycle c : r.recovery_durations) d.add(c);
  d.add(r.worms_killed);
  d.add(r.reconfig_exchanges);
  d.add(r.rule_swaps);
  d.add(r.swap_gated_cycles);
  d.add(r.swap_gated_node_cycles);
  d.add(r.blocked_chain.size());
  for (const SimResult::BlockedChannelInfo& b : r.blocked_chain) {
    d.add(b.node);
    d.add(b.port);
    d.add(b.vc);
    d.add(b.packet);
  }
  d.add(out.lost_log.size());
  for (const PacketId p : out.lost_log) d.add(p);
  d.add(out.packets_created);
  d.add(out.packets_delivered);
  for (const std::int64_t x : out.extra) d.add(x);
  return d.value();
}

/// Pinned digests of every identity scenario, keyed by algorithm for the
/// fault-free cases and by scenario name otherwise. Recorded from the
/// original serial tick (the one-shard step the network had before it ran
/// the shard-phase step at every shard count), so they carry that step's
/// answers forward. The swap, drain-limit and quiesce pins were recorded
/// from the simulator's three separate warmup/measurement/drain loops,
/// before one per-cycle function replaced them. The chaos pins, the only
/// ones that hash RouterStats, were recorded while every router holding
/// flits stepped every cycle. The escape-live-kill pin was recorded while
/// every escape rebuild still filled all of its distance slabs.
const std::map<std::string, std::uint64_t>& pinned_digests() {
  static const std::map<std::string, std::uint64_t> pins = {
      {"dor-mesh", 0x8ba9399f46d8e57aull},
      {"ecube", 0x84d118e62fe2a5b5ull},
      {"nara", 0x776cae3ddc6a5af0ull},
      {"nafta", 0x776cae3ddc6a5af0ull},
      {"route_c", 0x11fa834542f09f94ull},
      {"route_c_nft", 0x2e56bf111e8e371eull},
      {"updown", 0x658a2bbc916a8522ull},
      {"spanning-tree", 0xf07ed48eb3eace7cull},
      {"dor-torus", 0xb189c52ee66ab856ull},
      {"planar-adaptive", 0x776cae3ddc6a5af0ull},
      {"planar-adaptive-ft", 0x776cae3ddc6a5af0ull},
      {"rule-driven", 0x322491ad5d882d4dull},
      {"static-faults", 0x8cb967f3d0238cb9ull},
      {"live-lifecycle", 0x5835b40e0a5bfe10ull},
      {"escape-live-kill", 0xf24223b431d6ce04ull},
      {"swap-immediate", 0x0a019c28665e18a9ull},
      {"swap-quiescent", 0x4748f65bd449f209ull},
      {"swap-rolling", 0x2f1cf80b30ca74e7ull},
      {"drain-limit", 0xb7d95c395982d9bfull},
      {"quiesce-kill", 0xd921e9c5b0a67cd7ull},
      {"chaos-nafta", 0x6f2896d9e8ebc9ccull},
      {"chaos-dor-mesh", 0x9850b1ab194018aaull},
      {"chaos-midrun", 0x39fb24016d988ad7ull},
      {"chaos-repeats-nafta", 0x22fae5dbfb62bbcaull},
  };
  return pins;
}

/// Runs at 1/2/4/8 shards, forced onto a multi-thread pool (thread count
/// must never matter — and under TSan this is the data-race certification
/// for the parallel phase), each checked against the pinned digest and,
/// for a readable diff, field by field against the one-shard run.
void expect_shard_identity(const ShardScenario& sc, const std::string& pin) {
  const auto it = pinned_digests().find(pin);
  ASSERT_NE(it, pinned_digests().end()) << "no pinned digest for " << pin;
  const RunOutput base = run_scenario(sc, 1, 4);
  for (const int shards : {1, 2, 4, 8}) {
    const RunOutput got =
        shards == 1 ? base : run_scenario(sc, shards, 4);
    const std::string label =
        pin + " " + sc.algo + "/" + make_topology(sc.topo, sc.size)->name() +
        " shards=" + std::to_string(shards);
    SCOPED_TRACE(label);
    EXPECT_EQ(digest(got), it->second);
    EXPECT_EQ(base.result, got.result);
    EXPECT_EQ(base.lost_log, got.lost_log);
    EXPECT_EQ(base.packets_created, got.packets_created);
    EXPECT_EQ(base.packets_delivered, got.packets_delivered);
    EXPECT_EQ(base.extra, got.extra);
  }
}

// --------------------------------------------- fault-free, all algorithms

class ShardIdentity : public ::testing::TestWithParam<std::string> {};

// Each algorithm on its native kind: a 6x6 mesh or torus, or the 4-cube.
TEST_P(ShardIdentity, FaultFreeBitIdentical) {
  ShardScenario sc;
  sc.algo = GetParam();
  sc.topo = native_topology_kind(sc.algo);
  if (sc.topo == TopologyKind::Hypercube) sc.size = {4};
  expect_shard_identity(sc, sc.algo);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ShardIdentity,
                         ::testing::ValuesIn(algorithm_names()),
                         [](const auto& info) {
                           std::string l = info.param;
                           for (char& c : l)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return l;
                         });

// ------------------------------------------------------- faulted scenarios

TEST(ShardIdentityRuleDriven, FtMeshBitIdentical) {
  // The rule interpreter's per-decision state lives in per-node slots, so
  // the sharded step may evaluate rule programs concurrently on different
  // nodes. This pins both the determinism and (under TSan) the race
  // freedom of that path.
  ShardScenario sc;
  sc.algo = "ft-mesh-rules";
  sc.static_link_faults = 4;
  expect_shard_identity(sc, "rule-driven");
}

TEST(ShardIdentityFaulted, StaticFaultsBitIdentical) {
  ShardScenario sc;
  sc.algo = "nafta";
  sc.static_link_faults = 6;
  sc.static_node_faults = 1;
  expect_shard_identity(sc, "static-faults");
}

TEST(ShardIdentityFaulted, LiveLifecycleBitIdentical) {
  ShardScenario sc;
  sc.size = {8, 8};
  sc.algo = "nafta";
  sc.lifecycle = true;
  sc.rate = 0.08;
  sc.warmup = 300;
  sc.measure = 900;
  sc.detection_delay = 40;
  sc.seed = 42;
  expect_shard_identity(sc, "live-lifecycle");
}

TEST(ShardIdentityFaulted, EscapeSlabFillsAfterLiveKillBitIdentical) {
  // ft_mesh on the bare VM reads the up*/down* escape layer on every
  // escape-VC decision, and each live kill's commit leaves every slab of the
  // new epoch unfilled. The first reads then fill slabs while the shards
  // step, several shards often reading one destination at once.
  ShardScenario sc;
  sc.algo = "ft-mesh-rules";
  sc.static_link_faults = 4;
  sc.lifecycle = true;
  sc.rate = 0.08;
  sc.warmup = 300;
  sc.measure = 900;
  sc.detection_delay = 40;
  sc.seed = 42;
  const RunOutput out = run_scenario(sc, 1, 1);
  EXPECT_EQ(out.result.fault_events, 2);
  EXPECT_FALSE(out.result.deadlock_suspected);
  expect_shard_identity(sc, "escape-live-kill");
}

// ------------------------------------- swaps, drain limit, quiesce kills
// The cycle-loop paths the scenarios above never reach: a live rule swap
// under each commit policy, a drain that runs out of drain_limit and dumps
// the blocked chain, and a quiesce() that must victim-kill wedged worms.

ShardScenario swap_scenario(Simulator::RuleSwapPolicy policy) {
  ShardScenario sc;
  sc.algo = "ft-mesh-rules";
  sc.rate = 0.08;
  sc.swap_at = sc.warmup + sc.measure / 2;
  sc.swap_policy = policy;
  sc.seed = 23;
  return sc;
}

TEST(ShardIdentityRuleSwap, ImmediateBitIdentical) {
  expect_shard_identity(swap_scenario(Simulator::RuleSwapPolicy::Immediate),
                        "swap-immediate");
}

TEST(ShardIdentityRuleSwap, QuiescentBitIdentical) {
  const ShardScenario sc = swap_scenario(Simulator::RuleSwapPolicy::Quiescent);
  const RunOutput out = run_scenario(sc, 1, 1);
  EXPECT_EQ(out.result.rule_swaps, 1);
  EXPECT_GT(out.result.swap_gated_cycles, 0);
  expect_shard_identity(sc, "swap-quiescent");
}

TEST(ShardIdentityRuleSwap, RollingBitIdentical) {
  const ShardScenario sc = swap_scenario(Simulator::RuleSwapPolicy::Rolling);
  const RunOutput out = run_scenario(sc, 1, 1);
  EXPECT_EQ(out.result.rule_swaps, 1);
  EXPECT_GT(out.result.swap_gated_node_cycles, 0);
  expect_shard_identity(sc, "swap-rolling");
}

TEST(ShardIdentityDrain, DrainLimitCapturesBlockedChain) {
  ShardScenario sc;
  sc.rate = 0.3;
  sc.drain_limit = 10;
  const RunOutput out = run_scenario(sc, 1, 1);
  EXPECT_TRUE(out.result.deadlock_suspected);
  EXPECT_FALSE(out.result.blocked_chain.empty());
  expect_shard_identity(sc, "drain-limit");
}

TEST(ShardIdentityDrain, QuiesceVictimKillsWedgedWorms) {
  ShardScenario sc;
  sc.rate = 0.2;
  sc.measure = 0;  // run() returns with the warmup traffic still in flight
  sc.quiesce_wedged = true;
  const RunOutput out = run_scenario(sc, 1, 1);
  ASSERT_EQ(out.extra.size(), 2u);
  EXPECT_EQ(out.extra[0], 1) << "quiesce() gave up";
  expect_shard_identity(sc, "quiesce-kill");
}

// ------------------------------------------ router statistics under chaos
// Fail-slow, flapping and killed hardware on the campaign's 4x4 fabric at
// its 0.06 load: wedged worms retry VA for many cycles while credits,
// throttle changes and poisoned worms free them again. These are the only
// pins that hash every RouterStats field (va_retries above all).

ShardScenario chaos_scenario(const std::string& algo) {
  ShardScenario sc;
  sc.size = {4, 4};
  sc.algo = algo;
  sc.chaos = true;
  sc.watchdog_window = 150;
  sc.rate = 0.06;
  sc.warmup = 200;
  sc.measure = 1200;
  sc.seed = 31;
  return sc;
}

TEST(ShardIdentityRouterStats, ChaosNaftaBitIdentical) {
  expect_shard_identity(chaos_scenario("nafta"), "chaos-nafta");
}

TEST(ShardIdentityRouterStats, ChaosDorMeshBitIdentical) {
  expect_shard_identity(chaos_scenario("dor-mesh"), "chaos-dor-mesh");
}

// Decisions that name (port, VC) pairs more than once, most of them in
// more entries than a router has input VCs (15): VA must grant what it
// would grant over the whole list, whatever RC keeps of it.
TEST(ShardIdentityRouterStats, ChaosRepeatedPairsBitIdentical) {
  expect_shard_identity(chaos_scenario("repeats:nafta"),
                        "chaos-repeats-nafta");
}

TEST(ShardIdentityRouterStats, MidRunStatsBitIdentical) {
  ShardScenario sc = chaos_scenario("dor-mesh");
  sc.warmup = 520;  // the node died at 450; worms still wait behind it
  sc.measure = 0;
  sc.midrun_stats = true;
  expect_shard_identity(sc, "chaos-midrun");
}

// -------------------------------------------------------- data-plane audit

/// The link (node, port) and the node a live lifecycle kills: on a mesh
/// east of (3, 3) and (4, 2), on a hypercube node 5's dimension-2 link and
/// node 6.
struct LifecycleTargets {
  NodeId link_node = 0;
  PortId link_port = 0;
  NodeId node = 0;
};
LifecycleTargets lifecycle_targets(const Topology& topo) {
  if (const auto* mesh = dynamic_cast<const Mesh*>(&topo))
    return {mesh->at(3, 3), port_of(Compass::East), mesh->at(4, 2)};
  FR_ASSERT(dynamic_cast<const Hypercube*>(&topo) != nullptr);
  return {5, 2, 6};
}

/// Steps a scenario's network by hand and runs Network::check_invariants
/// after every cycle and every fault operation. Uniform traffic of
/// 4-flit packets between nodes that are still up; a live lifecycle kills
/// a link at 600 and a node at 800, holds injection while damage is
/// pending, and commits it once the network has drained. Returns a digest
/// of each cycle's delivery and movement counters, so the audited run can
/// also be compared across shard counts.
std::uint64_t audited_run(const ShardScenario& sc, int shards,
                          int link_latency) {
  auto topo = make_topology(sc.topo, sc.size);
  const std::unique_ptr<RoutingAlgorithm> algo = scenario_algo(sc, *topo);
  NetworkConfig ncfg;
  ncfg.shards = shards;
  ncfg.shard_threads = shards;
  ncfg.link_latency = link_latency;
  Network net(*topo, *algo, ncfg);
  net.check_invariants();
  if (sc.static_link_faults > 0 || sc.static_node_faults > 0) {
    Rng frng(static_cast<std::uint64_t>(sc.static_link_faults) * 131 +
             static_cast<std::uint64_t>(sc.static_node_faults) * 17 + 7);
    net.apply_faults([&](FaultSet& f) {
      inject_random_node_faults(f, sc.static_node_faults, frng);
      inject_random_link_faults(f, sc.static_link_faults, frng);
    });
    net.check_invariants();
  }
  const LifecycleTargets kill =
      sc.lifecycle ? lifecycle_targets(*topo) : LifecycleTargets{};
  const auto up = [&net](NodeId n) {
    return net.faults().node_ok(n) && !net.node_live_killed(n);
  };

  UniformTraffic traffic(*topo);
  Rng rng(sc.seed);
  Digest d;
  const Cycle inject_until = sc.warmup + sc.measure;
  // Worms waiting on a channel that died before the commit never move
  // again: after 50 cycles without movement, kill them (the simulator's
  // drain watchdog does the same).
  StallWatch watch;
  watch.arm(net.total_flit_movements());
  bool stuck = false;
  Cycle now = 0;
  for (; now < inject_until || !net.idle() || net.recovery_pending(); ++now) {
    FR_ASSERT_MSG(now < inject_until + 20000, "audited run did not drain");
    if (sc.lifecycle && now == 600) {
      net.kill_link_live(kill.link_node, kill.link_port);
      net.check_invariants();
    }
    if (sc.lifecycle && now == 800) {
      net.kill_node_live(kill.node);
      net.check_invariants();
    }
    if (sc.failslow && (now == 100 || now == 500)) {
      const auto* m = dynamic_cast<const Mesh*>(topo.get());
      FR_ASSERT(m != nullptr);
      net.degrade_link_live(m->at(2, 2), port_of(Compass::East),
                            now == 100 ? 8 : 1);
      net.check_invariants();
    }
    if (net.recovery_pending() && net.idle()) {
      d.add(net.commit_pending_faults());
      net.check_invariants();
    }
    if (net.recovery_pending() && stuck) {
      for (const Network::BlockedChannel& b : net.blocked_channels()) {
        const PacketRecord& rec = net.record(b.packet);
        if (!rec.done() && !rec.lost && !net.packet_store().poisoned(b.slot))
          net.kill_packet(b.packet);
      }
      net.check_invariants();
    }
    if (now < inject_until && !net.recovery_pending()) {
      for (NodeId n = 0; n < topo->num_nodes(); ++n) {
        if (!up(n) || rng.next_unit() >= sc.rate) continue;
        const NodeId dest = traffic.dest(n, rng);
        if (dest != n && up(dest)) net.send(n, dest, 4, now);
      }
    }
    net.step(now);
    net.check_invariants();
    d.add(net.packets_delivered());
    d.add(net.packets_lost());
    d.add(net.total_flit_movements());
    stuck = watch.stalled(net.total_flit_movements(), 50);
  }
  d.add(now);
  d.add(net.packets_created());
  return d.value();
}

void expect_audited(const ShardScenario& sc, int link_latency) {
  const std::uint64_t one = audited_run(sc, 1, link_latency);
  EXPECT_EQ(audited_run(sc, 4, link_latency), one)
      << "audited run differs between 1 and 4 shards";
}

TEST(NetworkInvariants, FaultFreeEveryCycle) {
  ShardScenario sc;
  sc.rate = 0.08;
  expect_audited(sc, 1);
}

TEST(NetworkInvariants, StaticFaultsEveryCycle) {
  ShardScenario sc;
  sc.static_link_faults = 6;
  sc.static_node_faults = 1;
  expect_audited(sc, 1);
}

TEST(NetworkInvariants, LiveLifecycleEveryCycle) {
  ShardScenario sc;
  sc.size = {8, 8};
  sc.lifecycle = true;
  sc.rate = 0.08;
  sc.warmup = 300;
  sc.measure = 900;
  sc.seed = 42;
  expect_audited(sc, 1);
}

// A request refused by a throttled link keeps its router stepping: parked,
// the router would hold a committed flit with a credit and stall past the
// throttle's next free cycle.
TEST(NetworkInvariants, FailSlowLinkEveryCycle) {
  ShardScenario sc;
  sc.failslow = true;
  sc.rate = 0.08;
  expect_audited(sc, 1);
}

// No workload runs links slower than one cycle, so this is the only
// coverage of the multi-stage channel registers: a lifecycle run at
// latency 2 and 3 must drain, stay consistent every cycle, and not depend
// on the shard count.
TEST(NetworkInvariants, MultiCycleLinksDrainEveryCycle) {
  ShardScenario sc;
  sc.size = {8, 8};
  sc.lifecycle = true;
  sc.rate = 0.08;
  sc.warmup = 300;
  sc.measure = 900;
  sc.seed = 42;
  for (const int latency : {2, 3}) {
    SCOPED_TRACE("link_latency=" + std::to_string(latency));
    expect_audited(sc, latency);
  }
}

// Routers with more than 64 input VCs keep their state in more than one
// 64-bit word. negative-hop-9 on the 8-cube has 81 input VCs per router,
// and both its injection VC and the upper VCs of port 7 lie past the
// first 64, so a live-fault run audited after every cycle exercises the
// second word; pinned at 1/2/4/8 shards. (route_c on the 12-cube has 65
// input VCs, but only index 64, a local VC nothing injects into, lies
// past the first word; sim_throughput --smoke runs that fabric.)
TEST(NetworkInvariants, WideRoutersEveryCycleAtEveryShardCount) {
  ShardScenario sc;
  sc.topo = TopologyKind::Hypercube;
  sc.size = {8};
  sc.algo = "negative-hop-9";
  sc.lifecycle = true;
  sc.rate = 0.03;
  sc.warmup = 300;
  sc.measure = 600;
  sc.seed = 5;
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(audited_run(sc, shards, 1), 0xc131d2d3b31b435cull);
  }
}

// The repeated-pair decisions of ShardIdentityRouterStats's pin through a
// live lifecycle, audited after every cycle; pinned at 1/2/4/8 shards.
TEST(NetworkInvariants, RepeatedPairsEveryCycleAtEveryShardCount) {
  ShardScenario sc;
  sc.size = {8, 8};
  sc.algo = "repeats:nafta";
  sc.lifecycle = true;
  sc.rate = 0.08;
  sc.warmup = 300;
  sc.measure = 900;
  sc.seed = 42;
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(audited_run(sc, shards, 1), 0x0fdabfbb84a986f8ull);
  }
}

// ------------------------------------------------------ skip differential
// The step skips work in two ways: a router whose step would only repeat
// its last quiet step parks, and the simulator skips every cycle on which
// no router is active and no injection pending, jumping over stretches that
// draw no injection randomness. The reference mode of the same Network does
// neither: every router holding flits steps every cycle. Each scenario runs
// production (at its shard count) against the reference (at one shard) and
// must match it in everything observable.

/// Run `fn` on its own thread and give up on the whole test binary when it
/// has not finished within `limit`: a skip that never advances the clock
/// would otherwise hang the suite instead of failing it.
template <typename Fn>
auto with_timeout(const std::string& label, std::chrono::seconds limit,
                  Fn fn) {
  auto done = std::async(std::launch::async, std::move(fn));
  if (done.wait_for(limit) == std::future_status::timeout) {
    std::cerr << label << ": no result after " << limit.count() << " s\n";
    std::abort();  // the scenario's thread cannot be stopped
  }
  return done.get();
}

/// Production at `shards` shards against the reference at one; returns the
/// production run's skipped-cycle count.
Cycle expect_matches_reference(const ShardScenario& sc, int shards,
                               const std::string& label) {
  SCOPED_TRACE(label);
  const auto limit = std::chrono::seconds(60);
  const RunOutput ref = with_timeout(label + " reference", limit, [&] {
    return run_scenario(sc, 1, 1, /*reference=*/true);
  });
  const RunOutput got = with_timeout(
      label, limit, [&] { return run_scenario(sc, shards, shards); });
  EXPECT_EQ(ref.skipped, 0);
  EXPECT_EQ(got.result, ref.result);
  EXPECT_EQ(got.stats, ref.stats);
  EXPECT_EQ(got.lost_log, ref.lost_log);
  EXPECT_EQ(got.packets_created, ref.packets_created);
  EXPECT_EQ(got.packets_delivered, ref.packets_delivered);
  EXPECT_EQ(got.extra, ref.extra);
  EXPECT_EQ(got.now, ref.now);
  EXPECT_EQ(got.packets.size(), ref.packets.size());
  for (std::size_t i = 0; i < std::min(got.packets.size(), ref.packets.size());
       ++i) {
    if (got.packets[i] == ref.packets[i]) continue;
    const PacketOutcome& g = got.packets[i];
    const PacketOutcome& r = ref.packets[i];
    ADD_FAILURE() << "packet " << i << ": injected " << g.injected << " vs "
                  << r.injected << ", delivered " << g.delivered << " vs "
                  << r.delivered << ", hops " << g.hops << " vs " << r.hops
                  << ", misrouted " << g.misrouted << " vs " << r.misrouted
                  << ", lost " << g.lost << " vs " << r.lost;
    break;
  }
  return got.skipped;
}

/// Generated scenario `i`. Algorithm, fault regime, link latency, shard
/// count, load level and detection delay (shorter or longer than the
/// watchdog window) cycle with `i`, so any 12 consecutive indices cover
/// every value of each; the rest is drawn from a stream seeded by `i`.
struct GeneratedScenario {
  ShardScenario sc;
  int shards = 1;
};

GeneratedScenario generated_scenario(std::uint64_t i) {
  static const std::vector<std::string> algos = [] {
    std::vector<std::string> a = algorithm_names();
    a.push_back("ft-mesh-rules");
    return a;
  }();
  SplitMix64 sm(0x5eedd1ffULL + i);
  GeneratedScenario g;
  ShardScenario& sc = g.sc;
  sc.algo = algos[i % algos.size()];
  // The 4-cube, or a mesh or torus sized by one draw: 0 gives a 6x6 mesh
  // or a 4x4 torus, 1 the other size.
  sc.topo = native_topology_kind(sc.algo);
  if (sc.topo == TopologyKind::Hypercube) {
    sc.size = {4};
  } else {
    const bool zero = sm.next_below(2) == 0;
    const bool six = sc.topo == TopologyKind::Mesh ? zero : !zero;
    sc.size = six ? std::vector<int>{6, 6} : std::vector<int>{4, 4};
  }
  sc.regime = kFaultRegimes[i % std::size(kFaultRegimes)];
  sc.link_latency = 1 + static_cast<int>(i % 3);
  g.shards = 1 << (i % 4);
  const bool moderate = (i / 3) % 2 == 1;
  sc.rate = moderate ? 0.05 + 0.01 * static_cast<double>(sm.next_below(5))
                     : 0.005 + 0.005 * static_cast<double>(sm.next_below(3));
  sc.watchdog_window = 60 + static_cast<Cycle>(sm.next_below(200));
  const bool long_detection = (i / 4) % 2 == 1;
  sc.detection_delay =
      long_detection
          ? sc.watchdog_window + 1 +
                static_cast<Cycle>(sm.next_below(
                    static_cast<std::uint64_t>(3 * sc.watchdog_window)))
          : static_cast<Cycle>(sm.next_below(
                static_cast<std::uint64_t>(sc.watchdog_window)));
  sc.warmup = 100 + static_cast<Cycle>(sm.next_below(200));
  sc.measure = 400 + static_cast<Cycle>(sm.next_below(800));
  sc.seed = sm.next();
  if (sc.algo == "ft-mesh-rules") {
    // A live rule swap under one of the commit policies, or none.
    const std::uint64_t pick = sm.next_below(4);
    if (pick > 0) {
      sc.swap_at = sc.warmup + static_cast<Cycle>(sm.next_below(
                                   static_cast<std::uint64_t>(sc.measure)));
      sc.swap_policy = pick == 1   ? Simulator::RuleSwapPolicy::Immediate
                       : pick == 2 ? Simulator::RuleSwapPolicy::Quiescent
                                   : Simulator::RuleSwapPolicy::Rolling;
    }
  }
  return g;
}

std::string generated_label(std::uint64_t i, const GeneratedScenario& g) {
  const ShardScenario& sc = g.sc;
  return "generated #" + std::to_string(i) + ": " + sc.algo + "/" +
         make_topology(sc.topo, sc.size)->name() + " " +
         fault_regime_name(*sc.regime) + " latency " +
         std::to_string(sc.link_latency) + " shards " +
         std::to_string(g.shards) + " rate " + std::to_string(sc.rate) +
         " window " + std::to_string(sc.watchdog_window) + " detection " +
         std::to_string(sc.detection_delay) +
         (sc.swap_at >= 0 ? " swap at " + std::to_string(sc.swap_at) : "");
}

/// Runs generated scenarios [first, last) and returns their total skipped
/// cycles.
Cycle expect_generated_match(std::uint64_t first, std::uint64_t last) {
  Cycle skipped = 0;
  for (std::uint64_t i = first; i < last; ++i) {
    const GeneratedScenario g = generated_scenario(i);
    skipped += expect_matches_reference(g.sc, g.shards, generated_label(i, g));
  }
  return skipped;
}

TEST(SkipDifferential, GeneratedScenarios) {
  EXPECT_GT(expect_generated_match(0, 96), 0);
}

// The large set: run with --gtest_also_run_disabled_tests.
TEST(SkipDifferential, DISABLED_GeneratedScenariosLarge) {
  EXPECT_GT(expect_generated_match(96, 4096), 0);
}

TEST(SkipDifferential, LowLoadLifecycleLane) {
  // Low offered load on a live-lifecycle run with a long detection window:
  // plenty of inert cycles, and skips over the Detecting-state gaps, at one
  // shard and across a barrier.
  ShardScenario sc;
  sc.size = {8, 8};
  sc.algo = "nafta";
  sc.lifecycle = true;
  sc.rate = 0.002;
  sc.warmup = 300;
  sc.measure = 1500;
  sc.detection_delay = 500;
  sc.seed = 7;
  for (const int shards : {1, 2})
    EXPECT_GT(expect_matches_reference(sc, shards,
                                       "shards=" + std::to_string(shards)),
              0);
}

TEST(SkipDifferential, FaultFreeNearZeroLoadLane) {
  // Fault-free near-zero load: the injection RNG draws every cycle, so
  // every skip is a single cycle.
  ShardScenario sc;
  sc.algo = "nafta";
  sc.rate = 0.001;
  sc.seed = 3;
  EXPECT_GT(expect_matches_reference(sc, 1, "fault-free"), 0);
}

TEST(SkipDifferential, WedgedChaosLane) {
  // The chaos pins' fabric: worms wedge behind fail-slow, flapping and dead
  // hardware, their routers park, and inert stretches end at a watchdog
  // deadline, a fault event or the detection deadline. The mid-run lane
  // reads the stats with routers parked, then quiesce()s.
  ShardScenario sc = chaos_scenario("dor-mesh");
  sc.detection_delay = 400;
  for (const int shards : {1, 4}) {
    const std::string label = "chaos shards=" + std::to_string(shards);
    EXPECT_GT(expect_matches_reference(sc, shards, label), 0);
  }
  sc.detection_delay = 0;
  sc.warmup = 520;
  sc.measure = 0;
  sc.midrun_stats = true;
  EXPECT_GT(expect_matches_reference(sc, 2, "chaos midrun"), 0);
}

}  // namespace
}  // namespace flexrouter
