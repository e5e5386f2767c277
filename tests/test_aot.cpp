// AOT decision-table tests: the pre-resolved table must be indistinguishable
// from the tiers it accelerates, and the live hot-swap machinery must be
// invisible when it changes nothing.
//
//  * Three-way lockstep: interpreter, VM and AOT walk the complete premise
//    space (every (node, dest, in_port, in_vc) the table is built over) of
//    every shipped runnable rule base, fault-free and after random link
//    kills. Resolved points must agree on candidates AND decision cost;
//    points where one tier throws a contract violation (dynamically
//    unpresentable premise points — the fill marks them unreachable) must
//    throw in all three.
//  * The same lockstep over randomly generated routing programs (the
//    premise/conclusion shapes the soundness analysis classifies).
//  * Hot-swap identity: swapping a rule base for ITSELF at any cycle leaves
//    the SimResult bit-identical to the unswapped run, at 1/2/4/8 sweep
//    threads and 1/2/4 spatial shards.
//  * Quiescent swap accounting: a real program change drains, commits, and
//    loses nothing.
//  * Tier ladder: a narrowed budget forces the compressed tier — the eager
//    xor-fold table or the first-touch sign-class table behind the read-set
//    gate — which must stay in lockstep with the direct table and the VM
//    over the full premise space, before and after link faults; a second
//    pass over a sign-class working set fills nothing and allocates
//    nothing, and a sharded simulation with live faults is bit-identical
//    (results and tier counters) at 1/2/4/8 shards.
//  * Rolling swap commits: per-shard commits produce bit-identical
//    SimResults at 1/2/4/8 execution shards and gate strictly fewer
//    node-cycles than a quiescent drain of the same swap.
//  * The soundness gate and table invalidation: stateful programs and
//    programs reading packet-local inputs keep the VM tier (with a reason),
//    the interpreter never builds a table, a sign-class hit replays the
//    stored decision, a fault epoch never replays a stale one, and a
//    register poke through machine() is seen by the very next decision. A
//    parameter that shadows an input keeps the offset-sign classifier off.
//  * The store rule: on the direct, sign-class and xor-fold layouts alike,
//    a decision wider than an entry is left to the VM, counted as fallback,
//    and route() still equals the VM at every premise point.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "common/alloc_counter.hpp"
#include "common/rng.hpp"
#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "ruleengine/parser.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"

namespace flexrouter {
namespace {

using rules::ExecMode;

struct CorpusCase {
  const char* name;
  std::string source;
  int vcs;
  VcId escape_vc;
  std::unique_ptr<Topology> topo;
};

std::vector<CorpusCase> corpus_cases() {
  std::vector<CorpusCase> cases;
  cases.push_back({"nara_8x8", rulebases::nara_route_source(8, 8), 2, -1,
                   std::make_unique<Mesh>(std::vector<int>{8, 8})});
  cases.push_back({"ft_mesh_8x8", rulebases::ft_mesh_route_source(8, 8), 3, 2,
                   std::make_unique<Mesh>(std::vector<int>{8, 8})});
  cases.push_back({"ecube_5cube", rulebases::ecube_route_source(5), 1, -1,
                   std::make_unique<Hypercube>(5)});
  cases.push_back({"ecube_msb_5cube", rulebases::ecube_msb_route_source(5), 1,
                   -1, std::make_unique<Hypercube>(5)});
  return cases;
}

/// One tier's answer at a premise point: a decision, or "it threw".
struct PointResult {
  bool threw = false;
  RouteDecision d;
};

PointResult route_point(const RuleDrivenRouting& algo,
                        const RouteContext& ctx) {
  PointResult r;
  try {
    r.d = algo.route(ctx);
  } catch (const ContractViolation&) {
    r.threw = true;
  } catch (const rules::EvalError&) {
    // Collapsed-axis premise points (in_port/in_vc = -1) outside a declared
    // input domain: thrown alike by every tier.
    r.threw = true;
  }
  return r;
}

std::string describe(const RouteContext& ctx) {
  std::ostringstream os;
  os << "node=" << ctx.node << " dest=" << ctx.dest
     << " in_port=" << ctx.in_port << " in_vc=" << ctx.in_vc;
  return os.str();
}

void expect_same(const PointResult& a, const PointResult& b,
                 const char* tier, const RouteContext& ctx) {
  ASSERT_EQ(a.threw, b.threw) << tier << " at " << describe(ctx);
  if (a.threw) return;
  ASSERT_EQ(a.d.steps, b.d.steps) << tier << " at " << describe(ctx);
  ASSERT_EQ(a.d.candidates.size(), b.d.candidates.size())
      << tier << " at " << describe(ctx);
  for (std::size_t i = 0; i < a.d.candidates.size(); ++i) {
    EXPECT_EQ(a.d.candidates[i].port, b.d.candidates[i].port)
        << tier << " cand " << i << " at " << describe(ctx);
    EXPECT_EQ(a.d.candidates[i].vc, b.d.candidates[i].vc)
        << tier << " cand " << i << " at " << describe(ctx);
    EXPECT_EQ(a.d.candidates[i].priority, b.d.candidates[i].priority)
        << tier << " cand " << i << " at " << describe(ctx);
  }
}

/// Walk the full premise space the AOT table is built over — including the
/// collapsed -1 axes and injection arrivals — and require the three tiers
/// to agree point by point (same decision, same steps, or the same throw).
void lockstep_premise_space(const Topology& topo,
                            const RuleDrivenRouting& interp,
                            const RuleDrivenRouting& vm,
                            const RuleDrivenRouting& aot, int vcs) {
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      for (PortId p = -1; p <= topo.degree(); ++p) {
        for (VcId v = -1; v < vcs; ++v) {
          RouteContext ctx;
          ctx.node = n;
          ctx.dest = dst;
          ctx.src = n;
          ctx.in_port = p;
          ctx.in_vc = v;
          const PointResult a = route_point(interp, ctx);
          const PointResult b = route_point(vm, ctx);
          const PointResult c = route_point(aot, ctx);
          ASSERT_NO_FATAL_FAILURE(expect_same(a, b, "vm", ctx));
          ASSERT_NO_FATAL_FAILURE(expect_same(a, c, "aot", ctx));
        }
      }
    }
  }
}

class AotCorpusLockstep : public ::testing::TestWithParam<int> {};

TEST_P(AotCorpusLockstep, ThreeTiersAgreeOnEveryPremisePoint) {
  CorpusCase cs = std::move(corpus_cases()[GetParam()]);
  SCOPED_TRACE(cs.name);
  FaultSet f(*cs.topo);
  RuleDrivenRouting interp(cs.source, cs.vcs, ExecMode::Interpret, "route",
                           cs.escape_vc);
  RuleDrivenRouting vm(cs.source, cs.vcs, ExecMode::Vm, "route",
                       cs.escape_vc);
  RuleDrivenRouting aot(cs.source, cs.vcs, ExecMode::Aot, "route",
                        cs.escape_vc);
  interp.attach(*cs.topo, f);
  vm.attach(*cs.topo, f);
  aot.attach(*cs.topo, f);
  ASSERT_TRUE(aot.aot_active()) << cs.name << " did not take the AOT tier";
  EXPECT_EQ(aot.aot_stats().fallback, 0u)
      << cs.name << " left presentable points to the VM";

  lockstep_premise_space(*cs.topo, interp, vm, aot, cs.vcs);

  // Same walk after live faults: the table is rebuilt for the new epoch
  // and must still match the tiers that decide from scratch.
  Rng rng(7);
  inject_random_link_faults(f, 4, rng);
  interp.reconfigure();
  vm.reconfigure();
  aot.reconfigure();
  ASSERT_TRUE(aot.aot_active());
  lockstep_premise_space(*cs.topo, interp, vm, aot, cs.vcs);
}

INSTANTIATE_TEST_SUITE_P(Corpus, AotCorpusLockstep, ::testing::Range(0, 4),
                         [](const auto& info) {
                           return std::string(
                               corpus_cases()[info.param].name);
                         });

// ------------------------------------------------------ forced tier ladder
// Halving the budget below the full premise space forces the fill off the
// direct tier onto the compressed one: the eager xor-fold table for
// ecube/ecube_msb, the first-touch sign-class table for nara and ft_mesh
// (ft_mesh's escape_* reads pass the classifier and are gated per decision
// by the read set). Either way the forced tier must stay in lockstep with
// the direct table and the VM over the complete premise space, fault-free
// and after link kills. That is also the read-set gate's check: a decision
// stored for a whole sign class after reading a dest-bound input would
// disagree with the VM at another member of the class.
class AotForcedTierLockstep : public ::testing::TestWithParam<int> {};

TEST_P(AotForcedTierLockstep, ForcedTierAgreesWithDirectAndVm) {
  CorpusCase cs = std::move(corpus_cases()[GetParam()]);
  SCOPED_TRACE(cs.name);
  FaultSet f(*cs.topo);
  RuleDrivenRouting vm(cs.source, cs.vcs, ExecMode::Vm, "route",
                       cs.escape_vc);
  RuleDrivenRouting direct(cs.source, cs.vcs, ExecMode::Aot, "route",
                           cs.escape_vc);
  RuleDrivenRouting forced(cs.source, cs.vcs, ExecMode::Aot, "route",
                           cs.escape_vc);
  vm.attach(*cs.topo, f);
  direct.attach(*cs.topo, f);
  ASSERT_EQ(direct.aot_tier_info().tier, RuleDrivenRouting::AotTier::Direct);

  const std::uint64_t full = direct.aot_tier_info().full_entries;
  ASSERT_GT(full, 0u);
  forced.set_aot_budget(full / 2);
  forced.attach(*cs.topo, f);
  const RuleDrivenRouting::AotTierInfo ti = forced.aot_tier_info();
  ASSERT_EQ(ti.tier, RuleDrivenRouting::AotTier::Compressed) << ti.reason;
  EXPECT_GT(ti.compression_ratio, 1.0);
  const bool first_touch =
      ti.classifier == rules::DestClassifier::OffsetSign2D;
  // The eager xor-fold table is complete at fill; the sign-class table
  // starts empty and fills on first touch.
  if (first_touch) {
    EXPECT_EQ(forced.aot_stats().resolved, 0u);
  } else {
    EXPECT_EQ(forced.aot_stats().fallback, 0u);
  }
  ASSERT_TRUE(forced.aot_active());

  lockstep_premise_space(*cs.topo, vm, direct, forced, cs.vcs);
  const RuleDrivenRouting::AotTierInfo walked = forced.aot_tier_info();
  if (first_touch) {
    EXPECT_GT(walked.lazy_misses, 0);
    EXPECT_GT(walked.lazy_hits, walked.lazy_misses);
    // ft_mesh's escape-VC arrivals read escape_port: dest-bound.
    EXPECT_EQ(walked.lazy_uncacheable > 0, cs.escape_vc >= 0);
  }

  Rng rng(7);
  inject_random_link_faults(f, 4, rng);
  vm.reconfigure();
  direct.reconfigure();
  forced.reconfigure();
  ASSERT_TRUE(forced.aot_active());
  EXPECT_EQ(forced.aot_tier_info().tier, ti.tier)
      << "tier choice changed across the epoch";
  if (first_touch) {
    EXPECT_EQ(forced.aot_stats().resolved, 0u);
  }
  lockstep_premise_space(*cs.topo, vm, direct, forced, cs.vcs);
}

INSTANTIATE_TEST_SUITE_P(Corpus, AotForcedTierLockstep,
                         ::testing::Range(0, 4), [](const auto& info) {
                           return std::string(
                               corpus_cases()[info.param].name);
                         });

/// ft_mesh on a w x w mesh with the budget narrowed so that the full
/// premise space does not fit and the sign-class table does.
std::unique_ptr<RuleDrivenRouting> forced_sign_class_ft_mesh(int w) {
  auto algo = std::make_unique<RuleDrivenRouting>(
      rulebases::ft_mesh_route_source(w, w), 3, ExecMode::Aot, "route",
      /*escape_vc=*/2);
  const auto n = static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(w);
  algo->set_aot_budget(n * 9 * 6 * 4);  // nodes x classes x ports x vcs
  return algo;
}

// The sign-class table converges exactly: once a working set has been
// routed, a second pass over it is pure hits — zero fills, zero VM-served
// decisions and (the steady-state property the tier exists for) zero heap
// allocations. No conflict residue: a class entry, once filled, is never
// evicted.
TEST(AotSignClassTier, SecondPassOverWorkingSetFillsNothingAndAllocatesNothing) {
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  RuleDrivenRouting vm(rulebases::ft_mesh_route_source(8, 8), 3,
                       ExecMode::Vm, "route", /*escape_vc=*/2);
  const std::unique_ptr<RuleDrivenRouting> table = forced_sign_class_ft_mesh(8);
  vm.attach(m, f);
  table->attach(m, f);
  ASSERT_EQ(table->aot_tier_info().tier, RuleDrivenRouting::AotTier::Compressed)
      << table->aot_tier_info().reason;
  ASSERT_EQ(table->aot_tier_info().classifier,
            rules::DestClassifier::OffsetSign2D);

  // A bounded per-node working set (8 dests x every arrival). Points the
  // table serves through the VM — throws and dest-bound decisions — run the
  // VM on every touch by design and are left out; the first pass checks VM
  // identity and records the rest so the measured second pass drives the
  // table alone.
  std::vector<RouteContext> working_set;
  for (NodeId n = 0; n < m.num_nodes(); ++n) {
    for (int k = 1; k <= 8; ++k) {
      for (PortId p = -1; p <= m.degree(); ++p) {
        for (VcId v = -1; v < 3; ++v) {
          RouteContext ctx;
          ctx.node = n;
          ctx.dest = (n + k * 7) % m.num_nodes();
          ctx.src = n;
          ctx.in_port = p;
          ctx.in_vc = v;
          const std::int64_t vm_served_before =
              table->aot_tier_info().lazy_uncacheable;
          const PointResult want = route_point(vm, ctx);
          const PointResult got = route_point(*table, ctx);
          expect_same(want, got, "sign-class", ctx);
          if (!got.threw &&
              table->aot_tier_info().lazy_uncacheable == vm_served_before)
            working_set.push_back(ctx);
        }
      }
    }
  }
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const std::int64_t swept = static_cast<std::int64_t>(working_set.size());
  const RuleDrivenRouting::AotTierInfo warm = table->aot_tier_info();
  EXPECT_GT(warm.lazy_misses, 0);
  EXPECT_GT(warm.lazy_uncacheable, 0);  // escape-VC arrivals were left out

  const std::int64_t allocs_before = heap_alloc_count();
  for (const RouteContext& ctx : working_set) table->route(ctx);
  const std::int64_t allocs_after = heap_alloc_count();
  const RuleDrivenRouting::AotTierInfo converged = table->aot_tier_info();
  EXPECT_EQ(converged.lazy_misses, warm.lazy_misses);
  EXPECT_EQ(converged.lazy_uncacheable, warm.lazy_uncacheable);
  EXPECT_EQ(converged.lazy_hits - warm.lazy_hits, swept);
  EXPECT_EQ(converged.lazy_evictions, 0);
  if (heap_alloc_counting_enabled()) {
    EXPECT_EQ(allocs_after, allocs_before)
        << "sign-class hit path touched the heap (" << swept << " points)";
  }
}

// ------------------------------------------------- fuzzed routing programs
// Random stateless decision programs over the premise-keyed input catalog:
// bit tests on node/dest, arrival port/vc comparisons and link health, with
// 1-3 candidate conclusions per rule. The shapes cover what the soundness
// analysis must classify to enable (or refuse) the table.
class RouteProgramGenerator {
 public:
  explicit RouteProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream os;
    os << "PROGRAM fuzzroute;\n"
       << "CONSTANT dim = " << kDim << "\n"
       << "CONSTANT maxnode = " << ((1 << kDim) - 1) << "\n"
       << "INPUT node IN 0 TO maxnode\n"
       << "INPUT dest IN 0 TO maxnode\n"
       << "INPUT in_port IN 0 TO dim\n"
       << "INPUT in_vc IN 0 TO 1\n"
       << "INPUT link_ok(dim) IN 0 TO 1\n"
       << "ON route\n";
    const int rules = 2 + static_cast<int>(rng_.next_below(5));
    for (int r = 0; r < rules; ++r)
      os << "  IF " << premise() << " THEN " << conclusion() << ";\n";
    // Catch-all so every premise point decides something.
    os << "  IF node >= 0 THEN !cand(dim, 0, 0);\n"
       << "END route;\n";
    return os.str();
  }

  static constexpr int kDim = 3;

 private:
  std::string premise() {
    const int atoms = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < atoms; ++i) {
      if (i) os << (rng_.next_bool(0.8) ? " AND " : " OR ");
      switch (rng_.next_below(5)) {
        case 0:
          os << "bit(xor(node, dest), " << rng_.next_below(kDim)
             << ") = " << rng_.next_below(2);
          break;
        case 1:
          os << "in_vc = " << rng_.next_below(2);
          break;
        case 2:
          os << "in_port " << cmp() << " " << rng_.next_below(kDim + 1);
          break;
        case 3:
          os << "link_ok(" << rng_.next_below(kDim) << ") = 1";
          break;
        default:
          os << "node " << cmp() << " dest";
          break;
      }
    }
    return os.str();
  }

  std::string conclusion() {
    const int cands = 1 + static_cast<int>(rng_.next_below(3));
    std::ostringstream os;
    for (int i = 0; i < cands; ++i) {
      if (i) os << ", ";
      os << "!cand(" << rng_.next_below(kDim + 1) << ", "
         << rng_.next_below(2) << ", " << rng_.next_below(4) << ")";
    }
    return os.str();
  }

  std::string cmp() {
    static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
    return ops[rng_.next_below(6)];
  }

  Rng rng_;
};

TEST(AotFuzz, RandomRoutingProgramsAgreeAcrossTiers) {
  constexpr int kDim = RouteProgramGenerator::kDim;
  Hypercube topo(kDim);
  int aot_engaged = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RouteProgramGenerator gen(seed * 104729);
    const std::string source = gen.generate();
    SCOPED_TRACE(source);
    FaultSet f(topo);
    RuleDrivenRouting interp(source, 2, ExecMode::Interpret);
    RuleDrivenRouting vm(source, 2, ExecMode::Vm);
    RuleDrivenRouting aot(source, 2, ExecMode::Aot);
    interp.attach(topo, f);
    vm.attach(topo, f);
    aot.attach(topo, f);
    if (aot.aot_active()) ++aot_engaged;
    lockstep_premise_space(topo, interp, vm, aot, 2);
  }
  // The generator only emits premise-keyed reads, so the analysis should
  // accept (and the table serve) essentially every program.
  EXPECT_GT(aot_engaged, 20);
}

// ------------------------------------------------------ hot-swap identity
/// `r` with the swap accounting zeroed: a swapped run compared against an
/// unswapped one differs there by construction, and nowhere else.
SimResult without_swap_metrics(SimResult r) {
  r.rule_swaps = 0;
  r.swap_gated_cycles = 0;
  r.swap_gated_node_cycles = 0;
  return r;
}

constexpr Cycle kWarmup = 150;
constexpr Cycle kMeasure = 500;

/// One 6x6-mesh replica of the fault-tolerant rule program under the AOT
/// tier. `swap_at` >= 0 schedules a swap to `swap_source` (the same
/// program, for the identity checks) at that cycle.
SimResult run_mesh_point(std::uint64_t seed, int shards, Cycle swap_at,
                         const std::string& swap_source,
                         Simulator::RuleSwapPolicy policy =
                             Simulator::RuleSwapPolicy::Auto) {
  Mesh m = Mesh::two_d(6, 6);
  RuleDrivenRouting algo(rulebases::ft_mesh_route_source(6, 6), 3,
                         ExecMode::Aot, "route", /*escape_vc=*/2);
  UniformTraffic tr(m);
  NetworkConfig ncfg;
  ncfg.shards = shards;
  Network net(m, algo, ncfg);
  SimConfig cfg;
  cfg.injection_rate = 0.08;
  cfg.packet_length = 4;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = seed;
  Simulator sim(net, tr, cfg);
  if (swap_at >= 0) sim.schedule_rule_swap(swap_at, swap_source, policy);
  return sim.run();
}

TEST(AotHotSwap, SelfSwapAtAnyCycleIsBitIdentical) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  const SimResult baseline = run_mesh_point(11, 1, -1, "");
  ASSERT_EQ(baseline.rule_swaps, 0);
  // Any cycle: during warmup, mid-measurement, near the end of the window.
  for (const Cycle at : {Cycle{40}, kWarmup + kMeasure / 2,
                         kWarmup + kMeasure - 1}) {
    const SimResult swapped = run_mesh_point(11, 1, at, source);
    EXPECT_EQ(swapped.rule_swaps, 1) << "swap at " << at;
    EXPECT_EQ(swapped.swap_gated_cycles, 0) << "swap at " << at;
    EXPECT_TRUE(without_swap_metrics(swapped) == baseline)
        << "self-swap at cycle " << at << " perturbed the run";
  }
}

TEST(AotHotSwap, SelfSwapBitIdenticalAcrossShardCounts) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  const Cycle at = kWarmup + kMeasure / 2;
  const SimResult one = run_mesh_point(13, 1, at, source);
  ASSERT_EQ(one.rule_swaps, 1);
  for (const int shards : {2, 4}) {
    const SimResult sharded = run_mesh_point(13, shards, at, source);
    EXPECT_EQ(sharded.rule_swaps, 1);
    EXPECT_TRUE(sharded == one)
        << "self-swap differs at " << shards << " shards";
  }
}

TEST(AotHotSwap, SelfSwapBitIdenticalAcrossSweepThreads) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  std::vector<SweepPoint> points;
  for (const Cycle at : {Cycle{40}, kWarmup + kMeasure / 2}) {
    for (const int shards : {1, 2}) {
      points.push_back({[at, shards, source](std::uint64_t seed) {
        return run_mesh_point(seed, shards, at, source);
      }});
    }
  }
  std::vector<SimResult> reference;
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.num_threads = threads;
    opts.base_seed = 5;
    SweepRunner runner(opts);
    const std::vector<SimResult> results = runner.run(points);
    if (threads == 1) {
      reference = results;
      continue;
    }
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_TRUE(results[i] == reference[i])
          << "point " << i << " differs at " << threads << " threads";
  }
}

// Live faults under sharded stepping: every first-touch write is
// node-scoped, so a 16x16 ft_mesh run on the sign-class table with links
// dying mid-run (escape traffic flows, dest-bound decisions go to the VM)
// must give a bit-identical SimResult AND identical tier counters at 1, 2,
// 4 and 8 shards, each on its own thread (the TSan job runs this suite).
struct ShardedSignClassRun {
  SimResult result;
  RuleDrivenRouting::AotTierInfo tier;
};

ShardedSignClassRun run_sign_class_mesh16(int shards) {
  Mesh m = Mesh::two_d(16, 16);
  const std::unique_ptr<RuleDrivenRouting> algo = forced_sign_class_ft_mesh(16);
  UniformTraffic tr(m);
  NetworkConfig ncfg;
  ncfg.shards = shards;
  ncfg.shard_threads = shards;
  Network net(m, *algo, ncfg);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.packet_length = 4;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = 31;
  Simulator sim(net, tr, cfg);
  FaultSchedule schedule;
  schedule.fail_link_at(60, m.at(7, 7), port_of(Compass::East));
  schedule.fail_link_at(60, m.at(8, 4), port_of(Compass::North));
  schedule.fail_link_at(140, m.at(3, 10), port_of(Compass::East));
  schedule.fail_link_at(140, m.at(12, 12), port_of(Compass::South));
  sim.set_fault_schedule(schedule);
  ShardedSignClassRun out;
  out.result = sim.run();
  out.tier = algo->aot_tier_info();
  return out;
}

TEST(AotSignClassTier, LiveFaultsBitIdenticalAcrossShardCounts) {
  const ShardedSignClassRun one = run_sign_class_mesh16(1);
  ASSERT_EQ(one.tier.tier, RuleDrivenRouting::AotTier::Compressed)
      << one.tier.reason;
  EXPECT_GT(one.result.fault_events, 0);
  EXPECT_GT(one.result.delivered_packets, 0);
  EXPECT_GT(one.tier.lazy_hits, 0);
  EXPECT_GT(one.tier.lazy_misses, 0);
  EXPECT_GT(one.tier.lazy_uncacheable, 0);  // escape traffic reached the VM
  for (const int shards : {2, 4, 8}) {
    const ShardedSignClassRun sharded = run_sign_class_mesh16(shards);
    EXPECT_TRUE(sharded.result == one.result)
        << "SimResult differs at " << shards << " shards";
    EXPECT_EQ(sharded.tier.lazy_hits, one.tier.lazy_hits) << shards;
    EXPECT_EQ(sharded.tier.lazy_misses, one.tier.lazy_misses) << shards;
    EXPECT_EQ(sharded.tier.lazy_uncacheable, one.tier.lazy_uncacheable)
        << shards;
    EXPECT_EQ(sharded.tier.lazy_evictions, 0) << shards;
  }
}

// The escape layer fills a destination's slab on its first read in an
// epoch. Fault-free ft_mesh traffic on the sign-class table reaches no
// escape rule, so such a run fills no slab. A faulted run fills some, and
// at most one per destination in the epoch (the run commits no fault after
// set-up, so set-up's rebuild opens its only epoch).
std::int64_t escape_slabs_filled_mesh16(int link_faults) {
  Mesh m = Mesh::two_d(16, 16);
  const std::unique_ptr<RuleDrivenRouting> algo = forced_sign_class_ft_mesh(16);
  UniformTraffic tr(m);
  Network net(m, *algo);
  Rng rng(0x51ab);
  net.apply_faults(
      [&](FaultSet& f) { inject_random_link_faults(f, link_faults, rng); });
  EXPECT_EQ(algo->aot_tier_info().tier, RuleDrivenRouting::AotTier::Compressed)
      << algo->aot_tier_info().reason;
  EXPECT_EQ(algo->escape_table().slabs_filled(), 0);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.packet_length = 4;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = 7;
  Simulator sim(net, tr, cfg);
  const SimResult r = sim.run();
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets, r.injected_packets);
  EXPECT_EQ(algo->escape_table().built_for_epoch(), net.faults().epoch());
  return algo->escape_table().slabs_filled();
}

TEST(AotSignClassTier, EscapeSlabsFillOnlyWhereTrafficReadsThem) {
  EXPECT_EQ(escape_slabs_filled_mesh16(0), 0);
  const std::int64_t faulted = escape_slabs_filled_mesh16(12);
  EXPECT_GE(faulted, 1);
  EXPECT_LE(faulted, 16 * 16);
}

TEST(AotHotSwap, QuiescentProgramChangeDrainsAndLosesNothing) {
  constexpr int kDim = 4;
  Hypercube topo(kDim);
  RuleDrivenRouting algo(rulebases::ecube_route_source(kDim), 1,
                         ExecMode::Aot);
  UniformTraffic tr(topo);
  Network net(topo, algo);
  SimConfig cfg;
  cfg.injection_rate = 0.10;
  cfg.packet_length = 4;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = 21;
  Simulator sim(net, tr, cfg);
  sim.schedule_rule_swap(kWarmup + kMeasure / 2,
                         rulebases::ecube_msb_route_source(kDim),
                         Simulator::RuleSwapPolicy::Quiescent);
  const SimResult r = sim.run();
  EXPECT_EQ(r.rule_swaps, 1);
  EXPECT_GT(r.swap_gated_cycles, 0);
  EXPECT_LT(r.swap_gated_cycles, kMeasure);
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets + r.packets_unrecoverable,
            r.injected_packets);
  // The swapped-in program is serving from a fresh, complete table.
  EXPECT_TRUE(algo.aot_active());
  EXPECT_EQ(algo.aot_stats().fallback, 0u);
}

// A retransmission is injection like any other: a quiescent swap's gate
// must hold it back until the commit, also when the swap comes due in the
// drain while a late link kill's retries are still queued.
TEST(AotHotSwap, QuiescentGateHoldsRetransmissions) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  Mesh m = Mesh::two_d(6, 6);
  RuleDrivenRouting algo(source, 3, ExecMode::Aot, "route",
                         /*escape_vc=*/2);
  UniformTraffic tr(m);
  Network net(m, algo);
  SimConfig cfg;
  cfg.injection_rate = 0.3;
  cfg.packet_length = 4;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = 7;
  Simulator sim(net, tr, cfg);
  FaultSchedule schedule;
  schedule.fail_link_at(kWarmup + kMeasure - 10, m.at(2, 2),
                        port_of(Compass::East));
  sim.set_fault_schedule(schedule);
  const Cycle swap_at = kWarmup + kMeasure;
  sim.schedule_rule_swap(swap_at, source,
                         Simulator::RuleSwapPolicy::Quiescent);
  const SimResult r = sim.run();
  ASSERT_EQ(r.rule_swaps, 1);
  ASSERT_GT(r.swap_gated_cycles, 0);
  int retries = 0;
  for (PacketId id = 0; id < net.packets_created(); ++id) {
    const PacketRecord& rec = net.record(id);
    if (rec.retry_of < 0) continue;
    ++retries;
    EXPECT_FALSE(rec.created >= swap_at &&
                 rec.created < swap_at + r.swap_gated_cycles)
        << "retry " << id << " injected at cycle " << rec.created
        << " inside the swap gate [" << swap_at << ", "
        << swap_at + r.swap_gated_cycles << ")";
  }
  EXPECT_GT(retries, 0);
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets + r.packets_unrecoverable,
            r.injected_packets);
}

// ---------------------------------------------------- rolling swap commits
// The per-shard rolling policy drains one spatial shard at a time: only
// the draining shard's uncommitted nodes stop injecting, so the downtime
// (gated node-cycles) must come in strictly under a quiescent drain of the
// same swap, with the whole-network injection gate never engaging.
TEST(AotRollingSwap, GatesStrictlyFewerNodeCyclesThanQuiescent) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  const Cycle at = kWarmup + kMeasure / 2;
  const SimResult quiescent =
      run_mesh_point(17, 1, at, source, Simulator::RuleSwapPolicy::Quiescent);
  const SimResult rolling =
      run_mesh_point(17, 1, at, source, Simulator::RuleSwapPolicy::Rolling);
  ASSERT_EQ(quiescent.rule_swaps, 1);
  ASSERT_EQ(rolling.rule_swaps, 1);
  // Quiescent gates the whole network for the drain; rolling never engages
  // the global gate and pays only per-shard drains.
  EXPECT_GT(quiescent.swap_gated_cycles, 0);
  EXPECT_EQ(rolling.swap_gated_cycles, 0);
  EXPECT_GT(rolling.swap_gated_node_cycles, 0);
  EXPECT_LT(rolling.swap_gated_node_cycles, quiescent.swap_gated_node_cycles);
  EXPECT_FALSE(rolling.deadlock_suspected);
  EXPECT_EQ(rolling.delivered_packets + rolling.packets_unrecoverable,
            rolling.injected_packets);
}

// Rolling commits happen in the simulator's serial pre-step phase and the
// drain order is a property of the plan, not of the execution parallelism:
// the SimResult must be bit-identical at any shard count.
TEST(AotRollingSwap, BitIdenticalAcrossShardCounts) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  const Cycle at = kWarmup + kMeasure / 2;
  const SimResult one =
      run_mesh_point(19, 1, at, source, Simulator::RuleSwapPolicy::Rolling);
  ASSERT_EQ(one.rule_swaps, 1);
  EXPECT_GT(one.swap_gated_node_cycles, 0);
  for (const int shards : {2, 4, 8}) {
    const SimResult sharded = run_mesh_point(
        19, shards, at, source, Simulator::RuleSwapPolicy::Rolling);
    EXPECT_TRUE(sharded == one)
        << "rolling swap differs at " << shards << " execution shards";
  }
}

TEST(AotRollingSwap, BitIdenticalAcrossSweepThreads) {
  const std::string source = rulebases::ft_mesh_route_source(6, 6);
  std::vector<SweepPoint> points;
  for (const Cycle at : {Cycle{40}, kWarmup + kMeasure / 2}) {
    for (const int shards : {1, 2}) {
      points.push_back({[at, shards, source](std::uint64_t seed) {
        return run_mesh_point(seed, shards, at, source,
                              Simulator::RuleSwapPolicy::Rolling);
      }});
    }
  }
  std::vector<SimResult> reference;
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.num_threads = threads;
    opts.base_seed = 23;
    SweepRunner runner(opts);
    const std::vector<SimResult> results = runner.run(points);
    if (threads == 1) {
      reference = results;
      continue;
    }
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_TRUE(results[i] == reference[i])
          << "rolling point " << i << " differs at " << threads
          << " threads";
  }
}

// A rolling swap to a DIFFERENT program: the two programs coexist while
// the shards drain, and the swapped-in program ends up serving from a
// fresh, complete table with nothing lost in flight.
TEST(AotRollingSwap, ProgramChangeCommitsAndLosesNothing) {
  constexpr int kDim = 4;
  Hypercube topo(kDim);
  RuleDrivenRouting algo(rulebases::ecube_route_source(kDim), 1,
                         ExecMode::Aot);
  UniformTraffic tr(topo);
  Network net(topo, algo);
  SimConfig cfg;
  cfg.injection_rate = 0.10;
  cfg.packet_length = 4;
  cfg.warmup_cycles = kWarmup;
  cfg.measure_cycles = kMeasure;
  cfg.seed = 29;
  Simulator sim(net, tr, cfg);
  sim.schedule_rule_swap(kWarmup + kMeasure / 2,
                         rulebases::ecube_msb_route_source(kDim),
                         Simulator::RuleSwapPolicy::Rolling);
  const SimResult r = sim.run();
  EXPECT_EQ(r.rule_swaps, 1);
  EXPECT_EQ(r.swap_gated_cycles, 0);
  EXPECT_GT(r.swap_gated_node_cycles, 0);
  EXPECT_FALSE(r.deadlock_suspected);
  EXPECT_EQ(r.delivered_packets + r.packets_unrecoverable,
            r.injected_packets);
  EXPECT_FALSE(algo.rolling_commit_active());
  EXPECT_TRUE(algo.aot_active());
  EXPECT_EQ(algo.aot_stats().fallback, 0u);
}

// A machine() poke (mutable per-node rule state access) must drop the
// table: decisions keep flowing through the VM until the next fill, and
// reconfigure() restores the table tier.
TEST(AotHotSwap, MachinePokeDropsTableUntilNextFill) {
  Mesh m = Mesh::two_d(4, 4);
  FaultSet f(m);
  RuleDrivenRouting algo(rulebases::nara_route_source(4, 4), 2,
                         ExecMode::Aot);
  algo.attach(m, f);
  ASSERT_TRUE(algo.aot_active());
  RouteContext ctx;
  ctx.node = 0;
  ctx.dest = 5;
  ctx.src = 0;
  ctx.in_port = m.degree();
  ctx.in_vc = 0;
  const RouteDecision before = algo.route(ctx);
  algo.machine(3);  // hand out mutable state: conservative invalidation
  EXPECT_FALSE(algo.aot_active());
  const RouteDecision during = algo.route(ctx);  // VM fallback still serves
  algo.reconfigure();
  EXPECT_TRUE(algo.aot_active());
  const RouteDecision after = algo.route(ctx);
  EXPECT_EQ(before.candidates.size(), during.candidates.size());
  EXPECT_EQ(before.candidates.size(), after.candidates.size());
  for (std::size_t i = 0; i < before.candidates.size(); ++i) {
    EXPECT_EQ(before.candidates[i].port, after.candidates[i].port);
    EXPECT_EQ(before.candidates[i].vc, after.candidates[i].vc);
  }
}

// ------------------------------------ soundness gate and table invalidation
RouteContext injected_ctx(const Mesh& m, NodeId node, NodeId dest, VcId vc) {
  RouteContext ctx;
  ctx.node = node;
  ctx.dest = dest;
  ctx.src = node;
  ctx.in_port = m.degree();
  ctx.in_vc = vc;
  return ctx;
}

TEST(AotSoundnessGate, StatefulProgramKeepsTheVmTier) {
  // The decision rule base writes a register: a table would skip the
  // write, so the gate must refuse every table tier.
  static const char* kSource =
      "PROGRAM statef;\n"
      "VARIABLE count IN 0 TO 7\n"
      "INPUT node IN 0 TO 35\n"
      "INPUT dest IN 0 TO 35\n"
      "ON route RETURNS 0 TO 4\n"
      "  IF node >= 0 THEN count <- min(count + 1, 7), RETURN(4);\n"
      "END route\n";
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  RuleDrivenRouting algo(kSource, 2, ExecMode::Aot);
  algo.attach(m, f);
  const RuleDrivenRouting::AotTierInfo ti = algo.aot_tier_info();
  EXPECT_EQ(ti.tier, RuleDrivenRouting::AotTier::Vm);
  EXPECT_EQ(ti.reason, "program writes rule state");
  EXPECT_FALSE(algo.aot_active());

  const RouteContext ctx = injected_ctx(m, m.at(2, 2), m.at(2, 2), 0);
  algo.route(ctx);
  algo.route(ctx);
  // Every decision really executed: the register advanced twice.
  EXPECT_EQ(algo.machine(ctx.node).env().get("count").as_int(), 2);
}

TEST(AotSoundnessGate, PacketLocalInputKeepsTheVmTier) {
  // path_len varies per packet without being part of the premise point, so
  // a program reading it must never be tabulated.
  static const char* kSource =
      "PROGRAM plen;\n"
      "INPUT path_len IN 0 TO 255\n"
      "ON route RETURNS 0 TO 4\n"
      "  IF path_len >= 0 THEN RETURN(4);\n"
      "END route\n";
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  RuleDrivenRouting algo(kSource, 2, ExecMode::Aot);
  algo.attach(m, f);
  const RuleDrivenRouting::AotTierInfo ti = algo.aot_tier_info();
  EXPECT_EQ(ti.tier, RuleDrivenRouting::AotTier::Vm);
  EXPECT_EQ(ti.reason, "reads inputs outside the premise point");
  EXPECT_FALSE(algo.aot_active());
}

TEST(AotSoundnessGate, InterpretModeBuildsNoTable) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  RuleDrivenRouting interp(rulebases::nara_route_source(6, 6), 2,
                           ExecMode::Interpret);
  interp.attach(m, f);
  const RuleDrivenRouting::AotTierInfo ti = interp.aot_tier_info();
  EXPECT_EQ(ti.tier, RuleDrivenRouting::AotTier::Vm);
  EXPECT_EQ(ti.reason, "exec mode is not Aot");
  EXPECT_FALSE(interp.aot_active());
  EXPECT_EQ(ti.table_entries, 0u);
}

// The offset-sign classifier admits the dest-bound escape inputs (the
// read-set gate checks them per decision) and names them in its verdict;
// a raw `dest` read still has no sign class.
TEST(AotSignClassTier, ClassifierGatesEscapeReadsButNotRawDest) {
  const rules::Program ft =
      rules::parse_program(rulebases::ft_mesh_route_source(8, 8));
  const rules::DestClassAnalysis a = rules::classify_dest_axis(ft, "route");
  EXPECT_EQ(a.kind, rules::DestClassifier::OffsetSign2D) << a.reason;
  EXPECT_NE(a.reason.find("gated per decision: escape_ok, escape_port"),
            std::string::npos)
      << a.reason;

  const rules::Program raw = rules::parse_program(
      "PROGRAM rawdest;\n"
      "INPUT xpos IN 0 TO 7\n"
      "INPUT xdes IN 0 TO 7\n"
      "INPUT dest IN 0 TO 63\n"
      "ON route RETURNS 0 TO 4\n"
      "  IF xpos < xdes AND dest > 9 THEN RETURN(0);\n"
      "  IF xpos >= xdes THEN RETURN(4);\n"
      "END route\n");
  const rules::DestClassAnalysis b = rules::classify_dest_axis(raw, "route");
  EXPECT_EQ(b.kind, rules::DestClassifier::None);
  EXPECT_NE(b.reason.find("'dest'"), std::string::npos) << b.reason;
}

// A rule-base parameter named after an input shadows it: in `hop`, `xpos`
// is the emitted constant 3, so `xpos < xdes` compares 3 against the raw
// xdes — no sign class determines that. The classifier must refuse the
// program (the offset-sign table has no fill-time validation to catch it),
// and the forced table must then agree with the VM everywhere.
TEST(AotSignClassTier, ParameterShadowingAnInputBlocksTheClassifier) {
  static const char* kSource =
      "PROGRAM shadow;\n"
      "INPUT xpos IN 0 TO 7\n"
      "INPUT xdes IN 0 TO 7\n"
      "ON route\n"
      "  IF xpos >= 0 THEN !hop(3);\n"
      "END route;\n"
      "ON hop(xpos IN 0 TO 7)\n"
      "  IF xpos < xdes THEN !cand(0, 0, 0);\n"
      "  IF xpos >= xdes THEN !cand(1, 0, 0);\n"
      "END hop;\n";
  const rules::DestClassAnalysis a =
      rules::classify_dest_axis(rules::parse_program(kSource), "route");
  EXPECT_EQ(a.kind, rules::DestClassifier::None);
  EXPECT_NE(a.reason.find("rule base 'hop' binds 'xpos'"), std::string::npos)
      << a.reason;

  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  RuleDrivenRouting vm(kSource, 1, ExecMode::Vm);
  RuleDrivenRouting forced(kSource, 1, ExecMode::Aot);
  forced.set_aot_budget(64 * 9 * 6 * 2);  // the sign-class table would fit
  vm.attach(m, f);
  forced.attach(m, f);
  EXPECT_EQ(forced.aot_tier_info().tier, RuleDrivenRouting::AotTier::Vm)
      << forced.aot_tier_info().reason;
  lockstep_premise_space(m, vm, vm, forced, 1);
}

// ------------------------------------------------------------ store rule
// Every layout stores a decision only if it fits the entry; a wider one is
// left to the VM and counted as fallback (not as dest-bound, which is
// reserved for decisions that read a dest-bound input), so the rulelint
// --emit-table gate sees it. Both programs below emit four candidates, one
// more than an entry packs, at some points and one elsewhere.
const char* const kWideMeshSource =
    "PROGRAM wide;\n"
    "INPUT xpos IN 0 TO 5\n"
    "INPUT xdes IN 0 TO 5\n"
    "ON route\n"
    "  IF xpos < xdes THEN !cand(0, 0, 0), !cand(1, 0, 1), "
    "!cand(2, 0, 2), !cand(3, 0, 3);\n"
    "  IF xpos >= xdes THEN !cand(1, 0, 0);\n"
    "END route;\n";
const char* const kWideCubeSource =
    "PROGRAM wide_cube;\n"
    "INPUT node IN 0 TO 15\n"
    "INPUT dest IN 0 TO 15\n"
    "ON route\n"
    "  IF node = dest THEN !cand(4, 0, 0);\n"
    "  IF bit(xor(node, dest), 0) = 1 THEN !cand(0, 0, 0), !cand(1, 0, 1), "
    "!cand(2, 0, 2), !cand(3, 0, 3);\n"
    "  IF bit(xor(node, dest), 0) = 0 THEN !cand(1, 0, 0);\n"
    "END route;\n";

/// Build `source` on `topo` with `budget` (0 = the default), check the
/// layout, then require route() to equal the VM at every premise point and
/// the table to count exactly `wide_points` fallback entries.
void expect_wide_points_fall_back(const Topology& topo, const char* source,
                                  std::uint64_t budget,
                                  RuleDrivenRouting::AotTier tier,
                                  rules::DestClassifier classifier,
                                  std::uint64_t wide_points) {
  FaultSet f(topo);
  RuleDrivenRouting vm(source, 1, ExecMode::Vm);
  RuleDrivenRouting table(source, 1, ExecMode::Aot);
  if (budget != 0) table.set_aot_budget(budget);
  vm.attach(topo, f);
  table.attach(topo, f);
  const RuleDrivenRouting::AotTierInfo ti = table.aot_tier_info();
  ASSERT_EQ(ti.tier, tier) << ti.reason;
  ASSERT_EQ(ti.classifier, classifier) << ti.reason;
  ASSERT_TRUE(table.aot_active());
  if (classifier == rules::DestClassifier::OffsetSign2D) {
    table.touch_every_sign_class();
    table.touch_every_sign_class();  // a second walk records nothing new
  }
  const rules::AotTable::Stats st = table.aot_stats();
  EXPECT_EQ(st.dest_bound, 0u);
  EXPECT_EQ(st.fallback, wide_points);
  EXPECT_GT(st.resolved, 0u);
  EXPECT_EQ(st.resolved + st.fallback + st.unreachable, st.entries);
  EXPECT_EQ(st.bytes, st.entries * sizeof(rules::AotEntry));
  lockstep_premise_space(topo, vm, vm, table, 1);
  EXPECT_TRUE(table.aot_active());
}

// Port and VC axis extents of a 1-VC program: in_port -1..degree, in_vc
// -1..0.
std::uint64_t premise_ports_x_vcs(const Topology& topo) {
  return static_cast<std::uint64_t>(topo.degree() + 2) * 2;
}

TEST(AotStoreRule, WideDecisionFallsBackOnTheDirectLayout) {
  const Mesh m = Mesh::two_d(6, 6);
  std::uint64_t wide = 0;  // (node, dest) pairs with xpos < xdes
  for (NodeId n = 0; n < m.num_nodes(); ++n)
    for (NodeId d = 0; d < m.num_nodes(); ++d)
      wide += m.x_of(n) < m.x_of(d) ? 1 : 0;
  expect_wide_points_fall_back(m, kWideMeshSource, 0,
                               RuleDrivenRouting::AotTier::Direct,
                               rules::DestClassifier::None,
                               wide * premise_ports_x_vcs(m));
}

TEST(AotStoreRule, WideDecisionFallsBackOnTheSignClassLayout) {
  const Mesh m = Mesh::two_d(6, 6);
  std::uint64_t wide = 0;  // on-mesh classes with a positive x offset
  for (NodeId n = 0; n < m.num_nodes(); ++n)
    for (int dy = -1; dy <= 1; ++dy)
      wide += m.x_of(n) < 5 && m.y_of(n) + dy >= 0 && m.y_of(n) + dy < 6
                  ? 1
                  : 0;
  expect_wide_points_fall_back(
      m, kWideMeshSource, 36 * 9 * premise_ports_x_vcs(m),
      RuleDrivenRouting::AotTier::Compressed,
      rules::DestClassifier::OffsetSign2D, wide * premise_ports_x_vcs(m));
}

TEST(AotStoreRule, WideDecisionFallsBackOnTheXorFoldLayout) {
  const Hypercube cube(4);
  // Xor classes with bit 0 set: 8 of 16.
  expect_wide_points_fall_back(
      cube, kWideCubeSource, 16 * premise_ports_x_vcs(cube),
      RuleDrivenRouting::AotTier::Compressed, rules::DestClassifier::XorFold,
      8 * premise_ports_x_vcs(cube));
}

TEST(AotSignClassTier, HitReplaysTheSameDecision) {
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  RuleDrivenRouting vm(rulebases::nara_route_source(6, 6), 2, ExecMode::Vm);
  RuleDrivenRouting table(rulebases::nara_route_source(6, 6), 2,
                          ExecMode::Aot);
  table.set_aot_budget(36 * 9 * 6 * 3);  // the sign-class table, not direct
  vm.attach(m, f);
  table.attach(m, f);
  ASSERT_EQ(table.aot_tier_info().tier, RuleDrivenRouting::AotTier::Compressed)
      << table.aot_tier_info().reason;

  RouteContext ctx = injected_ctx(m, m.at(1, 1), m.at(4, 3), 0);
  const PointResult first = route_point(table, ctx);
  EXPECT_EQ(table.aot_tier_info().lazy_misses, 1);
  EXPECT_EQ(table.aot_tier_info().lazy_hits, 0);
  const PointResult second = route_point(table, ctx);
  EXPECT_EQ(table.aot_tier_info().lazy_hits, 1);
  // The hit replays the candidates AND the recorded step count, so the
  // paper's decision-cost metric is unchanged by tabulation.
  expect_same(first, second, "sign-class hit", ctx);
  expect_same(route_point(vm, ctx), second, "sign-class hit vs vm", ctx);

  // Another dest with the same offset signs is the same entry: a hit.
  ctx.dest = m.at(5, 2);
  const PointResult member = route_point(table, ctx);
  EXPECT_EQ(table.aot_tier_info().lazy_hits, 2);
  expect_same(route_point(vm, ctx), member, "class member vs vm", ctx);

  // A different key fills fresh.
  ctx.in_vc = 1;
  route_point(table, ctx);
  EXPECT_EQ(table.aot_tier_info().lazy_misses, 2);
  EXPECT_EQ(table.aot_tier_info().lazy_hits, 2);
  EXPECT_EQ(table.aot_tier_info().lazy_uncacheable, 0);
}

TEST(AotSignClassTier, FaultEpochNeverReplaysAStaleDecision) {
  Mesh m = Mesh::two_d(5, 5);
  FaultSet f(m);
  const std::unique_ptr<RuleDrivenRouting> table = forced_sign_class_ft_mesh(5);
  table->attach(m, f);
  ASSERT_EQ(table->aot_tier_info().tier, RuleDrivenRouting::AotTier::Compressed)
      << table->aot_tier_info().reason;

  const RouteContext ctx = injected_ctx(m, m.at(1, 1), m.at(3, 3), 0);
  table->route(ctx);
  table->route(ctx);
  EXPECT_EQ(table->aot_tier_info().lazy_hits, 1);
  EXPECT_EQ(table->aot_tier_info().lazy_misses, 1);

  // Kill both minimal links out of (1, 1): the new epoch's decision reads
  // escape_ok, so it is dest-bound and never stored.
  f.fail_link(ctx.node, port_of(Compass::East));
  f.fail_link(ctx.node, port_of(Compass::North));
  table->reconfigure();
  ASSERT_EQ(table->aot_tier_info().tier, RuleDrivenRouting::AotTier::Compressed);
  EXPECT_EQ(table->aot_stats().resolved, 0u);  // the stored entry is gone
  const PointResult after = route_point(*table, ctx);
  const PointResult again = route_point(*table, ctx);
  EXPECT_EQ(table->aot_tier_info().lazy_hits, 1);
  EXPECT_EQ(table->aot_tier_info().lazy_misses, 1);
  EXPECT_EQ(table->aot_tier_info().lazy_uncacheable, 2);

  // A fresh VM attached to the already-faulty network agrees — the
  // refilled tier did not leak a stale decision.
  RuleDrivenRouting fresh(rulebases::ft_mesh_route_source(5, 5), 3,
                          ExecMode::Vm, "route", /*escape_vc=*/2);
  fresh.attach(m, f);
  const PointResult want = route_point(fresh, ctx);
  expect_same(want, after, "refilled sign-class vs fresh vm", ctx);
  expect_same(want, again, "dest-bound entry vs fresh vm", ctx);
  ASSERT_FALSE(want.d.candidates.empty());
  EXPECT_EQ(want.d.candidates[0].vc, 2);  // the escape layer
}

TEST(AotHotSwap, RegisterPokeIsSeenByTheNextDecision) {
  // A stateless decision program may still *read* registers that the host
  // (or another rule base) writes. The table stores what the VM answered
  // at fill time, so a poke through machine() must reach the next decision
  // — and the refill after it.
  static const char* kSource =
      "PROGRAM regread;\n"
      "VARIABLE pref IN 0 TO 4\n"
      "INPUT node IN 0 TO 35\n"
      "INPUT dest IN 0 TO 35\n"
      "ON route RETURNS 0 TO 4\n"
      "  IF node = dest THEN RETURN(4);\n"
      "  IF node <> dest THEN RETURN(pref);\n"
      "END route\n";
  Mesh m = Mesh::two_d(6, 6);
  FaultSet f(m);
  RuleDrivenRouting algo(kSource, 2, ExecMode::Aot);
  algo.attach(m, f);
  ASSERT_EQ(algo.aot_tier_info().tier, RuleDrivenRouting::AotTier::Direct)
      << algo.aot_tier_info().reason;

  const RouteContext ctx = injected_ctx(m, m.at(1, 1), m.at(4, 1), 0);
  const RouteDecision before = algo.route(ctx);
  ASSERT_FALSE(before.candidates.empty());
  EXPECT_EQ(before.candidates[0].port, 0);  // pref = 0 -> east

  // Host pokes the register: the next decision must see the new value.
  algo.machine(ctx.node).env().set("pref", 0, rules::Value::make_int(4));
  const RouteDecision after = algo.route(ctx);
  ASSERT_FALSE(after.candidates.empty());
  EXPECT_EQ(after.candidates[0].port, m.degree());  // pref = 4 -> local

  // The refill tabulates the poked register file.
  algo.reconfigure();
  EXPECT_TRUE(algo.aot_active());
  const RouteDecision refilled = algo.route(ctx);
  ASSERT_FALSE(refilled.candidates.empty());
  EXPECT_EQ(refilled.candidates[0].port, m.degree());
}

}  // namespace
}  // namespace flexrouter
