// flexbench — the end-to-end benchmark of the flexrouter library.
//
//   flexbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--mutate none|digest|accounting]
//
// Three workloads, each batch work on one thread in its own process:
//
//   mesh64_ftmesh_aot  64x64 mesh, ft-mesh-rules on the AOT tier ladder
//                      (lazy tier, escape layer on VC 2), uniform traffic
//                      at 0.02 flits/node/cycle, fault-free. Set-up is the
//                      O(N^2) up*/down* escape rebuild; the passes are
//                      memory-bound stepping with RC served by the lazy
//                      tier and its VM fallback.
//   chaos16_campaign   the chaos-campaign replica path: all eleven factory
//                      algorithms x five fault regimes x seeded patterns on
//                      their native 16-node fabrics. Many tiny in-cache
//                      fabrics with native RC (the rule engine is bypassed)
//                      that each drive the fault-mutation path.
//   cert_k2            k-fault certification: the six 4x4 / d=3 corpus
//                      programs at k=2 with correlated regimes, plus
//                      nara_rules 8x8 at k=1. No simulator at all.
//
// Every unit of work is checked (accounting identity, delivery, clean
// certificates) and hashed into a per-workload digest that is compared with
// the digest pinned for the default seed. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the workload alternates
// untraced passes with passes behind spans at every layer boundary, and the
// metrics are the per-layer figures plus the tracing overhead.
//
// --size tiny and --mutate exist for the self-test (selftest.py): a small
// pass of each workload, and deliberate corruption of the digest or of one
// operation's accounting that the checks must catch.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "routing/rule_driven.hpp"
#include "ruleanalysis/deadlock.hpp"
#include "ruleanalysis/fault_cert.hpp"
#include "rulebases/corpus.hpp"
#include "ruleengine/bytecode.hpp"
#include "ruleengine/parser.hpp"
#include "ruleengine/validate.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/torus.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace flexrouter;

constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string mutate = "none";
};

// --- digest -----------------------------------------------------------------

/// FNV-1a over the exact bits of every simulated statistic / certificate.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::int64_t>(v)); }
  void add(bool v) { add(std::uint64_t{v ? 1U : 0U}); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_result(Digest& d, const SimResult& r) {
  d.add(r.injected_packets);
  d.add(r.delivered_packets);
  d.add(r.avg_latency);
  d.add(r.p50_latency);
  d.add(r.p99_latency);
  d.add(r.avg_hops);
  d.add(r.min_hops_ratio);
  d.add(r.throughput);
  d.add(r.misrouted_fraction);
  d.add(r.avg_latency_misrouted);
  d.add(r.avg_latency_direct);
  d.add(r.avg_decision_steps);
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
  for (const Cycle c : r.recovery_durations) d.add(c);
  d.add(r.availability);
  d.add(r.worms_killed);
  d.add(r.reconfig_exchanges);
  for (const auto& ch : r.blocked_chain) {
    d.add(ch.node);
    d.add(ch.port);
    d.add(ch.vc);
    d.add(ch.packet);
  }
}

void hash_router(Digest& d, const RouterStats& s) {
  d.add(s.flits_forwarded);
  d.add(s.flits_ejected);
  d.add(s.flits_dropped);
  d.add(s.packets_routed);
  d.add(s.decision_steps);
  d.add(s.rc_no_candidates);
  d.add(s.va_retries);
  d.add(s.header_updates);
}

/// Digests pinned for the default seed. A change that only makes the
/// program faster must leave every one of them identical.
struct Pin {
  const char* workload;
  bool tiny;
  std::uint64_t digest;
};
constexpr Pin kPins[] = {
    {"mesh64_ftmesh_aot", false, 0xa34751ed0176f7c4ULL},
    {"chaos16_campaign", false, 0x95166db47da3a66dULL},
    {"cert_k2", false, 0x6786f9c5333d3807ULL},
    {"mesh64_ftmesh_aot", true, 0xd8f1e5b9c41807c6ULL},
    {"chaos16_campaign", true, 0x1fdc9b0609df0d47ULL},
    {"cert_k2", true, 0x6e4679e15107bca5ULL},
};

std::optional<std::uint64_t> pinned_digest(const Args& a) {
  if (a.seed != kDefaultSeed) return std::nullopt;
  for (const Pin& p : kPins)
    if (a.workload == p.workload && a.tiny == p.tiny)
      return p.digest;
  return std::nullopt;
}

// --- operation accounting ---------------------------------------------------

/// --mutate accounting: true for exactly one operation of the run, whose
/// result the caller then corrupts before checking it.
bool take_accounting_mutation(const Args& a) {
  static bool spent = false;
  if (a.mutate != "accounting" || spent) return false;
  spent = true;
  return true;
}

/// Attempted / failed operations, and the digest over the first passes.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Operations whose outputs feed the digest (the pinned prefix).
  std::int64_t digested = 0;
  Digest digest;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// For workloads whose passes repeat the same work: pass 0's digest
  /// feeds the pinned digest, and every later pass must hash alike.
  bool same_as_first_pass(int pass, std::uint64_t pass_digest,
                          std::int64_t ops) {
    if (pass == 0) {
      first_pass = pass_digest;
      digest.add(pass_digest);
      digested += ops;
    }
    return pass_digest == first_pass;
  }

 private:
  std::uint64_t first_pass = 0;
};

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Shown in the human-readable report only (e.g. the unit of work).
  std::string note = {};
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (const double x : v) t += x;
  return t;
}

/// VmHWM of this process image. getrusage's ru_maxrss would carry over the
/// peak of the process that exec'd us (e.g. the Python runner).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Per-layer figures of a traced section. Additive quantities accumulate
/// in `once` (one-off set-up) or `per_pass` (summed over the timed passes);
/// the report gives once + per_pass / passes, i.e. one set-up plus one
/// average pass. Layers a workload never enters report 0.
struct LayerFigures {
  std::map<std::string, double> once, per_pass;
  int passes = 0;

  void add_routing(std::map<std::string, double>& m, const RoutingSpans& s) {
    m["routing.attach_s"] += s.attach_s;
    m["routing.reconfigure_s"] += s.reconfigure_s;
    m["routing.reconfigure_calls"] += static_cast<double>(s.reconfigure_calls);
    m["routing.reconfigure_exchanges"] +=
        static_cast<double>(s.reconfigure_exchanges);
    m["routing.route_calls"] += static_cast<double>(s.route_calls);
    m["routing.route_total_ns"] += static_cast<double>(s.route_ns);
  }
  void add_router(const RouterStats& s) {
    per_pass["router.flits_forwarded"] +=
        static_cast<double>(s.flits_forwarded);
    per_pass["router.packets_routed"] += static_cast<double>(s.packets_routed);
    per_pass["router.va_retries"] += static_cast<double>(s.va_retries);
    per_pass["router.rc_no_candidates"] +=
        static_cast<double>(s.rc_no_candidates);
    per_pass["router.flits_dropped"] += static_cast<double>(s.flits_dropped);
    per_pass["router.decision_steps"] += static_cast<double>(s.decision_steps);
  }
  void add_sim(const SimResult& r, Cycle cycles, std::int64_t nodes) {
    per_pass["sim.cycles_run"] += static_cast<double>(cycles);
    per_pass["sim.node_cycles"] += static_cast<double>(cycles * nodes);
    per_pass["sim.recovery_events"] += r.recovery_events;
    per_pass["sim.recovery_cycles"] += static_cast<double>(r.recovery_cycles);
    per_pass["sim.packets_retransmitted"] +=
        static_cast<double>(r.packets_retransmitted);
    per_pass["sim.worms_killed"] += r.worms_killed;
  }

  double get(const std::string& k) const {
    const auto o = once.find(k);
    const auto p = per_pass.find(k);
    double v = o == once.end() ? 0.0 : o->second;
    if (p != per_pass.end() && passes > 0) v += p->second / passes;
    return v;
  }

  std::vector<Metric> report(double overhead_s) const {
    const auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const double routed = get("router.packets_routed");
    const double hits = get("ruleengine.lazy_hits");
    const double lazy = hits + get("ruleengine.lazy_misses");
    const double evaluated = get("ruleanalysis.decisions_evaluated");
    const double reused = get("ruleanalysis.decisions_reused");
    const double route_s = get("routing.route_total_ns") * 1e-9;
    const double builds = get("sim.replicas_built");
    const double route_calls = get("routing.route_calls");
    return {
        {"topology.build_s", get("topology.build_s"), "s"},
        {"ruleengine.parse_validate_s", get("ruleengine.parse_validate_s"),
         "s"},
        {"ruleengine.compile_s", get("ruleengine.compile_s"), "s"},
        {"ruleengine.table_entries", get("ruleengine.table_entries"), "count"},
        {"ruleengine.lazy_hits", hits, "count"},
        {"ruleengine.lazy_misses", get("ruleengine.lazy_misses"), "count"},
        {"ruleengine.lazy_hit_ratio", ratio(hits, lazy), "ratio"},
        {"ruleengine.lazy_evictions", get("ruleengine.lazy_evictions"),
         "count"},
        {"ruleengine.lazy_uncacheable", get("ruleengine.lazy_uncacheable"),
         "count"},
        {"ruleengine.decision_steps_per_route",
         ratio(get("router.decision_steps"), routed), "steps"},
        {"routing.attach_s", get("routing.attach_s"), "s"},
        {"routing.reconfigure_s", get("routing.reconfigure_s"), "s"},
        {"routing.reconfigure_calls", get("routing.reconfigure_calls"),
         "count"},
        {"routing.reconfigure_exchanges", get("routing.reconfigure_exchanges"),
         "count"},
        {"routing.route_calls", route_calls, "count"},
        {"routing.route_ns", ratio(get("routing.route_total_ns"), route_calls),
         "ns"},
        {"sim.network_build_s", get("sim.network_build_s"), "s"},
        {"sim.replica_build_us",
         ratio(get("sim.replica_build_s"), builds) * 1e6, "us"},
        {"sim.run_s", get("sim.run_s"), "s"},
        {"sim.step_ns_per_node_cycle",
         ratio(get("sim.run_s") - route_s, get("sim.node_cycles")) * 1e9, "ns"},
        {"sim.cycles_run", get("sim.cycles_run"), "count"},
        {"sim.idle_cycles_skipped", get("sim.idle_cycles_skipped"), "count"},
        {"sim.recovery_events", get("sim.recovery_events"), "count"},
        {"sim.recovery_cycles", get("sim.recovery_cycles"), "count"},
        {"sim.packets_retransmitted", get("sim.packets_retransmitted"),
         "count"},
        {"sim.worms_killed", get("sim.worms_killed"), "count"},
        {"router.flits_forwarded", get("router.flits_forwarded"), "count"},
        {"router.packets_routed", routed, "count"},
        {"router.va_retries", get("router.va_retries"), "count"},
        {"router.va_retry_ratio", ratio(get("router.va_retries"), routed),
         "ratio"},
        {"router.rc_no_candidates", get("router.rc_no_candidates"), "count"},
        {"router.rc_retry_ratio", ratio(get("router.rc_no_candidates"), routed),
         "ratio"},
        {"router.flits_dropped", get("router.flits_dropped"), "count"},
        {"ruleanalysis.certify_s", get("ruleanalysis.certify_s"), "s"},
        {"ruleanalysis.orbits_checked", get("ruleanalysis.orbits_checked"),
         "count"},
        {"ruleanalysis.members_checked", get("ruleanalysis.members_checked"),
         "count"},
        {"ruleanalysis.decisions_evaluated", evaluated, "count"},
        {"ruleanalysis.decisions_reused", reused, "count"},
        {"ruleanalysis.reuse_ratio", ratio(reused, reused + evaluated),
         "ratio"},
        {"ruleanalysis.reduction_factor",
         ratio(get("ruleanalysis.raw_fault_sets"),
               get("ruleanalysis.orbit_count")),
         "ratio"},
        {"trace.overhead_s", overhead_s, "s"},
    };
  }
};

/// How many repetitions fill `seconds` when the fixed part of a run takes
/// `fixed_s` and one repetition `unit_s`, both as measured on the reference
/// machine (a shared 4-vCPU Intel Xeon VM at 2.1 GHz). The count depends on
/// --seconds only, never on how fast the code under test runs.
///
/// Every repetition of a workload is the same work, and a timing is the
/// median over its repetitions. Not the minimum: the sum of per-unit minima
/// over many short units is an extreme-value statistic that keeps falling
/// as repetitions are added (on the campaign, from 2.5 s at 2 passes to
/// 1.96 s at 22) and that spread 1.4-1.5x wider across seeds than the
/// median of pass totals on the same runs.
int sized_count(double seconds, double fixed_s, double unit_s, int at_least) {
  return std::max(at_least,
                  static_cast<int>(std::lround((seconds - fixed_s) / unit_s)));
}

/// What one workload invocation measured.
struct Outcome {
  Ledger ledger;
  std::vector<Metric> metrics;
  /// Host seconds of each timed pass (the traced ones in a traced run).
  std::vector<double> walls;
  /// Traced runs: the untraced passes' host seconds, paired with `walls`.
  std::vector<double> plain_walls;

  /// Mean host seconds a traced pass took over its untraced twin.
  double trace_overhead_s() const {
    return walls.empty() ? 0.0
                         : (sum(walls) - sum(plain_walls)) /
                               static_cast<double>(walls.size());
  }
};

// --- mesh64_ftmesh_aot -------------------------------------------------------

/// Passes of each untraced replica, and the passes the digest covers.
constexpr int kMeshPasses = 2;
/// Reference host seconds of one 64x64 replica build and of one pass.
constexpr double kMeshSetupS = 3.1;
constexpr double kMeshPassS = 1.9;

struct MeshReplica {
  std::unique_ptr<Mesh> mesh;
  std::unique_ptr<RuleDrivenRouting> rules;
  std::unique_ptr<TracedRouting> traced;
  std::unique_ptr<UniformTraffic> traffic;
  std::unique_ptr<Network> net;
  std::unique_ptr<Simulator> sim;
};

SimConfig mesh_sim_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.packet_length = 4;
  cfg.warmup_cycles = 100;
  cfg.measure_cycles = 300;
  cfg.seed = seed;
  return cfg;
}

/// Builds the whole replica; with `spans` the routing calls go through the
/// tracing decorator and every constructor is timed into `lf->once`.
std::unique_ptr<MeshReplica> build_mesh(int side, std::uint64_t seed,
                                        RoutingSpans* spans,
                                        LayerFigures* lf) {
  double topo_s = 0.0, probe_pv_s = 0.0, probe_compile_s = 0.0, net_s = 0.0;
  const double t0 = cpu_seconds();
  auto r = std::make_unique<MeshReplica>();
  {
    Span s(topo_s);
    r->mesh = std::make_unique<Mesh>(Mesh::two_d(side, side));
  }
  const std::string source = rulebases::ft_mesh_route_source(side, side);
  if (lf != nullptr) {
    // The rule engine's front end, timed through its public entry points
    // on the same source the algorithm compiles inside attach().
    rules::Program prog;
    {
      Span s(probe_pv_s);
      prog = rules::parse_program(source);
      if (!rules::validate_program(prog).empty())
        throw std::runtime_error("ft-mesh-rules failed validation");
    }
    Span s(probe_compile_s);
    (void)rules::compile_bytecode(prog);
  }
  r->rules = std::make_unique<RuleDrivenRouting>(
      source, 3, rules::ExecMode::Aot, "route", /*escape_vc=*/2);
  RoutingAlgorithm* algo = r->rules.get();
  if (spans != nullptr) {
    r->traced = std::make_unique<TracedRouting>(*r->rules, *spans);
    algo = r->traced.get();
  }
  r->traffic = std::make_unique<UniformTraffic>(*r->mesh);
  NetworkConfig ncfg;
  ncfg.shard_threads = 1;
  {
    Span s(net_s);
    r->net = std::make_unique<Network>(*r->mesh, *algo, ncfg);
  }
  r->sim = std::make_unique<Simulator>(*r->net, *r->traffic,
                                       mesh_sim_config(seed));
  if (lf != nullptr) {
    lf->once["sim.replica_build_s"] +=
        cpu_seconds() - t0 - probe_pv_s - probe_compile_s;
    lf->once["sim.replicas_built"] += 1;
    // Network construction only attach()es, and attach() folds the escape
    // rebuild in with the image build. One extra reconfigure() — the same
    // rebuild + table refill a fault commit runs — times the O(N^2) part
    // on its own. Results are unchanged: the traced and untraced digests
    // are compared.
    algo->reconfigure();
    lf->once["topology.build_s"] += topo_s;
    lf->once["ruleengine.parse_validate_s"] += probe_pv_s;
    lf->once["ruleengine.compile_s"] += probe_compile_s;
    lf->once["sim.network_build_s"] += net_s;
    lf->once["ruleengine.table_entries"] +=
        static_cast<double>(r->rules->aot_tier_info().table_entries);
  }
  return r;
}

struct MeshPass {
  double wall_s = 0.0;
  double node_cycles = 0.0;
};

/// One Simulator::run pass: checked, digested (first passes), timed.
MeshPass mesh_pass(MeshReplica& r, int pass, const Args& a, Ledger& ledger,
                   LayerFigures* lf) {
  const Cycle before = r.sim->now();
  const double t0 = cpu_seconds();
  SimResult res = r.sim->run();
  const double wall = cpu_seconds() - t0;
  if (pass < kMeshPasses) {
    hash_result(ledger.digest, res);
    hash_router(ledger.digest, r.net->aggregate_stats());
    ++ledger.digested;
  }
  // Corrupted after hashing, so the self-test sees this check alone.
  if (take_accounting_mutation(a)) res.delivered_packets -= 1;
  ledger.record(res.injected_packets > 0 &&
                res.delivered_packets == res.injected_packets &&
                !res.deadlock_suspected);
  const Cycle cycles = r.sim->now() - before;
  if (lf != nullptr) {
    lf->per_pass["sim.run_s"] += wall;
    lf->add_sim(res, cycles, r.mesh->num_nodes());
  }
  return {wall, static_cast<double>(cycles * r.mesh->num_nodes())};
}

void mesh_layer_counters(const MeshReplica& r, LayerFigures& lf) {
  // Cumulative counters of the replica: everything after set-up happened in
  // the passes (set-up routes no packets and hits no table).
  lf.add_router(r.net->aggregate_stats());
  const RuleDrivenRouting::AotTierInfo info = r.rules->aot_tier_info();
  lf.per_pass["ruleengine.lazy_hits"] += static_cast<double>(info.lazy_hits);
  lf.per_pass["ruleengine.lazy_misses"] +=
      static_cast<double>(info.lazy_misses);
  lf.per_pass["ruleengine.lazy_evictions"] +=
      static_cast<double>(info.lazy_evictions);
  lf.per_pass["ruleengine.lazy_uncacheable"] +=
      static_cast<double>(info.lazy_uncacheable);
  lf.per_pass["sim.idle_cycles_skipped"] +=
      static_cast<double>(r.sim->idle_cycles_skipped());
}

Outcome run_mesh(const Args& a) {
  const int side = a.tiny ? 8 : 64;
  Outcome out;
  if (!a.trace) {
    // Replicas are built, run and freed in turn, so set-up (~99% attach(),
    // which holds the O(N^2) escape rebuild) is sampled throughout the run.
    // Every replica replays the same simulation, so each does the same
    // work: wall_s is the median over replicas of its passes' total.
    const int replicas = sized_count(
        a.seconds, 0.0, kMeshSetupS + kMeshPasses * kMeshPassS, 2);
    std::vector<double> setup, wall;
    double node_cycles = 0.0;
    std::unique_ptr<MeshReplica> r;
    for (int i = 0; i < replicas; ++i) {
      r.reset();
      const double t0 = cpu_seconds();
      r = build_mesh(side, a.seed, nullptr, nullptr);
      setup.push_back(cpu_seconds() - t0);
      Ledger part;
      double wall_s = 0.0;
      node_cycles = 0.0;
      for (int p = 0; p < kMeshPasses; ++p) {
        const MeshPass mp = mesh_pass(*r, p, a, part, nullptr);
        wall_s += mp.wall_s;
        node_cycles += mp.node_cycles;
        out.walls.push_back(mp.wall_s);
      }
      wall.push_back(wall_s);
      out.ledger.attempted += part.attempted;
      out.ledger.failed += part.failed;
      if (!out.ledger.same_as_first_pass(i, part.digest.value(),
                                         part.digested))
        out.ledger.failed += part.digested;
    }
    out.metrics = {{"setup_s", median(setup), "s"},
                   {"wall_s", median(wall), "s"},
                   {"work_per_s", node_cycles / median(wall), "1/s",
                    "node-cycles"},
                   {"peak_rss_mb", peak_rss_mb(), "MB"}};
    return out;
  }
  // Traced: an untraced and a traced replica of the same seed, with passes
  // alternating between them so that both see the same machine. Their
  // digests must agree.
  LayerFigures lf;
  RoutingSpans spans;
  const std::unique_ptr<MeshReplica> plain =
      build_mesh(side, a.seed, nullptr, nullptr);
  const std::unique_ptr<MeshReplica> traced =
      build_mesh(side, a.seed, &spans, &lf);
  lf.add_routing(lf.once, spans);
  spans = {};
  Ledger plain_ledger, traced_ledger;
  const int passes =
      sized_count(a.seconds, 3 * kMeshSetupS, 2 * kMeshPassS, kMeshPasses);
  for (int p = 0; p < passes; ++p) {
    out.plain_walls.push_back(
        mesh_pass(*plain, p, a, plain_ledger, nullptr).wall_s);
    out.walls.push_back(mesh_pass(*traced, p, a, traced_ledger, &lf).wall_s);
  }
  lf.add_routing(lf.per_pass, spans);
  mesh_layer_counters(*traced, lf);
  lf.passes = passes;
  int replica = 0;
  for (const Ledger* l : {&plain_ledger, &traced_ledger}) {
    out.ledger.attempted += l->attempted;
    out.ledger.failed += l->failed;
    if (!out.ledger.same_as_first_pass(replica++, l->digest.value(),
                                       l->digested)) {
      std::cerr << "traced and untraced replicas diverged\n";
      out.ledger.failed += l->digested;
    }
  }
  out.metrics = lf.report(out.trace_overhead_s());
  return out;
}

// --- chaos16_campaign --------------------------------------------------------

enum class Regime { FailStop, Repair, Flap, FailSlow, Storm };
constexpr Regime kRegimes[] = {Regime::FailStop, Regime::Repair, Regime::Flap,
                               Regime::FailSlow, Regime::Storm};

/// Each algorithm on its native 16-node fabric, as the campaign runs it.
std::unique_ptr<Topology> chaos_topology(const std::string& algo) {
  if (algo == "ecube" || algo == "route_c" || algo == "route_c_nft")
    return std::make_unique<Hypercube>(4);
  if (algo == "dor-torus")
    return std::make_unique<Torus>(std::vector<int>{4, 4});
  return std::make_unique<Mesh>(std::vector<int>{4, 4});
}

/// The campaign's seeded fault pattern for (regime, topology, seed): the
/// same generator and salts as bench/chaos_campaign.
FaultSchedule chaos_schedule(Regime reg, const Topology& topo, Cycle warmup,
                             Cycle measure, std::uint64_t seed) {
  FaultSchedule s;
  SplitMix64 sm(seed ^ (0x9d5c0c5bULL + static_cast<std::uint64_t>(reg)));
  const std::vector<LinkRef> links = topo.undirected_links();
  const auto rand_link = [&] {
    return links[sm.next_below(static_cast<std::uint64_t>(links.size()))];
  };
  const auto rand_cycle = [&] {
    return warmup + measure / 4 +
           static_cast<Cycle>(
               sm.next_below(static_cast<std::uint64_t>(measure / 2)));
  };
  switch (reg) {
    case Regime::FailStop: {
      const int kills = 1 + static_cast<int>(sm.next_below(2));
      for (int i = 0; i < kills; ++i) {
        const LinkRef l = rand_link();
        s.fail_link_at(rand_cycle(), l.node, l.port);
      }
      break;
    }
    case Regime::Repair: {
      const LinkRef l = rand_link();
      s.fail_link_at(warmup + measure / 4, l.node, l.port);
      s.repair_link_at(warmup + (3 * measure) / 4, l.node, l.port);
      break;
    }
    case Regime::Flap: {
      const LinkRef l = rand_link();
      s.add_flapping_link(l.node, l.port, warmup + measure / 4,
                          warmup + measure, static_cast<double>(measure) / 10,
                          static_cast<double>(measure) / 5, sm.next());
      break;
    }
    case Regime::FailSlow: {
      const int slows = 1 + static_cast<int>(sm.next_below(3));
      for (int i = 0; i < slows; ++i) {
        const LinkRef l = rand_link();
        const int factor = 4 + static_cast<int>(sm.next_below(13));
        s.degrade_link_at(rand_cycle(), l.node, l.port, factor);
      }
      break;
    }
    case Regime::Storm: {
      const Cycle at = warmup + measure / 4;
      if (const auto* cube = dynamic_cast<const Hypercube*>(&topo)) {
        const auto all =
            (std::uint64_t{1} << static_cast<unsigned>(cube->dimension())) - 1;
        const std::uint64_t free_bit =
            std::uint64_t{1} << sm.next_below(
                static_cast<std::uint64_t>(cube->dimension()));
        const std::uint64_t mask = all ^ free_bit;
        s.add_subcube_storm(topo, at, mask, sm.next() & mask);
      } else {
        const int x = static_cast<int>(sm.next_below(3));
        const int y = static_cast<int>(sm.next_below(4));
        s.add_region_storm(topo, at, {x, y}, {x + 1, y});
      }
      break;
    }
  }
  return s;
}

/// Host-side record of one replica, filled inside its sweep point.
struct ReplicaSlot {
  double build_s = 0.0, topo_s = 0.0, net_s = 0.0, run_s = 0.0;
  Cycle cycles = 0, skipped = 0;
  std::int64_t nodes = 0;
  RouterStats router;
  RoutingSpans spans;
};

SimResult chaos_replica(const std::string& algo_name, Regime reg, Cycle warmup,
                        Cycle measure, std::uint64_t seed, bool traced,
                        ReplicaSlot& slot) {
  const double t0 = cpu_seconds();
  std::unique_ptr<Topology> topo;
  {
    Span s(slot.topo_s);
    topo = chaos_topology(algo_name);
  }
  const std::unique_ptr<RoutingAlgorithm> algo = make_algorithm(algo_name);
  std::unique_ptr<TracedRouting> wrapper;
  if (traced) wrapper = std::make_unique<TracedRouting>(*algo, slot.spans);
  RoutingAlgorithm& routing = traced ? *wrapper : *algo;
  UniformTraffic tr(*topo);
  NetworkConfig ncfg;
  ncfg.shard_threads = 1;
  std::optional<Network> net;
  {
    Span s(slot.net_s);
    net.emplace(*topo, routing, ncfg);
  }
  SimConfig cfg;
  cfg.injection_rate = 0.06;
  cfg.packet_length = 4;
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = measure;
  cfg.watchdog_window = 150;
  cfg.drain_limit = 200000;
  cfg.seed = seed;
  Simulator sim(*net, tr, cfg);
  sim.set_fault_schedule(chaos_schedule(reg, *topo, warmup, measure, seed));
  const double t1 = cpu_seconds();
  SimResult r = sim.run();
  slot.run_s = cpu_seconds() - t1;
  slot.build_s = t1 - t0;
  slot.cycles = sim.now();
  slot.skipped = sim.idle_cycles_skipped();
  slot.nodes = topo->num_nodes();
  slot.router = net->aggregate_stats();
  return r;
}

/// Host seconds of one campaign pass: replica builds and replica runs.
struct ChaosPass {
  double run_s = 0.0, build_s = 0.0;
};

/// One campaign pass: the same replica set every pass (its patterns come
/// from the seed alone), so every pass must hash alike.
ChaosPass chaos_pass(int pass, const Args& a, bool traced, Ledger& ledger,
                     LayerFigures* lf) {
  const int patterns = a.tiny ? 1 : 10;
  const Cycle warmup = a.tiny ? 150 : 200;
  const Cycle measure = a.tiny ? 600 : 1200;
  static const std::vector<std::string> algos = algorithm_names();
  const std::size_t n =
      std::size(kRegimes) * algos.size() * static_cast<std::size_t>(patterns);
  std::vector<ReplicaSlot> slots(n);
  std::vector<SweepPoint> points;
  points.reserve(n);
  for (const Regime reg : kRegimes)
    for (const std::string& algo : algos)
      for (int p = 0; p < patterns; ++p) {
        ReplicaSlot* slot = &slots[points.size()];
        points.push_back({[=, &algo](std::uint64_t seed) {
          return chaos_replica(algo, reg, warmup, measure, seed, traced, *slot);
        }});
      }
  SweepOptions opts;
  opts.num_threads = 1;
  opts.base_seed = SplitMix64(a.seed).next();
  SweepRunner runner(opts);
  std::vector<SimResult> results = runner.run(points);

  ChaosPass out;
  Digest d;
  std::vector<bool> ok(n);
  for (std::size_t i = 0; i < n; ++i) {
    SimResult& r = results[i];
    const ReplicaSlot& s = slots[i];
    out.run_s += s.run_s;
    out.build_s += s.build_s;
    hash_result(d, r);
    hash_router(d, s.router);
    if (take_accounting_mutation(a)) r.delivered_packets -= 1;
    ok[i] = r.delivered_packets + r.packets_unrecoverable ==
                r.injected_packets &&
            r.packets_lost ==
                r.packets_retransmitted + r.packets_unrecoverable &&
            !r.deadlock_suspected;
    if (lf != nullptr) {
      lf->per_pass["topology.build_s"] += s.topo_s;
      lf->per_pass["sim.network_build_s"] += s.net_s;
      lf->per_pass["sim.replica_build_s"] += s.build_s;
      lf->per_pass["sim.replicas_built"] += 1;
      lf->per_pass["sim.run_s"] += s.run_s;
      lf->per_pass["sim.idle_cycles_skipped"] += static_cast<double>(s.skipped);
      lf->add_sim(r, s.cycles, s.nodes);
      lf->add_router(s.router);
      lf->add_routing(lf->per_pass, s.spans);
    }
  }
  const bool same =
      ledger.same_as_first_pass(pass, d.value(), static_cast<std::int64_t>(n));
  for (std::size_t i = 0; i < n; ++i) ledger.record(ok[i] && same);
  return out;
}

/// Reference host seconds of one campaign pass (550 replicas).
constexpr double kChaosPassS = 2.7;

Outcome run_chaos(const Args& a) {
  const int passes = sized_count(a.seconds, 0.0, kChaosPassS, 2);
  Outcome out;
  if (!a.trace) {
    std::vector<double> setup;
    for (int p = 0; p < passes; ++p) {
      const ChaosPass cp = chaos_pass(p, a, false, out.ledger, nullptr);
      setup.push_back(cp.build_s);
      out.walls.push_back(cp.run_s);
    }
    const double replicas =
        static_cast<double>(out.ledger.attempted) / static_cast<double>(passes);
    out.metrics = {{"setup_s", median(setup), "s"},
                   {"wall_s", median(out.walls), "s"},
                   {"work_per_s", replicas / median(out.walls), "1/s",
                    "replicas"},
                   {"peak_rss_mb", peak_rss_mb(), "MB"}};
    return out;
  }
  // Traced: half the passes untraced, half traced, alternating so that both
  // see the same machine.
  Ledger plain_ledger;
  LayerFigures lf;
  lf.passes = passes / 2;
  for (int p = 0; p < lf.passes; ++p) {
    out.plain_walls.push_back(
        chaos_pass(p, a, false, plain_ledger, nullptr).run_s);
    out.walls.push_back(chaos_pass(p, a, true, out.ledger, &lf).run_s);
  }
  out.ledger.attempted += plain_ledger.attempted;
  out.ledger.failed += plain_ledger.failed;
  if (plain_ledger.digest.value() != out.ledger.digest.value()) {
    std::cerr << "traced and untraced campaigns diverged\n";
    out.ledger.failed += out.ledger.digested;
  }
  out.metrics = lf.report(out.trace_overhead_s());
  return out;
}


// --- cert_k2 -----------------------------------------------------------------

struct CertInput {
  std::string name;
  int max_faults = 0;
  rules::Program prog;
  ruleanalysis::DeadlockModel model;
  std::unique_ptr<Topology> topo;
};

std::int64_t int_constant(const rules::Program& prog, const char* name) {
  const auto it = prog.constants.find(name);
  return it == prog.constants.end() || !it->second.is_int()
             ? 0
             : it->second.as_int();
}

/// The topology a corpus program's own constants describe, as rulelint
/// builds it.
std::unique_ptr<Topology> program_topology(const rules::Program& prog) {
  if (prog.constants.count("width") && prog.constants.count("height"))
    return std::make_unique<Mesh>(
        Mesh::two_d(static_cast<int>(int_constant(prog, "width")),
                    static_cast<int>(int_constant(prog, "height"))));
  if (prog.constants.count("dim"))
    return std::make_unique<Hypercube>(
        static_cast<int>(int_constant(prog, "dim")));
  throw std::runtime_error("corpus program names no topology");
}

/// Parse, validate and model every program; the set-up of one cert pass.
std::vector<CertInput> build_cert(bool tiny, LayerFigures* lf) {
  struct Source {
    const char* name;
    std::string text;
    int k;
  };
  const int k = tiny ? 1 : 2;
  std::vector<Source> sources = {
      {"ecube_rules_d3", rulebases::ecube_route_source(3), k},
      {"ft_mesh_rules_4x4", rulebases::ft_mesh_route_source(4, 4), k},
      {"nafta_4x4", rulebases::nafta_program_source(4, 4), k},
      {"nara_4x4", rulebases::nara_program_source(4, 4), k},
      {"route_c_d3", rulebases::route_c_program_source(3, 2), k},
      {"route_c_nft_d3", rulebases::route_c_nft_program_source(3, 2), k},
  };
  if (!tiny)
    sources.push_back(
        {"nara_rules_8x8", rulebases::nara_route_source(8, 8), 1});
  double pv_s = 0.0, topo_s = 0.0;
  std::vector<CertInput> inputs;
  for (Source& s : sources) {
    CertInput in;
    in.name = s.name;
    in.max_faults = s.k;
    {
      Span span(pv_s);
      in.prog = rules::parse_program(s.text);
      if (!rules::validate_program(in.prog).empty())
        throw std::runtime_error(in.name + " failed validation");
    }
    const auto model = ruleanalysis::model_for(in.prog);
    if (!model) throw std::runtime_error(in.name + " has no deadlock model");
    in.model = *model;
    {
      Span span(topo_s);
      in.topo = program_topology(in.prog);
    }
    inputs.push_back(std::move(in));
  }
  if (lf != nullptr) {
    lf->once["ruleengine.parse_validate_s"] += pv_s;
    lf->once["topology.build_s"] += topo_s;
  }
  return inputs;
}

/// Certifies every program once, in a seed-shuffled order, and returns the
/// host seconds of the pass. Every pass certifies the same
/// inputs, so every pass must hash alike; the digest is taken in canonical
/// order so it does not depend on the seed.
double cert_pass(const std::vector<CertInput>& inputs, int pass,
                              const Args& a, Ledger& ledger,
                              LayerFigures* lf) {
  std::vector<std::size_t> order(inputs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  SplitMix64 sm(a.seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[sm.next_below(i)]);

  std::vector<ruleanalysis::FaultCertReport> reports(inputs.size());
  std::vector<double> secs(inputs.size(), 0.0);
  for (const std::size_t i : order) {
    ruleanalysis::FaultCertOptions opts;
    opts.max_faults = inputs[i].max_faults;
    opts.correlated = true;
    opts.num_threads = 1;
    Span s(secs[i]);
    reports[i] = ruleanalysis::certify_faults(inputs[i].prog, inputs[i].model,
                                              *inputs[i].topo, opts);
  }

  Digest d;
  for (const ruleanalysis::FaultCertReport& rep : reports) {
    d.add(rep.to_string());
    d.add(rep.raw_fault_sets);
    d.add(rep.orbit_count);
    d.add(rep.stats.decisions_evaluated);
    d.add(rep.stats.decisions_reused);
    d.add(rep.stats.orbits_checked);
    d.add(rep.stats.members_checked);
  }
  const bool same = ledger.same_as_first_pass(
      pass, d.value(), static_cast<std::int64_t>(reports.size()));
  for (const ruleanalysis::FaultCertReport& rep : reports)
    ledger.record(rep.clean(/*werror=*/true) && same);
  if (lf != nullptr) {
    lf->per_pass["ruleanalysis.certify_s"] += sum(secs);
    for (const ruleanalysis::FaultCertReport& rep : reports) {
      lf->per_pass["ruleanalysis.orbits_checked"] +=
          static_cast<double>(rep.stats.orbits_checked);
      lf->per_pass["ruleanalysis.members_checked"] +=
          static_cast<double>(rep.stats.members_checked);
      lf->per_pass["ruleanalysis.decisions_evaluated"] +=
          static_cast<double>(rep.stats.decisions_evaluated);
      lf->per_pass["ruleanalysis.decisions_reused"] +=
          static_cast<double>(rep.stats.decisions_reused);
      lf->per_pass["ruleanalysis.raw_fault_sets"] +=
          static_cast<double>(rep.raw_fault_sets);
      lf->per_pass["ruleanalysis.orbit_count"] +=
          static_cast<double>(rep.orbit_count);
    }
  }
  return sum(secs);
}

/// Reference host seconds of one certification pass.
constexpr double kCertPassS = 4.3;
/// Set-up is about a millisecond, where one page fault or timer tick is a
/// tenth of the reading: each set-up sample is the mean of a batch of
/// rebuilds, and every pass takes a few samples.
constexpr int kCertSetupBatch = 50;
constexpr int kCertSetupSamplesPerPass = 3;

/// One set-up sample: host seconds per rebuild, over a batch of rebuilds.
/// Each rebuild frees the one before it, untimed, so the batch neither
/// grows the peak RSS nor times the frees. `keep` ends with the last build.
double cert_setup_sample(bool tiny, std::vector<CertInput>& keep) {
  double total = 0.0;
  for (int i = 0; i < kCertSetupBatch; ++i) {
    keep.clear();
    Span s(total);
    keep = build_cert(tiny, nullptr);
  }
  return total / kCertSetupBatch;
}

Outcome run_cert(const Args& a) {
  const int passes = sized_count(a.seconds, 0.0, kCertPassS, 2);
  Outcome out;
  if (!a.trace) {
    LayerFigures counts;
    std::vector<double> setup;
    std::vector<CertInput> inputs;
    for (int p = 0; p < passes; ++p) {
      for (int i = 0; i < kCertSetupSamplesPerPass; ++i)
        setup.push_back(cert_setup_sample(a.tiny, inputs));
      out.walls.push_back(cert_pass(inputs, p, a, out.ledger, &counts));
    }
    counts.passes = passes;
    out.metrics = {
        {"setup_s", median(setup), "s"},
        {"wall_s", median(out.walls), "s"},
        {"work_per_s",
         counts.get("ruleanalysis.members_checked") / median(out.walls), "1/s",
         "fault sets certified"},
        {"peak_rss_mb", peak_rss_mb(), "MB"}};
    return out;
  }
  // Traced: half the passes untraced, half traced, alternating so that both
  // see the same machine.
  Ledger plain_ledger;
  LayerFigures lf;
  const std::vector<CertInput> plain_inputs = build_cert(a.tiny, nullptr);
  const std::vector<CertInput> traced_inputs = build_cert(a.tiny, &lf);
  lf.passes = passes / 2;
  for (int p = 0; p < lf.passes; ++p) {
    out.plain_walls.push_back(
        cert_pass(plain_inputs, p, a, plain_ledger, nullptr));
    out.walls.push_back(cert_pass(traced_inputs, p, a, out.ledger, &lf));
  }
  out.ledger.attempted += plain_ledger.attempted;
  out.ledger.failed += plain_ledger.failed;
  if (plain_ledger.digest.value() != out.ledger.digest.value()) {
    std::cerr << "traced and untraced certificates diverged\n";
    out.ledger.failed += out.ledger.digested;
  }
  out.metrics = lf.report(out.trace_overhead_s());
  return out;
}


// --- main --------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "flexbench: " << why
            << "\nusage: flexbench --workload mesh64_ftmesh_aot|"
               "chaos16_campaign|cert_k2 --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--mutate none|digest|accounting]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--size") a.tiny = val == "tiny";
      else if (key == "--mutate") a.mutate = val;
      else usage("unknown argument " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.mutate != "none" && a.mutate != "digest" && a.mutate != "accounting")
    usage("bad --mutate");
  return a;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Args& a) {
  Outcome out;
  if (a.workload == "mesh64_ftmesh_aot") out = run_mesh(a);
  else if (a.workload == "chaos16_campaign") out = run_chaos(a);
  else if (a.workload == "cert_k2") out = run_cert(a);
  else usage("unknown workload " + a.workload);

  Ledger& l = out.ledger;
  std::uint64_t digest = l.digest.value();
  if (a.mutate == "digest") digest ^= 1;
  const std::optional<std::uint64_t> pin = pinned_digest(a);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(digest));
  std::cout << a.workload << "/digest = " << hex;
  if (pin) {
    const bool match = *pin == digest;
    std::cout << (match ? " (matches the pin)" : " (DIFFERS from the pin)");
    if (!match) l.failed = std::min(l.attempted, l.failed + l.digested);
  } else {
    std::cout << " (no pin for this seed and size; invariants checked)";
  }
  std::cout << "\n";
  const double failed_frac =
      l.attempted > 0 ? static_cast<double>(l.failed) /
                            static_cast<double>(l.attempted)
                      : 1.0;
  std::cout << a.workload << "/failed_frac = " << failed_frac << " ("
            << l.failed << " of " << l.attempted << " operations)\n";
  if (!out.walls.empty()) {
    const auto [lo, hi] =
        std::minmax_element(out.walls.begin(), out.walls.end());
    std::cout << a.workload << "/passes = " << out.walls.size()
              << " (pass wall min " << *lo << " s, median "
              << median(out.walls) << " s, max " << *hi << " s)\n";
  }
  for (const Metric& m : out.metrics)
    std::cout << a.workload << "/" << m.name << " = " << m.value << " "
              << m.unit << (m.note.empty() ? "" : " (" + m.note + ")") << "\n";

  std::ostringstream js;
  const bool correct = l.failed == 0 && l.attempted > 0;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << l.attempted << ", \"failed\": " << l.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    js << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse_args(argc, argv);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "build: type=" << (build_type.empty() ? "<none>" : build_type)
            << " compiler=" << PERFBENCH_COMPILER << "\n";
  if (build_type.empty() || build_type == "Debug") {
    std::cerr << "flexbench: refusing to report from an unoptimised ("
              << (build_type.empty() ? "no build type" : build_type)
              << ") build\n";
    return 3;
  }
  // One thread everywhere: sweep pool, certification pool, shard pool.
  setenv("FLEXROUTER_THREADS", "1", 1);
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::cerr << "flexbench: " << e.what() << "\n";
    return 1;
  }
}
