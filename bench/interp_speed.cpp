// Experiments F5–F7: rule interpreter speed. The paper's claim: the
// compiled rule table (RBR kernel) "allows an execution nearly as fast as a
// table-based solution", outperforming software (sequential AST)
// interpretation. Google-benchmark microbenches over the ROUTE_C
// update_state rule base, native vs rule-driven routing decisions, the
// off-line compiler itself, and a full router cycle.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "routing/nafta.hpp"
#include "routing/rule_driven.hpp"
#include "topology/hypercube.hpp"
#include "rulebases/corpus.hpp"
#include "ruleengine/event_manager.hpp"
#include "ruleengine/parser.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace flexrouter;
using rules::EventManager;
using rules::ExecMode;
using rules::Value;

/// Set by a bench's own check (tier choice, steady-state heap use). The
/// library reports SkipWithError as one error row and still exits 0, so
/// main() turns this into the exit status.
bool g_check_failed = false;

void fail_check(benchmark::State& state, const std::string& why) {
  g_check_failed = true;
  state.SkipWithError(why.c_str());
}

std::unique_ptr<EventManager> make_update_state_machine(ExecMode mode) {
  static const rules::Program prog =
      rules::parse_program(rulebases::route_c_program_source(6, 2));
  auto em = std::make_unique<EventManager>(prog, mode);
  static const rules::SymId sunsafe = prog.syms.lookup("sunsafe");
  // update_state's one input, new_state(dir), reads sunsafe everywhere.
  em->set_input_provider(
      [](void*, std::int32_t, const Value*, std::size_t) {
        return Value::make_sym(sunsafe);
      },
      nullptr);
  return em;
}

void BM_RuleFire_Interpreted(benchmark::State& state) {
  auto em = make_update_state_machine(ExecMode::Interpret);
  std::int64_t dir = 0;
  for (auto _ : state) {
    em->env().set("number_unsafe", 0, Value::make_int(1));
    const auto r = em->fire("update_state", {Value::make_int(dir)});
    benchmark::DoNotOptimize(r.rule_index);
    dir = (dir + 1) % 6;
  }
}
BENCHMARK(BM_RuleFire_Interpreted);

void BM_RuleFire_CompiledTable(benchmark::State& state) {
  auto em = make_update_state_machine(ExecMode::Table);
  std::int64_t dir = 0;
  for (auto _ : state) {
    em->env().set("number_unsafe", 0, Value::make_int(1));
    const auto r = em->fire("update_state", {Value::make_int(dir)});
    benchmark::DoNotOptimize(r.rule_index);
    dir = (dir + 1) % 6;
  }
}
BENCHMARK(BM_RuleFire_CompiledTable);

void BM_RuleFire_Vm(benchmark::State& state) {
  auto em = make_update_state_machine(ExecMode::Vm);
  std::int64_t dir = 0;
  for (auto _ : state) {
    em->env().set("number_unsafe", 0, Value::make_int(1));
    const auto r = em->fire("update_state", {Value::make_int(dir)});
    benchmark::DoNotOptimize(r.rule_index);
    dir = (dir + 1) % 6;
  }
}
BENCHMARK(BM_RuleFire_Vm);

void BM_Compile_UpdateState(benchmark::State& state) {
  const rules::Program prog =
      rules::parse_program(rulebases::route_c_program_source(6, 2));
  rules::Interpreter interp(prog);
  for (auto _ : state) {
    const auto compiled =
        rules::compile_rule_base(prog, prog.rule_base("update_state"), interp);
    benchmark::DoNotOptimize(compiled.table_entries());
  }
}
BENCHMARK(BM_Compile_UpdateState);

void BM_Decision_NativeNafta(benchmark::State& state) {
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  Nafta nafta;
  nafta.attach(m, f);
  Rng rng(1);
  inject_random_link_faults(f, 4, rng);
  nafta.reconfigure();
  NodeId s = 0;
  for (auto _ : state) {
    RouteContext ctx;
    ctx.node = s;
    ctx.dest = (s + 13) % m.num_nodes();
    ctx.src = s;
    ctx.in_port = m.degree();
    ctx.in_vc = 0;
    if (f.node_ok(ctx.node) && f.node_ok(ctx.dest) && ctx.node != ctx.dest) {
      const auto d = nafta.route(ctx);
      benchmark::DoNotOptimize(d.candidates.size());
    }
    s = (s + 1) % m.num_nodes();
  }
}
BENCHMARK(BM_Decision_NativeNafta);

void BM_Decision_RuleDrivenNara(benchmark::State& state) {
  Mesh m = Mesh::two_d(8, 8);
  FaultSet f(m);
  RuleDrivenRouting algo(rulebases::nara_route_source(8, 8), 2,
                         ExecMode::Table);
  algo.attach(m, f);
  NodeId s = 0;
  for (auto _ : state) {
    RouteContext ctx;
    ctx.node = s;
    ctx.dest = (s + 13) % m.num_nodes();
    ctx.src = s;
    ctx.in_port = m.degree();
    ctx.in_vc = 0;
    if (ctx.node != ctx.dest) {
      const auto d = algo.route(ctx);
      benchmark::DoNotOptimize(d.candidates.size());
    }
    s = (s + 1) % m.num_nodes();
  }
}
BENCHMARK(BM_Decision_RuleDrivenNara);

// ------------------------------------------------------- F7b: VM decisions
// The NAFTA-family fault-tolerant mesh program and the hypercube e-cube
// program (ROUTE_C's decision baseline), executed per backend. The `Vm`
// rows price a full bytecode decision on the bare VM (no table of any
// kind) — the baseline every `Aot` row is read against; `Interp` is the
// AST interpreter the VM itself is read against.
template <typename MakeAlgo>
void decision_bench(benchmark::State& state, const Topology& topo,
                    MakeAlgo make_algo) {
  FaultSet f(topo);
  auto algo = make_algo();
  algo->attach(topo, f);
  NodeId s = 0;
  for (auto _ : state) {
    RouteContext ctx;
    ctx.node = s;
    ctx.dest = static_cast<NodeId>((s + 13) % topo.num_nodes());
    ctx.src = s;
    ctx.in_port = topo.degree();
    ctx.in_vc = 0;
    if (ctx.node != ctx.dest) {
      const auto d = algo->route(ctx);
      benchmark::DoNotOptimize(d.candidates.size());
    }
    s = static_cast<NodeId>((s + 1) % topo.num_nodes());
  }
}

std::unique_ptr<RuleDrivenRouting> make_nafta_rules(ExecMode mode) {
  return std::make_unique<RuleDrivenRouting>(
      rulebases::ft_mesh_route_source(8, 8), 3, mode, "route",
      /*escape_vc=*/2);
}

std::unique_ptr<RuleDrivenRouting> make_route_c_rules(ExecMode mode) {
  return std::make_unique<RuleDrivenRouting>(rulebases::ecube_route_source(6),
                                             1, mode);
}

void BM_Decision_Nafta_Interp(benchmark::State& state) {
  decision_bench(state, Mesh::two_d(8, 8),
                 [] { return make_nafta_rules(ExecMode::Interpret); });
}
BENCHMARK(BM_Decision_Nafta_Interp);

void BM_Decision_Nafta_Vm(benchmark::State& state) {
  decision_bench(state, Mesh::two_d(8, 8),
                 [] { return make_nafta_rules(ExecMode::Vm); });
}
BENCHMARK(BM_Decision_Nafta_Vm);

void BM_Decision_Nafta_Aot(benchmark::State& state) {
  decision_bench(state, Mesh::two_d(8, 8),
                 [] { return make_nafta_rules(ExecMode::Aot); });
}
BENCHMARK(BM_Decision_Nafta_Aot);

void BM_Decision_RouteC_Interp(benchmark::State& state) {
  decision_bench(state, Hypercube(6),
                 [] { return make_route_c_rules(ExecMode::Interpret); });
}
BENCHMARK(BM_Decision_RouteC_Interp);

void BM_Decision_RouteC_Vm(benchmark::State& state) {
  decision_bench(state, Hypercube(6),
                 [] { return make_route_c_rules(ExecMode::Vm); });
}
BENCHMARK(BM_Decision_RouteC_Vm);

// The AOT tier: attach() pre-resolved every premise point into the flat
// decision table, so route() is a strided load plus a candidate copy. Read
// it against BM_Decision_RouteC_Vm, which runs the bytecode every time.
void BM_Decision_RouteC_Aot(benchmark::State& state) {
  decision_bench(state, Hypercube(6),
                 [] { return make_route_c_rules(ExecMode::Aot); });
}
BENCHMARK(BM_Decision_RouteC_Aot);

// -------------------------------------------- F7c: full premise-space sweep
// The 64-point loop above revisits one premise point per node, so the
// table rows stay entirely in L1. Random traffic presents the whole
// premise space — every (node, dest, arrival port, non-escape vc) — which
// is what the dense LUT has to serve from its strided 16-byte loads. Read
// each sweep row against the bare-VM decision row of the same program
// (BM_Decision_Nafta_Vm / BM_Decision_RouteC_Vm): the VM's cost does not
// depend on which premise point it evaluates. Escape-VC arrivals are
// excluded: at premise points the escape phase cannot reach they throw by
// design, and every tier agrees on that (the AOT fill marks them
// unreachable).
std::vector<RouteContext> full_premise_sweep(const Topology& topo,
                                             int sweep_vcs) {
  std::vector<RouteContext> pts;
  for (NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (dst == s) continue;
      for (int vc = 0; vc < sweep_vcs; ++vc) {
        RouteContext ctx;
        ctx.node = s;
        ctx.dest = dst;
        ctx.src = s;
        ctx.in_port = topo.degree();  // injection
        ctx.in_vc = vc;
        pts.push_back(ctx);
        for (PortId p = 0; p < topo.degree(); ++p) {
          if (topo.neighbor(s, p) < 0) continue;  // missing boundary link
          ctx.in_port = p;
          pts.push_back(ctx);
        }
      }
    }
  }
  // Fisher–Yates with a fixed-seed LCG: deterministic order, but neither
  // tier gets sequential-prefetch help.
  std::uint64_t lcg = 12345;
  for (std::size_t i = pts.size(); i > 1; --i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(pts[i - 1], pts[(lcg >> 33) % i]);
  }
  return pts;
}

template <typename MakeAlgo>
void sweep_bench(benchmark::State& state, const Topology& topo,
                 MakeAlgo make_algo, int sweep_vcs) {
  FaultSet f(topo);
  auto algo = make_algo();
  algo->attach(topo, f);
  const std::vector<RouteContext> pts = full_premise_sweep(topo, sweep_vcs);
  for (const RouteContext& ctx : pts) {  // warm pass: caches and TLB
    const auto d = algo->route(ctx);
    benchmark::DoNotOptimize(d.candidates.size());
  }
  std::size_t k = 0;
  for (auto _ : state) {
    const auto d = algo->route(pts[k]);
    benchmark::DoNotOptimize(d.candidates.size());
    if (++k == pts.size()) k = 0;
  }
}

void BM_Decision_Nafta_AotSweep(benchmark::State& state) {
  sweep_bench(state, Mesh::two_d(8, 8),
              [] { return make_nafta_rules(ExecMode::Aot); }, /*sweep_vcs=*/2);
}
BENCHMARK(BM_Decision_Nafta_AotSweep);

void BM_Decision_RouteC_AotSweep(benchmark::State& state) {
  sweep_bench(state, Hypercube(6),
              [] { return make_route_c_rules(ExecMode::Aot); }, /*sweep_vcs=*/1);
}
BENCHMARK(BM_Decision_RouteC_AotSweep);

// ---------------------------------------- F7d: 4096-node fabric decisions
// The fabrics the tier ladder exists for: a 64x64 fault-tolerant mesh
// (402M-point premise space — the offset-sign table collapses it to 885k
// entries filled on first touch) and a 12-cube (the xor-fold table
// collapses 436M points to 114k entries, filled eagerly). The full premise
// space cannot be swept, so each node routes a bounded, shuffled working
// set; the steady-state figure is read after a warm pass fills the
// sign-class entries and converges the caches.
//
// The sweep is node-major: each node's points are shuffled, and the node
// visit order is shuffled, but one node's points complete before the next
// node starts. That is the access pattern the figure must price — in the
// fabric every router reads only its OWN table row, which stays resident
// in that router; round-robining 4096 routers' rows through one
// benchmarking core's cache hierarchy would measure DRAM latency, not the
// tier. Read each row against the bare-VM decision row of the same
// program family (F7b) for the table's gain, and against the small-fabric
// direct-LUT sweeps (F7c) for its scaling. Acceptance: both compressed
// layouts keep ns/route within 2x of those direct sweeps, and the measured
// loop performs ZERO heap allocations once warm (enforced here under
// FLEXROUTER_COUNT_ALLOCS — the release CI smoke).
std::vector<RouteContext> bounded_premise_sweep(const Topology& topo,
                                                int sweep_vcs,
                                                int dests_per_node) {
  std::uint64_t lcg = 99991;
  const auto next = [&lcg](std::uint64_t bound) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return (lcg >> 33) % bound;
  };
  const auto n_nodes = static_cast<std::uint64_t>(topo.num_nodes());
  std::vector<std::vector<RouteContext>> blocks(
      static_cast<std::size_t>(topo.num_nodes()));
  for (NodeId s = 0; s < topo.num_nodes(); ++s) {
    std::vector<RouteContext>& blk = blocks[static_cast<std::size_t>(s)];
    for (int k = 0; k < dests_per_node; ++k) {
      const auto dst = static_cast<NodeId>(next(n_nodes));
      if (dst == s) continue;
      for (int vc = 0; vc < sweep_vcs; ++vc) {
        RouteContext ctx;
        ctx.node = s;
        ctx.dest = dst;
        ctx.src = s;
        ctx.in_port = topo.degree();  // injection
        ctx.in_vc = vc;
        blk.push_back(ctx);
        for (PortId p = 0; p < topo.degree(); ++p) {
          if (topo.neighbor(s, p) < 0) continue;
          ctx.in_port = p;
          blk.push_back(ctx);
        }
      }
    }
    for (std::size_t i = blk.size(); i > 1; --i)
      std::swap(blk[i - 1], blk[next(i)]);
  }
  for (std::size_t i = blocks.size(); i > 1; --i)
    std::swap(blocks[i - 1], blocks[next(i)]);
  std::vector<RouteContext> pts;
  for (const std::vector<RouteContext>& blk : blocks)
    pts.insert(pts.end(), blk.begin(), blk.end());
  return pts;
}

/// The measured loop cycles a bounded prefix of the (node-major) sweep:
/// enough whole node blocks to defeat trivial caching, small enough that
/// the visited table rows stay L2-resident — in the fabric each router's
/// own row is always resident in that router, so the steady-state figure
/// must not charge the benchmarking core's capacity misses from
/// round-robining thousands of other routers' rows.
constexpr std::size_t kMeasuredSpan = 2048;

template <typename MakeAlgo>
void large_fabric_bench(benchmark::State& state, const Topology& topo,
                        MakeAlgo make_algo, int sweep_vcs,
                        RuleDrivenRouting::AotTier want_tier) {
  FaultSet f(topo);
  std::unique_ptr<RuleDrivenRouting> algo = make_algo();
  algo->attach(topo, f);
  const auto ti = algo->aot_tier_info();
  if (ti.tier != want_tier) {
    fail_check(state, "tier ladder picked '" +
                          std::string(RuleDrivenRouting::tier_name(ti.tier)) +
                          "': " + ti.reason);
    return;
  }
  const std::vector<RouteContext> pts =
      bounded_premise_sweep(topo, sweep_vcs, /*dests_per_node=*/16);
  for (const RouteContext& ctx : pts) {  // first-touch fills + caches
    const auto d = algo->route(ctx);
    benchmark::DoNotOptimize(d.candidates.size());
  }
  // Converged: a full second pass over every point must stay off the heap.
  const std::int64_t allocs_before = heap_alloc_count();
  for (const RouteContext& ctx : pts) {
    const auto d = algo->route(ctx);
    benchmark::DoNotOptimize(d.candidates.size());
  }
  if (heap_alloc_counting_enabled() && heap_alloc_count() != allocs_before)
    fail_check(state, "steady-state route() touched the heap");
  const std::size_t span = std::min(pts.size(), kMeasuredSpan);
  std::size_t k = 0;
  for (auto _ : state) {
    const auto d = algo->route(pts[k]);
    benchmark::DoNotOptimize(d.candidates.size());
    if (++k == span) k = 0;
  }
}

void BM_Decision_FtMesh64x64_SignClassSweep(benchmark::State& state) {
  large_fabric_bench(
      state, Mesh::two_d(64, 64),
      [] {
        return std::make_unique<RuleDrivenRouting>(
            rulebases::ft_mesh_route_source(64, 64), 3, ExecMode::Aot,
            "route", /*escape_vc=*/2);
      },
      /*sweep_vcs=*/2, RuleDrivenRouting::AotTier::Compressed);
}
BENCHMARK(BM_Decision_FtMesh64x64_SignClassSweep);

void BM_Decision_Ecube12_CompressedSweep(benchmark::State& state) {
  large_fabric_bench(
      state, Hypercube(12),
      [] {
        return std::make_unique<RuleDrivenRouting>(
            rulebases::ecube_route_source(12), 1, ExecMode::Aot);
      },
      /*sweep_vcs=*/1, RuleDrivenRouting::AotTier::Compressed);
}
BENCHMARK(BM_Decision_Ecube12_CompressedSweep);

void BM_NetworkCycle_Nafta8x8(benchmark::State& state) {
  Mesh m = Mesh::two_d(8, 8);
  Nafta nafta;
  Network net(m, nafta);
  UniformTraffic tr(m);
  SimConfig cfg;
  cfg.injection_rate = 0.1;
  cfg.warmup_cycles = 500;
  cfg.measure_cycles = 0;
  cfg.seed = 3;
  Simulator sim(net, tr, cfg);
  sim.run();  // load the network
  Cycle now = sim.now();
  Rng rng(4);
  for (auto _ : state) {
    // Keep traffic flowing so the cycle cost reflects a loaded router.
    const auto s = static_cast<NodeId>(rng.next_below(64));
    auto d = static_cast<NodeId>(rng.next_below(64));
    if (d == s) d = (d + 1) % 64;
    if (net.routers().injection_space(s) > 8) net.send(s, d, 4, now);
    net.step(now++);
  }
  state.counters["flits/cycle"] = benchmark::Counter(
      static_cast<double>(net.total_flit_movements()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NetworkCycle_Nafta8x8);

const char* flexrouter_build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

// Rewrite the emitted context so `library_build_type` describes the code
// actually measured (this binary + libflexrouter, via NDEBUG); the shared
// google-benchmark library's own claim — distro builds bake in "debug"
// regardless of how the benchmarked code was compiled, which is what
// poisoned the original checked-in baseline — is preserved under
// `benchmark_library_build_type`.
bool rewrite_build_type(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::string key = "\"library_build_type\": \"";
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return false;
  const std::size_t vstart = pos + key.size();
  const std::size_t vend = text.find('"', vstart);
  if (vend == std::string::npos) return false;
  const std::string original = text.substr(vstart, vend - vstart);
  text.replace(vstart, vend - vstart, flexrouter_build_type());
  text.insert(pos, "\"benchmark_library_build_type\": \"" + original +
                       "\",\n    ");
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

// Writes BENCH_interp_speed.json in the working directory unless the
// caller already picked an output file — a local capture for comparing
// runs taken on one machine (git ignores it). Any bench whose own check
// fails (fail_check) makes the exit status 1. `--smoke` runs shortened
// benches and hard-fails when the measured code was built without NDEBUG
// (a debug baseline must never be recorded again), so it belongs in the
// release CI job only.
int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
      out_path = argv[i] + 16;
    args.push_back(argv[i]);
  }
  static std::string out;
  static std::string fmt = "--benchmark_out_format=json";
  static std::string min_time = "--benchmark_min_time=0.05";
  if (out_path.empty()) {
    out_path = smoke ? "interp_speed_smoke.json" : "BENCH_interp_speed.json";
    out = "--benchmark_out=" + out_path;
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  if (smoke) args.push_back(min_time.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!rewrite_build_type(out_path)) {
    std::fprintf(stderr, "interp_speed: failed to record build type in %s\n",
                 out_path.c_str());
    return 1;
  }
  if (g_check_failed) {
    std::fprintf(stderr,
                 "interp_speed: a bench check failed (ERROR OCCURRED row)\n");
    return 1;
  }
  if (smoke && std::strcmp(flexrouter_build_type(), "release") != 0) {
    std::fprintf(stderr,
                 "interp_speed --smoke: measured code built as debug "
                 "(library_build_type=%s) — benchmark numbers from this "
                 "build must not be recorded\n",
                 flexrouter_build_type());
    return 1;
  }
  return 0;
}
