// Simulator hot-loop and sweep-engine throughput benchmark.
//
// Measures:
//   1. Single-replica simulated cycles/second on two fixed scenarios
//      (fault-free and 6-link-fault 8x8 mesh, NAFTA, uniform 0.10) — the
//      number the serial hot-loop overhaul moves.
//   2. Wall-clock for a 16-point (faults x load) sweep at 1/2/4/8 worker
//      threads, with a bit-identical cross-check of every SimResult field
//      against the single-thread run — the determinism contract of
//      SweepRunner.
//   3. Large fabrics (64x64 mesh NAFTA, 12-d hypercube ROUTE_C — 4096
//      nodes each) at 1/2/4/8 spatial shards, every run bit-checked
//      against the one-shard run. A mismatch is a hard failure.
//
// Usage:
//   ./sim_throughput              # full run, table to stdout
//   ./sim_throughput --smoke      # tiny grid for CI (seconds, still checks
//                                 # bit-identity across thread counts; its
//                                 # runs are too short to time, so the
//                                 # timing cells print "-")
//   ./sim_throughput --json FILE  # also emit a JSON report
//
// Plain std::chrono timing — no google-benchmark dependency, so the binary
// stays runnable in every build config.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "routing/nafta.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace flexrouter;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SingleReplica {
  const char* name;
  int link_faults;
  double cycles_per_sec = 0.0;
  Cycle cycles = 0;
};

// Fixed serial scenario: 8x8 mesh, NAFTA, uniform 0.10, seed 42. The
// faulty variant breaks 6 links with Rng(99). Matches the pre-PR baseline
// capture, so cycles/sec is comparable across revisions.
SimResult run_single(int link_faults, Cycle warmup, Cycle measure,
                     Cycle* cycles_out, double* elapsed_out) {
  Mesh m = Mesh::two_d(8, 8);
  Nafta algo;
  UniformTraffic tr(m);
  Network net(m, algo);
  if (link_faults > 0) {
    Rng rng(99);
    net.apply_faults(
        [&](FaultSet& f) { inject_random_link_faults(f, link_faults, rng); });
  }
  SimConfig cfg;
  cfg.injection_rate = 0.10;
  cfg.packet_length = 4;
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = measure;
  cfg.seed = 42;
  Simulator sim(net, tr, cfg);
  const auto t0 = Clock::now();
  SimResult r = sim.run();
  *elapsed_out = seconds_since(t0);
  *cycles_out = sim.now();
  return r;
}

// ------------------------------------------------------------ large fabrics

/// A 4096-node scenario stepped at several shard counts: `algo` on its
/// native topology kind of `size` (64x64 mesh, 12-d hypercube).
struct FabricScenario {
  const char* name;
  std::vector<int> size;
  const char* algo;
  double rate;
  Cycle warmup;
  Cycle measure;
};

/// One timed run of a fabric scenario at `shards` spatial shards. Timing
/// covers only Simulator::run — topology construction and table building
/// are setup, not throughput.
SimResult run_fabric(const FabricScenario& sc, int shards, Cycle* cycles_out,
                     double* wall_out) {
  auto topo = make_topology(native_topology_kind(sc.algo), sc.size);
  auto algo = build_algorithm(sc.algo, *topo);
  UniformTraffic tr(*topo);
  NetworkConfig ncfg;
  ncfg.shards = shards;
  Network net(*topo, *algo, ncfg);
  SimConfig cfg;
  cfg.injection_rate = sc.rate;
  cfg.packet_length = 4;
  cfg.warmup_cycles = sc.warmup;
  cfg.measure_cycles = sc.measure;
  cfg.seed = 42;
  Simulator sim(net, tr, cfg);
  const auto t0 = Clock::now();
  SimResult r = sim.run();
  *wall_out = seconds_since(t0);
  *cycles_out = sim.now();
  return r;
}

// The 16-point sweep grid: 4 fault counts x 4 offered loads on the same
// 8x8 mesh. Every point constructs its own replica inside the lambda.
std::vector<SweepPoint> make_grid(Cycle warmup, Cycle measure) {
  const int fault_counts[] = {0, 2, 4, 6};
  const double rates[] = {0.04, 0.08, 0.12, 0.16};
  std::vector<SweepPoint> points;
  for (const int k : fault_counts) {
    for (const double rate : rates) {
      points.push_back({[k, rate, warmup, measure](std::uint64_t seed) {
        Mesh m = Mesh::two_d(8, 8);
        Nafta algo;
        UniformTraffic tr(m);
        Rng frng(static_cast<std::uint64_t>(k) * 31 + 5);
        SimConfig cfg;
        cfg.injection_rate = rate;
        cfg.packet_length = 4;
        cfg.warmup_cycles = warmup;
        cfg.measure_cycles = measure;
        cfg.seed = seed;
        return bench::run_point(m, algo, tr, cfg,
                                k == 0 ? std::function<void(FaultSet&)>{}
                                       : [&](FaultSet& f) {
                                           inject_random_link_faults(f, k,
                                                                     frng);
                                         });
      }});
    }
  }
  return points;
}

// Zero-allocation regression guard (runs only in FLEXROUTER_COUNT_ALLOCS
// builds — CI's bench-smoke step enables it): an 8x8 replica, optionally
// with static link faults and sharded, driven by bench::AllocGuard.
bool run_alloc_guard(int link_faults, int shards, bool aot_rules = false) {
  Mesh m = Mesh::two_d(8, 8);
  // `aot_rules` swaps the native router for the rule-driven one with the
  // pre-resolved decision table: an AOT hit must be as heap-free in the
  // steady state as a native decision (the table is filled during attach/
  // reconfigure, never per decision).
  const std::unique_ptr<RoutingAlgorithm> algo =
      build_algorithm(aot_rules ? "ft-mesh-rules" : "nafta", m);
  UniformTraffic tr(m);
  NetworkConfig ncfg;
  ncfg.expected_packets = 16384;
  ncfg.shards = shards;
  Network net(m, *algo, ncfg);
  if (link_faults > 0) {
    Rng frng(99);
    net.apply_faults(
        [&](FaultSet& f) { inject_random_link_faults(f, link_faults, frng); });
  }
  bench::AllocGuard guard(net, tr);
  guard.run(400);  // warmup: pools grow to peak here
  if (!guard.steady_state_clean()) {
    std::cerr << "ALLOCATION REGRESSION: steady-state cycles still allocate "
              << "(" << link_faults << " link faults, " << shards
              << " shards" << (aot_rules ? ", AOT rules" : "") << ")\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flexrouter;
  const std::optional<bench::SmokeArgs> args =
      bench::parse_smoke_args(argc, argv);
  if (!args) return 2;
  const bool smoke = args->smoke;
  const std::string& json_path = args->json_path;

  const Cycle single_warmup = smoke ? 200 : 2000;
  const Cycle single_measure = smoke ? 800 : 8000;
  const Cycle grid_warmup = smoke ? 100 : 400;
  const Cycle grid_measure = smoke ? 300 : 1600;

  bench::print_header(
      "Simulator throughput — serial hot loop and parallel sweep engine");
  // Smoke runs last 10-20 ms, and repeated runs of one binary spread about
  // 2x, so their timings cannot resolve a change: print none.
  const auto timed = [smoke](double v, int precision) {
    return smoke ? std::string("-") : bench::fmt(v, precision);
  };
  if (smoke)
    std::cout << "--smoke: every run is too short to time, so the timing "
                 "cells print \"-\"; the rows check deadlock freedom and "
                 "bit-identity only.\n\n";

  // --- 0. zero-allocation steady-state guard -----------------------------
  // The step must reach an allocation-free steady state at one shard and
  // at four (the shard buffers and span lists grow to
  // the workload's peak during warmup, like every other pool).
  if (heap_alloc_counting_enabled()) {
    for (const int shards : {1, 4})
      for (const int faults : {0, 6})
        if (!run_alloc_guard(faults, shards)) return 1;
    // The AOT decision table must hold the same bar: a table hit may not
    // touch the heap, fault-free or after a reconfigure-triggered refill.
    for (const int faults : {0, 6})
      if (!run_alloc_guard(faults, 1, /*aot_rules=*/true)) return 1;
    std::cout << "alloc guard: steady-state cycles allocation-free "
                 "(1-shard and 4-shard, fault-free and faulted, native and "
                 "AOT rule-driven)\n\n";
  }

  // --- 1. single-replica cycles/sec --------------------------------------
  SingleReplica singles[] = {{"fault-free", 0}, {"6 link faults", 6}};
  bench::print_row({"scenario", "sim cycles", "wall s", "cycles/sec"});
  for (SingleReplica& s : singles) {
    double elapsed = 0.0;
    const SimResult r =
        run_single(s.link_faults, single_warmup, single_measure, &s.cycles,
                   &elapsed);
    if (r.deadlock_suspected) {
      std::cerr << "unexpected deadlock in single-replica scenario\n";
      return 1;
    }
    s.cycles_per_sec = static_cast<double>(s.cycles) / elapsed;
    bench::print_row({s.name, std::to_string(s.cycles), timed(elapsed, 3),
                      timed(s.cycles_per_sec, 0)});
  }

  // --- 2. sweep wall-clock at 1/2/4/8 threads ----------------------------
  const std::vector<SweepPoint> points = make_grid(grid_warmup, grid_measure);
  const int thread_counts[] = {1, 2, 4, 8};
  std::vector<SimResult> reference;
  double serial_wall = 0.0;
  struct SweepRow {
    int threads;
    double wall;
    bool identical;
  };
  std::vector<SweepRow> sweep_rows;

  std::cout << "\n";
  bench::print_row({"threads", "grid points", "wall s", "speedup",
                    "bit-identical"});
  for (const int t : thread_counts) {
    SweepOptions opts;
    opts.num_threads = t;
    opts.base_seed = 7;
    SweepRunner runner(opts);
    const auto t0 = Clock::now();
    const std::vector<SimResult> results = runner.run(points);
    const double wall = seconds_since(t0);
    bool identical = true;
    if (t == 1) {
      reference = results;
      serial_wall = wall;
    } else {
      for (std::size_t i = 0; i < results.size(); ++i)
        identical = identical && results[i] == reference[i];
    }
    sweep_rows.push_back({t, wall, identical});
    bench::print_row({std::to_string(t), std::to_string(points.size()),
                      timed(wall, 3), timed(serial_wall / wall, 2),
                      identical ? "yes" : "NO"});
    if (!identical) {
      std::cerr << "DETERMINISM VIOLATION: sweep results differ at " << t
                << " threads\n";
      return 1;
    }
  }

  std::cout << "\nNote: speedup is bounded by the physical core count of the"
               "\nmachine running the bench; bit-identity must hold "
               "everywhere.\n";

  // --- 3. large fabrics at 1/2/4/8 shards --------------------------------
  const FabricScenario fabrics[] = {
      {"mesh64_nafta", {64, 64}, "nafta", 0.05,
       smoke ? Cycle{20} : Cycle{200}, smoke ? Cycle{80} : Cycle{600}},
      {"hcube12_route_c", {12}, "route_c", 0.02,
       smoke ? Cycle{20} : Cycle{100}, smoke ? Cycle{60} : Cycle{300}},
  };
  struct ShardRow {
    int shards;
    double wall;
    double cps;
    bool identical;
  };
  struct FabricReport {
    const char* name;
    Cycle cycles = 0;
    std::vector<ShardRow> rows;
  };
  std::vector<FabricReport> fabric_reports;
  const int shard_counts[] = {1, 2, 4, 8};

  std::cout << "\nlarge fabrics (4096 nodes), bit-checked against one "
               "shard:\n";
  bench::print_row({"scenario", "shards", "sim cycles", "wall s",
                    "cycles/sec", "bit-identical"});
  for (const FabricScenario& sc : fabrics) {
    FabricReport rep;
    rep.name = sc.name;
    SimResult ref;
    for (const int s : shard_counts) {
      Cycle cycles = 0;
      double wall = 0.0;
      const SimResult r = run_fabric(sc, s, &cycles, &wall);
      if (s == 1) {
        ref = r;
        rep.cycles = cycles;
      }
      const bool identical = r == ref && cycles == rep.cycles;
      rep.rows.push_back(
          {s, wall, static_cast<double>(cycles) / wall, identical});
      bench::print_row({s == 1 ? sc.name : "", std::to_string(s),
                        std::to_string(cycles), timed(wall, 3),
                        timed(static_cast<double>(cycles) / wall, 0),
                        s == 1 ? "ref" : identical ? "yes" : "NO"});
      if (!identical) {
        std::cerr << "DETERMINISM VIOLATION: " << sc.name << " differs at "
                  << s << " shards\n";
        return 1;
      }
    }
    fabric_reports.push_back(std::move(rep));
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os.precision(17);
    os << "{\n  \"context\": {\n"
       << "    \"num_cpus\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "    \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "    \"note\": \"with fewer CPUs (num_cpus) than threads or "
          "shards, the shard and sweep rows are determinism checks, not "
          "parallel wins\"\n"
          "  },\n";
    os << "  \"single_replica\": [\n";
    for (std::size_t i = 0; i < 2; ++i) {
      os << "    {\"scenario\": \"" << singles[i].name
         << "\", \"sim_cycles\": " << singles[i].cycles
         << ", \"cycles_per_sec\": " << singles[i].cycles_per_sec << "}"
         << (i + 1 < 2 ? "," : "") << "\n";
    }
    os << "  ],\n  \"sweep_16pt\": [\n";
    for (std::size_t i = 0; i < sweep_rows.size(); ++i) {
      const SweepRow& sr = sweep_rows[i];
      os << "    {\"threads\": " << sr.threads << ", \"wall_sec\": " << sr.wall
         << ", \"speedup\": " << serial_wall / sr.wall
         << ", \"bit_identical\": " << (sr.identical ? "true" : "false")
         << "}" << (i + 1 < sweep_rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"large_fabric\": [\n";
    for (std::size_t i = 0; i < fabric_reports.size(); ++i) {
      const FabricReport& fr = fabric_reports[i];
      os << "    {\"scenario\": \"" << fr.name << "\", \"nodes\": 4096, "
         << "\"sim_cycles\": " << fr.cycles << ", \"shards\": [\n";
      for (std::size_t j = 0; j < fr.rows.size(); ++j) {
        const ShardRow& row = fr.rows[j];
        os << "      {\"shards\": " << row.shards
           << ", \"wall_sec\": " << row.wall
           << ", \"cycles_per_sec\": " << row.cps
           << ", \"bit_identical\": " << (row.identical ? "true" : "false")
           << "}" << (j + 1 < fr.rows.size() ? "," : "") << "\n";
      }
      os << "    ]}" << (i + 1 < fabric_reports.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
