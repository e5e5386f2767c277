// Rule hot-swap benchmark — live program replacement under traffic.
//
// The paper's reprogramming story: a router's rule sets can be streamed in
// while the old ones keep deciding. This bench measures what that costs at
// the system level with the AOT tier active: a complete routing-program
// swap is scheduled in the middle of the measurement window, the new image
// (parse + compile + AOT table fill) is built off the critical path, and
// the commit runs Immediate (stateless programs, between two cycles),
// Quiescent (gate injection, drain, swap, resume), or Rolling (commit
// shard by shard at barrier boundaries — no injection gate at all, only
// the per-node cycles spent waiting for the rolling front are charged).
//
// Reported per scenario: swap downtime (cycles injection was gated by the
// drain), gated node-cycles (the rolling currency), post-swap throughput,
// and the accounting identity
//     delivered + unrecoverable == injected
// (a swap must not lose packets).
//
// A second section scales the same swap to the 4096-node 12-cube, where
// the AOT tier runs compressed (xor-fold dest classes): Rolling must gate
// strictly fewer node-cycles than Quiescent there, while staying
// bit-identical across 1/2/4/8 rolling commit shards.
//
// Also checked, because they are the contracts the swap must not break:
//   - an Immediate self-swap perturbs nothing: the SimResult is
//     bit-identical to the same run without the swap (modulo the swap
//     counter itself),
//   - sweep bit-identity at 1/2/4/8 worker threads with swaps armed, and
//   - the AOT table is serving again after the commit (the swapped-in
//     program was compiled all the way down, 0% fallback).
//
// Usage:
//   ./rule_hotswap              # full run
//   ./rule_hotswap --smoke      # tiny cycle counts for CI
//   ./rule_hotswap --json FILE  # also emit a JSON report
#include <fstream>
#include <iostream>

#include "bench_util.hpp"
#include "routing/rule_driven.hpp"
#include "rulebases/corpus.hpp"
#include "topology/hypercube.hpp"

namespace {

using namespace flexrouter;
using rules::ExecMode;

/// `r` with the swap accounting zeroed: a self-swap compared against the
/// no-swap baseline differs there by construction, and nowhere else.
SimResult without_swap_metrics(SimResult r) {
  r.rule_swaps = 0;
  r.swap_gated_cycles = 0;
  r.swap_gated_node_cycles = 0;
  return r;
}

struct Scenario {
  const char* name;
  bool swap = true;  // false: the no-swap baseline for the same point
  Simulator::RuleSwapPolicy policy = Simulator::RuleSwapPolicy::Auto;
  bool self_swap = false;  // swap to the program already running
};

/// One replica: 6-cube, e-cube rules under the AOT tier, swap scheduled
/// halfway through the measurement window. The swap target is the MSB-first
/// e-cube variant — a genuinely different routing function at every
/// multi-bit premise point — unless `self_swap` re-installs the running
/// program. Returns the result plus the post-run AOT table stats so the
/// caller can assert the swapped-in image is serving.
SimResult run_swap_point(const Scenario& sc, double rate, Cycle warmup,
                         Cycle measure, std::uint64_t seed,
                         rules::AotTable::Stats* stats_out = nullptr) {
  constexpr int kDim = 6;
  Hypercube topo(kDim);
  RuleDrivenRouting algo(rulebases::ecube_route_source(kDim), 1,
                         ExecMode::Aot);
  UniformTraffic tr(topo);
  Network net(topo, algo);
  SimConfig cfg;
  cfg.injection_rate = rate;
  cfg.packet_length = 4;
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = measure;
  cfg.seed = seed;
  Simulator sim(net, tr, cfg);
  if (sc.swap)
    sim.schedule_rule_swap(warmup + measure / 2,
                           sc.self_swap
                               ? rulebases::ecube_route_source(kDim)
                               : rulebases::ecube_msb_route_source(kDim),
                           sc.policy);
  SimResult r = sim.run();
  if (stats_out != nullptr) *stats_out = algo.aot_stats();
  return r;
}

/// The 4096-node point: 12-cube, same lsb->msb program swap, with the AOT
/// tier on the compressed (xor-fold) table — the full premise space no
/// longer fits an eager direct table at this scale. `exec_shards` is the
/// network's spatial execution sharding; the rolling commit schedule is
/// deterministic and decoupled from it (SimConfig::rolling_shards stays at
/// its default), so results must not depend on it. The injection rate is
/// lower than the 6-cube point so the large fabric stays affordable in
/// --smoke.
SimResult run_large_swap_point(Simulator::RuleSwapPolicy policy,
                               int exec_shards, Cycle warmup, Cycle measure,
                               std::uint64_t seed,
                               RuleDrivenRouting::AotTierInfo* tier_out,
                               rules::AotTable::Stats* stats_out = nullptr) {
  constexpr int kDim = 12;
  Hypercube topo(kDim);
  RuleDrivenRouting algo(rulebases::ecube_route_source(kDim), 1,
                         ExecMode::Aot);
  UniformTraffic tr(topo);
  NetworkConfig ncfg;
  ncfg.shards = exec_shards;
  Network net(topo, algo, ncfg);
  if (tier_out != nullptr) *tier_out = algo.aot_tier_info();
  SimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.packet_length = 4;
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = measure;
  cfg.seed = seed;
  Simulator sim(net, tr, cfg);
  sim.schedule_rule_swap(warmup + measure / 2,
                         rulebases::ecube_msb_route_source(kDim), policy);
  SimResult r = sim.run();
  if (stats_out != nullptr) *stats_out = algo.aot_stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flexrouter;
  const std::optional<bench::SmokeArgs> args =
      bench::parse_smoke_args(argc, argv);
  if (!args) return 2;
  const bool smoke = args->smoke;
  const std::string& json_path = args->json_path;

  const Cycle warmup = smoke ? 200 : 1000;
  const Cycle measure = smoke ? 800 : 4000;
  const double rate = 0.08;

  bench::print_header(
      "Rule hot-swap — live program replacement mid-measurement (AOT tier)");

  const Scenario scenarios[] = {
      {"no swap (baseline)", /*swap=*/false},
      {"lsb->msb, immediate", true, Simulator::RuleSwapPolicy::Auto},
      {"lsb->msb, quiescent", true, Simulator::RuleSwapPolicy::Quiescent},
      {"self-swap, immediate", true, Simulator::RuleSwapPolicy::Auto,
       /*self_swap=*/true},
      {"lsb->msb, rolling", true, Simulator::RuleSwapPolicy::Rolling},
  };
  constexpr int kScenarios = 5;

  // --- 1. swap downtime + post-swap throughput + accounting --------------
  SimResult res[kScenarios];
  bench::print_row({"scenario", "delivered", "swaps", "downtime",
                    "node-cyc", "throughput", "avail"},
                   14);
  for (int s = 0; s < kScenarios; ++s) {
    rules::AotTable::Stats st;
    res[s] = run_swap_point(scenarios[s], rate, warmup, measure, 42, &st);
    const SimResult& r = res[s];
    std::ostringstream frac;
    frac << r.delivered_packets << "/" << r.injected_packets;
    bench::print_row({scenarios[s].name, frac.str(),
                      std::to_string(r.rule_swaps),
                      std::to_string(r.swap_gated_cycles),
                      std::to_string(r.swap_gated_node_cycles),
                      bench::fmt(r.throughput, 4),
                      bench::fmt(r.availability, 4)},
                     14);
    if (r.deadlock_suspected) {
      std::cerr << "SWAP FAILURE: watchdog abort in '" << scenarios[s].name
                << "'\n";
      return 1;
    }
    if (r.rule_swaps != (scenarios[s].swap ? 1 : 0)) {
      std::cerr << "SWAP FAILURE: expected " << (scenarios[s].swap ? 1 : 0)
                << " committed swap(s) in '" << scenarios[s].name
                << "', saw " << r.rule_swaps << "\n";
      return 1;
    }
    if (r.delivered_packets + r.packets_unrecoverable != r.injected_packets) {
      std::cerr << "ACCOUNTING VIOLATION in '" << scenarios[s].name << "': "
                << r.delivered_packets << " delivered + "
                << r.packets_unrecoverable << " unrecoverable != "
                << r.injected_packets << " injected\n";
      return 1;
    }
    // The swapped-in image must be serving from its AOT table again —
    // compiled all the way down, no presentable point left to the VM.
    if (st.entries == 0 || st.fallback != 0) {
      std::cerr << "AOT REGRESSION in '" << scenarios[s].name
                << "': post-run table entries=" << st.entries
                << " fallback=" << st.fallback << "\n";
      return 1;
    }
  }

  // Downtime bounds: Immediate commits between two cycles (zero gated
  // cycles); Quiescent pays a bounded drain — it must gate something (the
  // network is loaded mid-measurement) but far less than the window.
  if (res[1].swap_gated_cycles != 0 || res[3].swap_gated_cycles != 0) {
    std::cerr << "DOWNTIME VIOLATION: immediate swap gated injection\n";
    return 1;
  }
  if (res[2].swap_gated_cycles <= 0 ||
      res[2].swap_gated_cycles >= static_cast<Cycle>(measure)) {
    std::cerr << "DOWNTIME VIOLATION: quiescent drain took "
              << res[2].swap_gated_cycles << " cycles (window " << measure
              << ")\n";
    return 1;
  }
  // Rolling never gates injection — its whole cost is node-cycles spent by
  // nodes waiting for the commit front, and that must undercut what the
  // quiescent drain charges (gated cycles x every node in the fabric).
  if (res[4].swap_gated_cycles != 0) {
    std::cerr << "DOWNTIME VIOLATION: rolling swap gated injection for "
              << res[4].swap_gated_cycles << " cycles\n";
    return 1;
  }
  const Cycle quiescent_node_cycles = res[2].swap_gated_node_cycles;
  if (res[4].swap_gated_node_cycles == 0 ||
      res[4].swap_gated_node_cycles >= quiescent_node_cycles) {
    std::cerr << "DOWNTIME VIOLATION: rolling gated "
              << res[4].swap_gated_node_cycles
              << " node-cycles, quiescent gated " << quiescent_node_cycles
              << " (rolling must gate strictly fewer, nonzero)\n";
    return 1;
  }
  std::cout << "downtime bounds: immediate = 0, quiescent drain = "
            << res[2].swap_gated_cycles << " cycles < " << measure
            << "-cycle window; rolling gated 0 cycles, "
            << res[4].swap_gated_node_cycles << " node-cycles < quiescent's "
            << quiescent_node_cycles << "\n";

  // --- 2. immediate self-swap perturbs nothing ---------------------------
  // Same seed, same traffic, same (re-installed) program: every decision
  // replays identically, so the result must match the no-swap baseline bit
  // for bit — the swap machinery itself is invisible.
  if (without_swap_metrics(res[3]) != res[0]) {
    std::cerr << "PERTURBATION: immediate self-swap changed the result\n";
    return 1;
  }
  std::cout << "self-swap identity: immediate self-swap bit-identical to "
               "the no-swap baseline\n";

  // --- 3. sweep bit-identity with swaps armed ----------------------------
  std::vector<SweepPoint> points;
  for (int s = 0; s < kScenarios; ++s) {
    const Scenario sc = scenarios[s];
    for (const double r : {0.04, 0.08}) {
      points.push_back({[sc, r, warmup, measure](std::uint64_t seed) {
        return run_swap_point(sc, r, warmup, measure, seed);
      }});
    }
  }
  const int thread_counts[] = {1, 2, 4, 8};
  std::vector<SimResult> reference;
  std::cout << "\n";
  bench::print_row({"threads", "points", "bit-identical"}, 14);
  for (const int t : thread_counts) {
    SweepOptions opts;
    opts.num_threads = t;
    opts.base_seed = 7;
    SweepRunner runner(opts);
    const std::vector<SimResult> results = runner.run(points);
    bool identical = true;
    if (t == 1) {
      reference = results;
    } else {
      for (std::size_t i = 0; i < results.size(); ++i)
        identical = identical && results[i] == reference[i];
    }
    bench::print_row({std::to_string(t), std::to_string(points.size()),
                      identical ? "yes" : "NO"},
                     14);
    if (!identical) {
      std::cerr << "DETERMINISM VIOLATION: hot-swap sweep differs at " << t
                << " threads\n";
      return 1;
    }
  }

  // --- 4. 4096-node fabric: rolling vs quiescent at scale ----------------
  // Quiescent charges every one of the 4096 nodes for the whole drain;
  // Rolling charges only the nodes still behind the commit front. At this
  // scale that gap is the whole point of the policy, so Rolling must gate
  // strictly fewer node-cycles — and produce a bit-identical SimResult at
  // every execution shard count (the commit schedule is deterministic and
  // decoupled from execution sharding).
  const Cycle lwarm = smoke ? 100 : 400;
  const Cycle lmeas = smoke ? 400 : 1600;
  RuleDrivenRouting::AotTierInfo large_tier;
  rules::AotTable::Stats large_st;
  const SimResult lq =
      run_large_swap_point(Simulator::RuleSwapPolicy::Quiescent, 1, lwarm,
                           lmeas, 91, &large_tier, &large_st);
  std::cout << "\n4096-node 12-cube, lsb->msb swap [tier "
            << RuleDrivenRouting::tier_name(large_tier.tier) << ", "
            << rules::to_string(large_tier.classifier) << ", "
            << bench::fmt(large_tier.compression_ratio, 0)
            << "x compression]\n";
  if (large_tier.tier != RuleDrivenRouting::AotTier::Compressed) {
    std::cerr << "TIER REGRESSION: 12-cube e-cube expected the compressed "
              << "tier, got "
              << RuleDrivenRouting::tier_name(large_tier.tier) << " ("
              << large_tier.reason << ")\n";
    return 1;
  }
  if (large_st.entries == 0 || large_st.fallback != 0) {
    std::cerr << "AOT REGRESSION: 12-cube post-run table entries="
              << large_st.entries << " fallback=" << large_st.fallback
              << "\n";
    return 1;
  }
  bench::print_row({"policy", "shards", "delivered", "downtime", "node-cyc",
                    "identical"},
                   14);
  std::ostringstream lq_frac;
  lq_frac << lq.delivered_packets << "/" << lq.injected_packets;
  bench::print_row({"quiescent", "-", lq_frac.str(),
                    std::to_string(lq.swap_gated_cycles),
                    std::to_string(lq.swap_gated_node_cycles), "-"},
                   14);
  SimResult lr;  // the rolling result (identical at every shard count)
  for (const int shards : {1, 2, 4, 8}) {
    const SimResult r = run_large_swap_point(
        Simulator::RuleSwapPolicy::Rolling, shards, lwarm, lmeas, 91,
        nullptr);
    const bool identical =
        shards == 1 || r == lr;
    if (shards == 1) lr = r;
    std::ostringstream frac;
    frac << r.delivered_packets << "/" << r.injected_packets;
    bench::print_row({"rolling", std::to_string(shards), frac.str(),
                      std::to_string(r.swap_gated_cycles),
                      std::to_string(r.swap_gated_node_cycles),
                      shards == 1 ? "-" : (identical ? "yes" : "NO")},
                     14);
    if (!identical) {
      std::cerr << "DETERMINISM VIOLATION: rolling result differs at "
                << shards << " execution shards\n";
      return 1;
    }
    if (r.rule_swaps != 1 ||
        r.delivered_packets + r.packets_unrecoverable != r.injected_packets) {
      std::cerr << "SWAP FAILURE: 12-cube rolling at " << shards
                << " shards: swaps=" << r.rule_swaps << ", accounting "
                << r.delivered_packets << "+" << r.packets_unrecoverable
                << " != " << r.injected_packets << "\n";
      return 1;
    }
  }
  if (lr.swap_gated_cycles != 0 || lr.swap_gated_node_cycles == 0 ||
      lr.swap_gated_node_cycles >= lq.swap_gated_node_cycles) {
    std::cerr << "SCALE VIOLATION: 12-cube rolling gated "
              << lr.swap_gated_cycles << " cycles / "
              << lr.swap_gated_node_cycles
              << " node-cycles vs quiescent's "
              << lq.swap_gated_node_cycles
              << " (rolling must gate 0 cycles and strictly fewer "
              << "node-cycles)\n";
    return 1;
  }
  std::cout << "scale bounds: rolling gated " << lr.swap_gated_node_cycles
            << " node-cycles vs quiescent's " << lq.swap_gated_node_cycles
            << " ("
            << bench::fmt(static_cast<double>(lq.swap_gated_node_cycles) /
                              static_cast<double>(lr.swap_gated_node_cycles),
                          1)
            << "x) on 4096 nodes\n";

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os.precision(17);
    os << "{\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"scenarios\": [\n";
    for (int s = 0; s < kScenarios; ++s) {
      const SimResult& r = res[s];
      os << "    {\"name\": \"" << scenarios[s].name
         << "\", \"injected\": " << r.injected_packets
         << ", \"delivered\": " << r.delivered_packets
         << ", \"rule_swaps\": " << r.rule_swaps
         << ", \"swap_gated_cycles\": " << r.swap_gated_cycles
         << ", \"swap_gated_node_cycles\": " << r.swap_gated_node_cycles
         << ", \"throughput\": " << r.throughput
         << ", \"availability\": " << r.availability << "}"
         << (s + 1 < kScenarios ? "," : "") << "\n";
    }
    os << "  ],\n  \"large_fabric\": {\"nodes\": 4096, \"tier\": \""
       << RuleDrivenRouting::tier_name(large_tier.tier)
       << "\", \"compression_ratio\": " << large_tier.compression_ratio
       << ", \"quiescent_gated_node_cycles\": " << lq.swap_gated_node_cycles
       << ", \"rolling_gated_node_cycles\": " << lr.swap_gated_node_cycles
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
