// flexsim — config-driven simulation driver (BookSim-style front end).
//
// Usage:
//   ./flexsim                       # built-in default experiment
//   ./flexsim my.cfg                # read a config file
//   ./flexsim my.cfg "rate = 0.2"   # extra overrides, last wins
//
// The keys are documented at the top of src/sim/scenario.hpp. A config
// error prints one `config error: ...` line on stderr and exits 2 before
// anything runs; a failure only the run can find prints `simulation
// error: ...` and exits 2; a point that suspects deadlock exits 1.
#include <algorithm>
#include <iostream>
#include <sstream>

#include "sim/scenario.hpp"
#include "sim/sweep.hpp"

using namespace flexrouter;

namespace {

/// One-line AOT tier report for the summary: which tier serves decisions
/// and — when the VM kept serving — why the tables stayed off.
std::string tier_summary(const RuleDrivenRouting::AotTierInfo& ti) {
  std::ostringstream os;
  os << " [tier " << RuleDrivenRouting::tier_name(ti.tier);
  if (ti.classifier != rules::DestClassifier::None)
    os << ", " << rules::to_string(ti.classifier);
  if (ti.compression_ratio > 1.0)
    os << ", " << ti.compression_ratio << "x compression";
  if (ti.tier == RuleDrivenRouting::AotTier::Vm && !ti.reason.empty())
    os << ": " << ti.reason;
  os << "]";
  return os.str();
}

}  // namespace

// Everything outside the sweep's own try block reads configuration, so any
// throw that reaches the handler at the bottom is a config error.
int main(int argc, char** argv) try {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    cfg = cfg.overridden_by(arg.find('=') != std::string::npos
                                ? Config::parse(arg)
                                : Config::from_file(arg));
  }
  const Scenario sc = parse_scenario(cfg);
  const std::unique_ptr<Topology> topo = sc.make_topology();  // shared
  const bool single = sc.rates.size() == 1;

  // One grid point per offered load. Each replica applies the SAME fault
  // pattern (the fault RNG restarts per point) so the series varies only
  // in load.
  int exchanges = 0;
  std::string link_report;
  std::string tier_report;  // AOT tier of the first point's algorithm
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < sc.rates.size(); ++i) {
    points.push_back({[&, i](std::uint64_t derived_seed) {
      ReplicaRun run = run_replica(sc, *topo, i, derived_seed);
      if (i == 0) {  // identical on every point
        exchanges = run.exchanges;
        if (run.tier) tier_report = tier_summary(*run.tier);
      }
      if (single && sc.show_links) {
        std::ostringstream os;
        os << "hottest links (flits/cycle):\n";
        for (std::size_t j = 0;
             j < std::min<std::size_t>(5, run.link_loads.size()); ++j)
          os << "  node " << run.link_loads[j].from << " port "
             << run.link_loads[j].port << ": "
             << run.link_loads[j].utilization << "\n";
        link_report = os.str();
      }
      return run.result;
    }});
  }

  SweepOptions sopts;
  sopts.num_threads = single ? 1 : sc.threads;
  sopts.base_seed = sc.seed;
  SweepRunner runner(sopts);

  std::vector<SimResult> results;
  try {
    results = runner.run(points);
  } catch (const std::exception& e) {
    std::cerr << "simulation error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "flexsim: " << topo->name() << ", " << sc.algorithm << ", "
            << sc.traffic << " traffic";
  if (sc.link_faults > 0 || sc.node_faults > 0)
    std::cout << ", " << sc.link_faults << " link + " << sc.node_faults
              << " node faults (reconfiguration: " << exchanges
              << " exchanges)";
  if (sc.network.shards > 1)
    std::cout << ", " << sc.network.shards << " shards";
  if (rule_driven_name(sc.algorithm))
    std::cout << ", exec " << cfg.get_string("exec_mode", "aot") << tier_report;
  if (!sc.swap_source.empty()) {
    std::cout << ", rule swap at cycle " << sc.swap_at << " ("
              << results[0].rule_swaps << " committed, "
              << results[0].swap_gated_cycles << " gated cycles";
    if (results[0].swap_gated_node_cycles > 0)
      std::cout << ", " << results[0].swap_gated_node_cycles
                << " gated node-cycles";
    std::cout << ")";
  }
  if (!single)
    std::cout << ", sweep of " << sc.rates.size() << " loads on "
              << runner.num_threads() << " threads";
  std::cout << "\n";

  bool deadlock = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!single) std::cout << "rate " << sc.rates[i] << ": ";
    std::cout << results[i].to_string() << "\n";
    deadlock = deadlock || results[i].deadlock_suspected;
  }
  if (!single) {
    const SweepReport rep = summarize(results);
    std::cout << rep.to_string() << "\n";
  }
  if (!link_report.empty()) std::cout << link_report;
  return deadlock ? 1 : 0;
} catch (const std::exception& e) {
  std::cerr << "config error: " << e.what() << "\n";
  return 2;
}
