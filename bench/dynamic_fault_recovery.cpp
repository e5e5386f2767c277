// Dynamic fault recovery benchmark — the live fault lifecycle end to end.
//
// A link is killed in the middle of the measurement window (fault
// assumption v: faults arrive while the network operates) and the recovery
// controller runs the paper's quiescent diagnosis phase: in-flight victims
// are truncated and accounted, injection is gated while survivors drain,
// the fault is committed (epoch bump + reconfigure) and sources retransmit
// lost packets. Reported per scenario: loss/retransmission counts,
// recovery cycles, availability, and the hard accounting identity
//     delivered + unrecoverable == injected
// (every measured packet must be delivered or explicitly given up on —
// nothing may vanish).
//
// Scenarios compare the paper's two flexibility poles: NAFTA on an 8x8
// mesh vs ROUTE_C on a 4-cube, same offered load, same mid-measurement
// link kill.
//
// Also checked, because they are the contracts the lifecycle must not
// break:
//   - sweep bit-identity at 1/2/4/8 worker threads with the fault
//     schedule armed (recovery metrics included in the comparison), and
//   - the zero-allocation steady state after a live kill + recovery
//     (FLEXROUTER_COUNT_ALLOCS builds only).
//
// Usage:
//   ./dynamic_fault_recovery              # full run
//   ./dynamic_fault_recovery --smoke      # tiny cycle counts for CI
//   ./dynamic_fault_recovery --json FILE  # also emit a JSON report
#include <chrono>
#include <fstream>
#include <iostream>

#include "bench_util.hpp"
#include "routing/nafta.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace flexrouter;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kScenarios = 2;
const char* scenario_name(int s) {
  return s == 0 ? "nafta / 8x8 mesh" : "route_c / 4-cube";
}

/// One replica of scenario `s`: a single link kill halfway through the
/// measurement window, east of (3, 3) on the mesh, node 5's dimension-0
/// link on the cube.
SimResult run_recovery_point(int s, double rate, Cycle warmup, Cycle measure,
                             std::uint64_t seed) {
  Scenario sc;
  sc.algorithm = s == 0 ? "nafta" : "route_c";
  sc.topology = native_topology_kind(sc.algorithm);
  sc.size = s == 0 ? std::vector<int>{8, 8} : std::vector<int>{4};
  sc.rates = {rate};
  sc.seed = seed;
  sc.sim.warmup_cycles = warmup;
  sc.sim.measure_cycles = measure;
  const std::unique_ptr<Topology> topo = sc.make_topology();
  const auto* mesh = dynamic_cast<const Mesh*>(topo.get());
  sc.faults.fail_link_at(warmup + measure / 2, mesh ? mesh->at(3, 3) : 5,
                         mesh ? port_of(Compass::East) : 0);
  return run_replica(sc, *topo, 0, seed).result;
}

/// Zero-allocation steady state across a live kill: drive a replica by
/// hand, kill a link mid-run, drain, commit the fault, and verify that
/// post-recovery steady-state cycles stay off the heap (the truncation and
/// recovery machinery must run out of the pre-reserved pools).
bool run_alloc_guard() {
  Mesh m = Mesh::two_d(8, 8);
  Nafta algo;
  UniformTraffic tr(m);
  NetworkConfig ncfg;
  ncfg.expected_packets = 16384;
  Network net(m, algo, ncfg);
  bench::AllocGuard guard(net, tr);
  guard.run(300);
  // Live kill, quiescent drain, control-plane commit — the lifecycle the
  // Simulator's recovery controller performs, driven by hand.
  net.kill_link_live(m.at(3, 3), port_of(Compass::East));
  if (!guard.drain_and_commit()) {
    std::cerr << "alloc guard: network failed to drain after live kill\n";
    return false;
  }
  guard.run(400);  // regrow pools to the new steady state
  if (!guard.steady_state_clean()) {
    std::cerr << "ALLOCATION REGRESSION: post-recovery steady-state cycles "
                 "still allocate\n";
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

  const Cycle warmup = smoke ? 200 : 1000;
  const Cycle measure = smoke ? 800 : 4000;
  const double rate = 0.08;

  bench::print_header(
      "Dynamic fault recovery — live link kill mid-measurement");

  // --- 0. zero-allocation guard across a live kill -----------------------
  if (heap_alloc_counting_enabled()) {
    if (!run_alloc_guard()) return 1;
    std::cout << "alloc guard: post-recovery steady state allocation-free\n\n";
  }

  // --- 1. recovery comparison + accounting identity ----------------------
  SimResult scen[kScenarios];
  bench::print_row({"scenario", "delivered", "lost", "retx", "unrec",
                    "kills", "rec cycles", "avail"},
                   12);
  for (int s = 0; s < kScenarios; ++s) {
    scen[s] = run_recovery_point(s, rate, warmup, measure, 42);
    const SimResult& r = scen[s];
    std::ostringstream frac;
    frac << r.delivered_packets << "/" << r.injected_packets;
    bench::print_row(
        {scenario_name(s), frac.str(), std::to_string(r.packets_lost),
         std::to_string(r.packets_retransmitted),
         std::to_string(r.packets_unrecoverable),
         std::to_string(r.worms_killed), std::to_string(r.recovery_cycles),
         bench::fmt(r.availability, 4)},
        12);
    if (r.deadlock_suspected) {
      std::cerr << "RECOVERY FAILURE: watchdog abort in '" << scenario_name(s)
                << "'\n";
      return 1;
    }
    if (r.fault_events != 1) {
      std::cerr << "RECOVERY FAILURE: expected exactly one fault event in '"
                << scenario_name(s) << "', saw " << r.fault_events << "\n";
      return 1;
    }
    if (r.delivered_packets + r.packets_unrecoverable != r.injected_packets) {
      std::cerr << "ACCOUNTING VIOLATION in '" << scenario_name(s) << "': "
                << r.delivered_packets << " delivered + "
                << r.packets_unrecoverable << " unrecoverable != "
                << r.injected_packets << " injected\n";
      return 1;
    }
  }
  std::cout << "accounting identity: delivered + unrecoverable == injected "
               "(both scenarios)\n";

  // --- 2. sweep bit-identity with the lifecycle armed --------------------
  std::vector<SweepPoint> points;
  for (int s = 0; s < kScenarios; ++s) {
    for (const double r : {0.04, 0.08}) {
      points.push_back({[s, r, warmup, measure](std::uint64_t seed) {
        return run_recovery_point(s, r, warmup, measure, seed);
      }});
    }
  }
  const int thread_counts[] = {1, 2, 4, 8};
  std::vector<SimResult> reference;
  double serial_wall = 0.0;
  std::cout << "\n";
  bench::print_row({"threads", "points", "wall s", "bit-identical"}, 12);
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
    bench::print_row({std::to_string(t), std::to_string(points.size()),
                      bench::fmt(wall, 3), identical ? "yes" : "NO"},
                     12);
    if (!identical) {
      std::cerr << "DETERMINISM VIOLATION: recovery sweep differs at " << t
                << " threads\n";
      return 1;
    }
  }
  static_cast<void>(serial_wall);

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os.precision(17);
    os << "{\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"scenarios\": [\n";
    for (int s = 0; s < kScenarios; ++s) {
      const SimResult& r = scen[s];
      os << "    {\"name\": \"" << scenario_name(s)
         << "\", \"injected\": " << r.injected_packets
         << ", \"delivered\": " << r.delivered_packets
         << ", \"lost\": " << r.packets_lost
         << ", \"retransmitted\": " << r.packets_retransmitted
         << ", \"unrecoverable\": " << r.packets_unrecoverable
         << ", \"recovery_cycles\": " << r.recovery_cycles
         << ", \"availability\": " << r.availability << "}"
         << (s + 1 < kScenarios ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
