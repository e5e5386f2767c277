// Shared helpers for the experiment-reproduction binaries: aligned table
// printing and a canonical simulation runner so every bench reports the
// same metrics the same way.
#pragma once

#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"

namespace flexrouter::bench {

inline void print_header(const std::string& title) {
  std::cout << "\n" << std::string(78, '=') << "\n"
            << title << "\n"
            << std::string(78, '=') << "\n";
}

/// Reject a malformed command line: one `usage error:` line on stderr;
/// returns the exit status (2) for main to return before anything runs.
inline int usage_error(const std::string& what) {
  std::cerr << "usage error: " << what << "\n";
  return 2;
}

/// The command line of the smoke-capable benches: [--smoke] [--json FILE].
struct SmokeArgs {
  bool smoke = false;
  std::string json_path;
};

/// Parse [--smoke] [--json FILE]; nullopt (after the usage error line) on
/// an unknown argument or a --json without its file.
inline std::optional<SmokeArgs> parse_smoke_args(int argc, char** argv) {
  SmokeArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        usage_error("--json needs a value");
        return std::nullopt;
      }
      a.json_path = argv[++i];
    } else {
      usage_error("unknown argument '" + std::string(arg) + "'");
      return std::nullopt;
    }
  }
  return a;
}

/// One table row, each cell left-aligned in `width` columns. A cell that
/// fills its column gets one separating space, so it never runs into the
/// next cell.
inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& c : cells) {
    std::cout << std::left << std::setw(width) << c;
    if (static_cast<int>(c.size()) >= width) std::cout << ' ';
  }
  std::cout << "\n";
}

inline std::string fmt(double v, int precision = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

/// Run one (network, traffic, config) point and return the result. A grid
/// point built for SweepRunner must construct algorithm and traffic inside
/// its own closure (replicas share nothing mutable) and call this.
inline SimResult run_point(const Topology& topo, RoutingAlgorithm& algo,
                           TrafficPattern& traffic, const SimConfig& cfg,
                           const std::function<void(FaultSet&)>& faults = {}) {
  Network net(topo, algo);
  if (faults) net.apply_faults(faults);
  Simulator sim(net, traffic, cfg);
  return sim.run();
}

inline SimResult run_point(const Topology& topo, RoutingAlgorithm& algo,
                           TrafficPattern& traffic, double rate,
                           int packet_length, std::uint64_t seed,
                           const std::function<void(FaultSet&)>& faults = {},
                           Cycle warmup = 800, Cycle measure = 2000) {
  SimConfig cfg;
  cfg.injection_rate = rate;
  cfg.packet_length = packet_length;
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = measure;
  cfg.seed = seed;
  return run_point(topo, algo, traffic, cfg, faults);
}

}  // namespace flexrouter::bench
