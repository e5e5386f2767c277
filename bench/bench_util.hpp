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

#include "common/alloc_counter.hpp"
#include "sim/fault_injector.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "topology/graph_algo.hpp"

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

/// Hand-driven network replica behind the zero-allocation guards (they run
/// only in FLEXROUTER_COUNT_ALLOCS builds). Offers the timed scenarios'
/// load — 0.10 flits per node-cycle over 4-flit packets, i.e. the
/// Simulator's packet_prob = rate / mean_length — between connected
/// healthy nodes, and checks that once the pools (rings, slab, worklists)
/// have grown to the workload's peak a cycle no longer touches the heap.
class AllocGuard {
 public:
  /// Build after any static faults: the connectivity used to pick
  /// destinations is taken from the network's fault set here.
  AllocGuard(Network& net, TrafficPattern& traffic)
      : net_(net), traffic_(traffic), comp_(components(net.faults())) {}

  /// Inject and step `cycles` cycles; the pools grow to peak here.
  void run(int cycles) {
    for (int c = 0; c < cycles; ++c) {
      inject();
      net_.step(now_++);
    }
  }

  /// Drain without injecting and commit the pending live damage: the
  /// recovery controller's quiescent diagnosis, by hand. A worm whose only
  /// candidates cross dead hardware wedges against the stale routing
  /// tables, so a 200-cycle stall gets the simulator's victim kill. False
  /// when the network does not empty within 20000 cycles.
  bool drain_and_commit() {
    StallWatch watch;
    watch.arm(net_.total_flit_movements());
    for (int c = 0; c < 20000 && !net_.idle(); ++c) {
      net_.step(now_++);
      if (watch.stalled(net_.total_flit_movements(), 200)) {
        const PacketId victim = net_.blocked_victim();
        if (victim >= 0) net_.kill_packet(victim);
      }
    }
    if (!net_.idle()) return false;
    net_.commit_pending_faults();
    comp_ = components(net_.faults());
    return true;
  }

  /// Sample the global allocation counter over 100-cycle windows; true
  /// once 3 consecutive windows allocate nothing, within 30 windows —
  /// one-time pool growth is tolerated, per-cycle churn is not.
  bool steady_state_clean() {
    int clean = 0;
    for (int window = 0; window < 30 && clean < 3; ++window) {
      const std::int64_t before = heap_alloc_count();
      run(100);
      clean = heap_alloc_count() == before ? clean + 1 : 0;
    }
    return clean >= 3;
  }

 private:
  void inject() {
    const double packet_prob = 0.10 / 4.0;
    for (NodeId s = 0; s < net_.topology().num_nodes(); ++s) {
      if (!net_.faults().node_ok(s)) continue;
      if (!rng_.next_bool(packet_prob)) continue;
      for (int attempt = 0; attempt < 8; ++attempt) {
        const NodeId d = traffic_.dest(s, rng_);
        if (d != s && comp_[static_cast<std::size_t>(d)] ==
                          comp_[static_cast<std::size_t>(s)]) {
          net_.send(s, d, 4, now_);
          break;
        }
      }
    }
  }

  Network& net_;
  TrafficPattern& traffic_;
  std::vector<int> comp_;
  Rng rng_{42};
  Cycle now_ = 0;
};

}  // namespace flexrouter::bench
