// Deterministic parallel sweep engine.
//
// Every experiment in EXPERIMENTS.md walks a (fault set x offered load x
// seed) grid of completely independent simulations. SweepRunner runs those
// grid points on a fixed-size worker pool, one (Network, TrafficPattern,
// Simulator) replica per point, and guarantees the result vector is
// bit-identical to serial execution regardless of thread count or
// scheduling:
//
//   - each point's RNG seed is derived by a SplitMix64-style hash of
//     (base_seed, point key), never from shared generator state;
//   - a point builds all of its mutable objects (algorithm, traffic,
//     network, simulator) inside its own task — replicas share only
//     immutable data (the Topology);
//   - results land in an index-ordered vector slot, so completion order
//     is irrelevant.
//
// The determinism contract and the step pipeline it drives are documented
// in docs/SIMULATOR.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/worker_pool.hpp"

namespace flexrouter {

/// Derive the RNG seed for one grid point. Pure SplitMix64-style hash of
/// (base_seed, point_key): O(1), collision-resistant across neighbouring
/// keys, and independent of grid order or thread schedule.
std::uint64_t sweep_point_seed(std::uint64_t base_seed,
                               std::uint64_t point_key);

struct SweepOptions {
  /// Worker threads, including the calling thread (0 = resolve_threads:
  /// the FLEXROUTER_THREADS environment variable if set, otherwise the
  /// core count).
  int num_threads = 0;
  /// Base seed every per-point seed is derived from.
  std::uint64_t base_seed = 1;
};

/// One grid point: a closure that builds and runs its own replica. The
/// closure receives the derived per-point seed; it may ignore it when the
/// bench pins historical seeds (tables stay comparable across PRs).
struct SweepPoint {
  static constexpr std::uint64_t kAutoKey = ~0ULL;

  std::function<SimResult(std::uint64_t seed)> run;
  /// Seed-derivation identity. kAutoKey = use the point's grid index, so
  /// identical grids give identical seeds; set explicitly when the grid
  /// may be reordered but points must keep their seeds.
  std::uint64_t key = kAutoKey;
};

/// Grid runner over one WorkerPool: the calling thread is worker 0, so a
/// one-thread runner runs every point on the caller. Construction spawns
/// the workers once; run()/run_tasks() may be called repeatedly, but not
/// from inside one of the runner's own points (a ContractViolation).
/// Destruction joins.
class SweepRunner {
 public:
  explicit SweepRunner(const SweepOptions& opts = {});

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  int num_threads() const { return pool_.threads(); }
  std::uint64_t base_seed() const { return base_seed_; }

  /// Run every grid point; result i belongs to points[i] no matter which
  /// worker ran it or when. After the whole batch settles, the exception
  /// of the lowest-index point that threw is rethrown here, so the
  /// reported error never depends on thread timing. A point that merely
  /// reports deadlock_suspected is a normal result — it never stalls the
  /// pool or its siblings.
  std::vector<SimResult> run(const std::vector<SweepPoint>& points);

  /// Generic fan-out for non-simulation grids (hardware-cost tables and
  /// the like): runs every task, blocks until all complete, then rethrows
  /// like run().
  void run_tasks(const std::vector<std::function<void()>>& tasks);

 private:
  WorkerPool pool_;
  std::uint64_t base_seed_;
  std::atomic<bool> running_{false};
};

/// Aggregate over an index-ordered result vector: mean/min/max per metric,
/// plus delivery and deadlock totals.
struct SweepReport {
  struct Metric {
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  std::int64_t points = 0;
  std::int64_t deadlocks = 0;
  std::int64_t injected_packets = 0;
  std::int64_t delivered_packets = 0;
  Metric avg_latency, p50_latency, p99_latency, throughput, avg_hops,
      min_hops_ratio, misrouted_fraction, avg_decision_steps;

  std::string to_string() const;
  /// JSON object (bench_util conventions: snake_case keys, one object per
  /// metric with mean/min/max), for inclusion in BENCH_*.json files.
  std::string to_json(int indent = 2) const;
};

SweepReport summarize(const std::vector<SimResult>& results);

}  // namespace flexrouter
