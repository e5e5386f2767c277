// Chaos-campaign engine — availability SLO distributions under fault
// storms beyond fail-stop.
//
// Thousands of seeded fault patterns per (algorithm x topology x regime)
// are fanned out on the SweepRunner and aggregated into a scorecard that
// ranks all registered routing algorithms per fault regime. The five
// regimes (fail_stop, repair, flap, failslow, storm) and their seeded
// patterns are FaultRegime and chaos_schedule in sim/fault_schedule.hpp.
//
// Hard invariants, checked on EVERY replica:
//   - accounting identity: delivered + unrecoverable == injected and
//     lost == retransmitted + unrecoverable (nothing vanishes),
//   - no watchdog abort: deadlock_suspected must be false — structured
//     recovery has to converge even for non-fault-tolerant algorithms.
//
// The scorecard (availability mean/p50/min, recovery-time p50/p99/max from
// the pooled per-event samples, worst blocked chain) must serialise to a
// byte-identical JSON at 1, 2, 4 and 8 sweep worker threads.
//
// Usage:
//   ./chaos_campaign                 # full campaign (nightly CI)
//   ./chaos_campaign --smoke        # small pattern counts for PR CI
//   ./chaos_campaign --patterns N   # override patterns per cell
//   ./chaos_campaign --json FILE    # write the scorecard
#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "bench_util.hpp"
#include "routing/nafta.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace flexrouter;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One replica: the algorithm on its native 16-node fabric (the 4-cube or
/// a 4x4 mesh or torus, so the regimes are comparable) at 0.06 load under
/// one seeded fault pattern of the regime.
SimResult run_point(const std::string& algo_name, FaultRegime reg,
                    Cycle warmup, Cycle measure, std::uint64_t seed) {
  Scenario sc;
  sc.topology = native_topology_kind(algo_name);
  sc.size = sc.topology == TopologyKind::Hypercube ? std::vector<int>{4}
                                                   : std::vector<int>{4, 4};
  sc.algorithm = algo_name;
  sc.rates = {0.06};
  sc.seed = seed;
  sc.fault_regime = reg;
  sc.sim.warmup_cycles = warmup;
  sc.sim.measure_cycles = measure;
  // Campaign tuning: a tight watchdog window lets structured recovery kill
  // wedged worms quickly (non-fault-tolerant algorithms produce many under
  // storms), and a generous drain budget fits all those kill rounds.
  sc.sim.watchdog_window = 150;
  sc.sim.drain_limit = 200000;
  const std::unique_ptr<Topology> topo = sc.make_topology();
  return run_replica(sc, *topo, 0, seed).result;
}

/// Per-(algorithm x regime) aggregate. Every accumulation walks the sweep
/// results in point order, so the stats are bit-identical whatever thread
/// count produced them.
struct Cell {
  std::string algo;
  int patterns = 0;
  std::vector<double> avails;
  std::vector<Cycle> recovery;  // pooled per-event samples
  std::int64_t injected = 0, delivered = 0, unrecoverable = 0, lost = 0;
  std::int64_t retransmitted = 0;
  int repair_events = 0, degrade_events = 0, worms_killed = 0;
  int deadlocks = 0, accounting_violations = 0;
  std::size_t worst_blocked_chain = 0;
  double p99_latency_sum = 0.0;

  void absorb(const SimResult& r) {
    ++patterns;
    avails.push_back(r.availability);
    recovery.insert(recovery.end(), r.recovery_durations.begin(),
                    r.recovery_durations.end());
    injected += r.injected_packets;
    delivered += r.delivered_packets;
    unrecoverable += r.packets_unrecoverable;
    lost += r.packets_lost;
    retransmitted += r.packets_retransmitted;
    repair_events += r.repair_events;
    degrade_events += r.degrade_events;
    worms_killed += r.worms_killed;
    if (r.deadlock_suspected) ++deadlocks;
    if (r.delivered_packets + r.packets_unrecoverable != r.injected_packets ||
        r.packets_lost !=
            r.packets_retransmitted + r.packets_unrecoverable)
      ++accounting_violations;
    worst_blocked_chain = std::max(worst_blocked_chain,
                                   r.blocked_chain.size());
    p99_latency_sum += r.p99_latency;
  }

  double avail_mean() const {
    double sum = 0.0;
    for (const double a : avails) sum += a;
    return patterns > 0 ? sum / patterns : 1.0;
  }
  double avail_quantile(double q) const {
    if (avails.empty()) return 1.0;
    std::vector<double> v = avails;
    std::sort(v.begin(), v.end());
    const auto idx = std::min(
        v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(
                                                       v.size())));
    return v[idx];
  }
  double avail_min() const {
    double m = 1.0;
    for (const double a : avails) m = std::min(m, a);
    return m;
  }
  Cycle recovery_quantile(double q) const {
    if (recovery.empty()) return 0;
    std::vector<Cycle> v = recovery;
    std::sort(v.begin(), v.end());
    const auto idx = std::min(
        v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(
                                                       v.size())));
    return v[idx];
  }
  Cycle recovery_max() const {
    Cycle m = 0;
    for (const Cycle c : recovery) m = std::max(m, c);
    return m;
  }
  double p99_latency_mean() const {
    return patterns > 0 ? p99_latency_sum / patterns : 0.0;
  }
};

/// Ranking inside a regime: highest mean availability first; ties (the
/// failslow regime gates nothing, so every algorithm sits at 1.0) break on
/// mean p99 latency, then on name, so the order is total and
/// deterministic.
bool ranks_before(const Cell& a, const Cell& b) {
  if (a.avail_mean() != b.avail_mean()) return a.avail_mean() > b.avail_mean();
  if (a.p99_latency_mean() != b.p99_latency_mean())
    return a.p99_latency_mean() < b.p99_latency_mean();
  return a.algo < b.algo;
}

/// Serialise the full scorecard. The byte string is the bit-identity
/// artifact: campaigns at different thread counts must produce the same
/// bytes, and nightly CI archives it for cross-PR diffing.
std::string scorecard_json(
    const std::vector<std::vector<Cell>>& cells_by_regime, int patterns,
    bool smoke) {
  std::ostringstream os;
  os.precision(17);
  os << "{\n  \"smoke\": " << (smoke ? "true" : "false")
     << ",\n  \"patterns_per_cell\": " << patterns << ",\n  \"regimes\": [\n";
  for (std::size_t ri = 0; ri < cells_by_regime.size(); ++ri) {
    std::vector<Cell> ranked = cells_by_regime[ri];
    std::sort(ranked.begin(), ranked.end(), ranks_before);
    os << "    {\"regime\": \"" << fault_regime_name(kFaultRegimes[ri])
       << "\", \"ranking\": [\n";
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      const Cell& c = ranked[i];
      os << "      {\"algorithm\": \"" << c.algo << "\""
         << ", \"availability_mean\": " << c.avail_mean()
         << ", \"availability_p50\": " << c.avail_quantile(0.50)
         << ", \"availability_min\": " << c.avail_min()
         << ", \"recovery_p50\": " << c.recovery_quantile(0.50)
         << ", \"recovery_p99\": " << c.recovery_quantile(0.99)
         << ", \"recovery_max\": " << c.recovery_max()
         << ", \"worst_blocked_chain\": " << c.worst_blocked_chain
         << ", \"p99_latency_mean\": " << c.p99_latency_mean()
         << ", \"injected\": " << c.injected
         << ", \"delivered\": " << c.delivered
         << ", \"unrecoverable\": " << c.unrecoverable
         << ", \"lost\": " << c.lost
         << ", \"retransmitted\": " << c.retransmitted
         << ", \"repair_events\": " << c.repair_events
         << ", \"degrade_events\": " << c.degrade_events
         << ", \"worms_killed\": " << c.worms_killed
         << ", \"deadlocks\": " << c.deadlocks << "}"
         << (i + 1 < ranked.size() ? "," : "") << "\n";
    }
    os << "    ]}" << (ri + 1 < cells_by_regime.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

/// Zero-allocation steady state across the full chaos lifecycle: degrade,
/// live kill + drain + commit, repair + drain + commit — then the network
/// must run off the pre-reserved pools again.
bool run_alloc_guard() {
  Mesh m = Mesh::two_d(8, 8);
  Nafta algo;
  UniformTraffic tr(m);
  NetworkConfig ncfg;
  ncfg.expected_packets = 16384;
  Network net(m, algo, ncfg);
  bench::AllocGuard guard(net, tr);
  guard.run(300);
  // Live kill with its quiescent commit first (hand-driven drains have no
  // watchdog, so the kill runs from the proven healthy-table state), then
  // the fail-slow throttle (applied live, no drain needed — and once the
  // tables know the dead link, a throttled link only delays worms, it
  // cannot wedge them), then the repair with its own commit.
  net.kill_link_live(m.at(3, 3), port_of(Compass::East));
  if (!guard.drain_and_commit()) {
    std::cerr << "alloc guard: network failed to drain after live kill\n";
    return false;
  }
  net.degrade_link_live(m.at(5, 5), port_of(Compass::East), 4);
  guard.run(300);
  if (!net.repair_link_live(m.at(3, 3), port_of(Compass::East))) {
    std::cerr << "alloc guard: repair of the killed link did not queue\n";
    return false;
  }
  if (!guard.drain_and_commit()) {
    std::cerr << "alloc guard: network failed to drain before repair\n";
    return false;
  }
  guard.run(400);  // regrow pools to the new steady state
  if (!guard.steady_state_clean()) {
    std::cerr << "ALLOCATION REGRESSION: post-chaos steady-state cycles "
                 "still allocate\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flexrouter;
  bool smoke = false;
  int patterns = 0;
  std::string json_path;
  // A malformed command line exits 2 with one `usage error:` line before
  // anything runs, like flexsim's config errors.
  using bench::usage_error;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (arg != "--json" && arg != "--patterns")
      return usage_error("unknown argument '" + std::string(arg) + "'");
    if (i + 1 >= argc)
      return usage_error(std::string(arg) + " needs a value");
    const std::string_view value = argv[++i];
    if (arg == "--json") {
      json_path = value;
      continue;
    }
    const char* end = value.data() + value.size();
    const auto [parsed_to, ec] = std::from_chars(value.data(), end, patterns);
    if (ec != std::errc() || parsed_to != end || patterns <= 0)
      return usage_error("--patterns wants a positive integer, got '" +
                         std::string(value) + "'");
  }
  if (patterns == 0) patterns = smoke ? 8 : 1000;
  const Cycle warmup = smoke ? 150 : 200;
  const Cycle measure = smoke ? 600 : 1200;

  bench::print_header("Chaos campaign — fault storms beyond fail-stop");

  if (heap_alloc_counting_enabled()) {
    if (!run_alloc_guard()) return 1;
    std::cout << "alloc guard: post-chaos steady state allocation-free\n\n";
  }

  const std::vector<std::string> algos = algorithm_names();
  const std::size_t num_regimes = std::size(kFaultRegimes);

  // One sweep point per (regime, algorithm, pattern), flattened in that
  // order; the point's derived seed is the pattern seed.
  std::vector<SweepPoint> points;
  points.reserve(num_regimes * algos.size() *
                 static_cast<std::size_t>(patterns));
  for (std::size_t ri = 0; ri < num_regimes; ++ri) {
    const FaultRegime reg = kFaultRegimes[ri];
    for (const std::string& algo : algos) {
      for (int p = 0; p < patterns; ++p) {
        points.push_back({[algo, reg, warmup, measure](std::uint64_t seed) {
          return run_point(algo, reg, warmup, measure, seed);
        }});
      }
    }
  }
  std::cout << points.size() << " replicas: " << num_regimes << " regimes x "
            << algos.size() << " algorithms x " << patterns
            << " fault patterns\n\n";

  std::string reference_json;
  bench::print_row({"threads", "wall s", "scorecard"}, 12);
  for (const int threads : {1, 2, 4, 8}) {
    SweepOptions opts;
    opts.num_threads = threads;
    opts.base_seed = 1898;  // the paper's router, the campaign's seed
    SweepRunner runner(opts);
    const auto t0 = Clock::now();
    const std::vector<SimResult> results = runner.run(points);
    const double wall = seconds_since(t0);

    // Aggregate in point order (index-ordered results: thread-count
    // independent), then serialise.
    std::vector<std::vector<Cell>> cells(num_regimes);
    std::size_t idx = 0;
    int violations = 0, deadlocks = 0;
    for (std::size_t ri = 0; ri < num_regimes; ++ri) {
      cells[ri].resize(algos.size());
      for (std::size_t ai = 0; ai < algos.size(); ++ai) {
        cells[ri][ai].algo = algos[ai];
        for (int p = 0; p < patterns; ++p) cells[ri][ai].absorb(results[idx++]);
        violations += cells[ri][ai].accounting_violations;
        deadlocks += cells[ri][ai].deadlocks;
      }
    }
    const std::string json = scorecard_json(cells, patterns, smoke);
    const bool identical = reference_json.empty() || json == reference_json;
    if (reference_json.empty()) reference_json = json;
    bench::print_row({std::to_string(threads), bench::fmt(wall, 2),
                      identical ? "identical" : "DIVERGED"},
                     12);
    if (violations > 0) {
      std::cerr << "ACCOUNTING VIOLATION: " << violations
                << " replicas broke delivered + unrecoverable == injected\n";
      return 1;
    }
    if (deadlocks > 0) {
      std::cerr << "RECOVERY FAILURE: " << deadlocks
                << " replicas aborted on the watchdog\n";
      return 1;
    }
    if (!identical) {
      std::cerr << "DETERMINISM VIOLATION: scorecard differs at " << threads
                << " threads\n";
      return 1;
    }

    // Print the ranking tables once (they are identical afterwards).
    if (threads == 1) {
      for (std::size_t ri = 0; ri < num_regimes; ++ri) {
        std::vector<Cell> ranked = cells[ri];
        std::sort(ranked.begin(), ranked.end(), ranks_before);
        std::cout << "\n--- regime: " << fault_regime_name(kFaultRegimes[ri])
                  << " ---\n";
        bench::print_row({"algorithm", "avail", "av p50", "av min", "rec p50",
                          "rec p99", "rec max", "chain", "unrec"},
                         10);
        for (const Cell& c : ranked) {
          bench::print_row(
              {c.algo, bench::fmt(c.avail_mean(), 4),
               bench::fmt(c.avail_quantile(0.50), 4),
               bench::fmt(c.avail_min(), 4),
               std::to_string(c.recovery_quantile(0.50)),
               std::to_string(c.recovery_quantile(0.99)),
               std::to_string(c.recovery_max()),
               std::to_string(c.worst_blocked_chain),
               std::to_string(c.unrecoverable)},
              10);
        }
      }
      std::cout << "\naccounting identity held on every replica; no watchdog "
                   "aborts\n\n";
    }
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << reference_json;
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
