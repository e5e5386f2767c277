#include "sim/sweep.hpp"

#include <exception>
#include <sstream>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace flexrouter {

std::uint64_t sweep_point_seed(std::uint64_t base_seed,
                               std::uint64_t point_key) {
  // Two SplitMix64 steps over a golden-ratio spread of the key: the first
  // decorrelates (base, key) pairs, the second whitens. Avoids 0 so the
  // xoshiro reseed never sees an all-zero expansion input.
  SplitMix64 sm(base_seed ^ (0x9e3779b97f4a7c15ULL * (point_key + 1)));
  sm.next();
  const std::uint64_t s = sm.next();
  return s != 0 ? s : 0x5eed5eed5eed5eedULL;
}

SweepRunner::SweepRunner(const SweepOptions& opts)
    : pool_(resolve_threads(opts.num_threads)), base_seed_(opts.base_seed) {}

std::vector<SimResult> SweepRunner::run(const std::vector<SweepPoint>& points) {
  std::vector<SimResult> results(points.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    FR_REQUIRE_MSG(static_cast<bool>(p.run), "SweepPoint without a run fn");
    const std::uint64_t key =
        p.key == SweepPoint::kAutoKey ? static_cast<std::uint64_t>(i) : p.key;
    const std::uint64_t seed = sweep_point_seed(base_seed_, key);
    SimResult* slot = &results[i];
    tasks.push_back([&p, seed, slot] { *slot = p.run(seed); });
  }
  run_tasks(tasks);
  return results;
}

void SweepRunner::run_tasks(const std::vector<std::function<void()>>& tasks) {
  // A task calling back into its own runner would overwrite the running
  // batch on the shared pool.
  FR_REQUIRE_MSG(!running_.exchange(true), "SweepRunner::run is not reentrant");
  struct Batch {
    const std::vector<std::function<void()>>* tasks;
    std::vector<std::exception_ptr> errors;
  } batch{&tasks, std::vector<std::exception_ptr>(tasks.size())};
  pool_.run(
      static_cast<int>(tasks.size()),
      [](void* c, int i) {
        auto* b = static_cast<Batch*>(c);
        const auto slot = static_cast<std::size_t>(i);
        try {
          (*b->tasks)[slot]();
        } catch (...) {
          b->errors[slot] = std::current_exception();
        }
      },
      &batch);
  running_.store(false);
  for (const std::exception_ptr& e : batch.errors)
    if (e) std::rethrow_exception(e);
}

SweepReport summarize(const std::vector<SimResult>& results) {
  SweepReport rep;
  rep.points = static_cast<std::int64_t>(results.size());
  StreamingStats lat, p50, p99, thpt, hops, ratio, mis, steps;
  for (const SimResult& r : results) {
    rep.deadlocks += r.deadlock_suspected ? 1 : 0;
    rep.injected_packets += r.injected_packets;
    rep.delivered_packets += r.delivered_packets;
    lat.add(r.avg_latency);
    p50.add(r.p50_latency);
    p99.add(r.p99_latency);
    thpt.add(r.throughput);
    hops.add(r.avg_hops);
    ratio.add(r.min_hops_ratio);
    mis.add(r.misrouted_fraction);
    steps.add(r.avg_decision_steps);
  }
  const auto metric = [](const StreamingStats& s) {
    SweepReport::Metric m;
    if (s.count() > 0) {
      m.mean = s.mean();
      m.min = s.min();
      m.max = s.max();
    }
    return m;
  };
  rep.avg_latency = metric(lat);
  rep.p50_latency = metric(p50);
  rep.p99_latency = metric(p99);
  rep.throughput = metric(thpt);
  rep.avg_hops = metric(hops);
  rep.min_hops_ratio = metric(ratio);
  rep.misrouted_fraction = metric(mis);
  rep.avg_decision_steps = metric(steps);
  return rep;
}

std::string SweepReport::to_string() const {
  std::ostringstream os;
  os << "sweep: " << points << " points, " << delivered_packets << "/"
     << injected_packets << " delivered";
  if (deadlocks > 0) os << ", " << deadlocks << " deadlock-suspected";
  os << "; avg_lat mean=" << avg_latency.mean << " [" << avg_latency.min
     << ", " << avg_latency.max << "]"
     << "; thpt mean=" << throughput.mean << " [" << throughput.min << ", "
     << throughput.max << "]";
  return os.str();
}

namespace {

void json_metric(std::ostringstream& os, const std::string& pad,
                 const char* name, const SweepReport::Metric& m, bool last) {
  os << pad << "\"" << name << "\": {\"mean\": " << m.mean
     << ", \"min\": " << m.min << ", \"max\": " << m.max << "}"
     << (last ? "\n" : ",\n");
}

}  // namespace

std::string SweepReport::to_json(int indent) const {
  const std::string pad0(static_cast<std::size_t>(indent), ' ');
  const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
  std::ostringstream os;
  os.precision(17);
  os << pad0 << "{\n";
  os << pad << "\"points\": " << points << ",\n";
  os << pad << "\"deadlocks\": " << deadlocks << ",\n";
  os << pad << "\"injected_packets\": " << injected_packets << ",\n";
  os << pad << "\"delivered_packets\": " << delivered_packets << ",\n";
  json_metric(os, pad, "avg_latency", avg_latency, false);
  json_metric(os, pad, "p50_latency", p50_latency, false);
  json_metric(os, pad, "p99_latency", p99_latency, false);
  json_metric(os, pad, "throughput", throughput, false);
  json_metric(os, pad, "avg_hops", avg_hops, false);
  json_metric(os, pad, "min_hops_ratio", min_hops_ratio, false);
  json_metric(os, pad, "misrouted_fraction", misrouted_fraction, false);
  json_metric(os, pad, "avg_decision_steps", avg_decision_steps, true);
  os << pad0 << "}";
  return os.str();
}

}  // namespace flexrouter
