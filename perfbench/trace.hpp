// Spans timed from outside the library: a forwarding RoutingAlgorithm
// decorator and a scoped timer. Nothing here reaches into src/ — every
// figure is taken at a public call boundary.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "routing/routing.hpp"

namespace perfbench {

/// Host CPU seconds consumed by the process (CLOCK_PROCESS_CPUTIME_ID).
/// Every timing of the benchmark uses it except the per-call route() span.
/// Unlike a wall clock it leaves out time the process spends descheduled,
/// and with paravirtual steal accounting, time its vCPU was stolen. It is
/// the process's clock, not the thread's, because the one-thread sweep and
/// certification pools run their work on a worker thread. The benchmark
/// keeps one thread busy at a time, so this is the time of that work.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Adds the process CPU time of its scope to `sink` (seconds).
class Span {
 public:
  explicit Span(double& sink) : sink_(sink), t0_(cpu_seconds()) {}
  ~Span() { sink_ += cpu_seconds() - t0_; }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& sink_;
  double t0_;
};

/// Host time and call counts of the routing layer's public entry points.
struct RoutingSpans {
  double attach_s = 0.0;
  double reconfigure_s = 0.0;
  std::int64_t reconfigure_calls = 0;
  std::int64_t reconfigure_exchanges = 0;
  std::int64_t route_calls = 0;
  std::int64_t route_ns = 0;
};

/// Forwards every call to the wrapped algorithm and times attach(),
/// reconfigure() and route(). Safe to put in front of any algorithm the
/// workloads build: the Simulator only downcasts the algorithm to schedule
/// rule swaps, and no workload schedules one.
class TracedRouting final : public flexrouter::RoutingAlgorithm {
 public:
  TracedRouting(flexrouter::RoutingAlgorithm& inner, RoutingSpans& spans)
      : inner_(inner), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  int num_vcs() const override { return inner_.num_vcs(); }
  void attach(const flexrouter::Topology& topo,
              const flexrouter::FaultSet& faults) override {
    Span s(spans_.attach_s);
    inner_.attach(topo, faults);
  }
  int reconfigure() override {
    Span s(spans_.reconfigure_s);
    const int exchanges = inner_.reconfigure();
    ++spans_.reconfigure_calls;
    spans_.reconfigure_exchanges += exchanges;
    return exchanges;
  }
  // Timed on the steady clock: a CPU-time clock read is a system call
  // (about 0.4 us on a 4-vCPU Xeon VM), several times the call it would time.
  flexrouter::RouteDecision route(
      const flexrouter::RouteContext& ctx) const override {
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    flexrouter::RouteDecision d = inner_.route(ctx);
    spans_.route_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count();
    ++spans_.route_calls;
    return d;
  }
  bool is_escape_vc(flexrouter::VcId vc) const override {
    return inner_.is_escape_vc(vc);
  }
  int max_path_len() const override { return inner_.max_path_len(); }
  int path_len_class(int path_len) const override {
    return inner_.path_len_class(path_len);
  }

 private:
  flexrouter::RoutingAlgorithm& inner_;
  RoutingSpans& spans_;
};

}  // namespace perfbench
