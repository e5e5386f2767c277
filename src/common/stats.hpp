// Streaming statistics for simulation metrics.
#pragma once

#include <cstdint>

namespace flexrouter {

/// Single-pass mean/min/max accumulator (Welford's running mean).
class StreamingStats {
 public:
  void add(double x);
  void merge(const StreamingStats& other);

  std::int64_t count() const { return count_; }
  double mean() const;
  double min() const;
  double max() const;

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace flexrouter
