// Streaming statistics and histograms for simulation metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace flexrouter {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class StreamingStats {
 public:
  void add(double x);
  void merge(const StreamingStats& other);

  std::int64_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi) with overflow/underflow bins, plus an
/// exact-percentile mode that records raw samples (used for latency tails).
class Histogram {
 public:
  Histogram(double lo, double hi, int bins, bool keep_samples = false);

  void add(double x);
  void reset();

  std::int64_t count() const { return count_; }
  std::int64_t bin_count(int bin) const;
  int bins() const { return static_cast<int>(counts_.size()); }
  double bin_lo(int bin) const;
  double bin_hi(int bin) const;
  std::int64_t underflow() const { return underflow_; }
  std::int64_t overflow() const { return overflow_; }

  /// Exact percentile if samples are kept, otherwise interpolated from bins.
  /// p in [0, 100].
  double percentile(double p) const;

  std::string ascii_render(int width = 50) const;

 private:
  double lo_, hi_;
  double bin_width_;
  std::vector<std::int64_t> counts_;
  std::int64_t underflow_ = 0;
  std::int64_t overflow_ = 0;
  std::int64_t count_ = 0;
  bool keep_samples_;
  mutable std::vector<double> samples_;  // sorted lazily by percentile()
  mutable bool sorted_ = true;
};

}  // namespace flexrouter
