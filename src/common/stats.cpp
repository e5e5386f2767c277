#include "common/stats.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace flexrouter {

void StreamingStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(count_ + other.count_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / n;
  mean_ = (mean_ * static_cast<double>(count_) +
           other.mean_ * static_cast<double>(other.count_)) /
          n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

double StreamingStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double StreamingStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double StreamingStats::min() const {
  FR_REQUIRE_MSG(count_ > 0, "min() of empty stats");
  return min_;
}

double StreamingStats::max() const {
  FR_REQUIRE_MSG(count_ > 0, "max() of empty stats");
  return max_;
}

Histogram::Histogram(double lo, double hi, int bins, bool keep_samples)
    : lo_(lo),
      hi_(hi),
      bin_width_((hi - lo) / bins),
      counts_(static_cast<std::size_t>(bins), 0),
      keep_samples_(keep_samples) {
  FR_REQUIRE(hi > lo);
  FR_REQUIRE(bins > 0);
}

void Histogram::add(double x) {
  ++count_;
  if (keep_samples_) {
    samples_.push_back(x);
    sorted_ = false;
  }
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto bin = static_cast<std::size_t>((x - lo_) / bin_width_);
    bin = std::min(bin, counts_.size() - 1);  // guard fp rounding at hi edge
    ++counts_[bin];
  }
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  underflow_ = overflow_ = count_ = 0;
  samples_.clear();
  sorted_ = true;
}

std::int64_t Histogram::bin_count(int bin) const {
  FR_REQUIRE(bin >= 0 && bin < bins());
  return counts_[static_cast<std::size_t>(bin)];
}

double Histogram::bin_lo(int bin) const { return lo_ + bin * bin_width_; }
double Histogram::bin_hi(int bin) const { return lo_ + (bin + 1) * bin_width_; }

double Histogram::percentile(double p) const {
  FR_REQUIRE(p >= 0.0 && p <= 100.0);
  FR_REQUIRE_MSG(count_ > 0, "percentile of empty histogram");
  if (keep_samples_) {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto i = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(i);
    if (i + 1 >= samples_.size()) return samples_.back();
    return samples_[i] * (1.0 - frac) + samples_[i + 1] * frac;
  }
  // Interpolate within bins; underflow/overflow map to the range edges.
  const auto target =
      static_cast<std::int64_t>(p / 100.0 * static_cast<double>(count_));
  std::int64_t seen = underflow_;
  if (target < seen) return lo_;
  for (int b = 0; b < bins(); ++b) {
    const auto c = counts_[static_cast<std::size_t>(b)];
    if (seen + c > target && c > 0) {
      const double frac =
          static_cast<double>(target - seen) / static_cast<double>(c);
      return bin_lo(b) + frac * bin_width_;
    }
    seen += c;
  }
  return hi_;
}

std::string Histogram::ascii_render(int width) const {
  std::int64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (int b = 0; b < bins(); ++b) {
    const auto c = counts_[static_cast<std::size_t>(b)];
    const int bar =
        static_cast<int>(static_cast<double>(c) / static_cast<double>(peak) *
                         width);
    os << "[" << bin_lo(b) << ", " << bin_hi(b) << ") " << std::string(
        static_cast<std::size_t>(bar), '#')
       << " " << c << "\n";
  }
  return os.str();
}

}  // namespace flexrouter
