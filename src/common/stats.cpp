#include "common/stats.hpp"

#include <algorithm>

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
  mean_ += (x - mean_) / static_cast<double>(count_);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n = static_cast<double>(count_ + other.count_);
  mean_ = (mean_ * static_cast<double>(count_) +
           other.mean_ * static_cast<double>(other.count_)) /
          n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double StreamingStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double StreamingStats::min() const {
  FR_REQUIRE_MSG(count_ > 0, "min() of empty stats");
  return min_;
}

double StreamingStats::max() const {
  FR_REQUIRE_MSG(count_ > 0, "max() of empty stats");
  return max_;
}

}  // namespace flexrouter
