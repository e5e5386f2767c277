#include "ruleengine/aot.hpp"

#include <limits>
#include <new>

namespace flexrouter::rules {

void AotTable::reset(const Dims& d) {
  FR_REQUIRE(d.nodes > 0 && d.dests > 0 && d.ports > 0 && d.vcs > 0);
  dims_ = d;
  dest_stride_ = static_cast<std::uint64_t>(d.ports) *
                 static_cast<std::uint64_t>(d.vcs);
  node_stride_ = dest_stride_ * static_cast<std::uint64_t>(d.dests);
  // All-zero bits are the unresolved entry, so calloc's zero pages are a
  // valid table without a write pass.
  entries_.reset();
  size_ = static_cast<std::size_t>(d.entry_count());
  entries_.reset(static_cast<AotEntry*>(std::calloc(size_, sizeof(AotEntry))));
  if (entries_ == nullptr) {
    size_ = 0;
    throw std::bad_alloc();
  }
}

namespace {

bool packable(const RouteCandidate& c) {
  return c.port >= std::numeric_limits<std::int8_t>::min() &&
         c.port <= std::numeric_limits<std::int8_t>::max() &&
         c.vc >= std::numeric_limits<std::int8_t>::min() &&
         c.vc <= std::numeric_limits<std::int8_t>::max() &&
         c.priority >= std::numeric_limits<std::int16_t>::min() &&
         c.priority <= std::numeric_limits<std::int16_t>::max();
}

}  // namespace

bool AotTable::set_entry(std::uint64_t flat, int steps,
                         const RouteCandidate* cands, std::size_t n) {
  FR_REQUIRE(flat < size_);
  AotEntry& e = entries_[static_cast<std::size_t>(flat)];
  FR_REQUIRE_MSG(e.steps == 0 && e.count == 0,
                 "AOT premise point resolved twice");
  if (steps < 1 || steps > std::numeric_limits<std::uint16_t>::max() ||
      n > AotEntry::kInlineCands)
    return false;
  for (std::size_t i = 0; i < n; ++i)
    if (!packable(cands[i])) return false;
  for (std::size_t i = 0; i < n; ++i)
    e.inl[i] = {static_cast<std::int8_t>(cands[i].port),
                static_cast<std::int8_t>(cands[i].vc),
                static_cast<std::int16_t>(cands[i].priority)};
  e.count = static_cast<std::uint16_t>(n);
  e.steps = static_cast<std::uint16_t>(steps);
  return true;
}

void AotTable::mark(std::uint64_t flat, std::uint16_t sentinel) {
  FR_REQUIRE(flat < size_);
  AotEntry& e = entries_[static_cast<std::size_t>(flat)];
  FR_REQUIRE_MSG(e.steps == 0 && e.count == 0,
                 "AOT premise point resolved twice");
  e.count = sentinel;
}

bool AotTable::decode(std::uint64_t flat, int& steps,
                      std::vector<RouteCandidate>& cands) const {
  FR_REQUIRE(flat < size_);
  const AotEntry& e = entries_[static_cast<std::size_t>(flat)];
  cands.clear();
  if (e.steps == 0) return false;
  steps = e.steps;
  for (std::uint32_t i = 0; i < e.count; ++i)
    cands.push_back({e.inl[i].port, e.inl[i].vc, e.inl[i].priority});
  return true;
}

AotTable::Stats AotTable::stats() const {
  Stats s;
  s.entries = size_;
  for (std::size_t i = 0; i < size_; ++i) {
    const AotEntry& e = entries_[i];
    if (e.steps != 0)
      ++s.resolved;
    else if (e.count == kUnreachableCount)
      ++s.unreachable;
    else if (e.count == kDestBoundCount)
      ++s.dest_bound;
  }
  s.fallback = s.entries - s.resolved - s.unreachable - s.dest_bound;
  s.bytes = s.entries * sizeof(AotEntry);
  return s;
}

}  // namespace flexrouter::rules
