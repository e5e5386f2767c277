// Open-addressing hash index from 64-bit keys to dense slot numbers.
//
// The analysis memos key their entries by packed integers (a flat decision
// header, an AST node address, a channel triple) and keep the entries
// themselves in a vector or deque indexed by slot. This index is the lookup
// half: one contiguous table probed linearly, so a hit costs one hash and
// usually one cache line — no node allocation per entry, no string compare.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace flexrouter {

class FlatIndex {
 public:
  static constexpr std::int32_t kMissing = -1;

  /// Slot stored for `key`, or kMissing.
  std::int32_t find(std::uint64_t key) const {
    if (size_ == 0) return kMissing;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Entry& e = table_[i];
      if (e.key == key) return e.slot;
      if (e.key == kEmpty) return kMissing;
    }
  }

  /// The slot of `key`; when absent, `slot` is stored for it first.
  /// Returns {slot of key, whether it was inserted}.
  std::pair<std::int32_t, bool> insert(std::uint64_t key, std::int32_t slot) {
    FR_REQUIRE(key != kEmpty && slot >= 0);
    if (2 * (size_ + 1) > table_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Entry& e = table_[i];
      if (e.key == key) return {e.slot, false};
      if (e.key == kEmpty) {
        e = Entry{key, slot};
        ++size_;
        return {slot, true};
      }
    }
  }

  /// Forget every key; the table keeps its capacity.
  void clear() {
    if (size_ == 0) return;
    std::fill(table_.begin(), table_.end(), Entry{});
    size_ = 0;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Entry {
    std::uint64_t key = kEmpty;
    std::int32_t slot = kMissing;
  };

  std::size_t home(std::uint64_t key) const {
    // Fibonacci hashing: the high bits of the product are well mixed even
    // for the dense, strided keys the memos use.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    const std::size_t cap = old.empty() ? 16 : old.size() * 2;
    table_.assign(cap, Entry{});
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (const Entry& e : old)
      if (e.key != kEmpty) insert(e.key, e.slot);
  }

  std::vector<Entry> table_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace flexrouter
