// Small bit-manipulation helpers used by the rule compiler's table sizing,
// the hypercube topology, and the router's VC masks and the network's node
// worklists (bitsets kept as arrays of 64-bit words).
#pragma once

#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace flexrouter {

/// Number of bits needed to represent `count` distinct values (>=1).
/// ceil(log2(count)) with bits_for(1) == 0.
inline constexpr int bits_for(std::uint64_t count) {
  FR_REQUIRE(count >= 1);
  return count == 1 ? 0 : 64 - std::countl_zero(count - 1);
}

/// ceil(log2(x)) for x >= 1.
inline constexpr int log2_ceil(std::uint64_t x) {
  FR_REQUIRE(x >= 1);
  return x == 1 ? 0 : 64 - std::countl_zero(x - 1);
}

/// floor(log2(x)) for x >= 1.
inline constexpr int log2_floor(std::uint64_t x) {
  FR_REQUIRE(x >= 1);
  return 63 - std::countl_zero(x);
}

inline constexpr bool is_pow2(std::uint64_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

inline constexpr int popcount64(std::uint64_t x) { return std::popcount(x); }

/// Word-array bitsets: bit i is bit i % 64 of words[i / 64].
inline void set_bit(std::uint64_t* words, int i) {
  words[i >> 6] |= std::uint64_t{1} << (i & 63);
}
inline void clear_bit(std::uint64_t* words, int i) {
  words[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}
inline bool test_bit(const std::uint64_t* words, int i) {
  return (words[i >> 6] >> (i & 63) & 1) != 0;
}
/// Calls visit(i) for every set bit i of the bitset whose words are
/// word(0), ..., word(nwords - 1), in ascending order. Each word is read
/// once, before its bits are visited, so a visit may change its own bit.
template <typename Word, typename Visit>
void for_each_set_bit(int nwords, Word&& word, Visit&& visit) {
  for (int w = 0; w < nwords; ++w)
    for (std::uint64_t bits = word(w); bits != 0; bits &= bits - 1)
      visit(w * 64 + std::countr_zero(bits));
}

}  // namespace flexrouter
