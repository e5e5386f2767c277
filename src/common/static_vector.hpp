// Fixed-capacity inline vector.
//
// Router hot paths build small candidate lists every cycle (output ports,
// virtual channels). A heap-allocating std::vector there dominates the
// profile, so candidate sets use this POD-friendly container instead.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>

#include "common/assert.hpp"

namespace flexrouter {

template <typename T, std::size_t N>
class StaticVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  constexpr StaticVector() {}
  constexpr StaticVector(std::initializer_list<T> init) {
    FR_REQUIRE(init.size() <= N);
    for (const T& v : init) data_[size_++] = v;
  }

  // Copy only the live prefix: decision paths copy these containers per
  // decision, and N is sized for the worst case, not the common one.
  // The tail stays unspecified — no accessor reaches past size_.
  constexpr StaticVector(const StaticVector& o) : size_(o.size_) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = o.data_[i];
  }
  constexpr StaticVector& operator=(const StaticVector& o) {
    size_ = o.size_;
    for (std::size_t i = 0; i < size_; ++i) data_[i] = o.data_[i];
    return *this;
  }

  constexpr void push_back(const T& v) {
    FR_REQUIRE_MSG(size_ < N, "StaticVector overflow");
    data_[size_++] = v;
  }

  /// Set the size to n and hand back the storage for the caller to fill —
  /// one bounds check for a whole batch instead of one per push_back
  /// (AOT candidate replay). The caller must write all n slots; elements
  /// past the old size are default-lived until then (POD use only).
  constexpr T* resize_for_overwrite(std::size_t n) {
    FR_REQUIRE_MSG(n <= N, "StaticVector overflow");
    size_ = n;
    return data_.data();
  }

  template <typename... Args>
  constexpr T& emplace_back(Args&&... args) {
    FR_REQUIRE_MSG(size_ < N, "StaticVector overflow");
    data_[size_] = T{static_cast<Args&&>(args)...};
    return data_[size_++];
  }

  constexpr void pop_back() {
    FR_REQUIRE(size_ > 0);
    --size_;
  }

  constexpr void clear() { size_ = 0; }

  /// Remove element at index i by swapping with the last (O(1), reorders).
  constexpr void swap_erase(std::size_t i) {
    FR_REQUIRE(i < size_);
    data_[i] = data_[size_ - 1];
    --size_;
  }

  constexpr T& operator[](std::size_t i) {
    FR_REQUIRE(i < size_);
    return data_[i];
  }
  constexpr const T& operator[](std::size_t i) const {
    FR_REQUIRE(i < size_);
    return data_[i];
  }

  constexpr T& front() { return (*this)[0]; }
  constexpr const T& front() const { return (*this)[0]; }
  constexpr T& back() { return (*this)[size_ - 1]; }
  constexpr const T& back() const { return (*this)[size_ - 1]; }

  constexpr std::size_t size() const { return size_; }
  static constexpr std::size_t capacity() { return N; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr bool full() const { return size_ == N; }

  constexpr iterator begin() { return data_.data(); }
  constexpr iterator end() { return data_.data() + size_; }
  constexpr const_iterator begin() const { return data_.data(); }
  constexpr const_iterator end() const { return data_.data() + size_; }

  constexpr bool contains(const T& v) const {
    for (std::size_t i = 0; i < size_; ++i)
      if (data_[i] == v) return true;
    return false;
  }

  friend constexpr bool operator==(const StaticVector& a,
                                   const StaticVector& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i)
      if (!(a.data_[i] == b.data_[i])) return false;
    return true;
  }

 private:
  std::array<T, N> data_;  // ctors initialize the live prefix
  std::size_t size_ = 0;
};

}  // namespace flexrouter
