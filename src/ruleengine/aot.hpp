// Ahead-of-time decision table: the whole route() cascade pre-resolved over
// the premise space a router can ever present — the same
// (node, dest, in_port, in_vc) axes the static deadlock certifier walks.
//
// The host (routing/rule_driven.*) fills it one of two ways. The eager
// tiers enumerate every premise point at reconfigure time, run the decision
// once through the VM and store the result. The sign-class tier allocates
// the table all-zero (its pages are not touched until a decision lands
// there) and stores each class's decision from the miss path. Either way
// the table is a flat direct-LUT of fixed-width 16-byte AotEntry records
// over precomputed strides, and every layout follows one store rule: a
// decision is stored only if it fits the entry (at most kInlineCands
// packable candidates, steps in 1..0xffff, no header modification);
// otherwise the point is marked fallback and the VM serves it. A table
// lookup is therefore branchless up to the fallback test — one load, no
// bytecode dispatch, no hashing, no allocation, no second memory
// dependency. Premise points outside the table (or whole programs the
// soundness analysis rejects) keep going through the VM; the entry
// encoding (steps == 0) makes the fallback test a single compare.
//
// The table is rebuilt from scratch whenever its inputs can have changed
// (fault epoch / program swap); the host tags it with the epoch it was
// built for and asserts freshness the same way the escape table does.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace flexrouter::rules {

/// One candidate packed for storage inside an AotEntry (4 bytes). Ports and
/// VCs are single-digit in every supported topology and rule priorities are
/// small constants; a decision with a candidate that does not fit is left
/// to the VM.
struct AotPackedCand {
  std::int8_t port = 0;
  std::int8_t vc = 0;
  std::int16_t priority = 0;
};

/// One AOT decision-table entry (16 bytes, POD) — the one entry format of
/// every layout. `steps == 0` marks a premise point the table does not
/// serve: the host falls back to the VM there (a real decision always
/// reports steps >= 1), and `count` may then carry a sentinel saying why.
/// A stored decision's candidates live inside the entry itself, so it is
/// served by the one cache line the entry load already touched.
struct AotEntry {
  static constexpr std::uint32_t kInlineCands = 3;

  AotPackedCand inl[kInlineCands];  // candidates [0, count)
  std::uint16_t count = 0;          // candidate count, or a steps==0 sentinel
  std::uint16_t steps = 0;          // decision cost in rule interpretations
};
static_assert(sizeof(AotEntry) == 16);

/// Flat direct-LUT over (node, dest, port-axis, vc-axis) premise points.
/// Axis conventions are the host's: the port axis collapses in_port = -1
/// (injection) to 0, so its extent is degree + 2 (−1 .. degree); the vc
/// axis collapses in_vc = -1 the same way (extent num_vcs + 1).
class AotTable {
 public:
  struct Dims {
    std::int32_t nodes = 0;
    std::int32_t dests = 0;
    std::int32_t ports = 0;  // degree + 2: in_port in -1 .. degree
    std::int32_t vcs = 0;    // num_vcs + 1: in_vc in -1 .. num_vcs-1

    std::uint64_t entry_count() const {
      return static_cast<std::uint64_t>(nodes) *
             static_cast<std::uint64_t>(dests) *
             static_cast<std::uint64_t>(ports) *
             static_cast<std::uint64_t>(vcs);
    }
  };

  struct Stats {
    std::uint64_t entries = 0;          // premise points tabulated
    std::uint64_t resolved = 0;         // entries with a stored decision
    /// Premise points no packet can dynamically present (the engine threw
    /// a contract violation evaluating them — e.g. arrival through a
    /// nonexistent boundary link). The VM fallback reproduces the throw
    /// should one ever materialize.
    std::uint64_t unreachable = 0;
    /// Sign-class entries the read-set gate left to the VM: the decision
    /// read a dest-bound input, so it holds for that dest, not its class.
    std::uint64_t dest_bound = 0;
    /// Presentable entries left to the VM: the decision does not fit the
    /// entry (mark_misrouted, steps out of range, or candidates that do not
    /// pack into it), or, on a first-touch table, no decision has reached
    /// the entry yet.
    std::uint64_t fallback = 0;
    std::uint64_t bytes = 0;  // entries x sizeof(AotEntry)

    /// Fraction of presentable premise points the table cannot serve
    /// (dest-bound entries are served by the VM by design, not left) —
    /// the rulelint --emit-table / aot_table_corpus metric.
    double fallback_fraction() const {
      const std::uint64_t presentable = entries - unreachable;
      return presentable == 0 ? 1.0
                              : static_cast<double>(fallback) /
                                    static_cast<double>(presentable);
    }
  };

  /// Sentinel in AotEntry::count (with steps == 0) distinguishing an
  /// unreachable premise point from an ordinary fallback. The fast path
  /// never reads count when steps == 0, so the encoding is free.
  static constexpr std::uint16_t kUnreachableCount = 0xffff;
  /// Sentinel in AotEntry::count (with steps == 0): a sign-class entry the
  /// read-set gate refused to store, so every decision there runs the VM.
  static constexpr std::uint16_t kDestBoundCount = 0xfffe;
  /// Sentinel in AotEntry::count (with steps == 0): an entry whose decision
  /// does not fit the entry; VM-served, counted as fallback.
  static constexpr std::uint16_t kFallbackCount = 0xfffd;

  AotTable() = default;

  /// True iff a table over `d` fits the entry budget. Oversized premise
  /// spaces are not an error — the host simply keeps the VM tier.
  static bool within_budget(const Dims& d, std::uint64_t max_entries) {
    return d.entry_count() > 0 && d.entry_count() <= max_entries;
  }

  /// Drop any previous contents and allocate `d.entry_count()` unresolved
  /// entries. The entries come from calloc, so the pages of an all-zero
  /// table stay untouched until an entry is written.
  void reset(const Dims& d);

  /// Store the decision for one premise point if it fits the entry: at most
  /// kInlineCands candidates, each packable, and steps in 1..0xffff (0 is
  /// the fallback encoding). False leaves the entry untouched. Writes only
  /// the entry, so distinct entries can be stored concurrently.
  bool set_entry(std::uint64_t flat, int steps, const RouteCandidate* cands,
                 std::size_t n);

  /// Record a premise point the engine threw on. Runtime-wise identical to
  /// an ordinary fallback (steps stays 0); only the accounting differs.
  void mark_unreachable(std::uint64_t flat) { mark(flat, kUnreachableCount); }

  /// Record a sign-class entry the read-set gate refused (kDestBoundCount).
  void mark_dest_bound(std::uint64_t flat) { mark(flat, kDestBoundCount); }

  /// Record an entry whose decision does not fit the entry (kFallbackCount).
  void mark_fallback(std::uint64_t flat) { mark(flat, kFallbackCount); }

  /// Drop the table (host bypass after external state mutation); the next
  /// fill rebuilds it from scratch.
  void clear() {
    entries_.reset();
    size_ = 0;
  }

  bool empty() const { return size_ == 0; }
  const Dims& dims() const { return dims_; }
  std::uint64_t node_stride() const { return node_stride_; }
  std::uint64_t dest_stride() const { return dest_stride_; }

  std::uint64_t flat_index(std::int32_t node, std::int32_t dest,
                           std::int32_t port_axis,
                           std::int32_t vc_axis) const {
    return (static_cast<std::uint64_t>(node) * node_stride_) +
           (static_cast<std::uint64_t>(dest) * dest_stride_) +
           (static_cast<std::uint64_t>(port_axis) *
            static_cast<std::uint64_t>(dims_.vcs)) +
           static_cast<std::uint64_t>(vc_axis);
  }

  // Raw views for the host's fast path (no bounds checks — the host proves
  // the premise point in-range before indexing).
  const AotEntry* entries_raw() const { return entries_.get(); }

  /// Decode one entry into (steps, candidates); false when the entry is
  /// unresolved (fallback, unreachable or dest-bound). For fill-time
  /// validation of the xor-fold layout — the hot path unpacks in place.
  bool decode(std::uint64_t flat, int& steps,
              std::vector<RouteCandidate>& cands) const;

  Stats stats() const;

 private:
  void mark(std::uint64_t flat, std::uint16_t sentinel);

  Dims dims_;
  std::uint64_t node_stride_ = 0;  // dests * ports * vcs
  std::uint64_t dest_stride_ = 0;  // ports * vcs
  struct FreeEntries {
    void operator()(AotEntry* p) const { std::free(p); }
  };
  std::unique_ptr<AotEntry[], FreeEntries> entries_;
  std::size_t size_ = 0;
};

}  // namespace flexrouter::rules
