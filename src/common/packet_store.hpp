// Slab store for in-flight packet headers.
//
// Wormhole switching (Section 2.2): only the head flit carries routing
// information. The data plane therefore stores each in-flight packet's
// Header exactly once, in a slab owned by the Network and shared by every
// router of that replica (replicas never share a store — the sweep engine's
// determinism contract keeps them isolated). Flits shrink to 8-byte records
// that name their slot; buffers and links move those records by value.
//
// Slots are recycled through a free list: a slot released when the tail
// flit ejects is handed to a later packet. Steady-state traffic therefore
// allocates nothing — the slab only grows while the peak in-flight packet
// count is still rising. Released slots are poisoned (header reset to the
// invalid default) and access to a non-live slot is a contract violation,
// so a stale flit record aliasing a recycled slot is caught, not silently
// misrouted.
//
// Live faults (fault assumption v: faults may arrive during operation)
// add a second kind of poisoning: a *live* slot can be marked poisoned,
// which turns the packet into an orphaned worm whose flits must leave the
// network (dropped hop by hop) instead of being delivered. Every flit of
// every packet is accounted exactly once through note_flit_gone — the call
// that observes the last flit leave owns releasing the slot, which is what
// makes "zero leaked slots after truncation" checkable.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace flexrouter {

/// Index of an in-flight packet's header in a PacketStore. Slots are dense
/// and recycled; a PacketId, by contrast, is unique forever.
using PacketSlot = std::uint32_t;
inline constexpr PacketSlot kInvalidPacketSlot = 0xffffffffu;

struct Header {
  PacketId packet = -1;
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
  /// Total message length in flits (known up front — NAFTA's adaptivity
  /// criterion exploits this).
  int length = 0;
  /// Lifelock handling (Section 3): set once the message leaves a minimal
  /// path due to faults.
  bool misrouted = false;
  /// Hops travelled so far; used with misrouted for lifelock avoidance.
  int path_len = 0;
  /// Header checksum; must be updated whenever the header is modified
  /// ("the hardware has to be capable to support this").
  std::uint32_t checksum = 0;
};

class PacketStore {
 public:
  /// Claim a slot for a new in-flight packet. Reuses a released slot when
  /// one exists; only grows the slab when the free list is empty.
  PacketSlot alloc(const Header& h) {
    PacketSlot s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      s = static_cast<PacketSlot>(entries_.size());
      entries_.emplace_back();
    }
    Entry& e = entries_[static_cast<std::size_t>(s)];
    FR_ASSERT_MSG(!e.live, "free list handed out a live slot");
    e.live = true;
    e.poisoned = false;
    e.flits_left = h.length;
    e.hdr = h;
    ++live_;
    return s;
  }

  /// Retire a slot (the last flit left the network). The header is reset
  /// so stale readers trip the live-slot contract instead of aliasing the
  /// slot's next occupant.
  void release(PacketSlot s) {
    Entry& e = checked(s);
    if (e.poisoned) --poisoned_live_;
    e.live = false;
    e.poisoned = false;
    e.hdr = Header{};
    free_.push_back(s);
    --live_;
  }

  /// Mark a live packet as an orphaned worm: its flits are dropped instead
  /// of delivered from here on. Idempotent.
  void poison(PacketSlot s) {
    Entry& e = checked(s);
    if (e.poisoned) return;
    e.poisoned = true;
    ++poisoned_live_;
  }

  bool poisoned(PacketSlot s) const { return checked(s).poisoned; }

  /// Live packets currently marked poisoned. Zero means the data plane has
  /// no truncation work pending, so the per-cycle drain stage can be
  /// skipped entirely.
  std::size_t poisoned_live() const { return poisoned_live_; }

  /// One flit of the packet left the network for good (ejected at the
  /// destination or dropped during truncation). Returns true when it was
  /// the packet's last flit — the caller then owns finalising the packet
  /// and releasing the slot.
  bool note_flit_gone(PacketSlot s) {
    Entry& e = checked(s);
    FR_ASSERT_MSG(e.flits_left > 0, "more flits left the network than sent");
    return --e.flits_left == 0;
  }

  /// Flits of every live packet still somewhere in the network (queued,
  /// buffered or on a wire): the right-hand side of the flit-conservation
  /// invariant. O(slots).
  std::int64_t outstanding_flits() const {
    std::int64_t total = 0;
    for (const Entry& e : entries_)
      if (e.live) total += e.flits_left;
    return total;
  }

  /// Visit every live slot (used to orphan packets whose endpoint died).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (std::size_t i = 0; i < entries_.size(); ++i)
      if (entries_[i].live) fn(static_cast<PacketSlot>(i), entries_[i].hdr);
  }

  /// The single authoritative header of a live packet. Routers read it on
  /// head flits; only the message interface mutates it.
  Header& header(PacketSlot s) { return checked(s).hdr; }
  const Header& header(PacketSlot s) const { return checked(s).hdr; }

  bool live(PacketSlot s) const {
    return s < entries_.size() && entries_[static_cast<std::size_t>(s)].live;
  }

  /// Packets currently in flight.
  std::size_t live_count() const { return live_; }
  /// High-water mark: total slots ever created (live + recyclable).
  std::size_t slots() const { return entries_.size(); }

 private:
  struct Entry {
    Header hdr;
    int flits_left = 0;  // flits still somewhere in the network
    bool live = false;
    bool poisoned = false;
  };

  Entry& checked(PacketSlot s) {
    FR_REQUIRE_MSG(s < entries_.size(), "packet slot out of range");
    Entry& e = entries_[static_cast<std::size_t>(s)];
    FR_REQUIRE_MSG(e.live, "access to a released packet slot");
    return e;
  }
  const Entry& checked(PacketSlot s) const {
    return const_cast<PacketStore*>(this)->checked(s);
  }

  std::vector<Entry> entries_;
  std::vector<PacketSlot> free_;
  std::size_t live_ = 0;
  std::size_t poisoned_live_ = 0;
};

}  // namespace flexrouter
