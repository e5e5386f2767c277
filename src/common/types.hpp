// Fundamental vocabulary types shared by every subsystem.
#pragma once

#include <cstdint>
#include <limits>

namespace flexrouter {

/// Index of a node (router + attached processing element) in a topology.
using NodeId = std::int32_t;
/// Index of a router port. Port 0..degree-1 are network ports; the local
/// injection/ejection port is `degree` by convention (see Topology docs).
using PortId = std::int32_t;
/// Index of a virtual channel on a physical link.
using VcId = std::int32_t;
/// Simulation time in router clock cycles.
using Cycle = std::int64_t;
/// Unique, monotonically increasing packet identifier.
using PacketId = std::int64_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr PortId kInvalidPort = -1;
inline constexpr VcId kInvalidVc = -1;

/// One (port, vc) candidate of a routing decision (routing/routing.hpp);
/// the AOT decision table (ruleengine/aot.hpp) stores and decodes these too.
/// Trivially default-constructible on purpose: RouteDecision embeds
/// kMaxCandidates of these in a StaticVector, and per-decision fast paths
/// (the AOT table tiers) construct/copy RouteDecisions every cycle — an
/// NSDMI here would zero the whole tail each time. Always
/// aggregate-initialize with all three fields; the StaticVector never
/// exposes elements past size().
/// Routers do not store these: RC folds a decision into the router's own
/// 8-byte records, one per (port, VC) pair.
struct RouteCandidate {
  PortId port;
  VcId vc;
  /// Larger = preferred; ties broken by local load (credits) then index.
  int priority;

  friend bool operator==(const RouteCandidate&, const RouteCandidate&) = default;
};

/// Compass directions for 2-D topologies. Values double as port indices on
/// mesh/torus routers (East=0, West=1, North=2, South=3, Local=4).
enum class Compass : PortId {
  East = 0,
  West = 1,
  North = 2,
  South = 3,
  Local = 4,
};

inline constexpr PortId port_of(Compass c) { return static_cast<PortId>(c); }

/// Opposite compass direction; Local maps to Local.
inline constexpr Compass opposite(Compass c) {
  switch (c) {
    case Compass::East: return Compass::West;
    case Compass::West: return Compass::East;
    case Compass::North: return Compass::South;
    case Compass::South: return Compass::North;
    case Compass::Local: return Compass::Local;
  }
  return Compass::Local;
}

inline constexpr const char* to_string(Compass c) {
  switch (c) {
    case Compass::East: return "east";
    case Compass::West: return "west";
    case Compass::North: return "north";
    case Compass::South: return "south";
    case Compass::Local: return "local";
  }
  return "?";
}

}  // namespace flexrouter
