// The host model: the one statement of the inputs a routing program's host
// supplies. The live router (routing/rule_driven.hpp) serves each row on
// every decision; the static certifier (ruleanalysis/decision_enum.hpp)
// computes every tabulable row from the decision header and enumerates
// every other input over its declared domain; the AOT dest-axis classifier
// (ruleengine/aot_classify.hpp) derives its input sets from the flags. An
// input the table does not list, or one whose host lacks what its row
// needs, is not served: the router throws when a decision reads it, the
// certifier enumerates it freely. What a program states beyond its inputs
// (route base, VC count, escape VC, injection rule, fault-tolerance claim)
// is read by ruleanalysis::model_for.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ruleengine/ast.hpp"

namespace flexrouter::rules {

/// One host-served input; kHostInputs holds its row at index `code`.
enum class HostInput : std::uint8_t {
  Node, Dest, Src, InPort, InVc, Injected, PathLen, Misrouted,
  LinkOk, LinkFault, DestReachable, OnEscape, EscapeOk, EscapePort,
  XPos, YPos, XDes, YDes, UpMask, DownMask,
  Unknown,  // not served by this host
};

/// How an input's value depends on the destination.
enum class DestDep : std::uint8_t {
  None,   // independent of it
  Sign,   // a destination coordinate: class-determined when every read is a
          // sign comparison against the matching position (the classifier
          // proves that)
  Gated,  // a host predicate of the raw destination: the sign-class table
          // stores no decision that read it
  Raw,    // raw destination bits: no sign class determines it
};

/// What the host must have to serve an input.
enum class HostNeeds : std::uint8_t {
  Nothing,
  EscapeVc,  // an up*/down* escape layer
  Mesh2D,    // a 2-D mesh
  OneIndex,  // a declaration with exactly one index (a direction)
};

struct HostInputRow {
  const char* name;
  HostInput code;
  /// Fully determined by the decision header (node, dest, in_port, in_vc),
  /// the topology and the fault set — the soundness condition of every AOT
  /// table tier, and what the certifier computes instead of enumerating.
  /// src, path_len and misrouted vary per packet outside the header.
  bool tabulable;
  DestDep dest;
  HostNeeds needs;
};

inline constexpr std::size_t kNumHostInputs =
    static_cast<std::size_t>(HostInput::Unknown);

// clang-format off
inline constexpr std::array<HostInputRow, kNumHostInputs> kHostInputs = [] {
  using enum HostInput;
  using enum DestDep;
  using enum HostNeeds;
  return std::array<HostInputRow, kNumHostInputs>{{
      // name           code           tabul. dest   needs
      {"node",           Node,          true,  None,  Nothing},
      {"dest",           Dest,          true,  Raw,   Nothing},
      {"src",            Src,           false, None,  Nothing},
      {"in_port",        InPort,        true,  None,  Nothing},
      {"in_vc",          InVc,          true,  None,  Nothing},
      {"injected",       Injected,      true,  None,  Nothing},
      {"path_len",       PathLen,       false, None,  Nothing},
      {"misrouted",      Misrouted,     false, None,  Nothing},
      {"link_ok",        LinkOk,        true,  None,  OneIndex},
      {"link_fault",     LinkFault,     true,  None,  OneIndex},
      {"dest_reachable", DestReachable, true,  Gated, Nothing},
      {"on_escape",      OnEscape,      true,  None,  EscapeVc},
      {"escape_ok",      EscapeOk,      true,  Gated, EscapeVc},
      {"escape_port",    EscapePort,    true,  Gated, EscapeVc},
      {"xpos",           XPos,          true,  None,  Mesh2D},
      {"ypos",           YPos,          true,  None,  Mesh2D},
      {"xdes",           XDes,          true,  Sign,  Mesh2D},
      {"ydes",           YDes,          true,  Sign,  Mesh2D},
      {"up_mask",        UpMask,        true,  Raw,   Nothing},
      {"down_mask",      DownMask,      true,  Raw,   Nothing},
  }};
}();
// clang-format on

constexpr const HostInputRow& host_row(HostInput code) {
  return kHostInputs[static_cast<std::size_t>(code)];
}

/// The sign-class table's read-set gate (bit c = HostInput c): a decision
/// that read a gated or raw-dest input is never stored for its class.
inline constexpr std::uint32_t kDestBoundReads = [] {
  std::uint32_t mask = 0;
  for (const HostInputRow& r : kHostInputs)
    if (r.dest == DestDep::Gated || r.dest == DestDep::Raw)
      mask |= 1u << static_cast<unsigned>(r.code);
  return mask;
}();

static_assert(static_cast<unsigned>(HostInput::Unknown) < 32,
              "read sets are 32-bit masks over HostInput");
static_assert([] {
  for (std::size_t i = 0; i < kNumHostInputs; ++i)
    if (static_cast<std::size_t>(kHostInputs[i].code) != i) return false;
  return true;
}());

/// The row named `name`, or nullptr.
constexpr const HostInputRow* find_host_input(std::string_view name) {
  for (const HostInputRow& r : kHostInputs)
    if (name == r.name) return &r;
  return nullptr;
}

/// The code a host with (or without) an escape layer and a 2-D mesh
/// serves each input `prog` declares as, by input id; Unknown if none.
inline std::vector<HostInput> resolve_host_inputs(const Program& prog,
                                                  bool escape_vc,
                                                  bool mesh2d) {
  std::vector<HostInput> codes;
  for (const InputDecl& in : prog.inputs) {
    const HostInputRow* r = find_host_input(in.name);
    const bool served =
        r != nullptr && (r->needs != HostNeeds::EscapeVc || escape_vc) &&
        (r->needs != HostNeeds::Mesh2D || mesh2d) &&
        (r->needs != HostNeeds::OneIndex || in.index_domains.size() == 1);
    codes.push_back(served ? r->code : HostInput::Unknown);
  }
  return codes;
}

}  // namespace flexrouter::rules
