// Dest-axis classification for the AOT decision table: static proofs that a
// routing program's decision depends on the destination only through a small
// derived quantity, so the table's dest axis can collapse from N node ids to
// O(degree) classes. Two classifiers are recognised:
//
//  * XorFold — every read of `node` / `dest` occurs inside `xor(node, dest)`
//    or as a direct `node = dest` / `node <> dest` comparison, and no other
//    node-dependent input is read. The decision is then a function of
//    (node ^ dest, in_port, in_vc) alone — both id axes collapse to one
//    xor-class axis (e-cube / dimension-order programs on hypercubes).
//  * OffsetSign2D — every read of `xdes` / `ydes` occurs as a direct
//    comparison against `xpos` / `ypos` respectively. Any comparison between
//    a position and the matching destination coordinate is a function of the
//    per-axis offset *sign*, so the dest axis collapses to the nine
//    (sgn dx, sgn dy) combinations while the node axis stays (node-scoped
//    inputs like link_ok, and on_escape, remain legal) — DOR / NARA /
//    ft_mesh-style mesh programs. The inputs the host model
//    (ruleengine/host_model.hpp) marks gated — `dest_reachable`,
//    `escape_ok`, `escape_port` — are admitted as well: they are not
//    class-determined, so the host gates them per decision (a decision that
//    read one is served by the VM, never stored for its class), and the
//    verdict names the ones the program reads.
//
// The analysis is conservative: it walks every rule reachable from the
// decision rule base (the same traversal as analyze_reachable) and rejects
// on the first read it cannot prove class-determined or gateable — e.g. a
// raw `dest` read outside `xor(node, dest)`. Both proofs match inputs by
// name, so a program in which a rule-base parameter, quantifier or FORALL
// variable reuses an input's name (and so shadows it) is refused outright.
// The host validates an xor-fold verdict against the VM during the eager
// fill and demotes to the VM tier on any mismatch; the offset-sign table
// stores what the VM answered at the first touch of each class, under the
// read-set gate. The differential tests (tests/test_aot.cpp,
// tests/test_fuzz_rules.cpp) check both over whole premise spaces.
#pragma once

#include <cstdint>
#include <string>

#include "ruleengine/ast.hpp"

namespace flexrouter::rules {

enum class DestClassifier : std::uint8_t {
  None = 0,      // dest axis cannot be collapsed
  XorFold,       // class = node ^ dest (node axis collapses too)
  OffsetSign2D,  // class = (sgn(ydes-ypos), sgn(xdes-xpos)); node axis stays
};

const char* to_string(DestClassifier c);

struct DestClassAnalysis {
  DestClassifier kind = DestClassifier::None;
  /// Human-readable verdict: which proof succeeded, or the first read that
  /// blocked both (surfaced by rulelint --emit-table and flexsim).
  std::string reason;
};

/// Decide whether the premise space reachable from rule base `root` admits
/// a dest-axis classifier. Purely syntactic — host applicability (2-D mesh
/// for OffsetSign2D, tabulable program) is the caller's business.
DestClassAnalysis classify_dest_axis(const Program& prog,
                                     const std::string& root);

}  // namespace flexrouter::rules
