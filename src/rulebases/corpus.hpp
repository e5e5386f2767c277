// The rule-base corpus: the routing algorithms of Section 5 written in the
// rule language.
//
// Two kinds of programs live here:
//  * Runnable decision programs (`nara_route_source`) that drive the
//    simulated router through RuleDrivenRouting and are differentially
//    tested against the native C++ implementations.
//  * The hardware-accounting corpora for Tables 1 and 2
//    (`nafta_program_source` / `route_c_program_source` and their stripped
//    non-fault-tolerant variants): one rule base per row of the paper's
//    tables, with register budgets matching the published counts
//    (NAFTA: 159 bits in 8 registers, 47 FT-only; ROUTE_C:
//    15d + 2*ceil(log2 d) + 3 bits in 9 registers, 9d of them non-FT).
//    These compile through the ARON compiler; bench/table1_nafta and
//    bench/table2_route_c print the regenerated tables next to the paper's
//    numbers.
// Programs close with the host-model constants their rules cannot show
// (escape VC, fault-tolerance claim, injection rule, ROUTE_C's VC count),
// which ruleanalysis::model_for reads; appended last, they shift no rule's
// line number.
#pragma once

#include <map>
#include <string>

namespace flexrouter::rulebases {

/// Runnable NARA decision program for a width x height mesh (2 VCs).
std::string nara_route_source(int width, int height);

/// Runnable e-cube decision program for a d-dimensional hypercube (1 VC):
/// corrects the lowest differing address bit first, using the bit/xor
/// builtins. Differential-tested against the native ECubeHypercube.
std::string ecube_route_source(int dimension);

/// The same e-cube discipline with the opposite dimension order (highest
/// differing bit first). Still deadlock-free dimension-ordered routing, but
/// a genuinely different routing function at every multi-bit premise point
/// — the live hot-swap scenario's "new program" (bench/rule_hotswap,
/// tests/test_aot).
std::string ecube_msb_route_source(int dimension);

/// Runnable FAULT-TOLERANT mesh decision program (3 VCs: the NARA double
/// networks on 0/1, filtered by link health, plus the hardware escape layer
/// on VC 2 via the escape_* inputs of the host model). The program declares
/// its escape VC and fault-tolerance claim; construct the algorithm from
/// the model it states:
///   const auto m = ruleanalysis::model_for(rules::parse_program(src));
///   RuleDrivenRouting(src, m->num_vcs, rules::ExecMode::Table,
///                     m->route_base, m->escape_vc)
/// — the paper's goal realised end to end: a fault-tolerant adaptive
/// algorithm expressed entirely as rules and executed by the rule
/// interpreter inside every router.
std::string ft_mesh_route_source(int width, int height);

/// Table 1 corpus: the full fault-tolerant NAFTA program.
std::string nafta_program_source(int width, int height);
/// The non-fault-tolerant variant (NARA): exactly the rule bases marked
/// "nft" in Table 1 and the non-FT registers.
std::string nara_program_source(int width, int height);

/// Table 2 corpus: ROUTE_C for a d-dimensional hypercube with `a` bits of
/// adaptivity command, and its stripped 2-VC variant.
std::string route_c_program_source(int dimension, int adaptivity_bits);
std::string route_c_nft_program_source(int dimension, int adaptivity_bits);

/// The "Meaning" column of Tables 1 and 2 (rule base name -> description).
const std::map<std::string, std::string>& nafta_meanings();
const std::map<std::string, std::string>& route_c_meanings();

}  // namespace flexrouter::rulebases
