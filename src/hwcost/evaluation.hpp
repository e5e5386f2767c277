// Section 5 reproduction: regenerate Table 1 (NAFTA) and Table 2 (ROUTE_C)
// from the rule-base corpus through the ARON compiler, the register-bit
// accounting, and the combined-rule-base blow-up model that justifies
// multi-step interpretation.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "ruleengine/hwcost.hpp"

namespace flexrouter::hwcost {

/// A regenerated paper table: the compiled program's report plus what the
/// paper prints beside it.
struct TableReport {
  std::string title;
  rules::ProgramReport program;
  /// The paper's "Meaning" column, by rule-base name.
  std::map<std::string, std::string> meanings;

  std::string render() const;
};

/// Table 1: NAFTA on a width x height mesh, diffed against NARA.
TableReport table1_nafta(int width = 16, int height = 16);

/// Table 2: ROUTE_C on a d-dimensional hypercube with a adaptivity bits,
/// diffed against the stripped variant. (The paper's headline: d = 6,
/// a = 2 — "the total size of 2960 bits ... is really small".)
TableReport table2_route_c(int dimension = 6, int adaptivity_bits = 2);

/// The paper's in-text blow-up: merging ROUTE_C's decide_dir and decide_vc
/// into one interpretation step needs a 1024 * 2^d x (d + 1 + a) bit table.
std::int64_t combined_rulebase_bits(int dimension, int adaptivity_bits);

/// Register-bit formula check: the paper's 15d + 2*ceil(log2 d) + 3.
std::int64_t route_c_register_formula(int dimension);
/// Register bits actually declared by the corpus program for dimension d.
std::int64_t route_c_register_measured(int dimension, int adaptivity_bits);

}  // namespace flexrouter::hwcost
