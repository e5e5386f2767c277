#include "hwcost/evaluation.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/bitops.hpp"
#include "rulebases/corpus.hpp"
#include "ruleengine/parser.hpp"

namespace flexrouter::hwcost {

using rules::CompileOptions;
using rules::parse_program;
using rules::Program;
using rules::report_program;

std::string TableReport::render() const {
  std::ostringstream os;
  os << title << "\n";
  os << std::left << std::setw(26) << "Name" << std::right << std::setw(12)
     << "Size (bits)" << std::setw(5) << "nft"
     << "  FCFBs | Meaning\n";
  os << std::string(100, '-') << "\n";
  for (const rules::RuleBaseReport& r : program.rule_bases) {
    std::ostringstream size;
    size << r.entries << " x " << r.width_bits;
    const auto meaning = meanings.find(r.name);
    os << std::left << std::setw(26) << r.name << std::right << std::setw(12)
       << size.str() << std::setw(5) << (r.in_nft ? "*" : "") << "  "
       << r.fcfbs << " | "
       << (meaning == meanings.end() ? "" : meaning->second) << "\n";
  }
  os << std::string(100, '-') << "\n";
  os << "total rule table memory: " << program.total_table_bits << " bits\n";
  os << "registers: " << program.num_registers << " holding "
     << program.total_register_bits << " bits";
  if (program.ft_register_bits > 0)
    os << ", " << program.ft_register_bits
       << " bits account for fault tolerance";
  os << "\n";
  return os.str();
}

TableReport table1_nafta(int width, int height) {
  const Program ft =
      parse_program(rulebases::nafta_program_source(width, height));
  const Program nft =
      parse_program(rulebases::nara_program_source(width, height));
  std::ostringstream title;
  title << "Table 1 — rule bases of NAFTA (" << width << "x" << height
        << " mesh; * = needed by the non-fault-tolerant NARA)";
  return {title.str(), report_program(ft, CompileOptions{}, &nft),
          rulebases::nafta_meanings()};
}

TableReport table2_route_c(int dimension, int adaptivity_bits) {
  const Program ft = parse_program(
      rulebases::route_c_program_source(dimension, adaptivity_bits));
  const Program nft = parse_program(
      rulebases::route_c_nft_program_source(dimension, adaptivity_bits));
  // decide_vc's direction parameter indexes the table directly (paper: 4d
  // entries) via the default direct_param_threshold.
  std::ostringstream title;
  title << "Table 2 — rule bases of ROUTE_C (d = " << dimension
        << ", a = " << adaptivity_bits
        << "; * = needed by the stripped non-FT variant)";
  return {title.str(), report_program(ft, CompileOptions{}, &nft),
          rulebases::route_c_meanings()};
}

std::int64_t combined_rulebase_bits(int dimension, int adaptivity_bits) {
  // "the combination of the two rule bases decide_dir and decide_vc requires
  //  a rule interpreter configuration with 1024 * 2^d x (d + 1 + a) bits"
  FR_REQUIRE(dimension >= 1 && dimension < 40);
  return (std::int64_t{1024} << dimension) *
         (dimension + 1 + adaptivity_bits);
}

std::int64_t route_c_register_formula(int dimension) {
  FR_REQUIRE(dimension >= 2);
  return 15 * static_cast<std::int64_t>(dimension) +
         2 * log2_ceil(static_cast<std::uint64_t>(dimension)) + 3;
}

std::int64_t route_c_register_measured(int dimension, int adaptivity_bits) {
  const Program p = parse_program(
      rulebases::route_c_program_source(dimension, adaptivity_bits));
  return p.total_register_bits();
}

}  // namespace flexrouter::hwcost
