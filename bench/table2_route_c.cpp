// Experiment T2: regenerate Table 2 — the rule bases of ROUTE_C — for the
// paper's headline configuration (64-node hypercube, a = 2) plus a sweep
// over the dimension, and compare the total rule-table memory with the
// paper's 2960-bit figure.
#include <iostream>

#include "bench_util.hpp"
#include "hwcost/evaluation.hpp"

int main() {
  using namespace flexrouter;
  bench::print_header(
      "T2 — Table 2: rule bases of ROUTE_C (d = 6, a = 2; regenerated)");
  const auto rep = hwcost::table2_route_c(6, 2);
  std::cout << rep.render() << "\n";

  std::cout << "Paper rows for comparison:\n"
            << "  decide_dir     512 x 4        (*)  6 logical units d bits "
               "wide: AND, zero check, input negate\n"
            << "  decide_vc      (4*d) x (1+a)       minimum selection, "
               "compare with constant\n"
            << "  update_state   180 x 7             conditional increment, "
               "compare with constant\n"
            << "  adaptivity     (not specified) (*)\n"
            << "\nPaper total for d=6, a=2: 2960 bits; ours: "
            << rep.program.total_table_bits << " bits.\n";

  bench::print_header("Total rule-table bits vs hypercube dimension (a = 2)");
  bench::print_row({"d", "nodes", "total bits", "paper model"});
  for (int d = 3; d <= 10; ++d) {
    const auto r = hwcost::table2_route_c(d, 2);
    // The paper's own scaling: decide_dir fixed, decide_vc 4d(1+a),
    // update_state fixed-ish, i.e. near-linear in d.
    bench::print_row({std::to_string(d),
                      std::to_string(std::int64_t{1} << d),
                      std::to_string(r.program.total_table_bits),
                      "~linear in d"});
  }
  return 0;
}
