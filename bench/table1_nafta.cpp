// Experiment T1: regenerate Table 1 — the rule bases of NAFTA, their
// compiled table sizes, FCFB inventories and non-FT markers — and print the
// paper's published numbers next to ours.
#include <iostream>

#include "bench_util.hpp"
#include "hwcost/evaluation.hpp"

namespace {

struct PaperRow {
  const char* name;
  const char* size;
  bool nft;
  const char* fcfbs;
};

// Table 1 of the paper, verbatim.
const PaperRow kPaper[] = {
    {"incoming_message", "1024 x 8", true,
     "2 x magnitude comparator, minimum selection, mesh distance "
     "computation, membership testing"},
    {"in_message_ft", "256 x 7", false, "logical unit, minimum selection"},
    {"update_dir_table", "64 x 28", false, "set subtraction"},
    {"message_finished", "64 x 8", true, "minimum selection, 4 decrementors"},
    {"calculate_new_node_state", "64 x 9", false,
     "computation in a finite lattice, set difference, state comparison"},
    {"test_exception", "32 x 9", false, "membership testing"},
    {"tell_my_neighbors", "16 x 4", true, "no FCFB needed"},
    {"flit_finished", "4 x 4", true, "decrementor, adder, comparator"},
    {"fault_occured", "3 x 4", false, "2 x membership testing, set union"},
    {"message_from_info_channel", "2 x 3", true, "no FCFB needed"},
    {"consider_neighbor_state", "2 x 7", false,
     "incrementor, computation in a finite lattice, integer comparison "
     "with const."},
};

}  // namespace

int main() {
  using namespace flexrouter;
  bench::print_header(
      "T1 — Table 1: rule bases of NAFTA (regenerated from the corpus "
      "through the ARON compiler)");

  const auto rep = hwcost::table1_nafta(16, 16);
  std::cout << rep.render() << "\n";

  bench::print_header("Paper vs regenerated (entries x width)");
  bench::print_row({"rule base", "paper", "ours", "nft paper", "nft ours"},
                   26);
  for (const PaperRow& p : kPaper) {
    for (const auto& r : rep.program.rule_bases) {
      if (r.name != p.name) continue;
      std::ostringstream ours;
      ours << r.entries << " x " << r.width_bits;
      bench::print_row({p.name, p.size, ours.str(), p.nft ? "*" : "",
                        r.in_nft ? "*" : ""},
                       26);
    }
  }
  std::cout << "\nPaper register budget: 159 bits in 8 registers, 47 bits "
               "for fault tolerance.\n"
            << "Ours:                  " << rep.program.total_register_bits
            << " bits in " << rep.program.num_registers << " registers, "
            << rep.program.ft_register_bits
            << " bits for fault tolerance.\n";
  return 0;
}
