// rulec — the paper's "Rule Compiler" as a command-line tool: parse a rule
// program, validate it, compile every rule base through ARON, and print the
// configuration report (table dimensions, feature axes, FCFB inventory,
// register budget) that Section 5 tabulates.
//
//   $ ./rulec program.rules            # compile a file
//   $ ./rulec --demo                   # compile the built-in NAFTA corpus
//   $ echo 'ON go IF 1=1 THEN !x();END' | ./rulec -
//
// Exit status: 0 on a clean compile, 1 when the program fails to parse,
// validate or compile, 2 on a malformed command line or an unreadable file.
#include <fstream>
#include <iostream>
#include <sstream>

#include "rulebases/corpus.hpp"
#include "ruleengine/hwcost.hpp"
#include "ruleengine/lexer.hpp"
#include "ruleengine/parser.hpp"
#include "ruleengine/validate.hpp"

using namespace flexrouter;

int main(int argc, char** argv) {
  std::string source;
  if (argc != 2) {
    std::cerr << "rulec: usage error: expected one argument, got "
              << argc - 1 << "\n"
              << "usage: rulec <file.rules | - | --demo>\n";
    return 2;
  }
  const std::string arg = argv[1];
  if (arg == "--demo") {
    source = rulebases::nafta_program_source(16, 16);
  } else if (arg == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    source = buf.str();
  } else {
    std::ifstream in(arg);
    if (!in.good()) {
      std::cerr << "rulec: cannot open " << arg << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  }

  // 1. Parse.
  rules::Program prog;
  try {
    prog = rules::parse_program(source);
  } catch (const rules::ParseError& e) {
    std::cerr << "rulec: syntax error: " << e.what() << "\n";
    return 1;
  }
  std::cout << "parsed program '" << prog.name << "': "
            << prog.rule_bases.size() << " rule bases, "
            << prog.variables.size() << " registers, " << prog.inputs.size()
            << " inputs\n";

  // 2. Validate.
  const auto diags = rules::validate_program(prog);
  if (!diags.empty()) {
    std::cerr << "rulec: " << diags.size() << " semantic error(s):\n";
    for (const auto& d : diags) std::cerr << "  " << d.to_string() << "\n";
    return 1;
  }
  std::cout << "validation: clean\n\n";

  // 3. Compile and report.
  try {
    rules::Interpreter interp(prog);
    std::int64_t total_bits = 0;
    for (const auto& rb : prog.rule_bases) {
      const auto compiled = rules::compile_rule_base(prog, rb, interp);
      std::cout << compiled.describe(prog.syms) << "\n";
      std::cout << "  pipeline delay: " << compiled.decision_delay_units()
                << " units (2 FCFB stages + table access)\n\n";
      total_bits += compiled.table_bits();
    }
    std::cout << "total rule-table memory: " << total_bits << " bits\n";
    std::cout << "register file: " << prog.total_register_bits() << " bits in "
              << prog.variables.size() << " registers\n";
  } catch (const rules::CompileError& e) {
    std::cerr << "rulec: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
