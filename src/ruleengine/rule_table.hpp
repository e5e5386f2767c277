// Compiled rule base: the RBR-kernel.
//
// The ARON approach (Section 4.3): the rule base is compiled off-line into a
// completely filled table. Premise processing extracts the relevant features
// of the input values; the concatenated features form a unique index into
// the table; the entry selects the conclusion to execute. Conflicts between
// rules are resolved (first rule in source order wins) and gaps are
// eliminated (every index maps to exactly one entry — infeasible feature
// combinations and no-rule-applicable map to the no-op conclusion 0).
//
// Feature axes come in two flavours, exactly as in the paper's Figure 7:
//  * Direct — a scalar signal whose individual values all matter (e.g. the
//    ROUTE_C `state` register): its full value is part of the index.
//  * Atom — a 1-bit predicate computed by a premise-processing FCFB (e.g.
//    `number_unsafe = 2`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ruleengine/fcfb.hpp"
#include "ruleengine/interp.hpp"

namespace flexrouter::rules {

struct FeatureAxis {
  enum class Kind { Direct, Atom };
  Kind kind = Kind::Atom;
  /// Canonical printed form — the substitution key during table filling.
  std::string key;
  /// The expression this axis evaluates at run time.
  ExprPtr expr;
  /// Direct: the signal's domain. Atom: boolean.
  Domain domain = Domain::boolean();

  std::uint64_t cardinality() const { return domain.cardinality(); }
};

struct CompileOptions {
  /// Symbol-domain signals up to this cardinality index directly.
  std::uint64_t direct_symbol_threshold = 32;
  /// Integer-domain signals up to this cardinality index directly; larger
  /// ones are reduced to comparison bits (paper: number_unsafe via "=2").
  std::uint64_t direct_int_threshold = 4;
  /// Rule-base parameters index directly up to this cardinality — event
  /// parameters are naturally part of the table index (paper: decide_vc is
  /// a 4d-entry table indexed by the direction).
  std::uint64_t direct_param_threshold = 32;
  /// Hard cap on table entries; exceeding it is a compile error (the paper's
  /// exponential-blow-up discussion — see bench/combined_blowup).
  std::uint64_t max_entries = std::uint64_t{1} << 22;
};

class CompileError : public std::runtime_error {
 public:
  explicit CompileError(const std::string& msg) : std::runtime_error(msg) {}
};

/// The compiled artifact. Executable (fire()) and measurable (table_bits()).
class CompiledRuleBase {
 public:
  const std::string& name() const { return name_; }
  const RuleBase& source() const { return *source_; }

  // --- hardware accounting (Tables 1 and 2) --------------------------------
  const std::vector<FeatureAxis>& axes() const { return axes_; }
  /// Table entries = product of axis cardinalities ("Size" rows half).
  std::uint64_t table_entries() const { return entries_; }
  /// Entry width in bits: conclusion selector + declared output signal.
  int table_width_bits() const { return width_bits_; }
  std::int64_t table_bits() const {
    return static_cast<std::int64_t>(entries_) * width_bits_;
  }
  int num_distinct_conclusions() const {
    return static_cast<int>(conclusions_.size());
  }
  const FcfbInventory& premise_fcfbs() const { return premise_fcfbs_; }
  const FcfbInventory& conclusion_fcfbs() const { return conclusion_fcfbs_; }
  FcfbInventory all_fcfbs() const {
    FcfbInventory inv = premise_fcfbs_;
    inv.merge(conclusion_fcfbs_);
    return inv;
  }

  /// Pipeline delay model from Section 4.3: configurable wiring (negligible)
  /// + two FCFB stages + one table access.
  double decision_delay_units() const;

  // --- execution ------------------------------------------------------------
  /// Fire through the table: evaluate axes, look up the conclusion, execute
  /// it. Semantically identical to Interpreter::fire on the source rule base
  /// (the differential tests assert this) as long as every host input is
  /// inside its declared domain: every premise axis is evaluated before the
  /// lookup, so an out-of-domain value behind a premise the interpreter
  /// short-circuits throws here only.
  FireResult fire(Interpreter& interp, RuleEnv& env,
                  const std::vector<Value>& args) const;

  std::string describe(const SymTable& syms) const;

 private:
  friend CompiledRuleBase compile_rule_base(const Program&, const RuleBase&,
                                            Interpreter&,
                                            const CompileOptions&);

  std::uint64_t flat_index(const std::vector<std::uint64_t>& axis_vals) const;

  std::string name_;
  const RuleBase* source_ = nullptr;
  std::vector<FeatureAxis> axes_;
  std::uint64_t entries_ = 1;
  int width_bits_ = 0;
  std::vector<std::string> conclusions_;  // canonical text, [0] == "<none>"
  std::vector<int> table_;                // entries_ selected rule ids (-1 = none)
  FcfbInventory premise_fcfbs_;
  FcfbInventory conclusion_fcfbs_;
};

/// Compile `rb` of `prog`. `interp` supplies constant folding; it must be an
/// interpreter over the same program.
CompiledRuleBase compile_rule_base(const Program& prog, const RuleBase& rb,
                                   Interpreter& interp,
                                   const CompileOptions& opts = {});

/// Compile every rule base of a program.
std::vector<CompiledRuleBase> compile_program(const Program& prog,
                                              Interpreter& interp,
                                              const CompileOptions& opts = {});

}  // namespace flexrouter::rules
