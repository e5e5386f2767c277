// Reference interpreter for rule programs.
//
// Semantics (Section 4.2): on an event, premises of all rules in the bound
// rule base are conceptually checked in parallel; exactly one applicable
// rule fires (this implementation deterministically picks the first in
// source order, which the paper explicitly leaves to the implementation).
// All commands of the conclusion execute "in parallel": every right-hand
// side is evaluated against the pre-state, then all assignments commit
// atomically. Rule execution is atomic; generated events (`!event(...)`)
// are handed to the caller (the event manager) for asynchronous processing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_index.hpp"
#include "ruleengine/ast.hpp"
#include "ruleengine/env.hpp"

namespace flexrouter::rules {

struct EmittedEvent {
  std::string name;
  std::vector<Value> args;
  /// Pre-resolved dispatch, filled by the bytecode VM: id of the event in
  /// BytecodeProgram::events (-1 when produced by the interpreter) and the
  /// target rule-base index (-1 host-bound, -2 unresolved: look up by name).
  std::int32_t name_id = -1;
  std::int32_t target_rb = -2;
};

struct FireResult {
  /// Index of the rule that fired; -1 if no premise applied.
  int rule_index = -1;
  std::optional<Value> returned;
  std::vector<EmittedEvent> events;

  bool applied() const { return rule_index >= 0; }
};

/// Host-supplied resolver for INPUT signals, shared by the interpreter, the
/// ARON tables and the VM: `input_id` is the position of the input in
/// Program::inputs, `idx` the evaluated (domain-checked) index values. A
/// plain function pointer plus context, so the per-read call costs one
/// indirect call — no name dispatch, no vector build, no std::function.
/// Hosts resolve names to ids once, when they load the program.
using InputFn = Value (*)(void* ctx, std::int32_t input_id, const Value* idx,
                          std::size_t nidx);

/// Optional expression override used by the rule compiler: called on every
/// Ref/atom before normal resolution; a non-nullopt result short-circuits.
using ResolveFn = std::function<std::optional<Value>(const Expr&)>;

/// Thrown on dynamic semantic errors (type mismatch, unknown name, write
/// conflicts within one conclusion, ...).
class EvalError : public std::runtime_error {
 public:
  EvalError(const std::string& msg, int line)
      : std::runtime_error("line " + std::to_string(line) + ": " + msg) {}
};

class Interpreter {
 public:
  explicit Interpreter(const Program& prog) : prog_(&prog) {}

  /// Install the input provider (nullptr removes it: reads then throw).
  void set_input_provider(InputFn fn, void* ctx) {
    inputs_ = fn;
    inputs_ctx_ = ctx;
  }
  const Program& program() const { return *prog_; }

  /// Fire a rule base: bind `args` to its parameters, select the first
  /// applicable rule, execute its conclusion against `env`.
  FireResult fire(RuleEnv& env, const RuleBase& rb,
                  const std::vector<Value>& args);
  FireResult fire(RuleEnv& env, const std::string& rule_base,
                  const std::vector<Value>& args);

  /// Evaluate an arbitrary expression with parameter bindings against env.
  /// Exposed for the compiler (axis evaluation) and tests.
  Value eval_expr(const RuleEnv& env, const ExprPtr& e,
                  const std::vector<std::pair<std::string, Value>>& bindings,
                  const ResolveFn& override = nullptr);

  /// Constant-fold: evaluate using only literals and program constants.
  /// Returns nullopt if the expression touches state, inputs or parameters.
  std::optional<Value> try_const_eval(const ExprPtr& e) const;

  /// Compile-time evaluation for the rule compiler: `override` must resolve
  /// every stateful leaf (feature axes); reaching unresolved state or inputs
  /// throws EvalError.
  Value eval_compiletime(const ExprPtr& e, const ResolveFn& override);

  /// Execute only the conclusion of rule `rule_index` (the table already
  /// selected it). Used by CompiledRuleBase::fire; counts as one rule
  /// interpretation.
  FireResult exec_conclusion(RuleEnv& env, const RuleBase& rb, int rule_index,
                             const std::vector<Value>& args);

  /// Cumulative number of rule-base firings (one per fire() that found an
  /// applicable rule or not — every table lookup counts, matching the
  /// paper's "rule interpretations per message" metric).
  std::int64_t total_fires() const { return total_fires_; }
  void reset_counters() { total_fires_ = 0; }

  /// Builtin function id of `name` (its position in the builtin catalogue),
  /// or -1 when `name` is no builtin.
  static std::int32_t builtin_id(const std::string& name);

 private:
  struct Ctx {
    const RuleEnv* env = nullptr;           // nullptr forbids state reads
    std::vector<std::pair<std::string, Value>> bindings;
    const ResolveFn* override = nullptr;
    bool allow_inputs = true;
    int depth = 0;
  };

  /// What a Ref names once bindings are ruled out (the static half of name
  /// resolution: variable, input, constant, builtin, subbase, unknown).
  struct RefSlot {
    enum class Kind : std::uint8_t {
      Variable,
      Input,
      Constant,
      Builtin,
      Subbase,
      Unknown,
    };
    Kind kind = Kind::Unknown;
    std::int32_t id = -1;  // variable / input / builtin / rule-base index
    const Value* constant = nullptr;
  };

  Value eval(const ExprPtr& e, Ctx& ctx);
  Value eval_ref(const Expr& e, Ctx& ctx);
  Value eval_input(const Expr& e, std::int32_t input_id, Ctx& ctx);
  Value eval_binary(const Expr& e, Ctx& ctx);
  Value eval_builtin(const Expr& e, std::int32_t builtin,
                     const std::vector<Value>& args);
  std::vector<Value> domain_values(const ExprPtr& domain_expr, Ctx& ctx);

  struct PendingWrite {
    std::string name;
    std::int64_t index;
    Value value;
    int line;
  };
  void exec_cmds(const std::vector<Cmd>& cmds, Ctx& ctx, FireResult& result,
                 std::vector<PendingWrite>& writes);

  /// Resolve a Ref by name against the program's declarations.
  RefSlot resolve(const Expr& e) const;
  /// The resolution of `e`: from the table for Refs of the program's own
  /// rule bases (built on first use), by name for any other Expr.
  RefSlot slot_of(const Expr& e) const;

  const Program* prog_;
  InputFn inputs_ = nullptr;
  void* inputs_ctx_ = nullptr;
  /// The resolution of every Ref the program owns, keyed by its address.
  /// The program is immutable and outlives the interpreter, so no key can
  /// be reused by another Expr while the table is alive.
  struct RefTable {
    FlatIndex index;
    std::vector<RefSlot> slots;
  };
  /// Built on first use: every router of a rule-driven network owns an
  /// interpreter that the table tiers may never call.
  mutable std::unique_ptr<const RefTable> refs_;
  std::int64_t total_fires_ = 0;
};

}  // namespace flexrouter::rules
