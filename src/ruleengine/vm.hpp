// Register-based virtual machine executing compiled rule programs.
//
// One Vm owns the execution state for one node: a frame stack of Value
// registers, a pending-write list (the language's parallel-commit buffer)
// and the host's input provider, which serves inputs by id (the operand
// of Op::LoadInput) and never by name. The compiled BytecodeProgram is
// shared across all Vms of a network.
//
// Vm::fire() is a drop-in replacement for Interpreter::fire(): same results
// (fired rule, RETURN, emitted events, register commits) and same dynamic
// error behaviour (EvalError vs ContractViolation, messages, ordering) —
// enforced by the differential tests in tests/test_vm.cpp.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "ruleengine/bytecode.hpp"
#include "ruleengine/env.hpp"
#include "ruleengine/interp.hpp"

namespace flexrouter::rules {

/// Raw event sink for the decision path: invoked during Op::Emit for events
/// emitted by the outermost frame (subbase frames keep pooling so the
/// "no emissions inside an expression" contract stays enforced). `args`
/// points into the live register file — copy what must outlive the call.
using HostSinkFn = void (*)(void* ctx, std::int32_t name_id,
                            std::int32_t target_rb, const Value* args,
                            std::size_t nargs);

class Vm {
 public:
  Vm(std::shared_ptr<const BytecodeProgram> bc, RuleEnv& env)
      : bc_(std::move(bc)), prog_(&bc_->program()), env_(&env) {}

  /// Install the input provider (same contract as Interpreter's).
  void set_input_provider(InputFn fn, void* ctx) {
    inputs_ = fn;
    inputs_ctx_ = ctx;
  }

  FireResult fire(int rb_index, const std::vector<Value>& args);

  /// Decision-path firing: identical semantics to fire(), but top-level
  /// emissions are delivered to `sink` as they happen instead of being
  /// returned — nothing is materialized, and the steady state allocates
  /// nothing. Candidate handling observes them mid-run rather than
  /// post-commit, which is indistinguishable for pure consumers (a throwing
  /// fire abandons the decision either way).
  std::optional<Value> fire_fast(int rb_index, const std::vector<Value>& args,
                                 HostSinkFn sink, void* sink_ctx);

  const BytecodeProgram& bytecode() const { return *bc_; }

  /// Rule-base firings, counted like Interpreter::total_fires().
  std::int64_t total_fires() const { return total_fires_; }
  void reset_counters() { total_fires_ = 0; }

 private:
  struct RunResult {
    int rule_index = -1;
    int fired_line = 0;
    std::optional<Value> returned;
  };
  struct Pending {
    std::int32_t var;
    std::int64_t index;
    Value value;
  };

  RunResult fire_core(int rb_index, const std::vector<Value>& args,
                      HostSinkFn sink, void* sink_ctx);
  void run(int rb_index, const Value* args, std::size_t nargs, RunResult& res);
  Value call_sub(std::int32_t rb_id, const std::vector<Value>& args,
                 std::int32_t line);

  std::shared_ptr<const BytecodeProgram> bc_;
  const Program* prog_;
  RuleEnv* env_;
  InputFn inputs_ = nullptr;
  void* inputs_ctx_ = nullptr;
  HostSinkFn sink_ = nullptr;  // live only while a sinked fire runs
  void* sink_ctx_ = nullptr;
  std::vector<Value> regs_;      // frame stack (subbase calls push frames)
  std::size_t frame_top_ = 0;
  std::vector<Pending> writes_;  // pending parallel writes, all live calls
  std::vector<EmittedEvent> pool_;  // emitted events, recycled across fires
  std::size_t pool_used_ = 0;
  std::int64_t total_fires_ = 0;
};

}  // namespace flexrouter::rules
