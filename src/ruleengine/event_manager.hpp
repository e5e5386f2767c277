// Event manager: coordinates the parallel, event-triggered execution of a
// rule program's rule bases (Section 4.2/4.3).
//
// Events arrive either from the host hardware (message arrival, link state
// change — posted by the router model) or from rule conclusions
// (`!event(args)`). Each rule base is bound to the event of its ON block.
// Rule execution is atomic; generated events are queued and processed
// asynchronously, which realises the language's explicit-asynchronity model.
// Events with no matching ON block are handed to the host handler — that is
// how `!send(...)`-style commands reach the router data path.
#pragma once

#include <deque>
#include <memory>

#include "ruleengine/rule_table.hpp"
#include "ruleengine/vm.hpp"

namespace flexrouter::rules {

enum class ExecMode {
  Interpret,  // reference AST interpreter
  Table,      // compiled ARON rule tables (RBR kernel)
  Vm,         // bytecode VM (premise chains + register frames)
  Aot,        // host-side AOT decision table (ruleengine/aot.hpp); inside
              // the EventManager this behaves exactly like Vm — the table
              // lives in the routing host, the VM serves fallback points
};

class EventManager {
 public:
  /// `bytecode` lets hosts share one compiled program across many managers
  /// (e.g. one per node); when null it is compiled on demand in Vm mode.
  explicit EventManager(const Program& prog,
                        ExecMode mode = ExecMode::Interpret,
                        const CompileOptions& opts = {},
                        std::shared_ptr<const BytecodeProgram> bytecode =
                            nullptr);

  const Program& program() const { return *prog_; }
  RuleEnv& env() { return env_; }
  const RuleEnv& env() const { return env_; }
  Interpreter& interpreter() { return interp_; }
  ExecMode mode() const { return mode_; }

  /// The input provider (function pointer + context, inputs by id) of
  /// every mode: the interpreter serves Interpret and Table firings, the
  /// VM serves Vm and Aot ones.
  void set_input_provider(InputFn fn, void* ctx) {
    interp_.set_input_provider(fn, ctx);
    if (vm_) vm_->set_input_provider(fn, ctx);
  }

  /// Receives events that no rule base handles (host-bound outputs). The
  /// full EmittedEvent lets hosts dispatch on the interned `name_id` (VM
  /// events) or on `name`; the last handler installed wins.
  using HostHandler = std::function<void(const EmittedEvent&)>;
  void set_host_handler(HostHandler fn) { host_ = std::move(fn); }

  /// Firing trace: called after every rule interpretation with the rule
  /// base, its arguments and the result — the rule-program debugger's hook.
  using TraceFn = std::function<void(const RuleBase&, const std::vector<Value>&,
                                     const FireResult&)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  /// Render one firing as a human-readable line (used by examples/tools).
  static std::string describe_firing(const Program& prog, const RuleBase& rb,
                                     const std::vector<Value>& args,
                                     const FireResult& r);

  /// Fire one rule base synchronously (one rule interpretation). Emitted
  /// events are queued for drain().
  FireResult fire(const std::string& rule_base, const std::vector<Value>& args);
  /// Same, by index in Program::rule_bases — skips the name lookup.
  FireResult fire(int rb_index, const std::vector<Value>& args);

  /// Queue an event for asynchronous processing.
  void post(const std::string& event, std::vector<Value> args);

  /// Process queued events until the queue is empty; returns the number of
  /// rule interpretations performed. Throws if `max_steps` is exceeded
  /// (runaway event cascade).
  int drain(int max_steps = 100000);

  bool queue_empty() const { return queue_.empty(); }

  /// Total rule interpretations since construction/reset — the paper's
  /// time-overhead unit ("NAFTA needs one step fault-free, three worst
  /// case").
  std::int64_t total_interpretations() const { return interpretations_; }
  void reset_counters() { interpretations_ = 0; }

  /// Reset registers to the initial image and clear the queue.
  void reset_state();

  /// Compiled artifacts (Table mode); empty in Interpret mode.
  const std::vector<CompiledRuleBase>& compiled() const { return compiled_; }
  /// Compiled bytecode (Vm mode); null otherwise.
  const std::shared_ptr<const BytecodeProgram>& bytecode() const {
    return bytecode_;
  }
  /// The bytecode VM (Vm mode); null otherwise. Hosts with their own event
  /// loop (RuleDrivenRouting's decision path) fire it directly and skip the
  /// queue machinery.
  Vm* vm() const { return vm_.get(); }

 private:
  FireResult dispatch(const RuleBase& rb, const std::vector<Value>& args);

  const Program* prog_;
  ExecMode mode_;
  Interpreter interp_;
  RuleEnv env_;
  std::vector<CompiledRuleBase> compiled_;  // parallel to prog_->rule_bases
  std::shared_ptr<const BytecodeProgram> bytecode_;
  std::unique_ptr<Vm> vm_;
  std::deque<EmittedEvent> queue_;
  HostHandler host_;
  TraceFn trace_;
  std::int64_t interpretations_ = 0;
};

}  // namespace flexrouter::rules
