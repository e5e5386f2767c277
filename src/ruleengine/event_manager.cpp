#include "ruleengine/event_manager.hpp"

#include <sstream>

namespace flexrouter::rules {

EventManager::EventManager(const Program& prog, ExecMode mode,
                           const CompileOptions& opts,
                           std::shared_ptr<const BytecodeProgram> bytecode)
    : prog_(&prog), mode_(mode), interp_(prog), env_(prog) {
  if (mode_ == ExecMode::Table)
    compiled_ = compile_program(prog, interp_, opts);
  if (mode_ == ExecMode::Vm || mode_ == ExecMode::Aot) {
    bytecode_ = bytecode ? std::move(bytecode) : compile_bytecode(prog);
    FR_REQUIRE_MSG(&bytecode_->program() == prog_,
                   "bytecode compiled from a different program");
    vm_ = std::make_unique<Vm>(bytecode_, env_);
  }
}

FireResult EventManager::dispatch(const RuleBase& rb,
                                  const std::vector<Value>& args) {
  ++interpretations_;
  FireResult r;
  if (mode_ == ExecMode::Table) {
    const CompiledRuleBase* hit = nullptr;
    for (const CompiledRuleBase& c : compiled_)
      if (&c.source() == &rb) hit = &c;
    FR_ASSERT_MSG(hit != nullptr, "rule base missing from compiled program");
    r = hit->fire(interp_, env_, args);
  } else if (mode_ == ExecMode::Vm || mode_ == ExecMode::Aot) {
    r = vm_->fire(static_cast<int>(&rb - prog_->rule_bases.data()), args);
  } else {
    r = interp_.fire(env_, rb, args);
  }
  if (trace_) trace_(rb, args, r);
  return r;
}

std::string EventManager::describe_firing(const Program& prog,
                                          const RuleBase& rb,
                                          const std::vector<Value>& args,
                                          const FireResult& r) {
  std::ostringstream os;
  os << rb.name << "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) os << ", ";
    os << args[i].to_string(prog.syms);
  }
  os << ")";
  if (!r.applied()) {
    os << " -> no rule applicable";
    return os.str();
  }
  os << " -> rule #" << r.rule_index + 1;
  if (r.returned) os << ", RETURN " << r.returned->to_string(prog.syms);
  for (const EmittedEvent& e : r.events) {
    os << ", !" << e.name << "(";
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      if (i) os << ", ";
      os << e.args[i].to_string(prog.syms);
    }
    os << ")";
  }
  return os.str();
}

FireResult EventManager::fire(const std::string& rule_base,
                              const std::vector<Value>& args) {
  FireResult r = dispatch(prog_->rule_base(rule_base), args);
  for (EmittedEvent& e : r.events) queue_.push_back(std::move(e));
  return r;
}

FireResult EventManager::fire(int rb_index, const std::vector<Value>& args) {
  FR_REQUIRE(rb_index >= 0 &&
             rb_index < static_cast<int>(prog_->rule_bases.size()));
  FireResult r =
      dispatch(prog_->rule_bases[static_cast<std::size_t>(rb_index)], args);
  for (EmittedEvent& e : r.events) queue_.push_back(std::move(e));
  return r;
}

void EventManager::post(const std::string& event, std::vector<Value> args) {
  queue_.push_back({event, std::move(args)});
}

int EventManager::drain(int max_steps) {
  int fired = 0;
  int steps = 0;
  while (!queue_.empty()) {
    FR_REQUIRE_MSG(++steps <= max_steps, "event cascade exceeded max_steps");
    EmittedEvent ev = std::move(queue_.front());
    queue_.pop_front();
    // VM-produced events carry a pre-resolved target; others look up by name.
    const RuleBase* rb =
        ev.target_rb >= 0
            ? &prog_->rule_bases[static_cast<std::size_t>(ev.target_rb)]
            : (ev.target_rb == -1 ? nullptr : prog_->find_rule_base(ev.name));
    if (rb == nullptr) {
      if (host_) host_(ev);
      continue;
    }
    FireResult r = dispatch(*rb, ev.args);
    ++fired;
    for (EmittedEvent& e : r.events) queue_.push_back(std::move(e));
  }
  return fired;
}

void EventManager::reset_state() {
  env_.reset();
  queue_.clear();
}

}  // namespace flexrouter::rules
