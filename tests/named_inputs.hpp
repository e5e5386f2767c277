// Name-keyed input provider for tests. The rule engines read inputs by id
// only (rules::InputFn); a test that would rather answer by input name
// wraps a lambda in NamedInputs, whose trampoline looks the name up in the
// program the engine runs. Tests only: hosts resolve names once, when they
// load the program.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "ruleengine/ast.hpp"
#include "ruleengine/interp.hpp"

namespace flexrouter::testutil {

using rules::Program;
using rules::Value;

/// `Fn` is callable as Value(const std::string& name,
/// const std::vector<Value>& idx); the class template argument is deduced
/// from the lambda.
template <typename Fn>
class NamedInputs {
 public:
  NamedInputs(const Program& prog, Fn fn) : prog_(&prog), fn_(std::move(fn)) {}
  NamedInputs(const NamedInputs&) = delete;  // engines keep `this`
  NamedInputs& operator=(const NamedInputs&) = delete;

  /// Install as `engine`'s provider (an Interpreter, Vm or EventManager);
  /// this object must outlive the engine's input reads.
  template <typename Engine>
  void install(Engine& engine) {
    engine.set_input_provider(&NamedInputs::provide, this);
  }

  static Value provide(void* self, std::int32_t input_id, const Value* idx,
                       std::size_t nidx) {
    auto* in = static_cast<NamedInputs*>(self);
    return in->fn_(in->prog_->inputs[static_cast<std::size_t>(input_id)].name,
                   std::vector<Value>(idx, idx + nidx));
  }

 private:
  const Program* prog_;
  Fn fn_;
};

}  // namespace flexrouter::testutil
