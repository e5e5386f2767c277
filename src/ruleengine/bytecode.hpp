// Bytecode lowering of rule programs.
//
// The reference interpreter walks the shared AST with string-keyed name
// resolution on every firing. This compiler lowers each rule base once into
// a flat, register-based instruction stream mirroring the paper's hardware
// split (premise processing -> rule selection -> conclusion processing):
//
//  * every premise compiles to straight-line code ending in a conditional
//    jump to the next rule's premise — first applicable rule in source
//    order wins, exactly like Interpreter::fire();
//  * names are resolved at compile time: parameters and quantifier-bound
//    variables become frame registers, VARIABLEs become register-file ids,
//    INPUTs become input ids (served through a pre-resolved provider),
//    constants and literal subtrees are folded into a constant pool;
//  * conclusions compile to pending-write stores, RETURN/Emit ops and
//    loops, preserving the language's parallel-commit semantics.
//
// The compiled program is immutable and shared: one BytecodeProgram serves
// every per-node Vm of a network (each node keeps only its own register
// file and frame). Dynamic error behaviour (EvalError/ContractViolation,
// messages, trigger order) replicates the interpreter — the VM is a
// drop-in engine, differentially tested against the oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ruleengine/ast.hpp"

namespace flexrouter::rules {

enum class Op : std::uint8_t {
  LoadConst,   // r[a] = consts[b]
  Move,        // r[a] = r[b]
  LoadReg,     // r[a] = register file var b, element c (compile-checked)
  LoadRegIdx,  // r[a] = register file var b, element r[c] (runtime-checked)
  CheckInIdx,  // require r[a] in index domain c of input b
  LoadInput,   // r[a] = input b with indices r[c..c+aux)
  MemoCheck,   // latch slot c valid (mask bit aux)? r[a] = r[c], pc = b
  MemoStore,   // latch r[a] into slot c, set mask bit aux
  LoadInputMemo,  // fused latched read of zero-index input b (slot c/bit aux)
  MakeSet,     // r[a] = set of r[b..b+c)
  Not,         // r[a] = !bool(r[b])
  Neg,         // r[a] = -int(r[b])
  ToBool,      // r[a] = bool(r[a]) normalised to 0/1
  Add, Sub, Mul, Div, Mod,                  // r[a] = r[b] op r[c]
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe, // r[a] = r[b] op r[c]
  CmpEqConst, CmpNeConst,                   // r[a] = r[b] op consts[c]
  TestIn,                                   // r[a] = r[b] IN r[c]
  TestInConst,                              // r[a] = r[b] IN consts[c]
  Union, Intersect, SetMinus,               // r[a] = r[b] op r[c]
  Abs, Signum, Card, Popcount,              // r[a] = f(r[b])
  Min2, Max2, Xor, BitAnd, Bit,             // r[a] = f(r[b], r[c])
  BitConst,                                 // r[a] = (r[b] >> c) & 1, c literal
  Meshdist,                                 // r[a] = f(r[b], .., r[b+3])
  Jump,               // pc = a
  JumpIfFalse,        // if !bool(r[a]) pc = b
  JumpIfTrue,         // if bool(r[a]) pc = b
  JumpUnlessPremise,  // premise check: non-int r[a] errors, false jumps to b
  // Fused premise tails for the dominant `lhs = rhs` / `lhs # rhs` shapes —
  // a comparison result is always boolean, so no premise type check needed.
  JumpUnlessEq,       // unless r[a] == r[c], pc = b
  JumpUnlessNe,       // unless r[a] != r[c], pc = b
  JumpUnlessLt,       // unless r[a] < r[c], pc = b (CmpLt operand rules)
  JumpUnlessLe,       // unless r[a] <= r[c], pc = b
  JumpUnlessGt,       // unless r[a] > r[c], pc = b
  JumpUnlessGe,       // unless r[a] >= r[c], pc = b
  JumpUnlessEqConst,  // unless r[a] == consts[c], pc = b
  JumpUnlessNeConst,  // unless r[a] != consts[c], pc = b
  DomLen,      // r[a] = iteration length of quantifier domain r[b]
  DomGet,      // r[a] = element r[c] of quantifier domain r[b]
  CallSub,     // r[a] = pure call of rule base b with args r[c..c+aux)
  BeginRule,   // rule a fired: record it in the result
  CheckIdxInt, // require r[a] to be an integer (assignment index)
  Store,       // pending write var b, element r[c] (c<0: scalar) = r[a]
  Return,      // RETURN r[a]
  Emit,        // emit event b with args r[a..a+c)
  EmitConst,   // emit event b with args consts[a..a+c) (all args folded)
  Trap,        // throw EvalError(traps[a], line)
  Halt,        // end of rule-base code
};

struct Instr {
  Op op = Op::Halt;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t aux = 0;
  std::int32_t line = 0;
};

/// Per-rule-base code descriptor. Fire-invariant subexpressions (pure over
/// inputs, registers and constants — both are stable within one firing:
/// inputs are the paper's sampled signal pins, register writes commit in
/// parallel after the firing) are latched in per-frame memo slots:
/// `mask_reg` holds a valid-bit mask over the slots that follow it in the
/// frame, zeroed on frame entry.
struct BcRuleBase {
  std::int32_t entry = 0;       // pc of the premise chain
  std::int32_t frame_size = 0;  // registers (params live in r[0..n))
  std::int32_t mask_reg = -1;   // latch valid-bit register, -1 if unused
};

/// Interned event name; `target_rb` pre-resolves dispatch (index into
/// Program::rule_bases, or -1 for host-bound events).
struct BcEvent {
  std::string name;
  std::int32_t target_rb = -1;
};

class BytecodeProgram {
 public:
  const Program& program() const { return *prog_; }

  /// Event id for `name`, or -1 if the program never emits it.
  std::int32_t event_id(const std::string& name) const;

  std::vector<Instr> code;
  std::vector<Value> consts;
  std::vector<BcRuleBase> bases;   // parallel to program().rule_bases
  std::vector<BcEvent> events;
  std::vector<std::string> traps;  // deferred runtime error messages

 private:
  friend std::shared_ptr<const BytecodeProgram> compile_bytecode(
      const Program& prog);
  const Program* prog_ = nullptr;
};

/// Lower every rule base of `prog` to bytecode. The result borrows `prog`
/// (same lifetime contract as Interpreter/RuleEnv).
std::shared_ptr<const BytecodeProgram> compile_bytecode(const Program& prog);

/// Static reachability analysis behind the AOT table's soundness gate:
/// everything transitively reachable from `root` (subbase calls in
/// expressions and emitted events that land on rule bases).
struct RouteAnalysis {
  bool writes_state = false;         // any reachable Assign command
  std::vector<std::string> inputs_read;  // input names read (sorted, unique)

  bool reads_input(const std::string& name) const;
};
RouteAnalysis analyze_reachable(const Program& prog, const std::string& root);

}  // namespace flexrouter::rules
