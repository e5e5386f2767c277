#include "ruleengine/vm.hpp"

#include <algorithm>
#include <bit>

namespace flexrouter::rules {

namespace {

std::int64_t want_int(const Value& v, int line, const char* what) {
  if (!v.is_int())
    throw EvalError(std::string(what) + " must be an integer", line);
  return v.as_int();
}

const SetValue& want_set(const Value& v, int line, const char* what) {
  if (!v.is_set()) throw EvalError(std::string(what) + " must be a set", line);
  return v.as_set();
}

}  // namespace

Vm::RunResult Vm::fire_core(int rb_index, const std::vector<Value>& args,
                            HostSinkFn sink, void* sink_ctx) {
  // A previous fire may have thrown mid-run; start from a clean slate. The
  // sink is (re)installed unconditionally so a throw in a sinked fire can
  // never leak it into a later pooled fire.
  sink_ = sink;
  sink_ctx_ = sink_ctx;
  writes_.clear();
  frame_top_ = 0;
  pool_used_ = 0;

  RunResult res;
  run(rb_index, args.data(), args.size(), res);

  // Parallel commit: all RHS were evaluated against the pre-state.
  for (Pending& w : writes_) env_->set_by_id(w.var, w.index, std::move(w.value));
  writes_.clear();

  const RuleBase& rb = prog_->rule_bases[static_cast<std::size_t>(rb_index)];
  if (rb.returns && res.returned && !rb.returns->contains(*res.returned))
    throw EvalError("RETURN value outside declared domain of '" + rb.name + "'",
                    res.fired_line);
  return res;
}

FireResult Vm::fire(int rb_index, const std::vector<Value>& args) {
  RunResult res = fire_core(rb_index, args, nullptr, nullptr);
  FireResult out;
  out.rule_index = res.rule_index;
  out.returned = std::move(res.returned);
  out.events.assign(pool_.begin(),
                    pool_.begin() + static_cast<std::ptrdiff_t>(pool_used_));
  return out;
}

std::optional<Value> Vm::fire_fast(int rb_index, const std::vector<Value>& args,
                                   HostSinkFn sink, void* sink_ctx) {
  return std::move(fire_core(rb_index, args, sink, sink_ctx).returned);
}

Value Vm::call_sub(std::int32_t rb_id, const std::vector<Value>& args,
                   std::int32_t line) {
  const RuleBase& rb = prog_->rule_bases[static_cast<std::size_t>(rb_id)];
  const std::size_t wm = writes_.size();
  const std::size_t em = pool_used_;
  RunResult res;
  run(rb_id, args.data(), args.size(), res);

  // The interpreter fires subbases on a scratch copy of the register file,
  // commits, then diffs against the original. Replicate that contract
  // without the copy: run the per-write commit checks in commit order, then
  // require every write to be an identity write.
  for (std::size_t i = wm; i < writes_.size(); ++i) {
    const Pending& w = writes_[i];
    const VarDecl& d = prog_->variables[static_cast<std::size_t>(w.var)];
    FR_REQUIRE_MSG(w.index >= 0 &&
                       w.index < (d.is_array() ? d.array_size : 1),
                   "index out of range for '" + d.name + "'");
    FR_REQUIRE_MSG(d.domain.contains(w.value),
                   "assignment outside domain of '" + d.name + "'");
  }
  if (rb.returns && res.returned && !rb.returns->contains(*res.returned))
    throw EvalError("RETURN value outside declared domain of '" + rb.name + "'",
                    res.fired_line);
  for (std::size_t i = wm; i < writes_.size(); ++i) {
    const Pending& w = writes_[i];
    if (!(w.value == env_->get_by_id(w.var, w.index)))
      throw EvalError(
          "subbase '" + rb.name + "' modified state inside an expression",
          line);
  }
  if (pool_used_ > em)
    throw EvalError(
        "subbase '" + rb.name + "' emitted events inside an expression", line);
  if (!res.returned)
    throw EvalError("subbase '" + rb.name + "' did not RETURN a value", line);
  writes_.resize(wm);
  return *std::move(res.returned);
}

void Vm::run(int rb_index, const Value* args, std::size_t nargs,
             RunResult& res) {
  const RuleBase& rb = prog_->rule_bases[static_cast<std::size_t>(rb_index)];
  FR_REQUIRE_MSG(nargs == rb.params.size(),
                 "argument count mismatch firing '" + rb.name + "'");
  for (std::size_t i = 0; i < nargs; ++i)
    FR_REQUIRE_MSG(rb.params[i].domain.contains(args[i]),
                   "argument outside parameter domain in '" + rb.name + "'");
  ++total_fires_;

  const BcRuleBase& info = bc_->bases[static_cast<std::size_t>(rb_index)];
  const std::size_t base = frame_top_;
  frame_top_ = base + static_cast<std::size_t>(info.frame_size);
  if (regs_.size() < frame_top_) regs_.resize(frame_top_);
  for (std::size_t i = 0; i < nargs; ++i) regs_[base + i] = args[i];
  if (info.mask_reg >= 0)  // input latches start invalid each firing
    regs_[base + static_cast<std::size_t>(info.mask_reg)] =
        Value::make_int(0);
  const std::size_t write_base = writes_.size();

  const Instr* code = bc_->code.data();
  const Value* consts = bc_->consts.data();
  std::size_t pc = static_cast<std::size_t>(info.entry);
  // r(i): current-frame register; never hold the reference across CallSub
  // (the frame stack may reallocate).
  auto r = [&](std::int32_t i) -> Value& {
    return regs_[base + static_cast<std::size_t>(i)];
  };

  for (;;) {
    const Instr& in = code[pc];
    switch (in.op) {
      case Op::LoadConst:
        r(in.a) = consts[in.b];
        break;
      case Op::Move:
        r(in.a) = r(in.b);
        break;
      case Op::LoadReg:
        r(in.a) = env_->get_by_id(in.b, in.c);
        break;
      case Op::LoadRegIdx: {
        const std::int64_t idx = want_int(r(in.c), in.line, "array index");
        r(in.a) = env_->get_by_id(in.b, idx);
        break;
      }
      case Op::CheckInIdx: {
        const InputDecl& decl = prog_->inputs[static_cast<std::size_t>(in.b)];
        if (!decl.index_domains[static_cast<std::size_t>(in.c)].contains(
                r(in.a)))
          throw EvalError(
              "index outside domain for input '" + decl.name + "'", in.line);
        break;
      }
      case Op::LoadInput: {
        const InputDecl& decl = prog_->inputs[static_cast<std::size_t>(in.b)];
        if (inputs_ == nullptr)
          throw EvalError(
              "no input provider installed (input '" + decl.name + "')",
              in.line);
        Value v = inputs_(inputs_ctx_, in.b, &r(in.c),
                          static_cast<std::size_t>(in.aux));
        if (!decl.domain.contains(v))
          throw EvalError("host returned value outside domain of input '" +
                              decl.name + "'",
                          in.line);
        r(in.a) = std::move(v);
        break;
      }
      case Op::LoadInputMemo: {
        if (r(info.mask_reg).as_int() & (std::int64_t{1} << in.aux)) {
          r(in.a) = r(in.c);  // latched: replay the sampled signal
          break;
        }
        const InputDecl& decl = prog_->inputs[static_cast<std::size_t>(in.b)];
        if (inputs_ == nullptr)
          throw EvalError(
              "no input provider installed (input '" + decl.name + "')",
              in.line);
        Value v = inputs_(inputs_ctx_, in.b, nullptr, 0);
        if (!decl.domain.contains(v))
          throw EvalError("host returned value outside domain of input '" +
                              decl.name + "'",
                          in.line);
        r(in.c) = v;
        r(in.a) = std::move(v);
        r(info.mask_reg) = Value::make_int(r(info.mask_reg).as_int() |
                                           (std::int64_t{1} << in.aux));
        break;
      }
      case Op::MemoCheck:
        if (r(info.mask_reg).as_int() & (std::int64_t{1} << in.aux)) {
          r(in.a) = r(in.c);  // latched: replay and skip the evaluation
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      case Op::MemoStore:
        r(in.c) = r(in.a);
        r(info.mask_reg) = Value::make_int(r(info.mask_reg).as_int() |
                                           (std::int64_t{1} << in.aux));
        break;
      case Op::MakeSet: {
        std::vector<Value> elems(
            regs_.begin() + static_cast<std::ptrdiff_t>(base + in.b),
            regs_.begin() + static_cast<std::ptrdiff_t>(base + in.b + in.c));
        r(in.a) = Value::make_set(SetValue(std::move(elems)));
        break;
      }
      case Op::Not:
        r(in.a) = Value::make_bool(!r(in.b).as_bool());
        break;
      case Op::Neg:
        r(in.a) = Value::make_int(
            -want_int(r(in.b), in.line, "negation operand"));
        break;
      case Op::ToBool:
        r(in.a) = Value::make_bool(r(in.a).as_bool());
        break;
      case Op::Add:
      case Op::Sub:
      case Op::Mul:
      case Op::Div:
      case Op::Mod: {
        const auto x = want_int(r(in.b), in.line, "arithmetic operand");
        const auto y = want_int(r(in.c), in.line, "arithmetic operand");
        std::int64_t v = 0;
        switch (in.op) {
          case Op::Add: v = x + y; break;
          case Op::Sub: v = x - y; break;
          case Op::Mul: v = x * y; break;
          case Op::Div:
            if (y == 0) throw EvalError("division by zero", in.line);
            v = x / y;
            break;
          case Op::Mod:
            if (y == 0) throw EvalError("modulo by zero", in.line);
            v = ((x % y) + y) % y;
            break;
          default: FR_UNREACHABLE("arith");
        }
        r(in.a) = Value::make_int(v);
        break;
      }
      case Op::CmpEq:
        r(in.a) = Value::make_bool(r(in.b) == r(in.c));
        break;
      case Op::CmpNe:
        r(in.a) = Value::make_bool(!(r(in.b) == r(in.c)));
        break;
      case Op::CmpEqConst:
        r(in.a) = Value::make_bool(r(in.b) == consts[in.c]);
        break;
      case Op::CmpNeConst:
        r(in.a) = Value::make_bool(!(r(in.b) == consts[in.c]));
        break;
      case Op::CmpLt:
      case Op::CmpLe:
      case Op::CmpGt:
      case Op::CmpGe: {
        const Value& a = r(in.b);
        const Value& b = r(in.c);
        std::int64_t x, y;
        if (a.is_sym() && b.is_sym()) {
          x = a.as_sym();
          y = b.as_sym();
        } else {
          x = want_int(a, in.line, "comparison operand");
          y = want_int(b, in.line, "comparison operand");
        }
        bool v = false;
        switch (in.op) {
          case Op::CmpLt: v = x < y; break;
          case Op::CmpLe: v = x <= y; break;
          case Op::CmpGt: v = x > y; break;
          case Op::CmpGe: v = x >= y; break;
          default: FR_UNREACHABLE("cmp");
        }
        r(in.a) = Value::make_bool(v);
        break;
      }
      case Op::TestIn:
        r(in.a) = Value::make_bool(
            want_set(r(in.c), in.line, "IN right-hand side").contains(r(in.b)));
        break;
      case Op::TestInConst:
        r(in.a) = Value::make_bool(
            want_set(consts[in.c], in.line, "IN right-hand side")
                .contains(r(in.b)));
        break;
      case Op::Union:
        r(in.a) = Value::make_set(
            want_set(r(in.b), in.line, "UNION operand")
                .set_union(want_set(r(in.c), in.line, "UNION operand")));
        break;
      case Op::Intersect:
        r(in.a) = Value::make_set(
            want_set(r(in.b), in.line, "INTERSECT operand")
                .set_intersect(
                    want_set(r(in.c), in.line, "INTERSECT operand")));
        break;
      case Op::SetMinus:
        r(in.a) = Value::make_set(
            want_set(r(in.b), in.line, "SETMINUS operand")
                .set_minus(want_set(r(in.c), in.line, "SETMINUS operand")));
        break;
      case Op::Abs: {
        const auto v = want_int(r(in.b), in.line, "abs argument");
        r(in.a) = Value::make_int(v < 0 ? -v : v);
        break;
      }
      case Op::Signum: {
        const auto v = want_int(r(in.b), in.line, "signum argument");
        r(in.a) = Value::make_int(v < 0 ? -1 : (v > 0 ? 1 : 0));
        break;
      }
      case Op::Card:
        r(in.a) = Value::make_int(static_cast<std::int64_t>(
            want_set(r(in.b), in.line, "card argument").size()));
        break;
      case Op::Popcount: {
        const auto x = want_int(r(in.b), in.line, "popcount argument");
        if (x < 0) throw EvalError("popcount of negative value", in.line);
        r(in.a) = Value::make_int(
            std::popcount(static_cast<std::uint64_t>(x)));
        break;
      }
      case Op::Min2:
      case Op::Max2: {
        const auto x = want_int(r(in.b), in.line, "min/max argument");
        const auto y = want_int(r(in.c), in.line, "min/max argument");
        r(in.a) = Value::make_int(in.op == Op::Min2 ? std::min(x, y)
                                                    : std::max(x, y));
        break;
      }
      case Op::Xor:
        r(in.a) = Value::make_int(
            want_int(r(in.b), in.line, "xor argument") ^
            want_int(r(in.c), in.line, "xor argument"));
        break;
      case Op::BitAnd:
        r(in.a) = Value::make_int(
            want_int(r(in.b), in.line, "bitand argument") &
            want_int(r(in.c), in.line, "bitand argument"));
        break;
      case Op::Bit: {
        const auto x = want_int(r(in.b), in.line, "bit argument");
        const auto i = want_int(r(in.c), in.line, "bit index");
        if (i < 0 || i > 62)
          throw EvalError("bit index out of range", in.line);
        r(in.a) = Value::make_int((x >> i) & 1);
        break;
      }
      case Op::BitConst:
        r(in.a) = Value::make_int(
            (want_int(r(in.b), in.line, "bit argument") >> in.c) & 1);
        break;
      case Op::Meshdist: {
        const auto x1 = want_int(r(in.b), in.line, "meshdist argument");
        const auto y1 = want_int(r(in.b + 1), in.line, "meshdist argument");
        const auto x2 = want_int(r(in.b + 2), in.line, "meshdist argument");
        const auto y2 = want_int(r(in.b + 3), in.line, "meshdist argument");
        r(in.a) = Value::make_int(std::abs(x1 - x2) + std::abs(y1 - y2));
        break;
      }
      case Op::Jump:
        pc = static_cast<std::size_t>(in.a);
        continue;
      case Op::JumpIfFalse:
        if (!r(in.a).as_bool()) {
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      case Op::JumpIfTrue:
        if (r(in.a).as_bool()) {
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      case Op::JumpUnlessPremise: {
        const Value& p = r(in.a);
        if (!p.is_int())
          throw EvalError("premise is not boolean", in.line);
        if (p.as_int() == 0) {
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      }
      case Op::JumpUnlessEq:
        if (!(r(in.a) == r(in.c))) {
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      case Op::JumpUnlessNe:
        if (r(in.a) == r(in.c)) {
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      case Op::JumpUnlessLt:
      case Op::JumpUnlessLe:
      case Op::JumpUnlessGt:
      case Op::JumpUnlessGe: {
        const Value& a = r(in.a);
        const Value& b = r(in.c);
        std::int64_t x, y;
        if (a.is_sym() && b.is_sym()) {
          x = a.as_sym();
          y = b.as_sym();
        } else {
          x = want_int(a, in.line, "comparison operand");
          y = want_int(b, in.line, "comparison operand");
        }
        bool v = false;
        switch (in.op) {
          case Op::JumpUnlessLt: v = x < y; break;
          case Op::JumpUnlessLe: v = x <= y; break;
          case Op::JumpUnlessGt: v = x > y; break;
          case Op::JumpUnlessGe: v = x >= y; break;
          default: FR_UNREACHABLE("cmp-branch");
        }
        if (!v) {
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      }
      case Op::JumpUnlessEqConst:
        if (!(r(in.a) == consts[in.c])) {
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      case Op::JumpUnlessNeConst:
        if (r(in.a) == consts[in.c]) {
          pc = static_cast<std::size_t>(in.b);
          continue;
        }
        break;
      case Op::DomLen: {
        const Value& d = r(in.b);
        std::int64_t len;
        if (d.is_int()) {
          len = d.as_int();
          if (len < 0 || len > 4096)
            throw EvalError("quantifier range out of bounds", in.line);
        } else if (d.is_set()) {
          len = static_cast<std::int64_t>(d.as_set().size());
        } else {
          throw EvalError("quantifier domain must be a set or integer",
                          in.line);
        }
        r(in.a) = Value::make_int(len);
        break;
      }
      case Op::DomGet: {
        const Value& d = r(in.b);
        const std::int64_t i = r(in.c).as_int();
        Value v = d.is_int()
                      ? Value::make_int(i)
                      : d.as_set().elements()[static_cast<std::size_t>(i)];
        r(in.a) = std::move(v);
        break;
      }
      case Op::CallSub: {
        const std::vector<Value> argv(
            regs_.begin() + static_cast<std::ptrdiff_t>(base + in.c),
            regs_.begin() + static_cast<std::ptrdiff_t>(base + in.c + in.aux));
        Value v = call_sub(in.b, argv, in.line);
        r(in.a) = std::move(v);
        break;
      }
      case Op::BeginRule:
        res.rule_index = in.a;
        res.fired_line = in.line;
        break;
      case Op::CheckIdxInt:
        if (!r(in.a).is_int())
          throw EvalError("array index must be an integer", in.line);
        break;
      case Op::Store: {
        const std::int64_t idx = in.c < 0 ? 0 : r(in.c).as_int();
        const Value& v = r(in.a);
        for (std::size_t i = write_base; i < writes_.size(); ++i) {
          const Pending& w = writes_[i];
          if (w.var == in.b && w.index == idx && !(w.value == v))
            throw EvalError(
                "conflicting parallel writes to '" +
                    prog_->variables[static_cast<std::size_t>(in.b)].name +
                    "'",
                in.line);
        }
        writes_.push_back({in.b, idx, v});
        break;
      }
      case Op::Return: {
        Value v = r(in.a);
        if (res.returned && !(*res.returned == v))
          throw EvalError("conflicting RETURN values in one conclusion",
                          in.line);
        res.returned = std::move(v);
        break;
      }
      case Op::Emit: {
        const BcEvent& be = bc_->events[static_cast<std::size_t>(in.b)];
        if (sink_ != nullptr && base == 0) {
          // Top-level emission on the decision path: hand the argument
          // window to the sink in place, no EmittedEvent materialized.
          // Nested frames fall through to the pool so call_sub still sees
          // expression-context emissions.
          sink_(sink_ctx_, in.b, be.target_rb,
                in.c == 0 ? nullptr : &r(in.a),
                static_cast<std::size_t>(in.c));
          break;
        }
        if (pool_used_ == pool_.size()) pool_.emplace_back();
        EmittedEvent& ev = pool_[pool_used_++];  // recycled slot
        ev.name = be.name;
        ev.name_id = in.b;
        ev.target_rb = be.target_rb;
        ev.args.assign(
            regs_.begin() + static_cast<std::ptrdiff_t>(base + in.a),
            regs_.begin() + static_cast<std::ptrdiff_t>(base + in.a + in.c));
        break;
      }
      case Op::EmitConst: {
        const BcEvent& be = bc_->events[static_cast<std::size_t>(in.b)];
        if (sink_ != nullptr && base == 0) {
          sink_(sink_ctx_, in.b, be.target_rb, consts + in.a,
                static_cast<std::size_t>(in.c));
          break;
        }
        if (pool_used_ == pool_.size()) pool_.emplace_back();
        EmittedEvent& ev = pool_[pool_used_++];
        ev.name = be.name;
        ev.name_id = in.b;
        ev.target_rb = be.target_rb;
        ev.args.assign(consts + in.a, consts + in.a + in.c);
        break;
      }
      case Op::Trap:
        throw EvalError(bc_->traps[static_cast<std::size_t>(in.a)], in.line);
      case Op::Halt:
        frame_top_ = base;
        return;
    }
    ++pc;
  }
}

}  // namespace flexrouter::rules
