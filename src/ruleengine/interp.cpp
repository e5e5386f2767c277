#include "ruleengine/interp.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace flexrouter::rules {

namespace {

std::int64_t want_int(const Value& v, int line, const char* what) {
  if (!v.is_int()) throw EvalError(std::string(what) + " must be an integer", line);
  return v.as_int();
}

const SetValue& want_set(const Value& v, int line, const char* what) {
  if (!v.is_set()) throw EvalError(std::string(what) + " must be a set", line);
  return v.as_set();
}

}  // namespace

namespace {

// Sorted, so builtin_id can binary-search; the id is the table position.
constexpr const char* kBuiltins[] = {"abs",    "bit",      "bitand", "card",
                                     "max",    "meshdist", "min",    "popcount",
                                     "signum", "xor"};
enum Builtin : std::int32_t {
  kAbs,
  kBit,
  kBitand,
  kCard,
  kMax,
  kMeshdist,
  kMin,
  kPopcount,
  kSignum,
  kXor,
};

}  // namespace

std::int32_t Interpreter::builtin_id(const std::string& name) {
  const auto* it = std::lower_bound(
      std::begin(kBuiltins), std::end(kBuiltins), name.c_str(),
      [](const char* a, const char* b) { return std::strcmp(a, b) < 0; });
  if (it == std::end(kBuiltins) || name != *it) return -1;
  return static_cast<std::int32_t>(it - std::begin(kBuiltins));
}

Interpreter::RefSlot Interpreter::resolve(const Expr& e) const {
  using K = RefSlot::Kind;
  const auto index_of = [](const auto& vec, const auto* elem) {
    return static_cast<std::int32_t>(elem - vec.data());
  };
  if (const VarDecl* d = prog_->find_variable(e.name))
    return {K::Variable, index_of(prog_->variables, d), nullptr};
  if (const InputDecl* in = prog_->find_input(e.name))
    return {K::Input, index_of(prog_->inputs, in), nullptr};
  if (e.args.empty()) {
    const auto it = prog_->constants.find(e.name);
    if (it != prog_->constants.end()) return {K::Constant, -1, &it->second};
  }
  if (const std::int32_t b = builtin_id(e.name); b >= 0)
    return {K::Builtin, b, nullptr};
  if (const RuleBase* rb = prog_->find_rule_base(e.name))
    return {K::Subbase, index_of(prog_->rule_bases, rb), nullptr};
  return {K::Unknown, -1, nullptr};
}

Interpreter::RefSlot Interpreter::slot_of(const Expr& e) const {
  const auto key = [](const Expr& x) {
    return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&x));
  };
  if (refs_ == nullptr) {
    auto table = std::make_unique<RefTable>();
    for (const RuleBase& rb : prog_->rule_bases)
      for (const Rule& r : rb.rules)
        for_each_expr(r, [&](const Expr& x) {
          if (x.kind != Expr::Kind::Ref) return;
          const auto slot = static_cast<std::int32_t>(table->slots.size());
          if (table->index.insert(key(x), slot).second)
            table->slots.push_back(resolve(x));
        });
    refs_ = std::move(table);
  }
  const std::int32_t slot = refs_->index.find(key(e));
  return slot >= 0 ? refs_->slots[static_cast<std::size_t>(slot)]
                   : resolve(e);
}

FireResult Interpreter::fire(RuleEnv& env, const std::string& rule_base,
                             const std::vector<Value>& args) {
  return fire(env, prog_->rule_base(rule_base), args);
}

FireResult Interpreter::fire(RuleEnv& env, const RuleBase& rb,
                             const std::vector<Value>& args) {
  FR_REQUIRE_MSG(args.size() == rb.params.size(),
                 "argument count mismatch firing '" + rb.name + "'");
  Ctx ctx;
  ctx.env = &env;
  ctx.bindings.reserve(args.size() + 4);  // headroom for quantifier pushes
  for (std::size_t i = 0; i < args.size(); ++i) {
    FR_REQUIRE_MSG(rb.params[i].domain.contains(args[i]),
                   "argument outside parameter domain in '" + rb.name + "'");
    ctx.bindings.emplace_back(rb.params[i].name, args[i]);
  }
  ++total_fires_;

  FireResult result;
  for (std::size_t r = 0; r < rb.rules.size(); ++r) {
    const Value p = eval(rb.rules[r].premise, ctx);
    if (!p.is_int())
      throw EvalError("premise is not boolean", rb.rules[r].line);
    if (!p.as_bool()) continue;
    result.rule_index = static_cast<int>(r);
    std::vector<PendingWrite> writes;
    exec_cmds(rb.rules[r].conclusion, ctx, result, writes);
    // Parallel commit: all RHS were evaluated against the pre-state above.
    for (const PendingWrite& w : writes) env.set(w.name, w.index, w.value);
    if (rb.returns && result.returned &&
        !rb.returns->contains(*result.returned))
      throw EvalError("RETURN value outside declared domain of '" + rb.name +
                          "'",
                      rb.rules[r].line);
    return result;
  }
  return result;  // no rule applicable
}

Value Interpreter::eval_expr(
    const RuleEnv& env, const ExprPtr& e,
    const std::vector<std::pair<std::string, Value>>& bindings,
    const ResolveFn& override) {
  Ctx ctx;
  ctx.env = &env;
  ctx.bindings = bindings;
  if (override) ctx.override = &override;
  return eval(e, ctx);
}

Value Interpreter::eval_compiletime(const ExprPtr& e,
                                    const ResolveFn& override) {
  Ctx ctx;
  ctx.env = nullptr;
  ctx.allow_inputs = false;
  ctx.override = &override;
  return eval(e, ctx);
}

FireResult Interpreter::exec_conclusion(RuleEnv& env, const RuleBase& rb,
                                        int rule_index,
                                        const std::vector<Value>& args) {
  FR_REQUIRE(rule_index >= 0 &&
             rule_index < static_cast<int>(rb.rules.size()));
  FR_REQUIRE(args.size() == rb.params.size());
  Ctx ctx;
  ctx.env = &env;
  ctx.bindings.reserve(args.size() + 4);
  for (std::size_t i = 0; i < args.size(); ++i)
    ctx.bindings.emplace_back(rb.params[i].name, args[i]);
  ++total_fires_;
  FireResult result;
  result.rule_index = rule_index;
  std::vector<PendingWrite> writes;
  exec_cmds(rb.rules[static_cast<std::size_t>(rule_index)].conclusion, ctx,
            result, writes);
  for (const PendingWrite& w : writes) env.set(w.name, w.index, w.value);
  return result;
}

std::optional<Value> Interpreter::try_const_eval(const ExprPtr& e) const {
  Ctx ctx;
  ctx.env = nullptr;
  ctx.allow_inputs = false;
  try {
    // const_cast is safe: with env==nullptr and inputs forbidden the
    // evaluation cannot touch mutable state.
    return const_cast<Interpreter*>(this)->eval(e, ctx);
  } catch (const EvalError&) {
    return std::nullopt;
  }
}

void Interpreter::exec_cmds(const std::vector<Cmd>& cmds, Ctx& ctx,
                            FireResult& result,
                            std::vector<PendingWrite>& writes) {
  for (const Cmd& c : cmds) {
    switch (c.kind) {
      case Cmd::Kind::Assign: {
        const VarDecl* decl = prog_->find_variable(c.target);
        if (decl == nullptr)
          throw EvalError("assignment to unknown variable '" + c.target + "'",
                          c.line);
        std::int64_t index = 0;
        if (decl->is_array()) {
          if (c.args.size() != 1)
            throw EvalError("array variable '" + c.target +
                                "' needs exactly one index",
                            c.line);
          index = want_int(eval(c.args[0], ctx), c.line, "array index");
        } else if (!c.args.empty()) {
          throw EvalError("scalar variable '" + c.target + "' is not indexed",
                          c.line);
        }
        Value v = eval(c.value, ctx);
        for (const PendingWrite& w : writes) {
          if (w.name == c.target && w.index == index && !(w.value == v))
            throw EvalError("conflicting parallel writes to '" + c.target +
                                "'",
                            c.line);
        }
        writes.push_back({c.target, index, std::move(v), c.line});
        break;
      }
      case Cmd::Kind::Return: {
        Value v = eval(c.value, ctx);
        if (result.returned && !(*result.returned == v))
          throw EvalError("conflicting RETURN values in one conclusion",
                          c.line);
        result.returned = std::move(v);
        break;
      }
      case Cmd::Kind::Emit: {
        EmittedEvent ev;
        ev.name = c.target;
        ev.args.reserve(c.args.size());
        for (const ExprPtr& a : c.args) ev.args.push_back(eval(a, ctx));
        result.events.push_back(std::move(ev));
        break;
      }
      case Cmd::Kind::ForAll: {
        const auto values = domain_values(c.domain, ctx);
        for (const Value& v : values) {
          ctx.bindings.emplace_back(c.bound, v);
          exec_cmds(c.body, ctx, result, writes);
          ctx.bindings.pop_back();
        }
        break;
      }
    }
  }
}

std::vector<Value> Interpreter::domain_values(const ExprPtr& domain_expr,
                                              Ctx& ctx) {
  const Value d = eval(domain_expr, ctx);
  if (d.is_int()) {
    // An integer n denotes the index range 0..n-1 (e.g. `FORALL i IN dirs`).
    const auto n = d.as_int();
    if (n < 0 || n > 4096)
      throw EvalError("quantifier range out of bounds", domain_expr->line);
    std::vector<Value> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) out.push_back(Value::make_int(i));
    return out;
  }
  if (d.is_set()) return d.as_set().elements();
  throw EvalError("quantifier domain must be a set or integer",
                  domain_expr->line);
}

Value Interpreter::eval(const ExprPtr& e, Ctx& ctx) {
  FR_REQUIRE(e != nullptr);
  if (++ctx.depth > 256) throw EvalError("evaluation too deep", e->line);
  struct DepthGuard {
    Ctx& ctx;
    ~DepthGuard() { --ctx.depth; }
  } guard{ctx};

  if (ctx.override != nullptr) {
    const auto v = (*ctx.override)(*e);
    if (v) return *v;
  }

  switch (e->kind) {
    case Expr::Kind::IntLit:
      return Value::make_int(e->int_val);
    case Expr::Kind::SymLit:
      return Value::make_sym(e->sym);
    case Expr::Kind::SetLit: {
      std::vector<Value> elems;
      elems.reserve(e->args.size());
      for (const ExprPtr& a : e->args) elems.push_back(eval(a, ctx));
      return Value::make_set(SetValue(std::move(elems)));
    }
    case Expr::Kind::Ref:
      return eval_ref(*e, ctx);
    case Expr::Kind::Unary: {
      const Value v = eval(e->lhs, ctx);
      if (e->un_op == UnOp::Not)
        return Value::make_bool(!v.as_bool());
      return Value::make_int(-want_int(v, e->line, "negation operand"));
    }
    case Expr::Kind::Binary:
      return eval_binary(*e, ctx);
    case Expr::Kind::Quantified: {
      const auto values = domain_values(e->lhs, ctx);
      for (const Value& v : values) {
        ctx.bindings.emplace_back(e->name, v);
        const bool b = eval(e->rhs, ctx).as_bool();
        ctx.bindings.pop_back();
        if (e->quant == Quant::Exists && b) return Value::make_bool(true);
        if (e->quant == Quant::ForAll && !b) return Value::make_bool(false);
      }
      return Value::make_bool(e->quant == Quant::ForAll);
    }
  }
  FR_UNREACHABLE("bad expr kind");
}

Value Interpreter::eval_ref(const Expr& e, Ctx& ctx) {
  // 1. Bound names (parameters, quantifier variables), innermost first.
  if (e.args.empty()) {
    for (auto it = ctx.bindings.rbegin(); it != ctx.bindings.rend(); ++it)
      if (it->first == e.name) return it->second;
  }
  // 2.-6. Declarations, in the order resolve() tries them.
  const RefSlot slot = slot_of(e);
  switch (slot.kind) {
    case RefSlot::Kind::Variable: {  // program variables (registers)
      if (ctx.env == nullptr)
        throw EvalError("state access to '" + e.name + "' not allowed here",
                        e.line);
      const VarDecl& decl = prog_->variables[static_cast<std::size_t>(slot.id)];
      std::int64_t index = 0;
      if (decl.is_array()) {
        if (e.args.size() != 1)
          throw EvalError("array '" + e.name + "' needs exactly one index",
                          e.line);
        index = want_int(eval(e.args[0], ctx), e.line, "array index");
      } else if (!e.args.empty()) {
        throw EvalError("scalar variable '" + e.name + "' is not indexed",
                        e.line);
      }
      // The id path skips the name lookup; it is only valid for a register
      // file laid out from this very program.
      if (&ctx.env->program() == prog_)
        return ctx.env->get_by_id(slot.id, index);
      return ctx.env->get(e.name, index);
    }
    case RefSlot::Kind::Input:  // host signals
      return eval_input(e, slot.id, ctx);
    case RefSlot::Kind::Constant:
      return *slot.constant;
    case RefSlot::Kind::Builtin: {
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const ExprPtr& a : e.args) args.push_back(eval(a, ctx));
      return eval_builtin(e, slot.id, args);
    }
    case RefSlot::Kind::Subbase: {
      // A rule base used as a function; its RETURN is the value.
      if (ctx.env == nullptr)
        throw EvalError("subbase call not allowed here", e.line);
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const ExprPtr& a : e.args) args.push_back(eval(a, ctx));
      // Subbases used in expressions must be pure ("fully functional
      // interpretation" per the paper): fire on a scratch copy and reject
      // any state change or generated event.
      RuleEnv scratch = *ctx.env;
      FireResult r = fire(
          scratch, prog_->rule_bases[static_cast<std::size_t>(slot.id)], args);
      if (!(scratch == *ctx.env))
        throw EvalError("subbase '" + e.name + "' modified state inside an "
                        "expression",
                        e.line);
      if (!r.events.empty())
        throw EvalError("subbase '" + e.name + "' emitted events inside an "
                        "expression",
                        e.line);
      if (!r.returned)
        throw EvalError("subbase '" + e.name + "' did not RETURN a value",
                        e.line);
      return *r.returned;
    }
    case RefSlot::Kind::Unknown:
      break;
  }
  throw EvalError("unknown name '" + e.name + "'", e.line);
}

Value Interpreter::eval_input(const Expr& e, std::int32_t input_id,
                              Ctx& ctx) {
  const InputDecl& in = prog_->inputs[static_cast<std::size_t>(input_id)];
  if (!ctx.allow_inputs)
    throw EvalError("input access to '" + e.name + "' not allowed here",
                    e.line);
  if (inputs_ == nullptr)
    throw EvalError("no input provider installed (input '" + e.name + "')",
                    e.line);
  const std::size_t n = e.args.size();
  if (n != in.index_domains.size())
    throw EvalError("wrong number of indices for input '" + e.name + "'",
                    e.line);
  // Index tuples are short (link_ok(port), credits(port, vc)): keep them on
  // the stack unless a declaration asks for more.
  constexpr std::size_t kInlineIdx = 4;
  Value inline_idx[kInlineIdx];
  std::vector<Value> heap_idx;
  Value* idx = inline_idx;
  if (n > kInlineIdx) {
    heap_idx.resize(n);
    idx = heap_idx.data();
  }
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = eval(e.args[i], ctx);
    if (!in.index_domains[i].contains(idx[i]))
      throw EvalError("index outside domain for input '" + e.name + "'",
                      e.line);
  }
  Value v = inputs_(inputs_ctx_, input_id, idx, n);
  if (!in.domain.contains(v))
    throw EvalError("host returned value outside domain of input '" + e.name +
                        "'",
                    e.line);
  return v;
}

Value Interpreter::eval_builtin(const Expr& e, std::int32_t builtin,
                                const std::vector<Value>& args) {
  auto need = [&](std::size_t n) {
    if (args.size() != n)
      throw EvalError("builtin '" + e.name + "' expects " + std::to_string(n) +
                          " arguments",
                      e.line);
  };
  switch (builtin) {
    case kAbs: {
      need(1);
      const auto v = want_int(args[0], e.line, "abs argument");
      return Value::make_int(v < 0 ? -v : v);
    }
    case kSignum: {
      need(1);
      const auto v = want_int(args[0], e.line, "signum argument");
      return Value::make_int(v < 0 ? -1 : (v > 0 ? 1 : 0));
    }
    case kMin:
    case kMax: {
      if (args.empty())
        throw EvalError("builtin '" + e.name + "' needs arguments", e.line);
      std::int64_t acc = want_int(args[0], e.line, "min/max argument");
      for (std::size_t i = 1; i < args.size(); ++i) {
        const auto v = want_int(args[i], e.line, "min/max argument");
        acc = builtin == kMin ? std::min(acc, v) : std::max(acc, v);
      }
      return Value::make_int(acc);
    }
    case kCard:
      need(1);
      return Value::make_int(static_cast<std::int64_t>(
          want_set(args[0], e.line, "card argument").size()));
    case kXor:
      need(2);
      return Value::make_int(want_int(args[0], e.line, "xor argument") ^
                             want_int(args[1], e.line, "xor argument"));
    case kBitand:
      need(2);
      return Value::make_int(want_int(args[0], e.line, "bitand argument") &
                             want_int(args[1], e.line, "bitand argument"));
    case kBit: {
      need(2);
      const auto x = want_int(args[0], e.line, "bit argument");
      const auto i = want_int(args[1], e.line, "bit index");
      if (i < 0 || i > 62) throw EvalError("bit index out of range", e.line);
      return Value::make_int((x >> i) & 1);
    }
    case kPopcount: {
      need(1);
      const auto x = want_int(args[0], e.line, "popcount argument");
      if (x < 0) throw EvalError("popcount of negative value", e.line);
      return Value::make_int(std::popcount(static_cast<std::uint64_t>(x)));
    }
    case kMeshdist: {
      need(4);
      const auto x1 = want_int(args[0], e.line, "meshdist argument");
      const auto y1 = want_int(args[1], e.line, "meshdist argument");
      const auto x2 = want_int(args[2], e.line, "meshdist argument");
      const auto y2 = want_int(args[3], e.line, "meshdist argument");
      return Value::make_int(std::abs(x1 - x2) + std::abs(y1 - y2));
    }
    default:
      break;
  }
  throw EvalError("unknown builtin '" + e.name + "'", e.line);
}

Value Interpreter::eval_binary(const Expr& e, Ctx& ctx) {
  // Short-circuit boolean operators.
  if (e.bin_op == BinOp::And) {
    if (!eval(e.lhs, ctx).as_bool()) return Value::make_bool(false);
    return Value::make_bool(eval(e.rhs, ctx).as_bool());
  }
  if (e.bin_op == BinOp::Or) {
    if (eval(e.lhs, ctx).as_bool()) return Value::make_bool(true);
    return Value::make_bool(eval(e.rhs, ctx).as_bool());
  }

  const Value a = eval(e.lhs, ctx);
  const Value b = eval(e.rhs, ctx);

  switch (e.bin_op) {
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
    case BinOp::Div:
    case BinOp::Mod: {
      const auto x = want_int(a, e.line, "arithmetic operand");
      const auto y = want_int(b, e.line, "arithmetic operand");
      switch (e.bin_op) {
        case BinOp::Add: return Value::make_int(x + y);
        case BinOp::Sub: return Value::make_int(x - y);
        case BinOp::Mul: return Value::make_int(x * y);
        case BinOp::Div:
          if (y == 0) throw EvalError("division by zero", e.line);
          return Value::make_int(x / y);
        case BinOp::Mod:
          if (y == 0) throw EvalError("modulo by zero", e.line);
          return Value::make_int(((x % y) + y) % y);
        default: break;
      }
      FR_UNREACHABLE("arith");
    }
    case BinOp::Eq:
      return Value::make_bool(a == b);
    case BinOp::Ne:
      return Value::make_bool(!(a == b));
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge: {
      // Symbols compare by interning order, which is declaration order —
      // the "finite lattice" order of an enum like the ROUTE_C fault states.
      std::int64_t x, y;
      if (a.is_sym() && b.is_sym()) {
        x = a.as_sym();
        y = b.as_sym();
      } else {
        x = want_int(a, e.line, "comparison operand");
        y = want_int(b, e.line, "comparison operand");
      }
      switch (e.bin_op) {
        case BinOp::Lt: return Value::make_bool(x < y);
        case BinOp::Le: return Value::make_bool(x <= y);
        case BinOp::Gt: return Value::make_bool(x > y);
        case BinOp::Ge: return Value::make_bool(x >= y);
        default: break;
      }
      FR_UNREACHABLE("cmp");
    }
    case BinOp::In:
      return Value::make_bool(
          want_set(b, e.line, "IN right-hand side").contains(a));
    case BinOp::Union:
      return Value::make_set(want_set(a, e.line, "UNION operand")
                                 .set_union(want_set(b, e.line, "UNION operand")));
    case BinOp::Intersect:
      return Value::make_set(
          want_set(a, e.line, "INTERSECT operand")
              .set_intersect(want_set(b, e.line, "INTERSECT operand")));
    case BinOp::SetMinus:
      return Value::make_set(
          want_set(a, e.line, "SETMINUS operand")
              .set_minus(want_set(b, e.line, "SETMINUS operand")));
    case BinOp::And:
    case BinOp::Or:
      break;
  }
  FR_UNREACHABLE("bad binary op");
}

}  // namespace flexrouter::rules
