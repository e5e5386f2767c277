#include "ruleengine/bytecode.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "ruleengine/interp.hpp"

namespace flexrouter::rules {

namespace {

/// The interpreter's builtin catalogue: both engines accept the same names.
bool is_builtin_name(const std::string& name) {
  return Interpreter::builtin_id(name) >= 0;
}

/// Compile-time shape of an expression subtree: whether it mentions a name
/// currently bound in the compiler scope (parameter / quantifier variable),
/// and its static nesting height (the interpreter's eval depth).
struct ExprShape {
  bool scoped = false;
  int height = 0;
};

class Compiler {
 public:
  Compiler(const Program& prog, BytecodeProgram& out)
      : prog_(prog), out_(out), folder_(prog) {}

  void run() {
    out_.bases.resize(prog_.rule_bases.size());
    for (std::size_t i = 0; i < prog_.rule_bases.size(); ++i)
      compile_base(static_cast<int>(i));
  }

 private:
  // ------------------------------------------------------------- utilities
  int emit(Op op, std::int32_t a = 0, std::int32_t b = 0, std::int32_t c = 0,
           std::int32_t aux = 0, std::int32_t line = 0) {
    out_.code.push_back({op, a, b, c, aux, line});
    return static_cast<int>(out_.code.size()) - 1;
  }

  int here() const { return static_cast<int>(out_.code.size()); }

  /// Backpatch the jump target of the instruction at `pc`.
  void patch(int pc, int target) {
    Instr& in = out_.code[static_cast<std::size_t>(pc)];
    if (in.op == Op::Jump)
      in.a = target;
    else
      in.b = target;  // conditional jumps carry the target in b
  }

  std::int32_t add_const(const Value& v) {
    for (std::size_t i = 0; i < out_.consts.size(); ++i)
      if (out_.consts[i] == v) return static_cast<std::int32_t>(i);
    out_.consts.push_back(v);
    return static_cast<std::int32_t>(out_.consts.size()) - 1;
  }

  /// Contiguous run in the constant pool (EmitConst argument windows);
  /// reuses an existing run when one matches.
  std::int32_t add_const_block(const std::vector<Value>& vs) {
    for (std::size_t i = 0; i + vs.size() <= out_.consts.size(); ++i) {
      bool same = true;
      for (std::size_t j = 0; j < vs.size(); ++j)
        if (!(out_.consts[i + j] == vs[j])) {
          same = false;
          break;
        }
      if (same) return static_cast<std::int32_t>(i);
    }
    const auto start = static_cast<std::int32_t>(out_.consts.size());
    out_.consts.insert(out_.consts.end(), vs.begin(), vs.end());
    return start;
  }

  /// Defer a runtime error the interpreter would raise at this point.
  void trap(const std::string& msg, int line) {
    out_.traps.push_back(msg);
    emit(Op::Trap, static_cast<std::int32_t>(out_.traps.size()) - 1, 0, 0, 0,
         line);
  }

  std::int32_t intern_event(const std::string& name) {
    for (std::size_t i = 0; i < out_.events.size(); ++i)
      if (out_.events[i].name == name) return static_cast<std::int32_t>(i);
    BcEvent ev;
    ev.name = name;
    const RuleBase* rb = prog_.find_rule_base(name);
    ev.target_rb =
        rb ? static_cast<std::int32_t>(rb - prog_.rule_bases.data()) : -1;
    out_.events.push_back(std::move(ev));
    return static_cast<std::int32_t>(out_.events.size()) - 1;
  }

  void touch(int reg) { frame_high_ = std::max(frame_high_, reg + 1); }

  int scope_lookup(const std::string& name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
      if (it->first == name) return it->second;
    return -1;
  }

  ExprShape inspect(const Expr& e) const {
    ExprShape s;
    s.height = 1;
    auto merge = [&](const ExprPtr& child) {
      if (child == nullptr) return;
      const ExprShape c = inspect(*child);
      s.scoped = s.scoped || c.scoped;
      s.height = std::max(s.height, c.height + 1);
    };
    switch (e.kind) {
      case Expr::Kind::IntLit:
      case Expr::Kind::SymLit:
        break;
      case Expr::Kind::SetLit:
        for (const ExprPtr& a : e.args) merge(a);
        break;
      case Expr::Kind::Ref:
        if (e.args.empty() && scope_lookup(e.name) >= 0) s.scoped = true;
        for (const ExprPtr& a : e.args) merge(a);
        break;
      case Expr::Kind::Unary:
        merge(e.lhs);
        break;
      case Expr::Kind::Binary:
        merge(e.lhs);
        merge(e.rhs);
        break;
      case Expr::Kind::Quantified:
        merge(e.lhs);
        merge(e.rhs);
        break;
    }
    return s;
  }

  /// Constant-fold `e` when that provably matches runtime evaluation: the
  /// subtree must not mention scope-bound names (those outrank globals) and
  /// must stay within the interpreter's depth budget (deeper trees raise
  /// "evaluation too deep" at runtime, which folding would hide).
  std::optional<Value> try_fold(const ExprPtr& e, int depth) {
    const ExprShape s = inspect(*e);
    if (s.scoped) return std::nullopt;
    if (depth + s.height - 1 > 256) return std::nullopt;
    return folder_.try_const_eval(e);
  }

  // ---------------------------------------------- fire-invariant latching
  /// Everything an expression can read is stable within one firing: inputs
  /// are the paper's sampled signal pins, register writes commit in
  /// parallel after the firing. A subexpression whose leaves are inputs,
  /// registers and constants (no quantifier/parameter bindings, no subbase
  /// calls — those have observable side conditions) therefore evaluates to
  /// the same value at every occurrence of one firing, and is latched in a
  /// frame memo slot guarded by a valid bit. Premise chains re-testing the
  /// same conjuncts then degenerate to single-op replays — the software
  /// image of the RBR kernel's parallel premise evaluation.
  struct MemoEntry {
    std::int32_t bit = 0;  // valid bit in the base's mask register
    std::int32_t reg = 0;  // latched value slot
  };
  struct FpInfo {
    bool input_read = false;  // bare input read (provider call saved)
  };

  /// Structural fingerprint of `e` under the current scope; returns false
  /// when `e` is not fire-invariant. Names are encoded by resolved id, so
  /// equal fingerprints denote equal values regardless of shadowing.
  bool fingerprint(const Expr& e, std::string& out) const {
    switch (e.kind) {
      case Expr::Kind::IntLit:
        out += 'i';
        out += std::to_string(e.int_val);
        return true;
      case Expr::Kind::SymLit:
        out += 's';
        out += std::to_string(e.sym);
        return true;
      case Expr::Kind::SetLit:
        out += "S(";
        for (const ExprPtr& a : e.args)
          if (!fingerprint(*a, out)) return false;
        out += ')';
        return true;
      case Expr::Kind::Ref: {
        if (e.args.empty() && scope_lookup(e.name) >= 0) return false;
        if (const VarDecl* d = prog_.find_variable(e.name)) {
          out += 'v';
          out += std::to_string(d - prog_.variables.data());
          out += '(';
          for (const ExprPtr& a : e.args)
            if (!fingerprint(*a, out)) return false;
          out += ')';
          return true;
        }
        if (const InputDecl* in = prog_.find_input(e.name)) {
          out += 'n';
          out += std::to_string(in - prog_.inputs.data());
          out += '(';
          for (const ExprPtr& a : e.args)
            if (!fingerprint(*a, out)) return false;
          out += ')';
          return true;
        }
        if (e.args.empty() && prog_.constants.count(e.name)) {
          out += 'c';
          out += e.name;
          out += ';';
          return true;
        }
        if (is_builtin_name(e.name)) {
          out += 'b';
          out += e.name;
          out += '(';
          for (const ExprPtr& a : e.args)
            if (!fingerprint(*a, out)) return false;
          out += ')';
          return true;
        }
        return false;  // subbase call or unknown name
      }
      case Expr::Kind::Unary:
        out += 'u';
        out += std::to_string(static_cast<int>(e.un_op));
        return fingerprint(*e.lhs, out);
      case Expr::Kind::Binary:
        out += 'o';
        out += std::to_string(static_cast<int>(e.bin_op));
        return fingerprint(*e.lhs, out) && fingerprint(*e.rhs, out);
      case Expr::Kind::Quantified:
        return false;  // per-iteration binding: not fire-invariant
    }
    return false;
  }

  /// Pre-scan: count fire-invariant subexpression occurrences under the
  /// live compiler scope. Over-approximation is safe — compile_expr latches
  /// only fingerprints that were assigned a slot.
  void scan_expr(const ExprPtr& e) {
    if (e == nullptr) return;
    // Folded subtrees compile to one constant: nothing inside ever runs.
    if (try_fold(e, 2)) return;
    if (e->kind == Expr::Kind::Quantified) {
      scan_expr(e->lhs);
      scope_.emplace_back(e->name, 0);
      scan_expr(e->rhs);
      scope_.pop_back();
      return;
    }
    std::string f;
    if (fingerprint(*e, f)) {
      FpInfo& info = fp_counts_[std::move(f)];
      if (e->kind == Expr::Kind::Ref &&
          prog_.find_variable(e->name) == nullptr &&
          prog_.find_input(e->name) != nullptr &&
          !(e->args.empty() && scope_lookup(e->name) >= 0))
        info.input_read = true;
    }
    for (const ExprPtr& a : e->args) scan_expr(a);
    scan_expr(e->lhs);
    scan_expr(e->rhs);
  }

  void scan_cmds(const std::vector<Cmd>& cmds) {
    for (const Cmd& c : cmds) {
      for (const ExprPtr& a : c.args) scan_expr(a);
      scan_expr(c.value);
      if (c.kind == Cmd::Kind::ForAll) {
        scan_expr(c.domain);
        scope_.emplace_back(c.bound, 0);
        scan_cmds(c.body);
        scope_.pop_back();
      }
    }
  }

  // ----------------------------------------------------------- expressions
  /// Emit code leaving the value of `e` in frame register `dst`; registers
  /// above `dst` are scratch. `depth` is the interpreter's eval depth of
  /// this node (1-based), tracked to replicate the depth limit.
  void compile_expr(const ExprPtr& e, int dst, int depth) {
    FR_REQUIRE(e != nullptr);
    touch(dst);
    if (depth > 256) {
      trap("evaluation too deep", e->line);
      return;
    }
    if (auto v = try_fold(e, depth)) {
      emit(Op::LoadConst, dst, add_const(*v));
      return;
    }
    // Fire-invariant subexpression with a latch slot: replay when valid,
    // else evaluate once and latch. The body keeps its own error/laziness
    // behaviour — a throwing first evaluation never stores.
    if (!expr_memo_.empty()) {
      std::string f;
      if (fingerprint(*e, f)) {
        const auto it = expr_memo_.find(f);
        if (it != expr_memo_.end()) {
          const MemoEntry& m = it->second;
          // A bare input read latches in one fused instruction — the
          // dominant case (node, dest, in_port, ...).
          if (e->kind == Expr::Kind::Ref && e->args.empty() &&
              scope_lookup(e->name) < 0 &&
              prog_.find_variable(e->name) == nullptr) {
            if (const InputDecl* in = prog_.find_input(e->name)) {
              if (in->index_domains.empty()) {
                emit(Op::LoadInputMemo, dst,
                     static_cast<std::int32_t>(in - prog_.inputs.data()),
                     m.reg, m.bit, e->line);
                return;
              }
            }
          }
          const int j_hit = emit(Op::MemoCheck, dst, -1, m.reg, m.bit,
                                 e->line);
          compile_expr_raw(e, dst, depth);
          emit(Op::MemoStore, dst, 0, m.reg, m.bit, e->line);
          patch(j_hit, here());
          return;
        }
      }
    }
    compile_expr_raw(e, dst, depth);
  }

  void compile_expr_raw(const ExprPtr& e, int dst, int depth) {
    switch (e->kind) {
      case Expr::Kind::IntLit:
        emit(Op::LoadConst, dst, add_const(Value::make_int(e->int_val)));
        return;
      case Expr::Kind::SymLit:
        emit(Op::LoadConst, dst, add_const(Value::make_sym(e->sym)));
        return;
      case Expr::Kind::SetLit: {
        const int n = static_cast<int>(e->args.size());
        for (int i = 0; i < n; ++i)
          compile_expr(e->args[static_cast<std::size_t>(i)], dst + i,
                       depth + 1);
        emit(Op::MakeSet, dst, dst, n, 0, e->line);
        return;
      }
      case Expr::Kind::Ref:
        compile_ref(*e, dst, depth);
        return;
      case Expr::Kind::Unary:
        compile_expr(e->lhs, dst, depth + 1);
        emit(e->un_op == UnOp::Not ? Op::Not : Op::Neg, dst, dst, 0, 0,
             e->line);
        return;
      case Expr::Kind::Binary:
        compile_binary(*e, dst, depth);
        return;
      case Expr::Kind::Quantified:
        compile_quantified(*e, dst, depth);
        return;
    }
    FR_UNREACHABLE("bad expr kind");
  }

  void compile_ref(const Expr& e, int dst, int depth) {
    // Resolution order mirrors Interpreter::eval_ref.
    // 1. Bound names (parameters, quantifier variables), innermost first.
    if (e.args.empty()) {
      const int reg = scope_lookup(e.name);
      if (reg >= 0) {
        emit(Op::Move, dst, reg);
        return;
      }
    }
    // 2. Program variables (registers).
    if (const VarDecl* decl = prog_.find_variable(e.name)) {
      const auto var_id =
          static_cast<std::int32_t>(decl - prog_.variables.data());
      if (decl->is_array()) {
        if (e.args.size() != 1) {
          trap("array '" + e.name + "' needs exactly one index", e.line);
          return;
        }
        if (auto idx = try_fold(e.args[0], depth + 1)) {
          if (idx->is_int() && idx->as_int() >= 0 &&
              idx->as_int() < decl->array_size) {
            emit(Op::LoadReg, dst, var_id,
                 static_cast<std::int32_t>(idx->as_int()), 0, e.line);
            return;
          }
          // Out-of-range or non-int constant index: take the runtime path
          // so the error (and its kind) matches the interpreter.
        }
        compile_expr(e.args[0], dst, depth + 1);
        emit(Op::LoadRegIdx, dst, var_id, dst, 0, e.line);
        return;
      }
      if (!e.args.empty()) {
        trap("scalar variable '" + e.name + "' is not indexed", e.line);
        return;
      }
      emit(Op::LoadReg, dst, var_id, 0, 0, e.line);
      return;
    }
    // 3. Inputs (host signals). Fire-invariant reads are latched by the
    // memo wrapper in compile_expr; this is the evaluate-once path.
    if (const InputDecl* in = prog_.find_input(e.name)) {
      const auto input_id =
          static_cast<std::int32_t>(in - prog_.inputs.data());
      if (e.args.size() != in->index_domains.size()) {
        trap("wrong number of indices for input '" + e.name + "'", e.line);
        return;
      }
      const int n = static_cast<int>(e.args.size());
      for (int i = 0; i < n; ++i) {
        compile_expr(e.args[static_cast<std::size_t>(i)], dst + i, depth + 1);
        // An index constant provably inside its domain needs no runtime
        // check; anything else (including provable failures) keeps the
        // interpreter's check and error.
        const auto idx = try_fold(e.args[static_cast<std::size_t>(i)],
                                  depth + 1);
        if (idx &&
            in->index_domains[static_cast<std::size_t>(i)].contains(*idx))
          continue;
        emit(Op::CheckInIdx, dst + i, input_id, i, 0, e.line);
      }
      emit(Op::LoadInput, dst, input_id, dst, n, e.line);
      return;
    }
    // 4. Named constants.
    if (e.args.empty()) {
      const auto it = prog_.constants.find(e.name);
      if (it != prog_.constants.end()) {
        emit(Op::LoadConst, dst, add_const(it->second));
        return;
      }
    }
    // 5. Builtin functions.
    if (is_builtin_name(e.name)) {
      compile_builtin(e, dst, depth);
      return;
    }
    // 6. Subbases (pure rule-base calls).
    if (const RuleBase* rb = prog_.find_rule_base(e.name)) {
      const auto rb_id = static_cast<std::int32_t>(rb - prog_.rule_bases.data());
      const int n = static_cast<int>(e.args.size());
      for (int i = 0; i < n; ++i)
        compile_expr(e.args[static_cast<std::size_t>(i)], dst + i, depth + 1);
      touch(dst + std::max(n - 1, 0));
      emit(Op::CallSub, dst, rb_id, dst, n, e.line);
      return;
    }
    trap("unknown name '" + e.name + "'", e.line);
  }

  void compile_builtin(const Expr& e, int dst, int depth) {
    const int n = static_cast<int>(e.args.size());
    auto compile_args = [&] {
      for (int i = 0; i < n; ++i)
        compile_expr(e.args[static_cast<std::size_t>(i)], dst + i, depth + 1);
      touch(dst + std::max(n - 1, 0));
    };
    auto expects = [&](int want) {
      trap("builtin '" + e.name + "' expects " + std::to_string(want) +
               " arguments",
           e.line);
    };
    if (e.name == "min" || e.name == "max") {
      if (n == 0) {
        trap("builtin '" + e.name + "' needs arguments", e.line);
        return;
      }
      compile_args();
      const Op op = e.name == "min" ? Op::Min2 : Op::Max2;
      if (n == 1) {
        emit(op, dst, dst, dst, 0, e.line);
        return;
      }
      for (int i = 1; i < n; ++i) emit(op, dst, dst, dst + i, 0, e.line);
      return;
    }
    struct Fixed {
      const char* name;
      int arity;
      Op op;
    };
    static const Fixed fixed[] = {
        {"abs", 1, Op::Abs},           {"signum", 1, Op::Signum},
        {"card", 1, Op::Card},         {"popcount", 1, Op::Popcount},
        {"xor", 2, Op::Xor},           {"bitand", 2, Op::BitAnd},
        {"bit", 2, Op::Bit},           {"meshdist", 4, Op::Meshdist},
    };
    for (const Fixed& f : fixed) {
      if (e.name != f.name) continue;
      if (n != f.arity) {
        expects(f.arity);
        return;
      }
      // `bit(x, literal)` — the premise-chain workhorse — skips the index
      // register and its runtime range check. Out-of-range or non-int
      // indices keep the generic path so the error matches Op::Bit's.
      if (f.op == Op::Bit) {
        if (auto idx = try_fold(e.args[1], depth + 1)) {
          if (idx->is_int() && idx->as_int() >= 0 && idx->as_int() <= 62) {
            compile_expr(e.args[0], dst, depth + 1);
            emit(Op::BitConst, dst, dst,
                 static_cast<std::int32_t>(idx->as_int()), 0, e.line);
            return;
          }
        }
      }
      compile_args();
      // Unary ops read r[b]; binary ops read r[b], r[c]; meshdist reads
      // r[b..b+3].
      emit(f.op, dst, dst, f.arity >= 2 ? dst + 1 : 0, 0, e.line);
      return;
    }
    FR_UNREACHABLE("builtin catalogue mismatch");
  }

  void compile_binary(const Expr& e, int dst, int depth) {
    if (e.bin_op == BinOp::And || e.bin_op == BinOp::Or) {
      // Short-circuit, like the interpreter (including its as_bool checks).
      compile_expr(e.lhs, dst, depth + 1);
      const int jshort = e.bin_op == BinOp::And
                             ? emit(Op::JumpIfFalse, dst, -1)
                             : emit(Op::JumpIfTrue, dst, -1);
      compile_expr(e.rhs, dst, depth + 1);
      emit(Op::ToBool, dst);
      const int jend = emit(Op::Jump, -1);
      patch(jshort, here());
      emit(Op::LoadConst, dst,
           add_const(Value::make_bool(e.bin_op == BinOp::Or)));
      patch(jend, here());
      return;
    }

    // Fused forms for the hot premise shapes `x = const` / `x IN constset`:
    // the right operand folds, the left does not (else the whole node folds).
    if (e.bin_op == BinOp::Eq || e.bin_op == BinOp::Ne ||
        e.bin_op == BinOp::In) {
      if (auto rhs = try_fold(e.rhs, depth + 1)) {
        compile_expr(e.lhs, dst, depth + 1);
        const Op op = e.bin_op == BinOp::Eq   ? Op::CmpEqConst
                      : e.bin_op == BinOp::Ne ? Op::CmpNeConst
                                              : Op::TestInConst;
        emit(op, dst, dst, add_const(*rhs), 0, e.line);
        return;
      }
    }

    compile_expr(e.lhs, dst, depth + 1);
    compile_expr(e.rhs, dst + 1, depth + 1);
    Op op = Op::Halt;
    switch (e.bin_op) {
      case BinOp::Add: op = Op::Add; break;
      case BinOp::Sub: op = Op::Sub; break;
      case BinOp::Mul: op = Op::Mul; break;
      case BinOp::Div: op = Op::Div; break;
      case BinOp::Mod: op = Op::Mod; break;
      case BinOp::Eq: op = Op::CmpEq; break;
      case BinOp::Ne: op = Op::CmpNe; break;
      case BinOp::Lt: op = Op::CmpLt; break;
      case BinOp::Le: op = Op::CmpLe; break;
      case BinOp::Gt: op = Op::CmpGt; break;
      case BinOp::Ge: op = Op::CmpGe; break;
      case BinOp::In: op = Op::TestIn; break;
      case BinOp::Union: op = Op::Union; break;
      case BinOp::Intersect: op = Op::Intersect; break;
      case BinOp::SetMinus: op = Op::SetMinus; break;
      case BinOp::And:
      case BinOp::Or:
        FR_UNREACHABLE("handled above");
    }
    emit(op, dst, dst, dst + 1, 0, e.line);
  }

  void compile_quantified(const Expr& e, int dst, int depth) {
    const int r_dom = dst + 1, r_len = dst + 2, r_i = dst + 3, r_one = dst + 4,
              r_t = dst + 5, r_var = dst + 6, r_body = dst + 7;
    touch(r_body);
    compile_expr(e.lhs, r_dom, depth + 1);
    emit(Op::DomLen, r_len, r_dom, 0, 0, e.lhs->line);
    emit(Op::LoadConst, r_i, add_const(Value::make_int(0)));
    emit(Op::LoadConst, r_one, add_const(Value::make_int(1)));
    const int l_cond = here();
    emit(Op::CmpLt, r_t, r_i, r_len, 0, e.line);
    const int j_exhaust = emit(Op::JumpIfFalse, r_t, -1);
    emit(Op::DomGet, r_var, r_dom, r_i);
    scope_.emplace_back(e.name, r_var);
    compile_expr(e.rhs, r_body, depth + 1);
    scope_.pop_back();
    // EXISTS stops on the first true body, FORALL on the first false one —
    // including the interpreter's as_bool check on every body value.
    const int j_found = e.quant == Quant::Exists
                            ? emit(Op::JumpIfTrue, r_body, -1)
                            : emit(Op::JumpIfFalse, r_body, -1);
    emit(Op::Add, r_i, r_i, r_one, 0, e.line);
    emit(Op::Jump, l_cond);
    patch(j_exhaust, here());
    emit(Op::LoadConst, dst, add_const(Value::make_bool(e.quant == Quant::ForAll)));
    const int j_end = emit(Op::Jump, -1);
    patch(j_found, here());
    emit(Op::LoadConst, dst, add_const(Value::make_bool(e.quant == Quant::Exists)));
    patch(j_end, here());
  }

  // ------------------------------------------------------------- commands
  void compile_cmds(const std::vector<Cmd>& cmds, int scratch) {
    for (const Cmd& c : cmds) {
      switch (c.kind) {
        case Cmd::Kind::Assign: {
          const VarDecl* decl = prog_.find_variable(c.target);
          if (decl == nullptr) {
            trap("assignment to unknown variable '" + c.target + "'", c.line);
            break;
          }
          const auto var_id =
              static_cast<std::int32_t>(decl - prog_.variables.data());
          if (decl->is_array()) {
            if (c.args.size() != 1) {
              trap("array variable '" + c.target +
                       "' needs exactly one index",
                   c.line);
              break;
            }
            compile_expr(c.args[0], scratch, 1);
            // The index type check precedes RHS evaluation, like exec_cmds.
            emit(Op::CheckIdxInt, scratch, 0, 0, 0, c.line);
            compile_expr(c.value, scratch + 1, 1);
            emit(Op::Store, scratch + 1, var_id, scratch, 0, c.line);
          } else {
            if (!c.args.empty()) {
              trap("scalar variable '" + c.target + "' is not indexed",
                   c.line);
              break;
            }
            compile_expr(c.value, scratch, 1);
            emit(Op::Store, scratch, var_id, -1, 0, c.line);
          }
          break;
        }
        case Cmd::Kind::Return:
          compile_expr(c.value, scratch, 1);
          emit(Op::Return, scratch, 0, 0, 0, c.line);
          break;
        case Cmd::Kind::Emit: {
          const int n = static_cast<int>(c.args.size());
          // All-constant argument lists (the typical `!cand(2, 0, 1)`) are
          // interned as one pool run — no per-fire register writes.
          std::vector<Value> folded;
          folded.reserve(static_cast<std::size_t>(n));
          for (const ExprPtr& a : c.args) {
            auto v = try_fold(a, 1);
            if (!v) break;
            folded.push_back(*std::move(v));
          }
          if (static_cast<int>(folded.size()) == n) {
            emit(Op::EmitConst, add_const_block(folded),
                 intern_event(c.target), n, 0, c.line);
            break;
          }
          for (int i = 0; i < n; ++i)
            compile_expr(c.args[static_cast<std::size_t>(i)], scratch + i, 1);
          touch(scratch + std::max(n - 1, 0));
          emit(Op::Emit, scratch, intern_event(c.target), n, 0, c.line);
          break;
        }
        case Cmd::Kind::ForAll: {
          const int r_dom = scratch, r_len = scratch + 1, r_i = scratch + 2,
                    r_one = scratch + 3, r_t = scratch + 4,
                    r_var = scratch + 5;
          touch(r_var);
          compile_expr(c.domain, r_dom, 1);
          emit(Op::DomLen, r_len, r_dom, 0, 0, c.domain->line);
          emit(Op::LoadConst, r_i, add_const(Value::make_int(0)));
          emit(Op::LoadConst, r_one, add_const(Value::make_int(1)));
          const int l_cond = here();
          emit(Op::CmpLt, r_t, r_i, r_len, 0, c.line);
          const int j_done = emit(Op::JumpIfFalse, r_t, -1);
          emit(Op::DomGet, r_var, r_dom, r_i);
          scope_.emplace_back(c.bound, r_var);
          compile_cmds(c.body, scratch + 6);
          scope_.pop_back();
          emit(Op::Add, r_i, r_i, r_one, 0, c.line);
          emit(Op::Jump, l_cond);
          patch(j_done, here());
          break;
        }
      }
    }
  }

  /// Compile a premise (or, recursively, one AND operand of it) so control
  /// falls through when it holds and branches to a to-be-patched target
  /// (appended to `jumps`) when it does not. AND chains decompose into
  /// per-conjunct branches — no boolean is materialized — and comparison
  /// conjuncts fuse into compare-and-branch ops. Evaluation order, depth
  /// accounting and errors replicate the interpreter: an AND operand is
  /// checked via Value::as_bool (JumpIfFalse) exactly as eval_binary does,
  /// the premise root via the premise type check, and a fused comparison
  /// raises the same "comparison operand" errors as its Cmp* twin.
  void compile_premise(const ExprPtr& p, int scratch, int depth,
                       bool conjunct, int rule_line, std::vector<int>& jumps) {
    if (p->kind == Expr::Kind::Binary && !try_fold(p, depth)) {
      std::string f;
      const bool latched = !expr_memo_.empty() && fingerprint(*p, f) &&
                           expr_memo_.find(f) != expr_memo_.end();
      if (!latched) {
        if (p->bin_op == BinOp::And) {
          compile_premise(p->lhs, scratch, depth + 1, true, rule_line, jumps);
          compile_premise(p->rhs, scratch, depth + 1, true, rule_line, jumps);
          return;
        }
        Op fused = Op::Halt;
        switch (p->bin_op) {
          case BinOp::Eq: fused = Op::JumpUnlessEq; break;
          case BinOp::Ne: fused = Op::JumpUnlessNe; break;
          case BinOp::Lt: fused = Op::JumpUnlessLt; break;
          case BinOp::Le: fused = Op::JumpUnlessLe; break;
          case BinOp::Gt: fused = Op::JumpUnlessGt; break;
          case BinOp::Ge: fused = Op::JumpUnlessGe; break;
          default: break;
        }
        if (fused != Op::Halt) {
          if (p->bin_op == BinOp::Eq || p->bin_op == BinOp::Ne) {
            if (auto rhs = try_fold(p->rhs, depth + 1)) {
              compile_expr(p->lhs, scratch, depth + 1);
              jumps.push_back(emit(p->bin_op == BinOp::Eq
                                       ? Op::JumpUnlessEqConst
                                       : Op::JumpUnlessNeConst,
                                   scratch, -1, add_const(*rhs), 0, p->line));
              return;
            }
          }
          compile_expr(p->lhs, scratch, depth + 1);
          compile_expr(p->rhs, scratch + 1, depth + 1);
          jumps.push_back(
              emit(fused, scratch, -1, scratch + 1, 0, p->line));
          return;
        }
      }
    }
    compile_expr(p, scratch, depth);
    jumps.push_back(conjunct
                        ? emit(Op::JumpIfFalse, scratch, -1, 0, 0, p->line)
                        : emit(Op::JumpUnlessPremise, scratch, -1, 0, 0,
                               rule_line));
  }

  void compile_base(int rb_id) {
    const RuleBase& rb = prog_.rule_bases[static_cast<std::size_t>(rb_id)];
    frame_high_ = static_cast<int>(rb.params.size());
    scope_.clear();
    for (std::size_t i = 0; i < rb.params.size(); ++i)
      scope_.emplace_back(rb.params[i].name, static_cast<int>(i));
    BcRuleBase& base = out_.bases[static_cast<std::size_t>(rb_id)];
    base.entry = here();

    // Frame layout: params | latch mask + memo slots | scratch. Slots are
    // assigned to bare input reads only: those always save a provider call
    // on replay, whereas latching derived subexpressions costs mask
    // maintenance on the (dominant) first-rule-fires path and measures as a
    // net loss under first-match rule scanning. The mask register holds 62
    // usable bits.
    fp_counts_.clear();
    expr_memo_.clear();
    for (const Rule& rule : rb.rules) {
      scan_expr(rule.premise);
      scan_cmds(rule.conclusion);
    }
    int scratch = static_cast<int>(rb.params.size());
    std::int32_t bit = 0;
    int next_slot = scratch + 1;  // slot regs follow the mask register
    for (const auto& [f, info] : fp_counts_) {
      if (!info.input_read) continue;
      if (bit >= 62) break;
      expr_memo_.emplace(f, MemoEntry{bit++, next_slot++});
    }
    if (bit > 0) {
      base.mask_reg = scratch;
      scratch = next_slot;
    }
    touch(scratch);
    std::vector<int> premise_jumps;
    for (std::size_t r = 0; r < rb.rules.size(); ++r) {
      const Rule& rule = rb.rules[r];
      premise_jumps.clear();
      compile_premise(rule.premise, scratch, 1, false, rule.line,
                      premise_jumps);
      emit(Op::BeginRule, static_cast<std::int32_t>(r), 0, 0, 0, rule.line);
      compile_cmds(rule.conclusion, scratch);
      emit(Op::Halt);
      for (const int j : premise_jumps) patch(j, here());
    }
    emit(Op::Halt);  // no rule applicable
    base.frame_size = frame_high_;
  }

  const Program& prog_;
  BytecodeProgram& out_;
  Interpreter folder_;  // constant folding via the reference evaluator
  std::vector<std::pair<std::string, int>> scope_;
  std::map<std::string, FpInfo> fp_counts_;    // current base's scan result
  std::map<std::string, MemoEntry> expr_memo_; // fingerprints with a slot
  int frame_high_ = 0;
};

}  // namespace

std::int32_t BytecodeProgram::event_id(const std::string& name) const {
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events[i].name == name) return static_cast<std::int32_t>(i);
  return -1;
}

std::shared_ptr<const BytecodeProgram> compile_bytecode(const Program& prog) {
  auto bc = std::make_shared<BytecodeProgram>();
  bc->prog_ = &prog;
  Compiler c(prog, *bc);
  c.run();
  return bc;
}

bool RouteAnalysis::reads_input(const std::string& name) const {
  return std::binary_search(inputs_read.begin(), inputs_read.end(), name);
}

RouteAnalysis analyze_reachable(const Program& prog, const std::string& root) {
  RouteAnalysis out;
  std::set<const RuleBase*> visited;
  std::vector<const RuleBase*> work;
  std::set<std::string> inputs;

  auto enqueue = [&](const RuleBase* rb) {
    if (rb != nullptr && visited.insert(rb).second) work.push_back(rb);
  };

  std::function<void(const ExprPtr&)> walk_expr = [&](const ExprPtr& e) {
    if (e == nullptr) return;
    if (e->kind == Expr::Kind::Ref) {
      // Conservative: scope shadowing is ignored, so this over-approximates
      // both input reads and subbase reachability (never under-approximates).
      if (prog.find_input(e->name) != nullptr) inputs.insert(e->name);
      enqueue(prog.find_rule_base(e->name));
    }
    for (const ExprPtr& a : e->args) walk_expr(a);
    walk_expr(e->lhs);
    walk_expr(e->rhs);
  };

  std::function<void(const std::vector<Cmd>&)> walk_cmds =
      [&](const std::vector<Cmd>& cmds) {
        for (const Cmd& c : cmds) {
          switch (c.kind) {
            case Cmd::Kind::Assign:
              out.writes_state = true;
              for (const ExprPtr& a : c.args) walk_expr(a);
              walk_expr(c.value);
              break;
            case Cmd::Kind::Return:
              walk_expr(c.value);
              break;
            case Cmd::Kind::Emit:
              enqueue(prog.find_rule_base(c.target));
              for (const ExprPtr& a : c.args) walk_expr(a);
              break;
            case Cmd::Kind::ForAll:
              walk_expr(c.domain);
              walk_cmds(c.body);
              break;
          }
        }
      };

  enqueue(prog.find_rule_base(root));
  while (!work.empty()) {
    const RuleBase* rb = work.back();
    work.pop_back();
    for (const Rule& r : rb->rules) {
      walk_expr(r.premise);
      walk_cmds(r.conclusion);
    }
  }
  out.inputs_read.assign(inputs.begin(), inputs.end());
  return out;
}

}  // namespace flexrouter::rules
