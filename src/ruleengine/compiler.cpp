// ARON rule compiler: flattens a rule base into a completely filled table
// (see rule_table.hpp for the model). The pipeline is
//   1. decompose premises into atoms (maximal non-boolean subexpressions),
//   2. classify each atom: covered by direct-indexed signals, or a 1-bit
//      atom feature computed by a premise FCFB,
//   3. enumerate the feature space, evaluate every rule premise per point,
//      resolve conflicts (first applicable rule wins) and fill gaps with the
//      no-op conclusion,
//   4. account hardware: entries x width, premise/conclusion FCFBs.
#include "ruleengine/rule_table.hpp"

#include <map>
#include <set>
#include <sstream>

#include "common/bitops.hpp"

namespace flexrouter::rules {

namespace {

bool is_bool_structure(const Expr& e) {
  return (e.kind == Expr::Kind::Binary &&
          (e.bin_op == BinOp::And || e.bin_op == BinOp::Or)) ||
         (e.kind == Expr::Kind::Unary && e.un_op == UnOp::Not);
}

/// Collect atoms: maximal subexpressions under the AND/OR/NOT skeleton.
void collect_atoms(const ExprPtr& e, std::vector<ExprPtr>& out) {
  FR_REQUIRE(e != nullptr);
  if (is_bool_structure(*e)) {
    collect_atoms(e->lhs, out);
    if (e->kind == Expr::Kind::Binary) collect_atoms(e->rhs, out);
    return;
  }
  out.push_back(e);
}

/// A stateful scalar signal usable as a direct index axis.
struct Signal {
  std::string key;
  ExprPtr expr;
  Domain domain = Domain::boolean();
  bool is_param = false;
};

class AxisBuilder {
 public:
  AxisBuilder(const Program& prog, const RuleBase& rb,
              const CompileOptions& opts)
      : prog_(&prog), rb_(&rb), opts_(&opts) {}

  /// Domain of a Ref that names a param / variable / input; nullopt if the
  /// name is not such a signal. Sets *is_param for parameter signals.
  std::optional<Domain> signal_domain(const Expr& e, bool* is_param) const {
    *is_param = false;
    for (const Param& p : rb_->params)
      if (p.name == e.name && e.args.empty()) {
        *is_param = true;
        return p.domain;
      }
    if (const VarDecl* v = prog_->find_variable(e.name)) {
      if (v->is_array() ? e.args.size() == 1 : e.args.empty())
        return v->domain;
      return std::nullopt;
    }
    if (const InputDecl* in = prog_->find_input(e.name)) {
      if (e.args.size() == in->index_domains.size()) return in->domain;
      return std::nullopt;
    }
    return std::nullopt;
  }

  bool signal_directable(const Signal& s) const {
    switch (s.domain.kind()) {
      case Domain::Kind::Symbols:
        return s.domain.cardinality() <= opts_->direct_symbol_threshold;
      case Domain::Kind::IntRange:
      case Domain::Kind::Boolean:
        return s.domain.cardinality() <=
               (s.is_param ? opts_->direct_param_threshold
                           : opts_->direct_int_threshold);
      case Domain::Kind::SetOf:
        return false;
    }
    return false;
  }

  /// True if `e` only uses literals, constants and parameter names — such
  /// expressions are legal inside a direct signal's index arguments.
  bool is_static_index(const ExprPtr& e) const {
    if (!e) return true;
    switch (e->kind) {
      case Expr::Kind::IntLit:
      case Expr::Kind::SymLit:
        return true;
      case Expr::Kind::SetLit:
        for (const auto& a : e->args)
          if (!is_static_index(a)) return false;
        return true;
      case Expr::Kind::Ref: {
        for (const Param& p : rb_->params)
          if (p.name == e->name && e->args.empty()) return true;
        if (e->args.empty() && prog_->constants.count(e->name) > 0)
          return true;
        return false;
      }
      case Expr::Kind::Unary:
        return is_static_index(e->lhs);
      case Expr::Kind::Binary:
        return is_static_index(e->lhs) && is_static_index(e->rhs);
      case Expr::Kind::Quantified:
        return false;
    }
    return false;
  }

  /// Walk an atom collecting its stateful signal leaves; returns false if
  /// the atom contains anything that prevents direct coverage (quantifier,
  /// stateful index arguments, set-typed signals, unknown constructs).
  bool collect_signals(const ExprPtr& e, std::vector<Signal>& out) const {
    if (!e) return true;
    switch (e->kind) {
      case Expr::Kind::IntLit:
      case Expr::Kind::SymLit:
        return true;
      case Expr::Kind::SetLit:
        for (const auto& a : e->args)
          if (!collect_signals(a, out)) return false;
        return true;
      case Expr::Kind::Quantified:
        return false;
      case Expr::Kind::Unary:
        return collect_signals(e->lhs, out);
      case Expr::Kind::Binary:
        return collect_signals(e->lhs, out) && collect_signals(e->rhs, out);
      case Expr::Kind::Ref: {
        bool is_param = false;
        const auto dom = signal_domain(*e, &is_param);
        if (dom) {
          for (const auto& a : e->args)
            if (!is_static_index(a)) return false;
          Signal s;
          s.key = to_string(*e, prog_->syms);
          s.expr = e;
          s.domain = *dom;
          s.is_param = is_param;
          out.push_back(std::move(s));
          return true;
        }
        if (e->args.empty() && prog_->constants.count(e->name) > 0)
          return true;
        // Builtins over signals: recurse into arguments.
        if (!e->args.empty()) {
          for (const auto& a : e->args)
            if (!collect_signals(a, out)) return false;
          // A builtin wrapping signals needs arithmetic before indexing —
          // that is FCFB work, not direct indexing.
          return false;
        }
        return false;  // unknown bare name
      }
    }
    return false;
  }

 private:
  const Program* prog_;
  const RuleBase* rb_;
  const CompileOptions* opts_;
};

std::string conclusion_text(const Rule& r, const SymTable& syms) {
  std::ostringstream os;
  for (std::size_t i = 0; i < r.conclusion.size(); ++i) {
    if (i) os << ", ";
    os << to_string(r.conclusion[i], syms);
  }
  return os.str();
}

}  // namespace

double CompiledRuleBase::decision_delay_units() const {
  const double fcfb_stage1 = premise_fcfbs_.max_delay();
  const double fcfb_stage2 = conclusion_fcfbs_.max_delay();
  const double table_access = 2.0;  // one RAM/PAL access
  return fcfb_stage1 + fcfb_stage2 + table_access;
}

std::uint64_t CompiledRuleBase::flat_index(
    const std::vector<std::uint64_t>& axis_vals) const {
  FR_REQUIRE(axis_vals.size() == axes_.size());
  std::uint64_t idx = 0;
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    FR_ASSERT(axis_vals[i] < axes_[i].cardinality());
    idx = idx * axes_[i].cardinality() + axis_vals[i];
  }
  return idx;
}

FireResult CompiledRuleBase::fire(Interpreter& interp, RuleEnv& env,
                                  const std::vector<Value>& args) const {
  FR_REQUIRE(args.size() == source_->params.size());
  std::vector<std::pair<std::string, Value>> bindings;
  bindings.reserve(args.size());
  for (std::size_t i = 0; i < args.size(); ++i)
    bindings.emplace_back(source_->params[i].name, args[i]);

  // Premise processing: evaluate every axis against live state.
  std::vector<std::uint64_t> axis_vals;
  axis_vals.reserve(axes_.size());
  for (const FeatureAxis& axis : axes_) {
    const Value v = interp.eval_expr(env, axis.expr, bindings);
    if (axis.kind == FeatureAxis::Kind::Atom) {
      axis_vals.push_back(v.as_bool() ? 1 : 0);
    } else {
      FR_REQUIRE_MSG(axis.domain.contains(v),
                     "signal '" + axis.key + "' outside its domain");
      axis_vals.push_back(axis.domain.index_of(v));
    }
  }

  // RBR kernel: one table access.
  const int rule = table_[static_cast<std::size_t>(flat_index(axis_vals))];
  if (rule < 0) {
    FireResult r;
    r.rule_index = -1;
    return r;
  }
  // Conclusion processing.
  return interp.exec_conclusion(env, *source_, rule, args);
}

std::string CompiledRuleBase::describe(const SymTable& syms) const {
  std::ostringstream os;
  os << name_ << ": " << entries_ << " x " << width_bits_ << " bits ("
     << table_bits() << " total), axes:";
  for (const FeatureAxis& a : axes_) {
    os << "\n  " << (a.kind == FeatureAxis::Kind::Direct ? "direct " : "atom   ")
       << a.key << "  [" << a.cardinality() << " values]";
  }
  os << "\n  conclusions: " << conclusions_.size() - 1 << " distinct";
  os << "\n  premise FCFBs: " << premise_fcfbs_.to_string();
  os << "\n  conclusion FCFBs: " << conclusion_fcfbs_.to_string();
  (void)syms;
  return os.str();
}

CompiledRuleBase compile_rule_base(const Program& prog, const RuleBase& rb,
                                   Interpreter& interp,
                                   const CompileOptions& opts) {
  CompiledRuleBase out;
  out.name_ = rb.name;
  out.source_ = &rb;

  AxisBuilder builder(prog, rb, opts);

  // ---- pass 1: atoms and their classification ------------------------------
  struct AtomInfo {
    ExprPtr expr;
    std::string key;
    bool direct_covered = false;
    std::vector<Signal> signals;
  };
  std::vector<AtomInfo> atoms;
  std::set<std::string> atom_seen;
  for (const Rule& r : rb.rules) {
    std::vector<ExprPtr> raw;
    collect_atoms(r.premise, raw);
    for (const ExprPtr& a : raw) {
      // Constant atoms (e.g. a literal TRUE premise) fold away entirely.
      if (interp.try_const_eval(a)) continue;
      AtomInfo info;
      info.expr = a;
      info.key = to_string(*a, prog.syms);
      if (!atom_seen.insert(info.key).second) continue;
      std::vector<Signal> sigs;
      const bool clean = builder.collect_signals(a, sigs);
      bool directable = clean && !sigs.empty();
      for (const Signal& s : sigs)
        directable = directable && builder.signal_directable(s);
      info.direct_covered = directable;
      info.signals = std::move(sigs);
      atoms.push_back(std::move(info));
    }
  }

  // ---- pass 2: build the axis list -----------------------------------------
  std::map<std::string, std::size_t> axis_index;  // key -> axes_ position
  auto add_axis = [&](FeatureAxis axis) {
    if (axis_index.count(axis.key)) return;
    axis_index.emplace(axis.key, out.axes_.size());
    out.axes_.push_back(std::move(axis));
  };
  std::vector<ExprPtr> atom_axis_exprs;
  for (const AtomInfo& a : atoms) {
    if (a.direct_covered) {
      for (const Signal& s : a.signals) {
        FeatureAxis axis;
        axis.kind = FeatureAxis::Kind::Direct;
        axis.key = s.key;
        axis.expr = s.expr;
        axis.domain = s.domain;
        add_axis(std::move(axis));
      }
    } else {
      FeatureAxis axis;
      axis.kind = FeatureAxis::Kind::Atom;
      axis.key = a.key;
      axis.expr = a.expr;
      axis.domain = Domain::boolean();
      add_axis(std::move(axis));
      atom_axis_exprs.push_back(a.expr);
    }
  }

  out.entries_ = 1;
  for (const FeatureAxis& a : out.axes_) {
    out.entries_ *= a.cardinality();
    if (out.entries_ > opts.max_entries)
      throw CompileError("rule base '" + rb.name + "' exceeds table budget (" +
                         std::to_string(opts.max_entries) + " entries)");
  }

  // ---- pass 3: conclusions (dedup drives the width accounting only) ---------
  out.conclusions_.push_back("<none>");
  std::map<std::string, int> conclusion_ids;
  for (std::size_t r = 0; r < rb.rules.size(); ++r) {
    const std::string text = conclusion_text(rb.rules[r], prog.syms);
    if (conclusion_ids.count(text)) continue;
    conclusion_ids.emplace(text, static_cast<int>(out.conclusions_.size()));
    out.conclusions_.push_back(text);
  }

  // ---- pass 4: fill the table ------------------------------------------------
  out.table_.assign(static_cast<std::size_t>(out.entries_), -1);
  std::vector<std::uint64_t> point(out.axes_.size(), 0);
  // Axis matching is by canonical printed form, but printing every premise
  // node once per table point is quadratic pain; AST nodes are immutable,
  // so the node -> axis resolution is memoised by pointer.
  std::map<const Expr*, int> axis_cache;  // -1 = not an axis
  const ResolveFn resolve = [&](const Expr& e) -> std::optional<Value> {
    auto [it, inserted] = axis_cache.try_emplace(&e, -2);
    if (it->second == -2) {
      const auto f = axis_index.find(to_string(e, prog.syms));
      it->second = f == axis_index.end() ? -1 : static_cast<int>(f->second);
    }
    if (it->second < 0) return std::nullopt;
    const FeatureAxis& axis =
        out.axes_[static_cast<std::size_t>(it->second)];
    const std::uint64_t v = point[static_cast<std::size_t>(it->second)];
    if (axis.kind == FeatureAxis::Kind::Atom)
      return Value::make_bool(v != 0);
    return axis.domain.value_at(v);
  };

  for (std::uint64_t flat = 0; flat < out.entries_; ++flat) {
    // Decode flat -> mixed-radix point (must mirror flat_index()).
    std::uint64_t rest = flat;
    for (std::size_t i = out.axes_.size(); i-- > 0;) {
      point[i] = rest % out.axes_[i].cardinality();
      rest /= out.axes_[i].cardinality();
    }
    int selected = -1;
    for (std::size_t r = 0; r < rb.rules.size(); ++r) {
      Value v;
      try {
        v = interp.eval_compiletime(rb.rules[r].premise, resolve);
      } catch (const EvalError& err) {
        throw CompileError("rule base '" + rb.name +
                           "': premise not coverable by features: " +
                           err.what());
      }
      if (v.as_bool()) {
        selected = static_cast<int>(r);
        break;
      }
    }
    out.table_[static_cast<std::size_t>(flat)] = selected;
  }

  // ---- pass 5: hardware accounting -------------------------------------------
  out.width_bits_ = bits_for(out.conclusions_.size()) +
                    (rb.returns ? rb.returns->bits() : 0);
  out.premise_fcfbs_ = infer_expr_fcfbs(prog, atom_axis_exprs);
  out.conclusion_fcfbs_ = infer_conclusion_fcfbs(prog, rb);
  return out;
}

std::vector<CompiledRuleBase> compile_program(const Program& prog,
                                              Interpreter& interp,
                                              const CompileOptions& opts) {
  std::vector<CompiledRuleBase> out;
  out.reserve(prog.rule_bases.size());
  for (const RuleBase& rb : prog.rule_bases)
    out.push_back(compile_rule_base(prog, rb, interp, opts));
  return out;
}

}  // namespace flexrouter::rules
