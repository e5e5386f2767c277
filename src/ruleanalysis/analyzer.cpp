#include "ruleanalysis/analyzer.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "ruleengine/env.hpp"
#include "ruleengine/interp.hpp"

namespace flexrouter::ruleanalysis {
namespace {

using rules::Cmd;
using rules::Domain;
using rules::Expr;
using rules::ExprPtr;
using rules::InputDecl;
using rules::Interpreter;
using rules::Program;
using rules::Rule;
using rules::RuleBase;
using rules::RuleEnv;
using rules::Value;
using rules::VarDecl;

/// Identity of one scalar slot before axes exist: (name, flat element
/// index). flat -1 = scalar or parameter.
using SigKey = std::pair<std::string, std::int64_t>;

/// One enumeration axis: a parameter, a scalar signal, one array element,
/// or a whole array collapsed to a single shared abstract element.
struct Axis {
  enum class Slot { Param, Var, Input };
  Slot slot = Slot::Input;
  std::string name;
  std::int64_t flat = -1;  // -1 scalar/param, -2 shared array element
  std::string label;       // display name, e.g. "outchan(east,1)"
  const Domain* dom = nullptr;
  std::vector<Value> samples;
  std::size_t cursor = 0;

  const Value& current() const { return samples[cursor]; }
};

/// Everything known about one referenced array (variable or input).
struct ArrayMeta {
  bool is_input = false;
  const Domain* value_dom = nullptr;
  std::vector<Domain> index_doms;
  std::int64_t total = 1;  // number of elements
  /// Some access uses a data-dependent index: all elements are live.
  bool dynamic = false;
  /// Elements reached through compile-time-constant indices.
  std::set<std::int64_t> static_flats;
  // Filled by finalize():
  bool shared = false;
  int shared_axis = -1;
  std::map<std::int64_t, int> elem_axis;
};

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b)
    return std::numeric_limits<std::uint64_t>::max();
  return a * b;
}

/// The finite abstraction of a set of rules' input space, plus the
/// machinery to enumerate it: per-state variable writes into a RuleEnv,
/// an input provider serving the current point, and witness rendering.
class SignalSpace {
 public:
  SignalSpace(const Program& prog, Interpreter& interp)
      : prog_(&prog), interp_(&interp) {}

  /// Record every signal referenced by `r` (premise only, or the whole
  /// rule including conclusion expressions).
  void collect(const RuleBase& rb, const Rule& r, bool premise_only) {
    const auto visit = [&](const Expr& e) { this->visit_ref(rb, e); };
    if (premise_only)
      rules::for_each_subexpr(r.premise, visit);
    else
      rules::for_each_expr(r, visit);
  }

  /// Harvest comparison cut points and signal-to-signal links from the
  /// premise so sampled axes keep every decision boundary.
  void add_cuts(const Rule& r) {
    rules::for_each_subexpr(r.premise, [&](const Expr& e) {
      if (e.kind != Expr::Kind::Binary) return;
      switch (e.bin_op) {
        case rules::BinOp::Eq:
        case rules::BinOp::Ne:
        case rules::BinOp::Lt:
        case rules::BinOp::Le:
        case rules::BinOp::Gt:
        case rules::BinOp::Ge: {
          const auto kl = key_of(e.lhs), kr = key_of(e.rhs);
          if (kl && kr) {
            // Normalize so a comparison repeated across rules is one link.
            links_.insert(*kl < *kr ? std::pair{*kl, *kr}
                                    : std::pair{*kr, *kl});
          } else if (kl) {
            if (const auto c = interp_->try_const_eval(e.rhs))
              add_cut(*kl, *c);
          } else if (kr) {
            if (const auto c = interp_->try_const_eval(e.lhs))
              add_cut(*kr, *c);
          }
          break;
        }
        case rules::BinOp::In: {
          const auto kl = key_of(e.lhs);
          if (!kl) break;
          if (const auto c = interp_->try_const_eval(e.rhs))
            if (c->is_set())
              for (const Value& v : c->as_set().elements()) add_cut(*kl, v);
          break;
        }
        default:
          break;
      }
    });
  }

  /// Build the axes and bound the cartesian product: collapse arrays and
  /// thin sample sets until the state count fits `max_states`. Returns
  /// false when the space cannot be reduced enough.
  bool finalize(const AnalysisOptions& opts, std::uint64_t max_states) {
    std::set<std::string> force_shared;
    int thin = 0;
    for (;;) {
      build_axes(opts, force_shared, thin);
      std::uint64_t prod = 1;
      for (const Axis& a : axes_)
        prod = saturating_mul(prod, a.samples.size());
      if (prod <= max_states) {
        num_states_ = prod;
        return true;
      }
      // Reduction 1: thin sample sets (5-point, then 3-point). Thinning
      // first keeps array elements distinct, so element-comparing premises
      // stay satisfiable.
      if (thin < 2) {
        ++thin;
        continue;
      }
      // Reduction 2: collapse the widest still-elementized array into one
      // shared abstract element.
      std::string widest;
      std::size_t widest_n = 1;
      for (const auto& [name, m] : arrays_)
        if (!force_shared.count(name) && m.elem_axis.size() > widest_n) {
          widest = name;
          widest_n = m.elem_axis.size();
        }
      if (!widest.empty()) {
        force_shared.insert(widest);
        continue;
      }
      return false;
    }
  }

  std::uint64_t num_states() const { return num_states_; }
  /// The enumerated product equals the concrete input space (projected on
  /// the referenced signals): universal verdicts are proofs.
  bool exact() const { return exact_ && !fallback_read_; }

  // --- enumeration ------------------------------------------------------
  void first(RuleEnv& env) {
    for (Axis& a : axes_) a.cursor = 0;
    write_vars(env);
  }

  bool next(RuleEnv& env) {
    for (Axis& a : axes_) {
      if (++a.cursor < a.samples.size()) {
        write_vars(env);
        return true;
      }
      a.cursor = 0;
    }
    return false;
  }

  std::vector<std::pair<std::string, Value>> param_binds() const {
    std::vector<std::pair<std::string, Value>> out;
    for (const Axis& a : axes_)
      if (a.slot == Axis::Slot::Param) out.emplace_back(a.name, a.current());
    return out;
  }

  /// Input provider serving the current point (ctx = this SignalSpace,
  /// after a successful finalize()).
  static Value provide(void* self, std::int32_t input_id, const Value* idx,
                       std::size_t n) {
    auto* space = static_cast<SignalSpace*>(self);
    const InputSource& src =
        space->input_src_[static_cast<std::size_t>(input_id)];
    if (src.axis >= 0)
      return space->axes_[static_cast<std::size_t>(src.axis)].current();
    if (src.array != nullptr) {
      const auto eit = src.array->elem_axis.find(flat_of(*src.array, idx, n));
      if (eit != src.array->elem_axis.end())
        return space->axes_[static_cast<std::size_t>(eit->second)].current();
    }
    // Read outside the collected footprint (e.g. from a subbase fired
    // inside an expression): serve a fixed value, drop exactness.
    space->fallback_read_ = true;
    return space->prog_->inputs[static_cast<std::size_t>(input_id)]
        .domain.value_at(0);
  }

  std::string state_string() const {
    std::ostringstream os;
    bool sep = false;
    for (const Axis& a : axes_) {
      if (sep) os << " ";
      sep = true;
      os << a.label << "=" << a.current().to_string(prog_->syms);
    }
    return os.str();
  }

  /// Compile-time-constant indices that are already outside the declared
  /// bounds — definite index overflows found during collection.
  struct StaticOob {
    std::string name;
    int line;
    std::string index_text;
  };
  const std::vector<StaticOob>& static_oob() const { return static_oob_; }

 private:
  void visit_ref(const RuleBase& rb, const Expr& e) {
    if (e.kind != Expr::Kind::Ref) return;
    if (e.args.empty()) {
      for (const auto& p : rb.params)
        if (p.name == e.name) {
          ensure_scalar(Axis::Slot::Param, e.name, &p.domain);
          return;
        }
    }
    if (const VarDecl* v = prog_->find_variable(e.name)) {
      if (!v->is_array()) {
        ensure_scalar(Axis::Slot::Var, e.name, &v->domain);
      } else {
        ArrayMeta& m = ensure_array(
            /*is_input=*/false, e.name, &v->domain,
            {Domain::int_range(0, v->array_size - 1)});
        note_access(m, e);
      }
      return;
    }
    if (const InputDecl* in = prog_->find_input(e.name)) {
      if (in->index_domains.empty())
        ensure_scalar(Axis::Slot::Input, e.name, &in->domain);
      else
        note_access(ensure_array(/*is_input=*/true, e.name, &in->domain,
                                 in->index_domains),
                    e);
      return;
    }
  }

  void ensure_scalar(Axis::Slot slot, const std::string& name,
                     const Domain* dom) {
    scalars_.emplace(name, ScalarSig{slot, dom});
  }

  ArrayMeta& ensure_array(bool is_input, const std::string& name,
                          const Domain* value_dom,
                          std::vector<Domain> index_doms) {
    auto it = arrays_.find(name);
    if (it == arrays_.end()) {
      ArrayMeta m;
      m.is_input = is_input;
      m.value_dom = value_dom;
      m.index_doms = std::move(index_doms);
      for (const Domain& d : m.index_doms)
        m.total *= static_cast<std::int64_t>(d.cardinality());
      it = arrays_.emplace(name, std::move(m)).first;
    }
    return it->second;
  }

  void note_access(ArrayMeta& m, const Expr& e) {
    if (e.args.size() != m.index_doms.size()) {
      m.dynamic = true;  // malformed access; validation reports it
      return;
    }
    std::int64_t flat = 0;
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      const auto c = interp_->try_const_eval(e.args[i]);
      if (!c) {
        m.dynamic = true;
        return;
      }
      if (!m.index_doms[i].contains(*c)) {
        static_oob_.push_back(
            {e.name, e.line, c->to_string(prog_->syms)});
        return;
      }
      flat = flat * static_cast<std::int64_t>(m.index_doms[i].cardinality()) +
             static_cast<std::int64_t>(m.index_doms[i].index_of(*c));
    }
    m.static_flats.insert(flat);
  }

  std::optional<SigKey> key_of(const ExprPtr& e) const {
    if (!e || e->kind != Expr::Kind::Ref) return std::nullopt;
    if (e->args.empty() && scalars_.count(e->name))
      return SigKey{e->name, -1};
    const auto it = arrays_.find(e->name);
    if (it == arrays_.end()) return std::nullopt;
    const ArrayMeta& m = it->second;
    if (e->args.size() != m.index_doms.size()) return std::nullopt;
    std::int64_t flat = 0;
    for (std::size_t i = 0; i < e->args.size(); ++i) {
      const auto c = interp_->try_const_eval(e->args[i]);
      if (!c || !m.index_doms[i].contains(*c)) return std::nullopt;
      flat = flat * static_cast<std::int64_t>(m.index_doms[i].cardinality()) +
             static_cast<std::int64_t>(m.index_doms[i].index_of(*c));
    }
    return SigKey{e->name, flat};
  }

  void add_cut(const SigKey& k, const Value& c) {
    auto& set = cuts_[k];
    if (c.is_int()) {
      set.insert(Value::make_int(c.as_int() - 1));
      set.insert(c);
      set.insert(Value::make_int(c.as_int() + 1));
    } else {
      set.insert(c);
    }
  }

  std::string elem_label(const std::string& name, const ArrayMeta& m,
                         std::int64_t flat) const {
    std::vector<std::uint64_t> digits(m.index_doms.size());
    auto rest = static_cast<std::uint64_t>(flat);
    for (std::size_t i = m.index_doms.size(); i-- > 0;) {
      const auto card = m.index_doms[i].cardinality();
      digits[i] = rest % card;
      rest /= card;
    }
    std::ostringstream os;
    os << name << "(";
    for (std::size_t i = 0; i < digits.size(); ++i) {
      if (i) os << ",";
      os << m.index_doms[i].value_at(digits[i]).to_string(prog_->syms);
    }
    os << ")";
    return os.str();
  }

  void build_axes(const AnalysisOptions& opts,
                  const std::set<std::string>& force_shared, int thin) {
    axes_.clear();
    scalar_axis_.clear();
    input_src_.assign(prog_->inputs.size(), InputSource{});
    exact_ = true;

    const auto add_axis = [&](Axis a) {
      a.samples = a.dom->sample_values(opts.full_enum_cardinality);
      axes_.push_back(std::move(a));
      return static_cast<int>(axes_.size()) - 1;
    };

    for (const auto& [name, sig] : scalars_) {
      Axis a;
      a.slot = sig.slot;
      a.name = name;
      a.label = name;
      a.dom = sig.dom;
      const int axis = add_axis(std::move(a));
      scalar_axis_[name] = axis;
      if (sig.slot == Axis::Slot::Input) input_src_[input_id(name)].axis = axis;
    }
    for (auto& [name, m] : arrays_) {
      m.shared = false;
      m.shared_axis = -1;
      m.elem_axis.clear();
      const bool collapse =
          force_shared.count(name) ||
          (m.dynamic &&
           m.total > static_cast<std::int64_t>(opts.max_array_elements));
      const Axis::Slot slot =
          m.is_input ? Axis::Slot::Input : Axis::Slot::Var;
      if (collapse) {
        m.shared = true;
        if (m.total > 1) exact_ = false;
        Axis a;
        a.slot = slot;
        a.name = name;
        a.flat = -2;
        a.label = name + "(*)";
        a.dom = m.value_dom;
        m.shared_axis = add_axis(std::move(a));
      } else {
        std::set<std::int64_t> flats = m.static_flats;
        if (m.dynamic)
          for (std::int64_t f = 0; f < m.total; ++f) flats.insert(f);
        for (const std::int64_t f : flats) {
          Axis a;
          a.slot = slot;
          a.name = name;
          a.flat = f;
          a.label = elem_label(name, m, f);
          a.dom = m.value_dom;
          m.elem_axis[f] = add_axis(std::move(a));
        }
      }
      if (m.is_input) {
        InputSource& src = input_src_[input_id(name)];
        src.axis = m.shared_axis;  // -1 unless collapsed
        if (!m.shared) src.array = &m;
      }
    }

    // Comparison cut points keep decision boundaries inside sampled axes.
    for (const auto& [key, vals] : cuts_) {
      const int id = axis_of(key);
      if (id < 0) continue;
      Axis& a = axes_[static_cast<std::size_t>(id)];
      for (const Value& v : vals)
        if (a.dom->contains(v)) a.samples.push_back(v);
    }
    // Signals compared against each other share the union of their samples
    // so equality/ordering boundaries exist on both sides.
    const auto uniq = [](std::vector<Value>& vals) {
      std::sort(vals.begin(), vals.end());
      vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    };
    for (const auto& [k1, k2] : links_) {
      const int i1 = axis_of(k1), i2 = axis_of(k2);
      if (i1 < 0 || i2 < 0 || i1 == i2) continue;
      Axis& a1 = axes_[static_cast<std::size_t>(i1)];
      Axis& a2 = axes_[static_cast<std::size_t>(i2)];
      for (const Value& v : a1.samples)
        if (a2.dom->contains(v)) a2.samples.push_back(v);
      for (const Value& v : a2.samples)
        if (a1.dom->contains(v)) a1.samples.push_back(v);
      uniq(a1.samples);
      uniq(a2.samples);
    }

    for (Axis& a : axes_) {
      std::sort(a.samples.begin(), a.samples.end());
      a.samples.erase(std::unique(a.samples.begin(), a.samples.end()),
                      a.samples.end());
      const std::size_t cap = thin == 0  ? a.samples.size()
                              : thin == 1 ? std::size_t{5}
                                          : std::size_t{3};
      if (a.samples.size() > cap) {
        std::vector<Value> kept;
        const std::size_t n = a.samples.size();
        if (cap >= 5) {
          for (const std::size_t i :
               {std::size_t{0}, n / 4, n / 2, (3 * n) / 4, n - 1})
            kept.push_back(a.samples[i]);
        } else {
          for (const std::size_t i : {std::size_t{0}, n / 2, n - 1})
            kept.push_back(a.samples[i]);
        }
        std::sort(kept.begin(), kept.end());
        kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
        a.samples = std::move(kept);
      }
      if (a.samples.size() < a.dom->cardinality()) exact_ = false;
    }
  }

  int axis_of(const SigKey& key) const {
    if (key.second < 0) {
      const auto it = scalar_axis_.find(key.first);
      return it == scalar_axis_.end() ? -1 : it->second;
    }
    const auto it = arrays_.find(key.first);
    if (it == arrays_.end()) return -1;
    if (it->second.shared) return it->second.shared_axis;
    const auto eit = it->second.elem_axis.find(key.second);
    return eit == it->second.elem_axis.end() ? -1 : eit->second;
  }

  static std::int64_t flat_of(const ArrayMeta& m, const Value* idx,
                              std::size_t n) {
    std::int64_t flat = 0;
    for (std::size_t i = 0; i < n; ++i)
      flat =
          flat * static_cast<std::int64_t>(m.index_doms[i].cardinality()) +
          static_cast<std::int64_t>(m.index_doms[i].index_of(idx[i]));
    return flat;
  }

  /// Where each declared input's reads are served from once the axes
  /// exist: one axis (a scalar input or a collapsed array), the element
  /// axes of an array, or neither (read outside the collected footprint).
  struct InputSource {
    int axis = -1;
    const ArrayMeta* array = nullptr;
  };

  std::size_t input_id(const std::string& name) const {
    return static_cast<std::size_t>(prog_->find_input(name) -
                                    prog_->inputs.data());
  }

  void write_vars(RuleEnv& env) {
    for (const Axis& a : axes_) {
      if (a.slot != Axis::Slot::Var) continue;
      if (a.flat == -2) {
        const auto& m = arrays_.at(a.name);
        for (std::int64_t f = 0; f < m.total; ++f)
          env.set(a.name, f, a.current());
      } else {
        env.set(a.name, a.flat < 0 ? 0 : a.flat, a.current());
      }
    }
  }

  struct ScalarSig {
    Axis::Slot slot;
    const Domain* dom;
  };

  const Program* prog_;
  Interpreter* interp_;
  std::map<std::string, ScalarSig> scalars_;
  std::map<std::string, ArrayMeta> arrays_;
  std::map<SigKey, std::set<Value>> cuts_;
  std::set<std::pair<SigKey, SigKey>> links_;
  std::vector<StaticOob> static_oob_;
  std::vector<Axis> axes_;
  std::map<std::string, int> scalar_axis_;
  std::vector<InputSource> input_src_;  // parallel to prog_->inputs
  std::uint64_t num_states_ = 0;
  bool exact_ = true;
  bool fallback_read_ = false;
};

/// Report sink with structural dedupe: one finding per (class, base, rule,
/// line) regardless of how many states exhibit it.
class Sink {
 public:
  explicit Sink(AnalysisReport& out) : out_(&out) {}

  void add(DiagClass cls, Severity sev, const RuleBase& rb, int rule_index,
           int line, std::string message, std::string witness = {}) {
    if (!seen_.insert({static_cast<int>(cls), rb.name, rule_index, line})
             .second)
      return;
    Finding f;
    f.cls = cls;
    f.severity = sev;
    f.rule_base = rb.name;
    f.rule_index = rule_index;
    f.line = line;
    f.message = std::move(message);
    f.witness = std::move(witness);
    out_->findings.push_back(std::move(f));
  }

 private:
  AnalysisReport* out_;
  std::set<std::tuple<int, std::string, int, int>> seen_;
};

/// True when an evaluation error denotes an out-of-bounds array or input
/// index (vs. a construct the analyzer cannot model).
bool is_index_error(const std::string& what) {
  return what.find("index outside domain") != std::string::npos ||
         what.find("index out of range") != std::string::npos ||
         what.find("index out of bounds") != std::string::npos;
}

void report_static_oob(const SignalSpace& space, const RuleBase& rb,
                       int rule_index, Sink& sink) {
  for (const auto& s : space.static_oob())
    sink.add(DiagClass::IndexOverflow, Severity::Warning, rb, rule_index,
             s.line,
             "constant index " + s.index_text + " outside the bounds of '" +
                 s.name + "'");
}

/// Completeness + shadowed/dead-rule pass over one rule base.
void analyze_base(const Program& prog, Interpreter& interp,
                  const RuleBase& rb, const AnalysisOptions& opts,
                  Sink& sink, AnalysisReport& out) {
  BaseReport base;
  base.rule_base = rb.name;

  const std::size_t n = rb.rules.size();
  if (n == 0 || n > 64) {
    if (n > 64)
      sink.add(DiagClass::StateBlowup, Severity::Note, rb, -1, rb.line,
               "more than 64 rules; completeness pass skipped");
    out.bases.push_back(base);
    return;
  }

  SignalSpace space(prog, interp);
  for (const Rule& r : rb.rules) space.collect(rb, r, /*premise_only=*/true);
  for (const Rule& r : rb.rules) space.add_cuts(r);

  if (!space.finalize(opts, opts.max_states)) {
    sink.add(DiagClass::StateBlowup, Severity::Note, rb, -1, rb.line,
             "abstract input space exceeds the state budget; completeness "
             "pass skipped");
    out.bases.push_back(base);
    return;
  }

  RuleEnv env(prog);
  interp.set_input_provider(&SignalSpace::provide, &space);

  std::uint64_t true_any = 0, exclusive = 0, evalfail = 0;
  std::vector<std::uint64_t> always_before(n, ~std::uint64_t{0});
  std::vector<std::string> fail_msg(n);
  std::vector<std::string> gap_witness;
  std::uint64_t gaps = 0;

  space.first(env);
  do {
    ++base.states;
    const auto binds = space.param_binds();
    std::uint64_t true_mask = 0, unknown_mask = 0;
    for (std::size_t r = 0; r < n; ++r) {
      try {
        if (interp.eval_expr(env, rb.rules[r].premise, binds).as_bool())
          true_mask |= std::uint64_t{1} << r;
      } catch (const std::exception& ex) {
        unknown_mask |= std::uint64_t{1} << r;
        if (fail_msg[r].empty()) fail_msg[r] = ex.what();
        if (is_index_error(ex.what()))
          sink.add(DiagClass::IndexOverflow, Severity::Warning, rb,
                   static_cast<int>(r), rb.rules[r].line,
                   std::string("premise indexes outside declared bounds: ") +
                       ex.what(),
                   space.state_string());
      }
    }
    evalfail |= unknown_mask;
    true_any |= true_mask;
    if ((true_mask | unknown_mask) == 0) {
      ++gaps;
      if (gap_witness.size() <
          static_cast<std::size_t>(opts.max_gap_witnesses))
        gap_witness.push_back(space.state_string());
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (!(true_mask >> r & 1)) continue;
      const std::uint64_t below = (std::uint64_t{1} << r) - 1;
      const std::uint64_t earlier = true_mask & below;
      if (earlier == 0)
        exclusive |= std::uint64_t{1} << r;  // fires first here
      else
        always_before[r] &= earlier;
    }
  } while (space.next(env));
  interp.set_input_provider(nullptr, nullptr);

  base.gap_states = gaps;
  base.exact = space.exact();
  out.bases.push_back(base);

  // Universal claims are proofs only over an exact space.
  const Severity uni = base.exact ? Severity::Warning : Severity::Note;
  const char* scope = base.exact ? "" : " (sampled input space)";
  for (std::size_t r = 0; r < n; ++r) {
    const Rule& rule = rb.rules[r];
    if (evalfail >> r & 1) {
      if (!is_index_error(fail_msg[r]))
        sink.add(DiagClass::StateBlowup, Severity::Note, rb,
                 static_cast<int>(r), rule.line,
                 "premise not statically evaluable: " + fail_msg[r]);
      continue;
    }
    if (!(true_any >> r & 1)) {
      sink.add(DiagClass::DeadRule, uni, rb, static_cast<int>(r), rule.line,
               std::string("premise never holds") + scope);
    } else if (!(exclusive >> r & 1)) {
      const std::uint64_t mask =
          always_before[r] & ((std::uint64_t{1} << r) - 1);
      std::string by = "an earlier rule";
      if (mask != 0) {
        const int k = std::countr_zero(mask);
        by = "rule #" + std::to_string(k) + " (line " +
             std::to_string(rb.rules[static_cast<std::size_t>(k)].line) +
             ")";
      }
      sink.add(DiagClass::ShadowedRule, uni, rb, static_cast<int>(r),
               rule.line,
               "never the first applicable rule: always preceded by " + by +
                   scope);
    }
  }
  if (gaps > 0) {
    std::ostringstream msg;
    msg << gaps << " of " << base.states
        << " abstract states fire no rule";
    std::string witness;
    for (const std::string& w : gap_witness) {
      if (!witness.empty()) witness += "; ";
      witness += w;
    }
    sink.add(DiagClass::Incomplete,
             opts.completeness_is_warning ? Severity::Warning
                                          : Severity::Note,
             rb, -1, rb.line, msg.str(), witness);
  }
}

/// Register range / index pass over one rule: at every sampled state where
/// the premise holds, evaluate each conclusion command's indices and values
/// against the declared domains.
void analyze_rule_ranges(const Program& prog, Interpreter& interp,
                         const RuleBase& rb, int rule_index,
                         const AnalysisOptions& opts, Sink& sink) {
  const Rule& rule = rb.rules[static_cast<std::size_t>(rule_index)];
  SignalSpace space(prog, interp);
  space.collect(rb, rule, /*premise_only=*/false);
  space.add_cuts(rule);
  report_static_oob(space, rb, rule_index, sink);

  if (!space.finalize(opts, opts.max_range_states)) {
    sink.add(DiagClass::StateBlowup, Severity::Note, rb, rule_index,
             rule.line,
             "abstract state space exceeds the range-pass budget");
    return;
  }

  RuleEnv env(prog);
  interp.set_input_provider(&SignalSpace::provide, &space);

  const auto eval_opt =
      [&](const ExprPtr& e,
          const std::vector<std::pair<std::string, Value>>& binds,
          int line) -> std::optional<Value> {
    try {
      return interp.eval_expr(env, e, binds);
    } catch (const std::exception& ex) {
      if (is_index_error(ex.what()))
        sink.add(DiagClass::IndexOverflow, Severity::Warning, rb, rule_index,
                 line,
                 std::string("index outside declared bounds: ") + ex.what(),
                 space.state_string());
      return std::nullopt;
    }
  };

  // Recursive conclusion walker; `binds` grows with FORALL bound variables.
  const std::function<void(
      const std::vector<Cmd>&,
      std::vector<std::pair<std::string, Value>>&)>
      walk = [&](const std::vector<Cmd>& cmds,
                 std::vector<std::pair<std::string, Value>>& binds) {
        for (const Cmd& c : cmds) {
          switch (c.kind) {
            case Cmd::Kind::Assign: {
              const VarDecl* d = prog.find_variable(c.target);
              if (d == nullptr) break;
              if (!c.args.empty()) {
                if (const auto idx = eval_opt(c.args[0], binds, c.line)) {
                  const std::int64_t size =
                      d->is_array() ? d->array_size : 1;
                  if (!idx->is_int() || idx->as_int() < 0 ||
                      idx->as_int() >= size)
                    sink.add(DiagClass::IndexOverflow, Severity::Warning,
                             rb, rule_index, c.line,
                             "index " + idx->to_string(prog.syms) +
                                 " outside the bounds of '" + c.target +
                                 "[" + std::to_string(size) + "]'",
                             space.state_string());
                }
              }
              if (const auto v = eval_opt(c.value, binds, c.line))
                if (!d->domain.contains(*v))
                  sink.add(DiagClass::RangeOverflow, Severity::Warning, rb,
                           rule_index, c.line,
                           "assigns " + v->to_string(prog.syms) + " to '" +
                               c.target + "', outside its domain " +
                               d->domain.to_string(prog.syms),
                           space.state_string());
              break;
            }
            case Cmd::Kind::Return: {
              if (const auto v = eval_opt(c.value, binds, c.line))
                if (rb.returns && !rb.returns->contains(*v))
                  sink.add(DiagClass::RangeOverflow, Severity::Warning, rb,
                           rule_index, c.line,
                           "RETURN value " + v->to_string(prog.syms) +
                               " outside the RETURNS domain " +
                               rb.returns->to_string(prog.syms),
                           space.state_string());
              break;
            }
            case Cmd::Kind::Emit: {
              const RuleBase* t = prog.find_rule_base(c.target);
              for (std::size_t i = 0; i < c.args.size(); ++i) {
                const auto v = eval_opt(c.args[i], binds, c.line);
                if (v && t != nullptr && i < t->params.size() &&
                    !t->params[i].domain.contains(*v))
                  sink.add(DiagClass::RangeOverflow, Severity::Warning, rb,
                           rule_index, c.line,
                           "argument " + std::to_string(i + 1) + " of !" +
                               c.target + " is " + v->to_string(prog.syms) +
                               ", outside the parameter domain " +
                               t->params[i].domain.to_string(prog.syms),
                           space.state_string());
              }
              break;
            }
            case Cmd::Kind::ForAll: {
              const auto dv = eval_opt(c.domain, binds, c.line);
              if (!dv) break;
              std::vector<Value> vals;
              if (dv->is_set()) {
                vals = dv->as_set().elements();
              } else if (dv->is_int() && dv->as_int() >= 0 &&
                         dv->as_int() <= 64) {
                for (std::int64_t i = 0; i < dv->as_int(); ++i)
                  vals.push_back(Value::make_int(i));
              }
              for (const Value& v : vals) {
                binds.emplace_back(c.bound, v);
                walk(c.body, binds);
                binds.pop_back();
              }
              break;
            }
          }
        }
      };

  space.first(env);
  do {
    auto binds = space.param_binds();
    bool fires = false;
    try {
      fires = interp.eval_expr(env, rule.premise, binds).as_bool();
    } catch (const std::exception&) {
      // Premise evaluation problems are reported by the base pass.
    }
    if (fires) walk(rule.conclusion, binds);
  } while (space.next(env));
  interp.set_input_provider(nullptr, nullptr);
}

}  // namespace

AnalysisReport analyze_program(const Program& prog,
                               const AnalysisOptions& opts) {
  AnalysisReport out;
  out.program = prog.name;
  Sink sink(out);
  Interpreter interp(prog);
  for (const RuleBase& rb : prog.rule_bases) {
    analyze_base(prog, interp, rb, opts, sink, out);
    for (std::size_t r = 0; r < rb.rules.size(); ++r)
      analyze_rule_ranges(prog, interp, rb, static_cast<int>(r), opts, sink);
  }
  return out;
}

}  // namespace flexrouter::ruleanalysis
