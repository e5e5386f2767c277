#include "ruleengine/aot_classify.hpp"

#include <functional>
#include <set>
#include <vector>

#include "ruleengine/host_model.hpp"

namespace flexrouter::rules {

namespace {

bool is_plain_ref(const ExprPtr& e, const char* name) {
  return e != nullptr && e->kind == Expr::Kind::Ref && e->args.empty() &&
         e->name == name;
}

/// `xor(node, dest)` in either argument order.
bool is_xor_node_dest(const Expr& e) {
  if (e.kind != Expr::Kind::Ref || e.name != "xor" || e.args.size() != 2)
    return false;
  return (is_plain_ref(e.args[0], "node") && is_plain_ref(e.args[1], "dest")) ||
         (is_plain_ref(e.args[0], "dest") && is_plain_ref(e.args[1], "node"));
}

/// `node = dest` / `node <> dest` (either order) — equivalent to testing
/// xor-class 0, so it is XorFold-sanctioned.
bool is_node_dest_eq(const Expr& e) {
  if (e.kind != Expr::Kind::Binary ||
      (e.bin_op != BinOp::Eq && e.bin_op != BinOp::Ne))
    return false;
  return (is_plain_ref(e.lhs, "node") && is_plain_ref(e.rhs, "dest")) ||
         (is_plain_ref(e.lhs, "dest") && is_plain_ref(e.rhs, "node"));
}

/// A direct comparison between one coordinate input and its destination
/// counterpart (either order) — a function of the offset sign alone.
bool is_axis_sign_cmp(const Expr& e, const char* pos, const char* des) {
  if (e.kind != Expr::Kind::Binary) return false;
  switch (e.bin_op) {
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
      break;
    default:
      return false;
  }
  return (is_plain_ref(e.lhs, pos) && is_plain_ref(e.rhs, des)) ||
         (is_plain_ref(e.lhs, des) && is_plain_ref(e.rhs, pos));
}

/// Collect every rule base reachable from `root`: subbase references in
/// expressions plus emitted events that land on rule bases — the same
/// conservative traversal analyze_reachable uses.
std::vector<const RuleBase*> reachable_bases(const Program& prog,
                                             const std::string& root) {
  std::set<const RuleBase*> visited;
  std::vector<const RuleBase*> work, out;
  auto enqueue = [&](const RuleBase* rb) {
    if (rb != nullptr && visited.insert(rb).second) work.push_back(rb);
  };
  std::function<void(const ExprPtr&)> walk_expr = [&](const ExprPtr& e) {
    if (e == nullptr) return;
    if (e->kind == Expr::Kind::Ref) enqueue(prog.find_rule_base(e->name));
    for (const ExprPtr& a : e->args) walk_expr(a);
    walk_expr(e->lhs);
    walk_expr(e->rhs);
  };
  std::function<void(const std::vector<Cmd>&)> walk_cmds =
      [&](const std::vector<Cmd>& cmds) {
        for (const Cmd& c : cmds) {
          if (c.kind == Cmd::Kind::Emit) enqueue(prog.find_rule_base(c.target));
          for (const ExprPtr& a : c.args) walk_expr(a);
          walk_expr(c.value);
          walk_expr(c.domain);
          walk_cmds(c.body);
        }
      };
  enqueue(prog.find_rule_base(root));
  while (!work.empty()) {
    const RuleBase* rb = work.back();
    work.pop_back();
    out.push_back(rb);
    for (const Rule& r : rb->rules) {
      walk_expr(r.premise);
      walk_cmds(r.conclusion);
    }
  }
  return out;
}

/// Recursive usage checker: `sanctioned` recognises whole subtrees whose
/// value is provably class-determined (they are not descended into);
/// `forbidden_ref` rejects any other appearance of the restricted inputs.
/// On rejection `blocker` carries the offending expression's text.
struct UsageChecker {
  const Program& prog;
  std::function<bool(const Expr&)> sanctioned;
  std::function<bool(const Expr&)> forbidden_ref;
  std::string blocker;

  bool ok(const ExprPtr& e) {
    if (e == nullptr) return true;
    if (sanctioned(*e)) return true;
    if (e->kind == Expr::Kind::Ref && forbidden_ref(*e)) {
      blocker = to_string(*e, prog.syms);
      return false;
    }
    for (const ExprPtr& a : e->args)
      if (!ok(a)) return false;
    return ok(e->lhs) && ok(e->rhs);
  }

  bool ok_cmds(const std::vector<Cmd>& cmds) {
    for (const Cmd& c : cmds) {
      for (const ExprPtr& a : c.args)
        if (!ok(a)) return false;
      if (!ok(c.value) || !ok(c.domain)) return false;
      if (!ok_cmds(c.body)) return false;
    }
    return true;
  }

  bool ok_rules(const std::vector<const RuleBase*>& bases) {
    for (const RuleBase* rb : bases)
      for (const Rule& r : rb->rules) {
        if (!ok(r.premise)) return false;
        if (!ok_cmds(r.conclusion)) return false;
      }
    return true;
  }
};

/// Inputs read anywhere in the reachable rules (names, not usage contexts).
std::set<std::string> inputs_read(const Program& prog,
                                  const std::vector<const RuleBase*>& bases) {
  std::set<std::string> reads;
  for (const RuleBase* rb : bases)
    for (const Rule& r : rb->rules)
      for_each_expr(r, [&](const Expr& e) {
        if (e.kind == Expr::Kind::Ref && prog.find_input(e.name) != nullptr)
          reads.insert(e.name);
      });
  return reads;
}

/// The first binder among the reachable rules that reuses an input's name:
/// a rule-base parameter, a quantifier variable or a FORALL variable. Such
/// a binder can shadow the input (the validator and the compiler resolve a
/// parameter before an input of the same name), while the usage checkers
/// match inputs by name; empty when no binder does.
std::string shadowing_binder(const Program& prog,
                             const std::vector<const RuleBase*>& bases) {
  std::string found;
  auto binds = [&](const RuleBase& rb, const std::string& name) {
    if (found.empty() && prog.find_input(name) != nullptr)
      found = "rule base '" + rb.name + "' binds '" + name +
              "', which shadows the input of that name";
  };
  std::function<void(const RuleBase&, const std::vector<Cmd>&)> walk_cmds =
      [&](const RuleBase& rb, const std::vector<Cmd>& cmds) {
        for (const Cmd& c : cmds) {
          if (c.kind == Cmd::Kind::ForAll) binds(rb, c.bound);
          walk_cmds(rb, c.body);
        }
      };
  for (const RuleBase* rb : bases) {
    for (const Param& p : rb->params) binds(*rb, p.name);
    for (const Rule& r : rb->rules) {
      for_each_expr(r, [&](const Expr& e) {
        if (e.kind == Expr::Kind::Quantified) binds(*rb, e.name);
      });
      walk_cmds(*rb, r.conclusion);
    }
  }
  return found;
}

/// The first read `admit` refuses (inputs outside the host model are
/// refused), or empty when it admits every one.
std::string first_refused(const std::set<std::string>& reads,
                          bool (*admit)(const HostInputRow&)) {
  for (const std::string& r : reads) {
    const HostInputRow* row = find_host_input(r);
    if (row == nullptr || !admit(*row)) return r;
  }
  return {};
}

/// XorFold keeps no node axis: besides node and dest themselves (read only
/// through xor(node, dest)), a read must be a header field — tabulable,
/// independent of the destination, and needing nothing from the host
/// beyond the header.
bool xor_fold_admits(const HostInputRow& r) {
  return r.code == HostInput::Dest ||
         (r.tabulable && r.dest == DestDep::None &&
          r.needs == HostNeeds::Nothing);
}

/// OffsetSign2D keeps the node axis, so node-determined inputs are fine,
/// and so is on_escape (fixed by the arrival port and VC). Destination
/// coordinates are checked for sign comparisons, and gated inputs by the
/// host's read-set gate per decision; raw destination bits have no class.
bool offset_sign_admits(const HostInputRow& r) {
  return r.tabulable && r.dest != DestDep::Raw;
}

}  // namespace

const char* to_string(DestClassifier c) {
  switch (c) {
    case DestClassifier::None: return "none";
    case DestClassifier::XorFold: return "xor-fold";
    case DestClassifier::OffsetSign2D: return "offset-sign-2d";
  }
  return "?";
}

DestClassAnalysis classify_dest_axis(const Program& prog,
                                     const std::string& root) {
  DestClassAnalysis out;
  const std::vector<const RuleBase*> bases = reachable_bases(prog, root);
  if (bases.empty()) {
    out.reason = "decision rule base '" + root + "' not found";
    return out;
  }
  // Both checkers match inputs by name, so a binder of an input's name
  // would let `xpos < xdes` compare a parameter against the raw xdes.
  // No corpus program reuses an input name; refuse rather than resolve
  // scopes.
  out.reason = shadowing_binder(prog, bases);
  if (!out.reason.empty()) return out;
  const std::set<std::string> reads = inputs_read(prog, bases);

  // XorFold first: when it applies it collapses both id axes, so it always
  // yields the smaller table. Every other input must be premise-axis
  // determined — node-scoped reads (link_ok, xpos…) would break the node
  // collapse.
  std::string xor_blocker;
  if (first_refused(reads, xor_fold_admits).empty()) {
    UsageChecker xc{
        prog,
        [](const Expr& e) { return is_xor_node_dest(e) || is_node_dest_eq(e); },
        [](const Expr& e) { return e.name == "node" || e.name == "dest"; },
        {}};
    if (xc.ok_rules(bases)) {
      out.kind = DestClassifier::XorFold;
      out.reason =
          "node/dest read only through xor(node, dest) and node = dest tests";
      return out;
    }
    xor_blocker = "reads raw node/dest bits: " + xc.blocker;
  }

  // The dest-bound inputs the host gates (dest_reachable, escape_ok,
  // escape_port) are admitted: the read-set gate stores no decision that
  // read one. Raw dest reads and xdes/ydes outside a sign comparison still
  // block it.
  if (const std::string offender = first_refused(reads, offset_sign_admits);
      !offender.empty()) {
    out.reason = !xor_blocker.empty()
                     ? xor_blocker
                     : "reads '" + offender + "', which depends on raw dest bits";
    return out;
  }
  UsageChecker oc{prog,
                  [](const Expr& e) {
                    return is_axis_sign_cmp(e, "xpos", "xdes") ||
                           is_axis_sign_cmp(e, "ypos", "ydes");
                  },
                  [](const Expr& e) {
                    const HostInputRow* r = find_host_input(e.name);
                    return r != nullptr && r->dest == DestDep::Sign;
                  },
                  {}};
  if (oc.ok_rules(bases)) {
    out.kind = DestClassifier::OffsetSign2D;
    out.reason =
        "xdes/ydes read only in sign comparisons against xpos/ypos";
    std::string gated;
    for (const HostInputRow& r : kHostInputs)
      if (r.dest == DestDep::Gated && reads.count(r.name) != 0)
        gated += (gated.empty() ? "" : ", ") + std::string(r.name);
    if (!gated.empty())
      out.reason += "; dest-bound reads gated per decision: " + gated;
    return out;
  }
  out.reason = "reads a destination coordinate outside a sign comparison: " +
               oc.blocker;
  return out;
}

}  // namespace flexrouter::rules
