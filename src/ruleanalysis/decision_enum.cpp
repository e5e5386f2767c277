#include "ruleanalysis/decision_enum.hpp"

#include <algorithm>
#include <exception>
#include <functional>

#include "topology/graph_algo.hpp"

namespace flexrouter::ruleanalysis {
namespace {

constexpr std::uint64_t kMaxCombos = 4096;
constexpr std::uint64_t kMaxUnknownCardinality = 16;

/// Candidate sets are short sorted vectors: set order without a node
/// allocation per candidate.
void insert_cand(std::vector<Cand>& set, const Cand& c) {
  const auto it = std::lower_bound(set.begin(), set.end(), c);
  if (it == set.end() || *it != c) set.insert(it, c);
}

bool is_escape_port(const std::string& name) {
  return name == rules::host_row(rules::HostInput::EscapePort).name;
}

bool is_escape_port_ref(const rules::ExprPtr& e) {
  return e != nullptr && e->kind == rules::Expr::Kind::Ref &&
         is_escape_port(e->name) && e->args.empty();
}

}  // namespace

DecisionEnumerator::DecisionEnumerator(const rules::Program& prog,
                                       const DeadlockModel& model,
                                       const Topology& topo)
    : prog_(prog),
      model_(model),
      topo_(topo),
      faults_(topo),
      interp_(prog),
      env_(prog) {
  rb_ = prog_.find_rule_base(model_.route_base);
  if (rb_ == nullptr) {
    error_ = "rule base '" + model_.route_base +
             "' not found; nothing to certify";
    return;
  }
  if (!rb_->params.empty()) {
    error_ =
        "certified rule base has parameters; headers cannot be enumerated";
    return;
  }
  if (model_.num_vcs < 1 || model_.escape_vc >= model_.num_vcs) {
    error_ = "the model has no VC, or an escape VC outside its VCs";
    return;
  }
  mesh_ = dynamic_cast<const Mesh*>(&topo_);
  if (model_.injection == InjectionVcs::BySignDy &&
      (mesh_ == nullptr || mesh_->dims() != 2)) {
    error_ = "BySignDy injection requires a 2-D mesh";
    return;
  }
  if (!model_.ft_route_base.empty()) {
    ft_rb_ = prog_.find_rule_base(model_.ft_route_base);
    if (ft_rb_ != nullptr && !ft_rb_->params.empty()) ft_rb_ = nullptr;
  }
  if (model_.style == DecisionStyle::DirsetMask) {
    for (const auto& [cls, vc] : model_.class_vcs) included_vcs_.insert(vc);
  } else {
    for (int v = 0; v < model_.num_vcs; ++v) included_vcs_.insert(v);
  }
  key_vcs_ = static_cast<VcId>(model_.num_vcs);
  if (!included_vcs_.empty())
    key_vcs_ = std::max<VcId>(key_vcs_, *included_vcs_.rbegin() + 1);
  comp_ = components(faults_);
  if (model_.escape_vc >= 0) escape_.rebuild(faults_);
  // Tabulable host-model inputs are computed from the header; the rest
  // (per-packet state, inputs this host does not serve) are free.
  input_kind_ = rules::resolve_host_inputs(
      prog_, model_.escape_vc >= 0, mesh_ != nullptr && mesh_->dims() == 2);
  for (rules::HostInput& k : input_kind_)
    if (k != rules::HostInput::Unknown && !rules::host_row(k).tabulable)
      k = rules::HostInput::Unknown;
  interp_.set_input_provider(&DecisionEnumerator::provide_raw, this);
  scan_axes();
  audit_escape_port();
}

void DecisionEnumerator::set_faults(const FaultSet& faults) {
  faults_ = faults;
  comp_ = components(faults_);
  if (model_.escape_vc >= 0) escape_.rebuild(faults_);
  overlay_ix_.clear();
  overlay_.clear();
  overlay_owned_.clear();
}

void DecisionEnumerator::merge_notes(const DecisionEnumerator& other) {
  for (const std::string& m : other.unmodeled_) note_unmodeled(m);
  excluded_classes_.insert(other.excluded_classes_.begin(),
                           other.excluded_classes_.end());
  if (!other.modeled_) modeled_ = false;
}

PortId DecisionEnumerator::key_port(PortId in_port) const {
  if (model_.escape_vc >= 0) return in_port;
  return in_port < 0 || in_port >= topo_.degree() ? topo_.degree()
                                                  : PortId{0};
}

DecisionEnumerator::DecisionKey DecisionEnumerator::make_key(
    NodeId node, NodeId dest, PortId port, VcId in_vc) const {
  const auto n = static_cast<std::uint64_t>(topo_.num_nodes());
  const PortId degree = topo_.degree();
  FR_REQUIRE(node >= 0 && dest >= 0 && static_cast<std::uint64_t>(node) < n &&
             static_cast<std::uint64_t>(dest) < n);
  FR_REQUIRE(port >= 0 && port <= degree && in_vc >= 0 && in_vc < key_vcs_);
  return ((static_cast<std::uint64_t>(node) * n +
           static_cast<std::uint64_t>(dest)) *
              static_cast<std::uint64_t>(degree + 1) +
          static_cast<std::uint64_t>(port)) *
             static_cast<std::uint64_t>(key_vcs_) +
         static_cast<std::uint64_t>(in_vc);
}

// ---- input model ---------------------------------------------------------

rules::Value DecisionEnumerator::provide_raw(void* self,
                                             std::int32_t input_id,
                                             const rules::Value* idx,
                                             std::size_t /*nidx*/) {
  // The interpreter checked the index count against the declaration.
  return static_cast<DecisionEnumerator*>(self)->provide(input_id, idx);
}

rules::Value DecisionEnumerator::provide(std::int32_t input_id,
                                         const rules::Value* idx) {
  using rules::Value;
  using enum rules::HostInput;
  const PortId degree = topo_.degree();
  const bool on_escape =
      in_vc_ == model_.escape_vc && in_port_ >= 0 && in_port_ < degree;
  const std::int64_t all = (std::int64_t{1} << degree) - 1;
  const rules::HostInput code =
      input_kind_[static_cast<std::size_t>(input_id)];
  switch (code) {
    case Node: return Value::make_int(node_);
    case Dest: return Value::make_int(dest_);
    case InPort: return Value::make_int(in_port_);
    case InVc: return Value::make_int(std::max<VcId>(in_vc_, 0));
    case Injected: return Value::make_bool(in_port_ < 0 || in_port_ >= degree);
    case LinkOk:
    case LinkFault: {
      const auto p = static_cast<PortId>(idx[0].as_int());
      bool ok = false;  // ports off the router read as broken
      if (p >= 0 && p < degree) {
        if (abstract_) {
          ok = ((valuation_ >> p) & 1u) != 0;
        } else {
          ok = faults_.link_usable(node_, p);
          record(CatalogRead::Kind::LinkOk, p, ok ? 1 : 0);
        }
      }
      return Value::make_bool(ok == (code == LinkOk));
    }
    case DestReachable: {
      bool ok;
      if (abstract_) {
        ok = ((valuation_ >> degree) & 1u) != 0;
      } else {
        ok = connected_now(node_, dest_);
        record(CatalogRead::Kind::DestReachable, kInvalidPort, ok ? 1 : 0);
      }
      return Value::make_bool(ok);
    }
    case OnEscape: return Value::make_bool(on_escape);
    case EscapeOk: {
      bool ok;
      if (abstract_) {
        ok = ((valuation_ >> (degree + 1)) & 1u) != 0;
      } else {
        ok = escape_.reachable(node_, dest_);
        record(CatalogRead::Kind::EscapeOk, kInvalidPort, ok ? 1 : 0);
      }
      return Value::make_bool(ok);
    }
    case EscapePort: {
      // The concrete escape next hop is tree-dependent; in abstract mode
      // the audited token stands in for it.
      if (abstract_) return Value::make_int(kAbstractEscapePort);
      const PortId port = escape_next_hop();
      record(CatalogRead::Kind::EscapePort, kInvalidPort, port);
      return Value::make_int(port);
    }
    case XPos: return Value::make_int(mesh_->x_of(node_));
    case YPos: return Value::make_int(mesh_->y_of(node_));
    case XDes: return Value::make_int(mesh_->x_of(dest_));
    case YDes: return Value::make_int(mesh_->y_of(dest_));
    // Hypercube dimension-correction masks (ROUTE_C, [Kon90] convention:
    // ascending sets 0->1 bits, descending clears 1->0 bits).
    case UpMask: return Value::make_int(dest_ & ~node_ & all);
    case DownMask: return Value::make_int(node_ & ~dest_ & all);
    // Per-packet state (not tabulable) and inputs this host does not serve.
    case Src:
    case PathLen:
    case Misrouted:
    case Unknown: break;
  }
  return provide_free(input_id, idx);
}

rules::Value DecisionEnumerator::provide_free(std::int32_t input_id,
                                              const rules::Value* idx) {
  const rules::InputDecl& decl =
      prog_.inputs[static_cast<std::size_t>(input_id)];
  std::int64_t flat = -1;
  if (!decl.index_domains.empty()) {
    flat = 0;
    for (std::size_t i = 0; i < decl.index_domains.size(); ++i) {
      const rules::Domain& d = decl.index_domains[i];
      flat = flat * static_cast<std::int64_t>(d.cardinality()) +
             static_cast<std::int64_t>(d.index_of(idx[i]));
    }
  }
  // A premise touches a handful of free inputs: a linear scan beats a map.
  for (const Unknown& u : unknowns_)
    if (u.input == input_id && u.flat == flat) return u.vals[u.cur];
  Unknown u;
  u.input = input_id;
  u.flat = flat;
  if (decl.domain.cardinality() <= kMaxUnknownCardinality) {
    u.vals = decl.domain.enumerate();
  } else {
    u.vals = {decl.domain.value_at(0)};
    note_unmodeled("free input '" + decl.name +
                   "' has a domain too large to enumerate");
  }
  unknowns_.push_back(std::move(u));
  discovered_ = true;
  return unknowns_.back().vals[0];
}

bool DecisionEnumerator::advance() {
  for (Unknown& u : unknowns_) {
    if (++u.cur < u.vals.size()) return true;
    u.cur = 0;
  }
  return false;
}

void DecisionEnumerator::record(CatalogRead::Kind kind, PortId port,
                                std::int32_t value) {
  const CatalogRead r{kind, port, value};
  if (std::find(reads_.begin(), reads_.end(), r) == reads_.end())
    reads_.push_back(r);
}

// ---- decision enumeration ------------------------------------------------

void DecisionEnumerator::enumerate_base(const rules::RuleBase& rb, bool is_ft,
                                        std::vector<Cand>& out) {
  for (const rules::Rule& r : rb.rules) {
    bool may = false;
    bool must = true;
    std::vector<Cand>& cs = rule_cands_;
    unknowns_.clear();
    // Fixpoint: free inputs are discovered while evaluating, so re-sweep
    // until a full enumeration pass discovers nothing new.
    for (int iter = 0; iter < 8; ++iter) {
      discovered_ = false;
      for (Unknown& u : unknowns_) u.cur = 0;
      may = false;
      must = true;
      cs.clear();
      std::uint64_t combos = 0;
      bool more = true;
      while (more) {
        if (++combos > kMaxCombos) {
          note_unmodeled("free-input space of a premise exceeds the "
                         "enumeration budget");
          must = false;
          break;
        }
        bool fires = false;
        try {
          fires = interp_.eval_expr(env_, r.premise, binds_).as_bool();
        } catch (const std::exception& e) {
          note_unmodeled(std::string("premise not evaluable: ") + e.what());
          must = false;
        }
        if (fires) {
          may = true;
          try {
            collect_cmds(r.conclusion, is_ft, cs);
          } catch (const std::exception& e) {
            note_unmodeled(std::string("conclusion not evaluable: ") +
                           e.what());
          }
        } else {
          must = false;
        }
        more = advance();
      }
      if (!discovered_) break;
    }
    if (may)
      for (const Cand& c : cs) insert_cand(out, c);
    if (may && must) break;  // later rules are unreachable
  }
}

rules::Value DecisionEnumerator::eval(const rules::ExprPtr& e) {
  return interp_.eval_expr(env_, e, binds_);
}

void DecisionEnumerator::collect_cmds(const std::vector<rules::Cmd>& cmds,
                                      bool is_ft, std::vector<Cand>& out) {
  for (const rules::Cmd& c : cmds) collect_cmd(c, is_ft, out);
}

void DecisionEnumerator::collect_cmd(const rules::Cmd& c, bool is_ft,
                                     std::vector<Cand>& out) {
  using CK = rules::Cmd::Kind;
  // The ft companion base expresses its decision as RETURN <direction>
  // whatever the primary style is (NAFTA's in_message_ft).
  const DecisionStyle style =
      is_ft ? DecisionStyle::ReturnPort : model_.style;
  const rules::RuleBase* rb = is_ft ? ft_rb_ : rb_;
  switch (c.kind) {
    case CK::Assign:
      return;  // register writes induce no channel request
    case CK::Return: {
      if (style != DecisionStyle::ReturnPort) return;
      const rules::Value v = eval(c.value);
      const PortId port =
          v.is_sym() ? static_cast<PortId>(rb->returns->sym_rank(v.as_sym()))
                     : static_cast<PortId>(v.as_int());
      add_cand(port, std::max<VcId>(in_vc_, 0), out);
      return;
    }
    case CK::Emit: {
      if (style == DecisionStyle::CandEvents && c.target == "cand" &&
          c.args.size() >= 2) {
        add_cand(static_cast<PortId>(eval(c.args[0]).as_int()),
                 static_cast<VcId>(eval(c.args[1]).as_int()), out);
      } else if (style == DecisionStyle::DirsetMask && c.target == "dirset" &&
                 c.args.size() >= 2) {
        const std::int64_t mask = eval(c.args[0]).as_int();
        const std::int64_t cls = eval(c.args[1]).as_int();
        if (mask == 0 && node_ == dest_) {
          // ROUTE_C's delivery command: both correction masks empty means
          // the header is home.
          delivers_ = true;
          return;
        }
        const auto it = model_.class_vcs.find(cls);
        if (it == model_.class_vcs.end()) {
          excluded_classes_.insert(cls);
          return;
        }
        for (PortId p = 0; p < topo_.degree(); ++p)
          if ((mask >> p) & 1) add_cand(p, it->second, out);
      }
      return;
    }
    case CK::ForAll: {
      const rules::Value dom = eval(c.domain);
      std::vector<rules::Value> vals;
      if (dom.is_set()) {
        vals = dom.as_set().elements();
      } else {
        const std::int64_t n = dom.as_int();
        FR_REQUIRE_MSG(n >= 0 && n <= 64, "FORALL range out of bounds");
        for (std::int64_t i = 0; i < n; ++i)
          vals.push_back(rules::Value::make_int(i));
      }
      for (const rules::Value& v : vals) {
        binds_.emplace_back(c.bound, v);
        collect_cmds(c.body, is_ft, out);
        binds_.pop_back();
      }
      return;
    }
  }
}

void DecisionEnumerator::add_cand(PortId port, VcId vc, std::vector<Cand>& out) {
  if (abstract_ && port == kAbstractEscapePort) {
    insert_cand(out, {port, vc});
    return;
  }
  if (port == topo_.degree()) {
    // Local-port candidate: delivery when the header is at its
    // destination; elsewhere it would leave the network short of it, so it
    // is no candidate (the dead-end check then sees the truth).
    if (node_ == dest_) delivers_ = true;
    return;
  }
  if (port < 0 || port > topo_.degree()) {
    note_unmodeled("rule requests a port outside the router");
    return;
  }
  if (vc < 0 || vc >= model_.num_vcs) {
    note_unmodeled("rule requests a VC outside the model");
    return;
  }
  if (!included_vcs_.count(vc)) return;
  if (abstract_ && model_.escape_vc >= 0 && vc == model_.escape_vc)
    escape_violation_ = true;  // escape-VC cand bypassing the audited token
  insert_cand(out, {port, vc});
}

const EnumeratedDecision& DecisionEnumerator::decide(NodeId node, NodeId dest,
                                                     PortId in_port,
                                                     VcId in_vc) {
  const PortId port = key_port(in_port);
  const DecisionKey key = make_key(node, dest, port, in_vc);
  const bool healthy = faults_.fault_free();
  if (healthy) {
    if (shared_ != nullptr) {
      if (const EnumeratedDecision* base = shared_->find_baseline(key)) {
        ++reused_;
        return *base;
      }
    } else if (const EnumeratedDecision* base = find_baseline(key)) {
      return *base;
    }
  } else {
    if (const std::int32_t slot = overlay_ix_.find(key); slot >= 0)
      return *overlay_[static_cast<std::size_t>(slot)];
    const EnumeratedDecision* base = find_baseline(key);
    if (base == nullptr && shared_ != nullptr)
      base = shared_->find_baseline(key);
    if (base != nullptr && validate(node, dest, port, in_vc, *base)) {
      ++reused_;
      return keep_overlay(key, base);
    }
  }

  // Enumerate afresh under the current fault state.
  node_ = node;
  dest_ = dest;
  in_port_ = in_port;
  in_vc_ = in_vc;
  abstract_ = false;
  delivers_ = false;
  reads_.clear();
  EnumeratedDecision d;
  enumerate_base(*rb_, /*is_ft=*/false, d.cands);
  if (ft_rb_ != nullptr) enumerate_base(*ft_rb_, /*is_ft=*/true, d.ft_cands);
  d.delivers = delivers_;
  d.reads = reads_;
  ++evaluated_;
  if (healthy && shared_ == nullptr) {
    baseline_ix_.insert(key, static_cast<std::int32_t>(baseline_.size()));
    baseline_.push_back(std::move(d));
    return baseline_.back();
  }
  // Faulted, or a shared-baseline miss (shouldn't happen after warmup, but
  // harmless): keep the result locally.
  overlay_owned_.push_back(std::move(d));
  return keep_overlay(key, &overlay_owned_.back());
}

const EnumeratedDecision& DecisionEnumerator::keep_overlay(
    DecisionKey key, const EnumeratedDecision* d) {
  overlay_ix_.insert(key, static_cast<std::int32_t>(overlay_.size()));
  overlay_.push_back(d);
  return *d;
}

const AbstractDecision& DecisionEnumerator::decide_abstract(
    NodeId node, NodeId dest, PortId in_port, VcId in_vc,
    std::uint32_t valuation) {
  // Valuation bits: one per port, then dest_reachable and escape_ok.
  const unsigned val_bits = static_cast<unsigned>(topo_.degree()) + 2;
  FR_REQUIRE(val_bits < 32 && (valuation >> val_bits) == 0);
  const AbstractKey key =
      (make_key(node, dest, key_port(in_port), in_vc) << val_bits) |
      valuation;
  if (const std::int32_t slot = abs_ix_.find(key); slot >= 0)
    return abs_memo_[static_cast<std::size_t>(slot)];
  node_ = node;
  dest_ = dest;
  in_port_ = in_port;
  in_vc_ = in_vc;
  abstract_ = true;
  valuation_ = valuation;
  delivers_ = false;
  escape_violation_ = false;
  AbstractDecision d;
  enumerate_base(*rb_, /*is_ft=*/false, d.cands);
  if (ft_rb_ != nullptr) enumerate_base(*ft_rb_, /*is_ft=*/true, d.ft_cands);
  d.delivers = delivers_;
  // Stickiness: an on-escape header at a foreign node must stay on the
  // escape VC, otherwise escape -> adaptive dependency edges exist and the
  // escape layer cannot be factored out of orbit transport.
  if (model_.escape_vc >= 0 && in_vc == model_.escape_vc && node != dest &&
      in_port >= 0 && in_port < topo_.degree()) {
    for (const Cand& c : d.cands)
      if (c.second != model_.escape_vc) escape_violation_ = true;
  }
  d.escape_violation = escape_violation_;
  abstract_ = false;
  abs_ix_.insert(key, static_cast<std::int32_t>(abs_memo_.size()));
  abs_memo_.push_back(std::move(d));
  return abs_memo_.back();
}

// ---- incremental revalidation --------------------------------------------

PortId DecisionEnumerator::escape_next_hop() const {
  return escape_.escape_hop(node_, dest_, in_port_,
                            in_vc_ == model_.escape_vc && in_port_ >= 0 &&
                                in_port_ < topo_.degree());
}

std::int32_t DecisionEnumerator::recompute(const CatalogRead& r) const {
  switch (r.kind) {
    case CatalogRead::Kind::LinkOk:
      return faults_.link_usable(node_, r.port) ? 1 : 0;
    case CatalogRead::Kind::DestReachable:
      return connected_now(node_, dest_) ? 1 : 0;
    case CatalogRead::Kind::EscapeOk:
      return escape_.reachable(node_, dest_) ? 1 : 0;
    case CatalogRead::Kind::EscapePort:
      return escape_next_hop();
  }
  return 0;
}

bool DecisionEnumerator::validate(NodeId node, NodeId dest, PortId port,
                                  VcId in_vc, const EnumeratedDecision& d) {
  node_ = node;
  dest_ = dest;
  in_port_ = port;
  in_vc_ = in_vc;
  for (const CatalogRead& r : d.reads)
    if (recompute(r) != r.value) return false;
  return true;
}

// ---- model metadata ------------------------------------------------------

void DecisionEnumerator::seed_vcs(NodeId s, NodeId d,
                                  std::vector<VcId>& out) const {
  out.clear();
  switch (model_.injection) {
    case InjectionVcs::Zero:
      out.push_back(0);
      return;
    case InjectionVcs::BySignDy: {
      const int dy = mesh_->y_of(d) - mesh_->y_of(s);
      if (dy >= 0) out.push_back(1);
      if (dy <= 0) out.push_back(0);
      return;
    }
  }
}

void DecisionEnumerator::scan_axes() {
  const auto scan_base = [this](const rules::RuleBase* rb) {
    if (rb == nullptr) return;
    for (const rules::Rule& r : rb->rules) {
      rules::for_each_expr(r, [this](const rules::Expr& e) {
        if (e.kind != rules::Expr::Kind::Ref) return;
        const rules::HostInputRow* in = rules::find_host_input(e.name);
        if (in == nullptr) return;
        switch (in->code) {
          case rules::HostInput::LinkOk:
          case rules::HostInput::LinkFault: axes_.link_bits = true; break;
          case rules::HostInput::DestReachable:
            axes_.dest_reachable = true;
            break;
          case rules::HostInput::EscapeOk: axes_.escape_ok = true; break;
          case rules::HostInput::EscapePort: axes_.escape_port = true; break;
          default: break;
        }
      });
    }
  };
  scan_base(rb_);
  scan_base(ft_rb_);
}

void DecisionEnumerator::audit_escape_port() {
  if (!axes_.escape_port || model_.escape_vc < 0) {
    // Nothing uses the symbol (or there is no escape layer): the token
    // abstraction is vacuously sound.
    escape_port_audited_ = axes_.escape_port ? false : true;
    if (axes_.escape_port)
      note_unmodeled("escape_port referenced without an escape layer");
    return;
  }
  std::size_t total = 0;
  std::size_t allowed = 0;
  bool every_escape_emit_uses_token = true;
  for (const rules::Rule& r : rb_->rules) {
    rules::for_each_expr(r, [&total](const rules::Expr& e) {
      if (e.kind == rules::Expr::Kind::Ref && is_escape_port(e.name)) ++total;
    });
    // Count the sanctioned occurrences: !cand(escape_port, <escape_vc>, …)
    // with the symbol verbatim in the port slot and a literal escape VC.
    const std::function<void(const rules::Cmd&)> visit =
        [&](const rules::Cmd& c) {
          if (c.kind == rules::Cmd::Kind::ForAll) {
            for (const rules::Cmd& b : c.body) visit(b);
            return;
          }
          if (c.kind != rules::Cmd::Kind::Emit || c.target != "cand" ||
              c.args.size() < 2)
            return;
          const bool literal_escape_vc =
              c.args[1]->kind == rules::Expr::Kind::IntLit &&
              c.args[1]->int_val == model_.escape_vc;
          if (is_escape_port_ref(c.args[0])) {
            if (literal_escape_vc)
              ++allowed;
            else
              every_escape_emit_uses_token = false;  // token off escape VC
          } else if (literal_escape_vc) {
            every_escape_emit_uses_token = false;  // escape VC, foreign port
          }
        };
    for (const rules::Cmd& c : r.conclusion) visit(c);
  }
  escape_port_audited_ = total == allowed && every_escape_emit_uses_token;
  if (!escape_port_audited_)
    note_unmodeled(
        "escape_port flows beyond escape-VC cand emits; orbit transport of "
        "escape channels disabled");
}

void DecisionEnumerator::note_unmodeled(const std::string& msg) {
  if (unmodeled_.insert(msg).second) modeled_ = false;
}

}  // namespace flexrouter::ruleanalysis
