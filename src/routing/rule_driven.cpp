#include "routing/rule_driven.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "ruleengine/parser.hpp"
#include "ruleengine/validate.hpp"
#include "topology/graph_algo.hpp"

namespace flexrouter {

using rules::Value;

namespace {

/// The one store rule of every AOT layout: keep `d` in the entry at `flat`
/// if it fits (AotTable::set_entry) and modifies no header (none of the
/// adapter's decisions do today), else mark the point fallback so the VM
/// serves it. True iff stored.
bool store_decision(rules::AotTable& t, std::uint64_t flat,
                    const RouteDecision& d) {
  if (!d.mark_misrouted &&
      t.set_entry(flat, d.steps, d.candidates.begin(), d.candidates.size()))
    return true;
  t.mark_fallback(flat);
  return false;
}

}  // namespace

RuleDrivenRouting::RuleDrivenRouting(std::string program_source, int num_vcs,
                                     rules::ExecMode mode,
                                     std::string route_base, VcId escape_vc)
    : source_(std::move(program_source)),
      route_base_(std::move(route_base)),
      mode_(mode),
      vcs_(num_vcs),
      escape_vc_(escape_vc) {
  FR_REQUIRE(num_vcs >= 1);
  FR_REQUIRE(escape_vc < num_vcs);
}

RuleDrivenRouting::~RuleDrivenRouting() = default;

int RuleDrivenRouting::reconfigure() {
  int exchanges = 0;
  if (escape_vc_ >= 0) exchanges = escape_.rebuild(*faults_);
  comp_ = components(*faults_);
  comp_epoch_ = faults_->epoch();
  // The AOT table is a function of the fault epoch (link_ok,
  // dest_reachable, escape_*): refill it during the same quiescent phase
  // that rebuilds the escape layer. Local recomputation — no exchanges.
  if (img_ != nullptr) fill_aot(*img_);
  refresh_aot_view();
  return exchanges;
}

std::string RuleDrivenRouting::name() const {
  return img_ ? "rule:" + img_->program->name : "rule:<unattached>";
}

std::unique_ptr<RuleDrivenRouting::Image> RuleDrivenRouting::build_image(
    std::string program_source) const {
  FR_REQUIRE(topo_ != nullptr);
  auto im = std::make_unique<Image>();
  im->source = std::move(program_source);
  im->program =
      std::make_unique<rules::Program>(rules::parse_program(im->source));
  rules::require_valid(*im->program);  // reject kind errors before compiling
  const rules::RuleBase* route_rb = im->program->find_rule_base(route_base_);
  FR_REQUIRE_MSG(route_rb != nullptr,
                 "rule program lacks the decision rule base '" + route_base_ +
                     "'");
  im->route_rb = static_cast<int>(route_rb - im->program->rule_bases.data());

  // Resolve every declared input against the host model once. Inputs this
  // host does not serve (escape_* without an escape VC, coordinates off a
  // 2-D mesh, names outside the model) resolve to Unknown and throw,
  // naming the input, when a decision reads them.
  im->input_codes = rules::resolve_host_inputs(
      *im->program, escape_vc_ >= 0, mesh_ != nullptr && mesh_->dims() == 2);

  const bool has_vm =
      mode_ == rules::ExecMode::Vm || mode_ == rules::ExecMode::Aot;
  im->bytecode = has_vm ? rules::compile_bytecode(*im->program) : nullptr;
  im->cand_event_id = im->bytecode ? im->bytecode->event_id("cand") : -1;

  // One DecisionSlot per node, allocated before the machines so the
  // callbacks can capture stable slot pointers. Everything a decision
  // mutates goes through its node's slot — route() calls on distinct
  // nodes (the sharded network step) share nothing mutable.
  im->slots.assign(static_cast<std::size_t>(topo_->num_nodes()),
                   DecisionSlot{});
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    DecisionSlot* slot = &im->slots[static_cast<std::size_t>(n)];
    slot->owner = this;
    slot->program = im->program.get();
    slot->input_codes = im->input_codes.data();
    slot->cand_event_id = im->cand_event_id;
    slot->cand_handler = [slot](const rules::EmittedEvent& ev) {
      const bool is_cand = ev.name_id >= 0
                               ? ev.name_id == slot->cand_event_id
                               : ev.name == "cand";
      if (is_cand) take_candidate(*slot, ev.args.data(), ev.args.size());
    };
    auto em = std::make_unique<rules::EventManager>(
        *im->program, mode_, rules::CompileOptions{}, im->bytecode);
    // The provider reads the node's slot; the active context is installed
    // there per decision.
    em->set_input_provider(&RuleDrivenRouting::input_raw, slot);
    im->machines.push_back(std::move(em));
  }

  // Tabulation (any AOT table tier) is sound only if no reachable rule
  // writes registers and every input read is covered by the premise point +
  // fault epoch.
  const rules::RouteAnalysis analysis =
      rules::analyze_reachable(*im->program, route_base_);
  im->stateless = !analysis.writes_state;
  im->tabulable =
      im->stateless &&
      std::all_of(analysis.inputs_read.begin(), analysis.inputs_read.end(),
                  [](const std::string& name) {
                    const rules::HostInputRow* r = rules::find_host_input(name);
                    return r != nullptr && r->tabulable;
                  });
  // Dest-axis classification (syntactic; fill_aot applies host gates). The
  // verdict rides on the image so rulelint / flexsim can explain the tier.
  im->classify = rules::classify_dest_axis(*im->program, route_base_);
  return im;
}

void RuleDrivenRouting::attach(const Topology& topo, const FaultSet& faults) {
  topo_ = &topo;
  mesh_ = dynamic_cast<const Mesh*>(&topo);
  faults_ = &faults;
  // Flattened coordinates for the offset-sign classifier's hot path (one
  // int16 load per axis instead of a divmod through the Mesh interface).
  coords_x_.clear();
  coords_y_.clear();
  if (mesh_ != nullptr && mesh_->dims() == 2) {
    const NodeId n_nodes = topo.num_nodes();
    coords_x_.resize(static_cast<std::size_t>(n_nodes));
    coords_y_.resize(static_cast<std::size_t>(n_nodes));
    for (NodeId n = 0; n < n_nodes; ++n) {
      coords_x_[static_cast<std::size_t>(n)] =
          static_cast<std::int16_t>(mesh_->x_of(n));
      coords_y_[static_cast<std::size_t>(n)] =
          static_cast<std::int16_t>(mesh_->y_of(n));
    }
  }
  if (escape_vc_ >= 0) escape_.rebuild(faults);
  comp_ = components(faults);
  comp_epoch_ = faults.epoch();
  pending_.reset();
  rolling_ = false;
  node_on_pending_.clear();
  img_ = build_image(source_);
  fill_aot(*img_);
  refresh_aot_view();
}

void RuleDrivenRouting::fill_aot(Image& im) const {
  if (mode_ != rules::ExecMode::Aot || !im.tabulable) {
    // Record why the VM tier stayed — this used to be silent, which made a
    // kept-alive VM indistinguishable from a deliberate one in rulelint
    // --emit-table and flexsim output.
    im.tier = AotTier::Vm;
    if (mode_ != rules::ExecMode::Aot)
      im.tier_reason = "exec mode is not Aot";
    else if (!im.stateless)
      im.tier_reason = "program writes rule state";
    else
      im.tier_reason = "reads inputs outside the premise point";
    return;
  }
  const rules::AotTable::Dims full{
      topo_->num_nodes(), topo_->num_nodes(),
      topo_->degree() + 2,  // in_port in -1 .. degree (degree = injection)
      vcs_ + 1,             // in_vc in -1 .. vcs-1
  };
  im.full_entries = full.entry_count();
  const std::uint64_t epoch = faults_->epoch();
  if (!im.aot.empty() && im.aot_epoch == epoch) return;  // already fresh
  FR_ASSERT_MSG(escape_vc_ < 0 || escape_.built_for_epoch() == epoch,
                "AOT fill needs the escape table rebuilt first");

  // Tier ladder: direct -> compressed -> VM. Only the offset-sign layout
  // keeps first-touch counters (cumulative across its epochs).
  im.aot_epoch = epoch;
  if (rules::AotTable::within_budget(full, aot_budget_)) {
    im.touch.clear();
    fill_direct(im, full);
    im.tier = AotTier::Direct;
    im.classifier_used = rules::DestClassifier::None;
    im.tier_reason = "full premise space (" + std::to_string(im.full_entries) +
                     " entries) fits the budget";
    return;
  }
  if (im.classify.kind != rules::DestClassifier::None) {
    if (fill_compressed(im, full)) {
      im.tier = AotTier::Compressed;
      im.classifier_used = im.classify.kind;
      return;  // fill_compressed recorded the classifier verdict as reason
    }
    // fill_compressed left its demotion reason in tier_reason.
  } else {
    im.tier_reason = im.classify.reason;
  }
  im.tier = AotTier::Vm;
  im.classifier_used = rules::DestClassifier::None;
  im.touch.clear();
  im.tier_reason = "full premise space (" + std::to_string(im.full_entries) +
                   " entries) over budget (" + std::to_string(aot_budget_) +
                   "); " + im.tier_reason;
}

void RuleDrivenRouting::absorb_fill_throw(Image& im, NodeId node,
                                          const std::exception& e) const {
  // A table walk visits premise points no packet can dynamically present —
  // e.g. arrival through a nonexistent boundary link, an escape-VC arrival
  // whose up*/down* phase has no legal move (ContractViolation), or a
  // collapsed-axis value like in_port = -1 outside a declared input domain
  // (EvalError). The engine throws on them exactly as the VM would at
  // runtime; the caller records the point as unreachable and the fallback
  // reproduces the throw should one ever materialize. Anything else is a
  // build bug: rethrow.
  if (dynamic_cast<const ContractViolation*>(&e) == nullptr &&
      dynamic_cast<const rules::EvalError*>(&e) == nullptr)
    throw;  // NOLINT(cert-err60-cpp) — rethrow of the active exception
  DecisionSlot& slot = im.slots[static_cast<std::size_t>(node)];
  slot.ctx = nullptr;
  slot.decision = nullptr;
  slot.scratch.clear();
}

void RuleDrivenRouting::fill_direct(Image& im,
                                    const rules::AotTable::Dims& dims) const {
  // Evaluate the decision once per premise point through the very engine
  // the fallback path uses — the table is bit-identical to the VM by
  // construction.
  im.aot.reset(dims);
  RouteContext ctx;
  ctx.path_len = 0;
  ctx.misrouted = false;
  for (NodeId node = 0; node < dims.nodes; ++node) {
    ctx.node = node;
    ctx.src = node;
    for (NodeId dest = 0; dest < dims.dests; ++dest) {
      ctx.dest = dest;
      for (std::int32_t pa = 0; pa < dims.ports; ++pa) {
        ctx.in_port = pa - 1;
        for (std::int32_t va = 0; va < dims.vcs; ++va) {
          ctx.in_vc = va - 1;
          const std::uint64_t flat = im.aot.flat_index(node, dest, pa, va);
          try {
            store_decision(im.aot, flat, compute_route(im, ctx));
          } catch (const std::exception& e) {
            absorb_fill_throw(im, node, e);
            im.aot.mark_unreachable(flat);
          }
        }
      }
    }
  }
}

bool RuleDrivenRouting::fill_compressed(
    Image& im, const rules::AotTable::Dims& full) const {
  const NodeId n_nodes = topo_->num_nodes();
  if (im.classify.kind == rules::DestClassifier::OffsetSign2D) {
    if (coords_x_.empty()) {
      im.tier_reason = "offset-sign classifier needs a 2-D mesh host";
      return false;
    }
    const rules::AotTable::Dims dims{n_nodes, 9, full.ports, full.vcs};
    if (!rules::AotTable::within_budget(dims, aot_budget_)) {
      im.tier_reason = "compressed table (" +
                       std::to_string(dims.entry_count()) +
                       " entries) still over budget";
      return false;
    }
    // First touch fills it (route_first_touch): no entry is written here,
    // so set-up costs an allocation, not a walk over the premise space.
    im.aot.reset(dims);
    im.touch.resize(static_cast<std::size_t>(n_nodes));
    im.tier_reason = im.classify.reason;
    return true;
  }

  // XorFold: both id axes collapse to one xor-class axis. bit_ceil keeps
  // every node ^ dest in range when the node count is not a power of two.
  // One entry serves every node, so a first-touch write would race across
  // shards: the table is filled here, once, and validated.
  const rules::AotTable::Dims dims{
      1,
      static_cast<std::int32_t>(
          std::bit_ceil(static_cast<std::uint32_t>(n_nodes))),
      full.ports, full.vcs};
  if (!rules::AotTable::within_budget(dims, aot_budget_)) {
    im.tier_reason = "compressed table (" +
                     std::to_string(dims.entry_count()) +
                     " entries) still over budget";
    return false;
  }

  im.aot.reset(dims);
  RouteContext ctx;
  ctx.path_len = 0;
  ctx.misrouted = false;

  for (std::int32_t c = 0; c < dims.dests; ++c) {
    // Any (n, n ^ c) pair is a member of class c; classes with no member
    // under the id bound (non-power-of-two fabrics) are unpresentable.
    NodeId rep = -1;
    for (NodeId n = 0; n < n_nodes; ++n)
      if ((n ^ c) < n_nodes) {
        rep = n;
        break;
      }
    for (std::int32_t pa = 0; pa < dims.ports; ++pa) {
      ctx.in_port = pa - 1;
      for (std::int32_t va = 0; va < dims.vcs; ++va) {
        ctx.in_vc = va - 1;
        const std::uint64_t flat = im.aot.flat_index(0, c, pa, va);
        if (rep < 0) {
          im.aot.mark_unreachable(flat);
          continue;
        }
        ctx.node = rep;
        ctx.src = rep;
        ctx.dest = rep ^ c;
        try {
          store_decision(im.aot, flat, compute_route(im, ctx));
        } catch (const std::exception& e) {
          absorb_fill_throw(im, rep, e);
          im.aot.mark_unreachable(flat);
        }
      }
    }
  }

  // Validate against the VM: the classifier proof says every member of a
  // class row decides like the representative; a proof bug must demote, not
  // mis-route. Only resolved rows need checking — unresolved rows fall back
  // to the VM per decision and are correct by construction. Exhaustive when
  // the uncompressed walk is small (the forced-compression test sizes);
  // sampled member witnesses per row beyond that.
  std::vector<RouteCandidate> dec_cands;
  auto matches = [&](NodeId node, NodeId dest, std::int32_t pa,
                     std::int32_t va) {
    int steps = 0;
    const std::uint64_t flat = im.aot.flat_index(0, node ^ dest, pa, va);
    if (!im.aot.decode(flat, steps, dec_cands)) return true;
    ctx.node = node;
    ctx.src = node;
    ctx.dest = dest;
    ctx.in_port = pa - 1;
    ctx.in_vc = va - 1;
    try {
      const RouteDecision d = compute_route(im, ctx);
      return d.steps == steps && !d.mark_misrouted &&
             std::equal(d.candidates.begin(), d.candidates.end(),
                        dec_cands.begin(), dec_cands.end());
    } catch (const std::exception& e) {
      absorb_fill_throw(im, node, e);
      return false;  // a member throws where the row stored a decision
    }
  };
  auto validate = [&]() {
    const bool exhaustive = full.entry_count() <= kAotMaxEntries;
    for (std::int32_t c = 0; c < dims.dests; ++c) {
      // Every member of the class row, or (sampled) its first two, each at
      // every (pa, va).
      int picked = 0;
      for (NodeId n = 0; n < n_nodes && (exhaustive || picked < 2); ++n) {
        if ((n ^ c) >= n_nodes) continue;
        ++picked;
        for (std::int32_t pa = 0; pa < dims.ports; ++pa)
          for (std::int32_t va = 0; va < dims.vcs; ++va)
            if (!matches(n, n ^ c, pa, va)) return false;
      }
    }
    return true;
  };
  if (!validate()) {
    im.aot.clear();
    im.tier_reason = "compressed layout failed VM validation (" +
                     std::string(rules::to_string(im.classify.kind)) +
                     "); demoted";
    return false;
  }
  im.tier_reason = im.classify.reason;
  return true;
}

void RuleDrivenRouting::route_first_touch(const RouteContext& ctx,
                                          RouteDecision& d,
                                          std::uint64_t flat) const {
  Image& im = *img_;
  TouchCounters& tc = im.touch[static_cast<std::size_t>(ctx.node)];
  const bool first = aot_view_.entries[flat].count == 0;
  // Throws (premise points the engine rejects) propagate unrecorded —
  // identical to what the VM tier does for the same context.
  d = compute_route(im, ctx);
  if (first) {
    // The read-set gate: a decision that read a dest-bound input holds
    // for this dest only, not for its whole sign class. A store writes
    // only this node's entry (race-free, allocation-free).
    const DecisionSlot& slot = im.slots[static_cast<std::size_t>(ctx.node)];
    if ((slot.reads & rules::kDestBoundReads) != 0) {
      im.aot.mark_dest_bound(flat);
    } else if (store_decision(im.aot, flat, d)) {
      ++tc.fills;
      return;
    }
  }
  ++tc.vm_served;
}

void RuleDrivenRouting::touch_every_sign_class() {
  FR_REQUIRE_MSG(aot_view_.touch != nullptr,
                 "touch_every_sign_class() needs the first-touch table");
  Image& im = *img_;
  const rules::AotTable::Dims& dims = im.aot.dims();
  // Marks only entries nothing recorded yet, so a second walk is a no-op.
  auto mark_unreachable = [&](std::uint64_t flat) {
    const rules::AotEntry& e = im.aot.entries_raw()[flat];
    if (e.steps == 0 && e.count == 0) im.aot.mark_unreachable(flat);
  };
  RouteContext ctx;
  ctx.path_len = 0;
  ctx.misrouted = false;
  for (NodeId node = 0; node < dims.nodes; ++node) {
    const int x = coords_x_[static_cast<std::size_t>(node)];
    const int y = coords_y_[static_cast<std::size_t>(node)];
    ctx.node = node;
    ctx.src = node;
    for (std::int32_t cls = 0; cls < dims.dests; ++cls) {
      // The representative is the nearest dest with the class's offset
      // signs — the index route() derives: cls = (sy+1)*3 + (sx+1).
      const int dx = x + cls % 3 - 1;
      const int dy = y + cls / 3 - 1;
      const bool on_mesh =
          dx >= 0 && dx < mesh_->radix(0) && dy >= 0 && dy < mesh_->radix(1);
      if (on_mesh) ctx.dest = mesh_->at(dx, dy);
      for (std::int32_t pa = 0; pa < dims.ports; ++pa) {
        ctx.in_port = pa - 1;
        for (std::int32_t va = 0; va < dims.vcs; ++va) {
          ctx.in_vc = va - 1;
          const std::uint64_t flat = im.aot.flat_index(node, cls, pa, va);
          if (!on_mesh) {
            mark_unreachable(flat);  // no dest has these signs
            continue;
          }
          try {
            (void)route(ctx);
          } catch (const std::exception& e) {
            absorb_fill_throw(im, node, e);
            mark_unreachable(flat);
          }
        }
      }
    }
  }
}

void RuleDrivenRouting::refresh_aot_view() const {
  aot_view_ = AotView{};
  // During a rolling commit the network runs a mix of two programs; the
  // tables are image-global, so every decision goes through the fallback
  // path until finish_rolling_commit() restores the view.
  if (img_ == nullptr || rolling_) return;
  Image& im = *img_;
  if (!im.aot.empty()) {
    const rules::AotTable& t = im.aot;
    aot_view_.entries = t.entries_raw();
    aot_view_.nodes = t.dims().nodes;
    aot_view_.dests = t.dims().dests;
    aot_view_.ports = t.dims().ports;
    aot_view_.vcs = t.dims().vcs;
    aot_view_.node_stride = t.node_stride();
    aot_view_.dest_stride = t.dest_stride();
    aot_view_.epoch = im.aot_epoch;
    aot_view_.classifier = im.classifier_used;
    aot_view_.id_bound = topo_->num_nodes();
    aot_view_.xs = coords_x_.empty() ? nullptr : coords_x_.data();
    aot_view_.ys = coords_y_.empty() ? nullptr : coords_y_.data();
    aot_view_.touch = im.touch.empty() ? nullptr : im.touch.data();
  }
}

void RuleDrivenRouting::prepare_swap(std::string program_source) {
  FR_REQUIRE_MSG(img_ != nullptr, "prepare_swap() before attach()");
  // Build the whole pending image off the critical path. Any failure —
  // parse error, missing rule base, unresolvable input — throws here and
  // leaves the active image serving traffic. (Premise points the engine
  // throws on during the AOT fill are recorded as unreachable, not errors:
  // the exhaustive walk visits combinations real traffic cannot present.)
  std::unique_ptr<Image> im = build_image(std::move(program_source));
  fill_aot(*im);
  pending_ = std::move(im);
}

void RuleDrivenRouting::commit_swap() {
  FR_REQUIRE_MSG(pending_ != nullptr, "commit_swap() without prepare_swap()");
  // A fault epoch may have slipped in between prepare and commit; refill
  // so the installed table is fresh (no-op when it already is).
  fill_aot(*pending_);
  source_ = pending_->source;
  img_ = std::move(pending_);
  refresh_aot_view();
}

void RuleDrivenRouting::begin_rolling_commit() {
  FR_REQUIRE_MSG(pending_ != nullptr,
                 "begin_rolling_commit() without prepare_swap()");
  FR_REQUIRE_MSG(!rolling_, "rolling commit already active");
  rolling_ = true;
  node_on_pending_.assign(static_cast<std::size_t>(topo_->num_nodes()), 0);
  refresh_aot_view();  // drops the tables for the mixed-network window
}

void RuleDrivenRouting::commit_swap_node(NodeId n) {
  FR_REQUIRE_MSG(rolling_, "commit_swap_node() outside a rolling commit");
  FR_REQUIRE(topo_ != nullptr && topo_->valid_node(n));
  node_on_pending_[static_cast<std::size_t>(n)] = 1;
}

void RuleDrivenRouting::finish_rolling_commit() {
  FR_REQUIRE_MSG(rolling_, "finish_rolling_commit() outside a rolling commit");
  rolling_ = false;
  node_on_pending_.clear();
  // commit_swap() refills for any epoch that slipped mid-roll, installs
  // the pending image wholesale and restores the table view.
  commit_swap();
}

rules::EventManager& RuleDrivenRouting::machine(NodeId n) const {
  FR_REQUIRE(topo_ != nullptr && topo_->valid_node(n));
  // Handing out a machine lets the caller mutate rule state behind the
  // table's back (the table path deliberately carries no per-decision
  // check). Drop the table conservatively: decisions fall back to the bare
  // VM until the next fill (reconfigure or swap) rebuilds it.
  if (img_ != nullptr && !img_->aot.empty()) {
    img_->aot.clear();
    refresh_aot_view();
  }
  return *img_->machines[static_cast<std::size_t>(n)];
}

rules::AotTable::Stats RuleDrivenRouting::aot_stats() const {
  return img_ != nullptr ? img_->aot.stats() : rules::AotTable::Stats{};
}

RuleDrivenRouting::AotTierInfo RuleDrivenRouting::aot_tier_info() const {
  AotTierInfo info;
  if (img_ == nullptr) {
    info.reason = "not attached";
    return info;
  }
  const Image& im = *img_;
  info.tier = im.tier;
  info.classifier = im.classifier_used;
  info.reason = im.tier_reason;
  info.full_entries = im.full_entries;
  if (im.tier != AotTier::Vm) info.table_entries = im.aot.dims().entry_count();
  for (const TouchCounters& tc : im.touch) {
    info.lazy_hits += tc.hits;
    info.lazy_misses += tc.fills;
    info.lazy_uncacheable += tc.vm_served;
  }
  if (info.table_entries > 0)
    info.compression_ratio = static_cast<double>(info.full_entries) /
                             static_cast<double>(info.table_entries);
  return info;
}

Value RuleDrivenRouting::input_by_code(DecisionSlot& slot,
                                       std::int32_t input_id,
                                       const Value* idx) const {
  const RouteContext& ctx = *slot.ctx;
  const rules::HostInput code =
      slot.input_codes[static_cast<std::size_t>(input_id)];
  slot.reads |= 1u << static_cast<unsigned>(code);
  using enum rules::HostInput;
  switch (code) {
    case Node: return Value::make_int(ctx.node);
    case Dest: return Value::make_int(ctx.dest);
    case Src: return Value::make_int(ctx.src);
    case InPort: return Value::make_int(ctx.in_port);
    case InVc: return Value::make_int(std::max<VcId>(ctx.in_vc, 0));
    case Injected:
      return Value::make_bool(ctx.in_port < 0 ||
                              ctx.in_port >= topo_->degree());
    case PathLen: return Value::make_int(ctx.path_len);
    case Misrouted: return Value::make_bool(ctx.misrouted);
    case LinkOk:
    case LinkFault: {
      // Resolution admitted exactly one index: the direction. Ports off the
      // router read as broken.
      const auto p = static_cast<PortId>(idx[0].as_int());
      const bool ok = p >= 0 && p < topo_->degree() &&
                      faults_->link_usable(ctx.node, p);
      return Value::make_bool(ok == (code == LinkOk));
    }
    case DestReachable:
      return Value::make_bool(dest_reachable(ctx.node, ctx.dest));
    case OnEscape:
      return Value::make_bool(ctx.in_vc == escape_vc_ && ctx.in_port >= 0 &&
                              ctx.in_port < topo_->degree());
    case EscapeOk:
      return Value::make_bool(escape_.reachable(ctx.node, ctx.dest));
    case EscapePort:
      return Value::make_int(escape_.escape_hop(
          ctx.node, ctx.dest, ctx.in_port,
          ctx.in_vc == escape_vc_ && ctx.in_port >= 0 &&
              ctx.in_port < topo_->degree()));
    case XPos: return Value::make_int(mesh_->x_of(ctx.node));
    case YPos: return Value::make_int(mesh_->y_of(ctx.node));
    case XDes: return Value::make_int(mesh_->x_of(ctx.dest));
    case YDes: return Value::make_int(mesh_->y_of(ctx.dest));
    // Hypercube dimension-correction masks ([Kon90]: ascending sets 0->1
    // bits, descending clears 1->0 bits).
    case UpMask:
    case DownMask: {
      const NodeId all = (NodeId{1} << topo_->degree()) - 1;
      return Value::make_int(code == UpMask ? ctx.dest & ~ctx.node & all
                                            : ctx.node & ~ctx.dest & all);
    }
    case Unknown: break;
  }
  FR_REQUIRE_MSG(false,
                 "rule program input '" +
                     slot.program->inputs[static_cast<std::size_t>(input_id)]
                         .name +
                     "' is not in the host catalog");
  return Value::make_int(0);
}

bool RuleDrivenRouting::dest_reachable(NodeId node, NodeId dest) const {
  FR_REQUIRE_MSG(comp_epoch_ == faults_->epoch(),
                 "stale component ids: reconfigure() missed an epoch");
  if (node == dest) return faults_->node_ok(node);
  const int c = comp_[static_cast<std::size_t>(node)];
  return c >= 0 && c == comp_[static_cast<std::size_t>(dest)];
}

Value RuleDrivenRouting::input_raw(void* ctx, std::int32_t input_id,
                                   const Value* idx, std::size_t /*nidx*/) {
  auto* slot = static_cast<DecisionSlot*>(ctx);
  FR_REQUIRE_MSG(slot->ctx != nullptr,
                 "rule program read an input outside a decision");
  return slot->owner->input_by_code(*slot, input_id, idx);
}

void RuleDrivenRouting::event_sink(void* ctx, std::int32_t name_id,
                                   std::int32_t target_rb, const Value* args,
                                   std::size_t nargs) {
  auto* slot = static_cast<DecisionSlot*>(ctx);
  if (target_rb >= 0) {
    // Rule-bound event: queue for the cascade loop in compute_route. The
    // args must outlive this call, so they are the one copy on this path.
    rules::EmittedEvent& ev = slot->scratch.emplace_back();
    ev.name_id = name_id;
    ev.target_rb = target_rb;
    ev.args.assign(args, args + nargs);
    return;
  }
  // Host-bound events other than !cand are dropped by this adapter (state
  // propagation to neighbours etc. is exercised through the machines).
  if (name_id == slot->cand_event_id) take_candidate(*slot, args, nargs);
}

void RuleDrivenRouting::take_candidate(DecisionSlot& slot, const Value* args,
                                       std::size_t nargs) {
  FR_REQUIRE_MSG(nargs == 3, "!cand needs (port, vc, priority)");
  FR_REQUIRE_MSG(slot.decision != nullptr,
                 "rule program emitted !cand outside a decision");
  slot.owner->add_candidate(*slot.decision,
                            static_cast<PortId>(args[0].as_int()),
                            static_cast<VcId>(args[1].as_int()),
                            static_cast<int>(args[2].as_int()));
}

void RuleDrivenRouting::add_candidate(RouteDecision& d, PortId port, VcId vc,
                                      int prio) const {
  FR_REQUIRE_MSG(port >= 0 && port <= topo_->degree(),
                 "rule program produced an invalid port");
  FR_REQUIRE_MSG(vc >= 0 && vc < vcs_,
                 "rule program produced an invalid VC");
  d.candidates.push_back({port, vc, prio});
}

RouteDecision RuleDrivenRouting::compute_route(Image& im,
                                               const RouteContext& ctx) const {
  FR_REQUIRE(topo_ != nullptr && topo_->valid_node(ctx.node));
  rules::EventManager& em = *im.machines[static_cast<std::size_t>(ctx.node)];
  DecisionSlot& slot = im.slots[static_cast<std::size_t>(ctx.node)];
  slot.ctx = &ctx;
  slot.reads = 0;

  RouteDecision d;
  slot.decision = &d;

  int steps;
  std::optional<rules::Value> returned;
  if (mode_ == rules::ExecMode::Vm || mode_ == rules::ExecMode::Aot) {
    // Direct VM path: fire the decision rule base and run the event cascade
    // inline — no queue, no handler reinstall, no name dispatch. Events
    // bound to a rule base re-fire (and count as steps, exactly like
    // drain()); host-bound events go through the candidate adapter.
    rules::Vm& vm = *em.vm();
    if (!em.queue_empty()) em.drain();  // host-posted backlog first
    // Host-bound events feed the candidate adapter straight from the
    // register file (event_sink, zero materialization); rule-bound events
    // are queued and re-fired below. Handler order equals drain()'s FIFO:
    // fires happen in the same order either way, and within one fire the
    // sink sees emissions in program order.
    std::vector<rules::EmittedEvent>& work = slot.scratch;
    work.clear();
    void* const sink_ctx = &slot;
    returned = vm.fire_fast(im.route_rb, {}, &RuleDrivenRouting::event_sink,
                            sink_ctx);
    steps = 1;
    for (std::size_t next = 0; next < work.size(); ++next) {
      const int rb = work[next].target_rb;
      const std::vector<rules::Value> args = std::move(work[next].args);
      vm.fire_fast(rb, args, &RuleDrivenRouting::event_sink, sink_ctx);
      ++steps;
    }
    work.clear();
  } else {
    // Reinstall per decision: tests may have swapped the machine's handler
    // (last installed wins), and the slot's copy fits std::function's small
    // buffer — no allocation on this path.
    em.set_host_handler(slot.cand_handler);
    const auto interpretations_before = em.total_interpretations();
    const rules::FireResult r = em.fire(im.route_rb, {});
    em.drain();
    steps = static_cast<int>(em.total_interpretations() -
                             interpretations_before);
    returned = r.returned;
  }

  const std::optional<rules::Value>& r_returned = returned;
  if (r_returned) {
    PortId port;
    if (r_returned->is_int()) {
      port = static_cast<PortId>(r_returned->as_int());
    } else {
      const rules::RuleBase& rb =
          im.program->rule_bases[static_cast<std::size_t>(im.route_rb)];
      FR_REQUIRE_MSG(rb.returns.has_value(),
                     "symbolic RETURN without a RETURNS domain");
      port = static_cast<PortId>(rb.returns->index_of(*r_returned));
    }
    // A RETURNed port means "any VC of that port".
    if (port == topo_->degree()) {
      add_candidate(d, port, 0, 0);
    } else {
      for (VcId v = 0; v < vcs_; ++v) add_candidate(d, port, v, 0);
    }
  }

  d.steps = steps;
  slot.ctx = nullptr;
  slot.decision = nullptr;
  return d;
}

/// Decisions no table tier served, kept out of route() and filling the
/// caller's object in place: route()'s table hit keeps NRVO (a second named
/// return object in the same function would defeat it).
void RuleDrivenRouting::route_fallback(const RouteContext& ctx,
                                       RouteDecision& d) const {
  FR_REQUIRE_MSG(img_ != nullptr, "route() before attach()");
  FR_REQUIRE_MSG(escape_vc_ < 0 ||
                     escape_.built_for_epoch() == faults_->epoch(),
                 "stale escape table: reconfigure() missed an epoch");
  // Rolling commit window: nodes already flipped decide with the pending
  // program, the rest with the active one.
  Image& im =
      rolling_ && node_on_pending_[static_cast<std::size_t>(ctx.node)] != 0
          ? *pending_
          : *img_;
  d = compute_route(im, ctx);
}

}  // namespace flexrouter
