#include "ruleanalysis/deadlock.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"

namespace flexrouter::ruleanalysis {

std::string describe_faults(const std::vector<LinkRef>& links,
                            const std::vector<NodeId>& nodes) {
  if (links.empty() && nodes.empty()) return "no faults";
  std::ostringstream os;
  os << "faults={";
  bool first = true;
  for (const LinkRef& l : links) {
    if (!first) os << ", ";
    os << "link " << l.node << ":" << l.port;
    first = false;
  }
  for (const NodeId n : nodes) {
    if (!first) os << ", ";
    os << "node " << n;
    first = false;
  }
  os << "}";
  return os.str();
}

std::string describe_faults(const FaultSet& faults) {
  return describe_faults(faults.faulty_links(), faults.faulty_nodes());
}

std::string format_cycle_witness(const std::vector<Channel>& cycle,
                                 const FaultSet& faults) {
  std::ostringstream wit;
  const std::size_t shown =
      std::min<std::size_t>(cycle.size(), kMaxWitnessChannels);
  for (std::size_t i = 0; i < shown; ++i)
    wit << "(" << cycle[i].node << ":" << cycle[i].port << "/" << cycle[i].vc
        << ") -> ";
  if (cycle.size() > shown)
    wit << "... +" << (cycle.size() - shown) << " more -> ";
  if (!cycle.empty())
    wit << "(" << cycle.front().node << ":" << cycle.front().port << "/"
        << cycle.front().vc << ")";
  if (!faults.fault_free()) wit << " under " << describe_faults(faults);
  return wit.str();
}

namespace {

std::int64_t int_constant(const rules::Program& prog, const std::string& name,
                          std::int64_t fallback) {
  const auto it = prog.constants.find(name);
  if (it == prog.constants.end() || !it->second.is_int()) return fallback;
  return it->second.as_int();
}

/// True when `cmds` emit `!event(...)`, FORALL bodies included.
bool emits(const std::vector<rules::Cmd>& cmds, const std::string& event) {
  for (const rules::Cmd& c : cmds)
    if ((c.kind == rules::Cmd::Kind::Emit && c.target == event) ||
        emits(c.body, event))
      return true;
  return false;
}

const rules::RuleBase* first_emitting(const rules::Program& prog,
                                      const std::string& event) {
  for (const rules::RuleBase& rb : prog.rule_bases)
    for (const rules::Rule& r : rb.rules)
      if (emits(r.conclusion, event)) return &rb;
  return nullptr;
}

}  // namespace

std::unique_ptr<Topology> topology_of(const rules::Program& prog) {
  if (prog.constants.count("width") && prog.constants.count("height")) {
    const auto w = static_cast<int>(int_constant(prog, "width", 0));
    const auto h = static_cast<int>(int_constant(prog, "height", 0));
    if (w >= 2 && h >= 2) return std::make_unique<Mesh>(Mesh::two_d(w, h));
  }
  if (prog.constants.count("dim")) {
    const auto d = static_cast<int>(int_constant(prog, "dim", 0));
    if (d >= 1 && d <= 16) return std::make_unique<Hypercube>(d);
  }
  return nullptr;
}

std::optional<DeadlockModel> model_for(const rules::Program& prog) {
  DeadlockModel m;
  // The decision style is what the routing conclusions say: !cand events,
  // a direction RETURNed from a symbol domain, or !dirset masks.
  std::vector<const rules::RuleBase*> returns_dir;
  for (const rules::RuleBase& rb : prog.rule_bases)
    if (rb.returns && rb.returns->kind() == rules::Domain::Kind::Symbols)
      returns_dir.push_back(&rb);
  if (const rules::RuleBase* cand = first_emitting(prog, "cand")) {
    m.style = DecisionStyle::CandEvents;
    m.route_base = cand->name;
  } else if (!returns_dir.empty()) {
    m.style = DecisionStyle::ReturnPort;
    m.route_base = returns_dir[0]->name;
    // A second direction-returning base is the fault-mode companion
    // (NAFTA's in_message_ft beside incoming_message).
    if (returns_dir.size() > 1) m.ft_route_base = returns_dir[1]->name;
  } else if (const rules::RuleBase* dirset = first_emitting(prog, "dirset")) {
    m.style = DecisionStyle::DirsetMask;
    m.route_base = dirset->name;
  } else {
    return std::nullopt;
  }
  // The VC count: the in_vc domain, else the `vcs` constant, else one.
  const rules::InputDecl* in_vc = prog.find_input("in_vc");
  m.num_vcs = in_vc != nullptr && in_vc->index_domains.empty()
                  ? static_cast<int>(in_vc->domain.cardinality())
                  : static_cast<int>(int_constant(prog, "vcs", 1));
  // ROUTE_C's classes map to the VC of the same number; higher classes
  // (escape, misroute, delivery) are excluded and reported.
  if (m.style == DecisionStyle::DirsetMask)
    for (int vc = 0; vc < m.num_vcs; ++vc) m.class_vcs[vc] = vc;
  // What the conclusions cannot show, the program declares.
  m.escape_vc = static_cast<int>(int_constant(prog, "escape_vc", -1));
  m.fault_tolerance =
      static_cast<int>(int_constant(prog, "fault_tolerance", 0));
  if (int_constant(prog, "inject_by_sign_dy", 0) != 0)
    m.injection = InjectionVcs::BySignDy;
  return m;
}

}  // namespace flexrouter::ruleanalysis
