#include "ruleanalysis/deadlock.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

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

std::optional<DeadlockModel> model_for(const rules::Program& prog) {
  DeadlockModel m;
  if (prog.name == "nara_rules") {
    m.route_base = "route";
    m.style = DecisionStyle::CandEvents;
    m.num_vcs = 2;
    return m;
  }
  if (prog.name == "ecube_rules") {
    m.route_base = "route";
    m.style = DecisionStyle::CandEvents;
    m.num_vcs = 1;
    return m;
  }
  if (prog.name == "ft_mesh_rules") {
    m.route_base = "route";
    m.style = DecisionStyle::CandEvents;
    m.num_vcs = 3;
    m.escape_vc = 2;
    // The escape layer reroutes around any fault pattern that leaves the
    // mesh connected; two arbitrary faults never cut more than a corner
    // off a >=4x4 mesh, so the program claims 2-fault tolerance.
    m.fault_tolerance = 2;
    return m;
  }
  if (prog.name == "nafta" || prog.name == "nara") {
    m.route_base = "incoming_message";
    m.style = DecisionStyle::ReturnPort;
    m.injection = InjectionVcs::BySignDy;
    m.num_vcs = 2;
    if (prog.name == "nafta") {
      // NAFTA switches to the fault-tolerant decision base when a minimal
      // output is broken (paper Table 1 row 2); NARA has no such base and
      // claims nothing.
      m.ft_route_base = "in_message_ft";
      m.fault_tolerance = 1;
    }
    return m;
  }
  if (prog.name == "route_c" || prog.name == "route_c_nft") {
    m.route_base = "decide_dir";
    m.style = DecisionStyle::DirsetMask;
    m.num_vcs = 2;
    m.class_vcs = {{0, 0}, {1, 1}};
    return m;
  }
  return std::nullopt;
}

}  // namespace flexrouter::ruleanalysis
