#include "topology/fault_model.hpp"

#include <algorithm>

namespace flexrouter {

FaultSet::FaultSet(const Topology& topo)
    : topo_(&topo),
      node_faulty_(static_cast<std::size_t>(topo.num_nodes()), 0) {
  rebuild_usable();
}

void FaultSet::rebuild_usable() {
  const auto degree = static_cast<std::size_t>(topo_->degree());
  usable_.assign(static_cast<std::size_t>(topo_->num_nodes()) * degree, 0);
  for (NodeId n = 0; n < topo_->num_nodes(); ++n) {
    if (node_faulty_[static_cast<std::size_t>(n)]) continue;
    for (PortId p = 0; p < topo_->degree(); ++p) {
      const NodeId other = topo_->neighbor(n, p);
      if (other == kInvalidNode) continue;
      if (node_faulty_[static_cast<std::size_t>(other)]) continue;
      if (faulty_links_.count(canonical(n, p)) > 0) continue;
      usable_[static_cast<std::size_t>(n) * degree +
              static_cast<std::size_t>(p)] = 1;
    }
  }
}

LinkRef FaultSet::canonical(NodeId node, PortId port) const {
  FR_REQUIRE(topo_->valid_node(node));
  FR_REQUIRE(topo_->valid_port(port));
  const NodeId other = topo_->neighbor(node, port);
  FR_REQUIRE_MSG(other != kInvalidNode, "fault on unconnected port");
  if (node < other) return {node, port};
  return {other, topo_->reverse_port(node, port)};
}

void FaultSet::fail_link(NodeId node, PortId port) {
  if (faulty_links_.insert(canonical(node, port)).second) {
    ++epoch_;
    rebuild_usable();
  }
}

void FaultSet::fail_node(NodeId node) {
  FR_REQUIRE(topo_->valid_node(node));
  if (!node_faulty_[static_cast<std::size_t>(node)]) {
    node_faulty_[static_cast<std::size_t>(node)] = 1;
    ++num_node_faults_;
    ++epoch_;
    rebuild_usable();
  }
}

void FaultSet::repair_link(NodeId node, PortId port) {
  if (faulty_links_.erase(canonical(node, port)) > 0) {
    ++epoch_;
    rebuild_usable();
  }
}

void FaultSet::repair_node(NodeId node) {
  FR_REQUIRE(topo_->valid_node(node));
  if (node_faulty_[static_cast<std::size_t>(node)]) {
    node_faulty_[static_cast<std::size_t>(node)] = 0;
    --num_node_faults_;
    ++epoch_;
    rebuild_usable();
  }
}

void FaultSet::degrade_link(NodeId node, PortId port, int factor) {
  FR_REQUIRE_MSG(factor >= 1, "degradation factor must be >= 1");
  // No epoch bump, no usable_ rebuild: a degraded link is still usable, so
  // cached routing decisions stay valid and no reconfiguration is needed.
  if (factor == 1) {
    degraded_links_.erase(canonical(node, port));
  } else {
    degraded_links_[canonical(node, port)] = factor;
  }
}

int FaultSet::link_degrade_factor(NodeId node, PortId port) const {
  const auto it = degraded_links_.find(canonical(node, port));
  return it == degraded_links_.end() ? 1 : it->second;
}

std::vector<std::pair<LinkRef, int>> FaultSet::degraded_links() const {
  return {degraded_links_.begin(), degraded_links_.end()};
}

bool FaultSet::node_faulty(NodeId node) const {
  FR_REQUIRE(topo_->valid_node(node));
  return node_faulty_[static_cast<std::size_t>(node)] != 0;
}

bool FaultSet::link_marked_faulty(NodeId node, PortId port) const {
  FR_REQUIRE(topo_->valid_node(node));
  FR_REQUIRE(topo_->valid_port(port));
  if (topo_->neighbor(node, port) == kInvalidNode) return false;
  return faulty_links_.count(canonical(node, port)) > 0;
}

std::vector<PortId> FaultSet::usable_ports(NodeId node) const {
  std::vector<PortId> out;
  for (PortId p = 0; p < topo_->degree(); ++p)
    if (link_usable(node, p)) out.push_back(p);
  return out;
}

int FaultSet::usable_degree(NodeId node) const {
  int d = 0;
  for (PortId p = 0; p < topo_->degree(); ++p)
    if (link_usable(node, p)) ++d;
  return d;
}

std::vector<LinkRef> FaultSet::faulty_links() const {
  return {faulty_links_.begin(), faulty_links_.end()};
}

std::vector<NodeId> FaultSet::faulty_nodes() const {
  std::vector<NodeId> out;
  for (NodeId n = 0; n < topo_->num_nodes(); ++n)
    if (node_faulty_[static_cast<std::size_t>(n)]) out.push_back(n);
  return out;
}

}  // namespace flexrouter
